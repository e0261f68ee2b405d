"""One traced invocation of any CLI configuration, with per-layer metrics.

Usage (from the repository root):

    python3 perfbench/profile_config.py report-all --dim 3 --levels 8

Runs under the benchmark's thread settings and prints every per-layer
metric plus each suite's share of the summed suite time.  It is not a
workload: it has no reference check and no repeats.  NOTES.md records its
output for the ROADMAP target (3,8).
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys
import tempfile

import layers
import run


def main(cli_args) -> int:
    os.makedirs(run.TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.TMP_PARENT)
    out_dir = os.path.join(tmp, "out")
    try:
        inv = run.launch("trace", [*cli_args, "--out", out_dir], tmp, 3600.0)
        verdicts = [run.verdict(os.path.join(out_dir, name))
                    for name in os.listdir(out_dir) if name != "manifest.json"
                    and name.endswith(".json")] if os.path.isdir(out_dir) else []
    finally:
        shutil.rmtree(tmp)
        with contextlib.suppress(OSError):
            os.rmdir(run.TMP_PARENT)
    side = inv["side"]
    if side.get("error") or side.get("exit") not in (0, 1):
        print(f"error: CLI did not finish: {side.get('error') or side.get('exit')}", file=sys.stderr)
        return 1
    m = layers.layer_metrics(
        side["spans"], int(run.THREAD_ENV["BOTTLAB_THREADS"]), verdicts.count(False))
    print(f"bottlab {' '.join(cli_args)}: wall {inv['wall_s']:.2f} s, cpu {inv['cpu_s']:.2f} s, "
          f"peak rss {inv['peak_rss_mb']:.0f} MB, exit {side['exit']}, threads {run.THREAD_ENV}")
    for name, unit, _ in layers.METRICS:
        if name in m:
            print(f"  {name:<42} {m[name]:.6g} {unit}")
    total = sum(m[f"verify.suite_s.{sid}"] for sid in layers.SUITE_IDS)
    print(f"suite time {total:.2f} s; shares:")
    for sid in sorted(layers.SUITE_IDS, key=lambda s: -m[f"verify.suite_s.{s}"]):
        print(f"  {sid:<22} {m[f'verify.suite_s.{sid}'] / total:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
