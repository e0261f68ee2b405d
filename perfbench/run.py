"""bottlab benchmark: time to a checked report set, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI invocation is one fresh process (``child.py``) that imports
``bottlab.cli`` from ``src/`` and calls ``main(argv)``; invocations run one
after another (closed loop) until the next one would end after ``S``
seconds, and at least once.  Children run with one BLAS thread and two
suite threads (``BOTTLAB_THREADS=2``): on a 2-CPU machine that is both the
fastest setting and the one that exercises the suite pool.

With ``--trace 0`` the result holds the end-to-end metrics, as medians over
the run's invocations.  With ``--trace 1`` untraced and traced invocations
alternate, and the result holds the per-layer metrics of ``layers.py``
(medians over the traced invocations) plus the tracing overhead.

Every report is checked against ``reference/<workload>.json``, written at
seed 0 by the code the benchmark was defined on (see ``make_reference.py``).  A suite fails when it
raises or writes no parsable report, when its verdict is worse than the
reference verdict, or (seed 0 only) when a datapoint moved by more than
1e-6 relative above the 1e-12 noise floor.  Exit code 1 of the CLI is a
verdict, not a failure.  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BOTTLAB_THREADS": "2",
}

# name -> (CLI arguments without --t-max, nominal --t-max)
WORKLOADS = {
    "report-n1k12": (["report-all", "--dim", "1", "--levels", "12"], 16.0),
    "report-n3k6": (["report-all", "--dim", "3", "--levels", "6"], 16.0),
    "commutators-n2k16": (
        ["commutators", "--dim", "2", "--levels", "16", "--t-points", "17"], 32.0),
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
]

SETUP_LAUNCHES = 5      # import-only launches per untraced run, for setup_s
CHILD_TIMEOUT_S = 170.0  # a run ends within 180 s even if a child hangs
REL_TOL = 1e-6
NOISE_FLOOR = 1e-12


def workload_argv(base: list, t_max: float, seed: int) -> list:
    """Seed 0 runs the nominal grid; other seeds draw --t-max within +-10 %."""
    if seed != 0:
        t_max *= 1.0 + random.Random(seed).uniform(-0.1, 0.1)
    return [*base, "--t-max", repr(t_max)]


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    return env


def launch(mode: str, cli_args: list, tmp: str, timeout: float) -> dict:
    """Run child.py once; wall time, rusage and the sidecar it wrote."""
    fd, sidecar = tempfile.mkstemp(suffix=".json", dir=tmp)
    os.close(fd)
    with open(os.path.join(tmp, "stderr.txt"), "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, sidecar, mode, *cli_args],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            env=child_env(), cwd=ROOT,
        )
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(sidecar, encoding="utf-8") as fh:
            side = json.load(fh)
    except (OSError, ValueError):
        with open(os.path.join(tmp, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
            side = {"ready": None, "exit": None, "error": fh.read()[-2000:] or "no sidecar"}
    os.remove(sidecar)
    return {
        "wall_s": t1 - t0,
        "setup_s": None if side.get("ready") is None else side["ready"] - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "side": side,
    }


# ---------------------------------------------------------------------------
# reference check


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b) + NOISE_FLOOR


def check_report(path: str, ref: dict, compare_values: bool) -> str | None:
    """Why the suite failed against its reference entry, or None."""
    try:
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
        passed = rep["pass"]
        points = [(float(p["t"]), float(p["value"])) for p in rep["datapoints"]]
    except OSError:
        return "no report"
    except (ValueError, KeyError, TypeError):
        return "unparsable report"
    if ref["pass"] and not passed:
        return "verdict PASS -> FAIL"
    if not compare_values:
        return None
    if len(points) != len(ref["datapoints"]):
        return f"{len(points)} datapoints, reference has {len(ref['datapoints'])}"
    for i, ((t, v), (rt, rv)) in enumerate(zip(points, ref["datapoints"])):
        if not (_close(t, rt) and _close(v, rv)):
            return f"datapoint {i}: ({t!r}, {v!r}) vs reference ({rt!r}, {rv!r})"
    return None


def verdict(path: str) -> bool | None:
    """The report's pass flag, or None when there is no parsable report."""
    try:
        with open(path, encoding="utf-8") as fh:
            return bool(json.load(fh)["pass"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def check_invocation(out_dir: str, inv: dict, reference: dict, compare_values: bool) -> dict:
    """Suite id -> failure reason (None when the suite did not fail)."""
    side = inv["side"]
    crashed = side.get("error") or side.get("exit") not in (0, 1)
    reasons = {}
    for sid, ref in reference["suites"].items():
        reason = check_report(os.path.join(out_dir, f"{sid}.json"), ref, compare_values)
        if reason == "no report" and crashed:
            reason = f"CLI did not finish: {side.get('error') or side.get('exit')}"
        reasons[sid] = reason
    return reasons


# ---------------------------------------------------------------------------
# environment


def environment(versions: dict, seed: int) -> dict:
    caches = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in lscpu.splitlines():
            key, _, val = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                caches[key.strip().split()[0]] = val.strip()
    except (OSError, subprocess.SubprocessError):
        caches = {"L2": "unknown", "L3": "unknown"}
    return {
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        **caches,
        "threads": THREAD_ENV,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one benchmark run


def _quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g}"


class Run:
    """One benchmark run: closed-loop invocations of one workload, each checked."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tmp: str):
        base, t_max = WORKLOADS[workload]
        self.argv = workload_argv(base, t_max, seed)
        self.reference = load_reference(workload)
        self.compare_values = seed == 0
        self.seconds, self.trace, self.tmp = seconds, trace, tmp
        self.start = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self.versions: dict = {}

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def remaining(self) -> float:
        return CHILD_TIMEOUT_S - self.elapsed()

    def invoke(self, mode: str) -> dict:
        out_dir = tempfile.mkdtemp(dir=self.tmp)
        inv = launch(mode, [*self.argv, "--out", out_dir], self.tmp, self.remaining())
        reasons = check_invocation(out_dir, inv, self.reference, self.compare_values)
        self.attempted += len(reasons)
        self.failures += [f"{sid}: {r}" for sid, r in sorted(reasons.items()) if r]
        inv["suites_failing"] = sum(
            1 for sid in reasons if verdict(os.path.join(out_dir, f"{sid}.json")) is False)
        shutil.rmtree(out_dir)
        return inv

    def measure(self) -> tuple[dict, dict]:
        """Returns (metrics, per-metric sample lists)."""
        warm = launch("env", [], self.tmp, self.remaining())
        self.versions = warm["side"].get("versions", {})
        if self.trace:
            return self._measure_traced()
        setups = []
        for _ in range(SETUP_LAUNCHES):
            setups.append(launch("setup", [], self.tmp, self.remaining())["setup_s"])
        invs = []
        while True:
            invs.append(self.invoke("run"))
            per = statistics.median(i["wall_s"] for i in invs)
            if self.elapsed() + per > self.seconds:
                break
        samples = {name: [i[name] for i in invs] for name, _ in END_TO_END}
        samples["setup_s"] = [s for s in setups + samples["setup_s"] if s is not None]
        metrics = {name: statistics.median(samples[name]) if samples[name] else math.nan
                   for name, _ in END_TO_END}
        return metrics, samples

    def _measure_traced(self) -> tuple[dict, dict]:
        import layers

        walls, traced_walls, per_layer = [], [], []
        while True:
            walls.append(self.invoke("run")["wall_s"])
            inv = self.invoke("trace")
            traced_walls.append(inv["wall_s"])
            spans = inv["side"].get("spans")
            if spans and not inv["side"].get("error"):
                per_layer.append(layers.layer_metrics(
                    spans, int(THREAD_ENV["BOTTLAB_THREADS"]), inv["suites_failing"]))
            pair = statistics.median(walls) + statistics.median(traced_walls)
            if self.elapsed() + pair > self.seconds:
                break
        samples = {name: [m[name] for m in per_layer] for name, _, _ in layers.METRICS
                   if name != "trace.overhead_frac"}
        samples["trace.overhead_frac"] = [
            statistics.median(traced_walls) / statistics.median(walls) - 1.0]
        metrics = {name: statistics.median(v) if v else math.nan for name, v in samples.items()}
        return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bottlab", "cli.py")):
        print(f"error: bottlab sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(TMP_PARENT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
        metrics, samples = run.measure()
    try:
        os.rmdir(TMP_PARENT)
    except OSError:
        pass

    if args.trace:
        import layers
        units = {name: unit for name, unit, _ in layers.METRICS}
    else:
        units = dict(END_TO_END)
    if any(math.isnan(v) for v in metrics.values()):
        print("error: no invocation produced measurements", file=sys.stderr)
        for line in run.failures[:20]:
            print(f"  {line}", file=sys.stderr)
        return 1

    failed = len(run.failures)
    print(f"workload {args.workload} seed {args.seed}: bottlab {' '.join(run.argv)} "
          f"(closed loop, one invocation at a time, {args.seconds:g} s)")
    print("env " + json.dumps(environment(run.versions, args.seed), sort_keys=True))
    width = max(len(n) for n in units)
    for name, unit in units.items():
        print(f"  {name:<{width}}  {metrics[name]:.6g} {unit}  ({_quartiles(samples[name])})")
    print(f"  {'failed_frac':<{width}}  {failed / max(run.attempted, 1):.6g} ratio  "
          f"({failed} of {run.attempted} suites)")
    for line in run.failures:
        print(f"  FAILED {line}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
