"""Write ``reference/<workload>.json`` from the code in ``src/`` at seed 0.

Usage (from the repository root): python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only on code whose reports are trusted: the benchmark counts any
later deviation from these files as a failure.  Every FAIL verdict of the
reference must have a reason in KNOWN_FAILURES, so a suite that already
fails is recorded as such rather than silently accepted.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile

import run

KNOWN_FAILURES = {
    "composition-gamma": (
        "fails at every n >= 2: the matched-node multiplication identity is a 1-D fact "
        "(the simplex truncation is not a tensor product of 1-D truncations) and the "
        "SVD vs power-iteration cross-check deviates ~1e-5 against a 1e-8 gate"),
    "mehler": (
        "fails at every K = 6: the observation window is too shallow for the 1e-3 "
        "tolerance (s=0.5 residual 1.8e-3 at (1,6), 2.8e-3 at (3,6)); passes at (3,8)"),
}


def collect(out_dir: str) -> dict:
    """Suite id -> {"pass", "datapoints"} for every suite in the run's manifest."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        suite_ids = sorted(json.load(fh)["suites"])
    suites = {}
    for sid in suite_ids:
        with open(os.path.join(out_dir, f"{sid}.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
        suites[sid] = {
            "pass": rep["pass"],
            "datapoints": [[p["t"], p["value"]] for p in rep["datapoints"]],
        }
    return suites


def reference_for(workload: str, tmp: str) -> dict:
    """Run the workload once at seed 0 and collect its reports."""
    base, t_max = run.WORKLOADS[workload]
    cli_args = run.workload_argv(base, t_max, 0)
    out_dir = tempfile.mkdtemp(dir=tmp)
    side = run.launch("run", [*cli_args, "--out", out_dir], tmp, run.CHILD_TIMEOUT_S)["side"]
    if side.get("error") or side.get("exit") not in (0, 1):
        raise RuntimeError(f"{workload}: CLI did not finish: {side.get('error') or side.get('exit')}")
    suites = collect(out_dir)
    failing = {sid: KNOWN_FAILURES.get(sid) for sid, r in suites.items() if not r["pass"]}
    unexplained = sorted(sid for sid, why in failing.items() if why is None)
    if unexplained:
        raise RuntimeError(f"{workload}: FAIL verdicts without a known reason: {unexplained}")
    return {"workload": workload, "argv": cli_args, "known_failures": failing, "suites": suites}


def dumps(ref: dict) -> str:
    """Indented JSON with every innermost list (a datapoint, the argv) on one line."""
    text = json.dumps(ref, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


def main(argv) -> int:
    workloads = argv or sorted(run.WORKLOADS)
    os.makedirs(run.TMP_PARENT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TMP_PARENT) as tmp:
        for workload in workloads:
            ref = reference_for(workload, tmp)
            path = os.path.join(run.REFERENCE_DIR, f"{workload}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dumps(ref))
            print(f"{path}: {len(ref['suites'])} suites, failing {sorted(ref['known_failures'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
