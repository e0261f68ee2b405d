"""Fast self-test of the benchmark harness at a tiny configuration.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics the harness prints;
that a traced and an untraced run of a tiny workload print every metric by
name with its unit; that the reference check flags a perturbed datapoint,
a PASS -> FAIL flip, a missing and an unparsable report, and a crashed
CLI; and that CLI exit code 1 alone (a suite whose reference verdict is
FAIL) is not counted as a failure.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import layers
import make_reference
import run

TINY = ["report-all", "--dim", "1", "--levels", "4", "--t-points", "2"]


def check(cond: bool, what: str):
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.METRICS,
          "BENCHMARK.json per_layer matches layers.METRICS")
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS")
    return bench


def check_reference_rules(tmp: str):
    out_dir = tempfile.mkdtemp(dir=tmp)
    inv = run.launch("run", [*TINY, "--out", out_dir], tmp, 60.0)
    check(inv["side"]["exit"] == 1, "tiny config exits 1 (some suite FAILs)")
    suites = make_reference.collect(out_dir)
    reference = {"suites": suites}
    reasons = run.check_invocation(out_dir, inv, reference, True)
    check(not any(reasons.values()), "exit code 1 with reference verdicts is no failure")

    passing = next(sid for sid, r in suites.items() if r["pass"] and r["datapoints"])
    failing = next(sid for sid, r in suites.items() if not r["pass"])
    path = os.path.join(out_dir, f"{passing}.json")
    with open(path, encoding="utf-8") as fh:
        original = json.load(fh)

    def variant(edit) -> str:
        rep = json.loads(json.dumps(original))
        edit(rep)
        alt = os.path.join(tmp, "variant.json")
        with open(alt, "w", encoding="utf-8") as fh:
            json.dump(rep, fh)
        return alt

    def bump(rep):
        point = max(rep["datapoints"], key=lambda p: abs(p["value"]))
        point["value"] = point["value"] * (1 + 1e-5) + 1e-11

    def flip(rep):
        rep["pass"] = False

    ref = suites[passing]
    why = run.check_report(variant(bump), ref, True)
    check(why is not None and why.startswith("datapoint"), f"perturbed datapoint flagged ({why})")
    check(run.check_report(variant(bump), ref, False) is None,
          "perturbed datapoint not compared at seeds other than 0")
    why = run.check_report(variant(flip), ref, False)
    check(why == "verdict PASS -> FAIL", f"PASS -> FAIL flagged at any seed ({why})")
    fail_ref = {**suites[failing], "pass": False}
    with open(os.path.join(out_dir, f"{failing}.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    rep["pass"] = True
    alt = os.path.join(tmp, "fail-to-pass.json")
    with open(alt, "w", encoding="utf-8") as fh:
        json.dump(rep, fh)
    check(run.check_report(alt, fail_ref, True) is None, "FAIL -> PASS is not a failure")
    check(run.check_report(os.path.join(tmp, "absent.json"), ref, True) == "no report",
          "missing report flagged")
    with open(alt, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    check(run.check_report(alt, ref, True) == "unparsable report", "unparsable report flagged")
    crashed = {"side": {"error": "Traceback ...", "exit": None}}
    reasons = run.check_invocation(tempfile.mkdtemp(dir=tmp), crashed, reference, True)
    check(all(r and r.startswith("CLI did not finish") for r in reasons.values()),
          "a crashed CLI fails every suite")
    return suites


def check_printed_metrics(tmp: str, suites: dict, bench: dict):
    ref_dir = os.path.join(tmp, "reference")
    os.makedirs(ref_dir)
    with open(os.path.join(ref_dir, "tiny.json"), "w", encoding="utf-8") as fh:
        json.dump({"suites": suites}, fh)
    run.REFERENCE_DIR = ref_dir
    run.WORKLOADS["tiny"] = (TINY, 16.0)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", "tiny", "--seed", "0", "--seconds", "1",
                             "--trace", str(trace)])
        lines = buf.getvalue().splitlines()
        result = json.loads(lines[-1])
        check(code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
              f"trace {trace}: result line has the four keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= len(suites),
              f"trace {trace}: no failures on the reference config")
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == wanted, f"trace {trace}: every {key} metric in the result with its unit")
        text = "\n".join(lines[:-1])
        missing = [n for n, u in wanted.items()
                   if not any(line.split()[:1] == [n] and f" {u}  " in line for line in lines)]
        check(not missing, f"trace {trace}: every metric printed by name with unit {missing}")
        check("env {" in text and "failed_frac" in text,
              f"trace {trace}: environment and failed_frac printed")
        if trace:
            m = {n: v["value"] for n, v in result["metrics"].items()}
            ran = [f"verify.suite_s.{sid}" for sid in suites]
            check(all(m[n] > 0 for n in ran), "traced run times every suite")
            check(all(m[n] > 0 for n in (
                "funcalc.matrix_function.calls", "funcalc.eigh.calls", "verify.eigh.calls",
                "oscillator.oscillator_rep.calls", "oscillator.multiplication_operator.calls",
                "graded.graded_tensor.calls", "graded.graded_commutator.calls",
                "clifford.calls", "verify.windowed_norm.calls")),
                "traced run sees calls made through from-imports in every layer")


def main() -> int:
    bench = check_benchmark_json()
    os.makedirs(run.TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.TMP_PARENT)
    try:
        suites = check_reference_rules(tmp)
        check_printed_metrics(tmp, suites, bench)
    finally:
        shutil.rmtree(tmp)
        with contextlib.suppress(OSError):
            os.rmdir(run.TMP_PARENT)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
