"""The benchmark's reference check, run in-process at seed 0, and its traced run.

``perfbench/reference/<workload>.json`` holds the verdict and the datapoints
of every suite of one benchmark workload.  Running its ``argv`` through the
CLI (which sets BLAS to one thread) must give no verdict worse than the
reference and every datapoint within ``1e-6 |ref| + 1e-12``, as the
benchmark requires, so drift in the last digits shows here first.  The
traced run (``perfbench/child.py ... trace``) wraps functions and methods of
the package by name, which no other run reads.  Nothing under ``perfbench/``
is written.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from bottlab import cli
from bottlab.verify import SUITES

ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERENCES = sorted((ROOT / "perfbench" / "reference").glob("*.json"))


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= 1e-6 * abs(ref) + 1e-12


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.stem)
def test_reports_match_the_benchmark_reference(path, tmp_path, capsys):
    ref = json.loads(path.read_text(encoding="utf-8"))
    assert cli.main([*ref["argv"], "--format", "json", "--out", str(tmp_path)]) in (0, 1)
    for sid, want in sorted(ref["suites"].items()):
        got = json.loads((tmp_path / f"{sid}.json").read_text(encoding="utf-8"))
        assert got["pass"] or not want["pass"], f"{sid}: verdict PASS -> FAIL"
        points = [(p["t"], p["value"]) for p in got["datapoints"]]
        assert len(points) == len(want["datapoints"]), sid
        for (t, v), (rt, rv) in zip(points, want["datapoints"]):
            assert _close(t, rt) and _close(v, rv), f"{sid}: ({t!r}, {v!r}) vs reference ({rt!r}, {rv!r})"


def test_the_traced_benchmark_run_completes(tmp_path):
    # the tracer reads, by attribute, every public function of the package and three GradedMatrix
    # methods; one that is gone makes the traced child record an error instead of running the CLI
    sidecar, out = tmp_path / "sidecar.json", tmp_path / "reports"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(sidecar), "trace", "report-all",
                           "--dim", "1", "--levels", "4", "--t-points", "2", "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(sidecar.read_text(encoding="utf-8"))
    assert run["error"] is None, run["error"]
    assert run["exit"] in (0, 1) and run["spans"]
    assert {p.name for p in out.iterdir()} >= {f"{sid}.{ext}" for sid in SUITES for ext in ("json", "csv")}
