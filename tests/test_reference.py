"""The benchmark's reference check, run in-process at seed 0.

``perfbench/reference/<workload>.json`` holds the verdict and the datapoints
of every suite of one benchmark workload.  Running its ``argv`` through the
CLI (which sets BLAS to one thread) must give no verdict worse than the
reference and every datapoint within ``1e-6 |ref| + 1e-12``, as the
benchmark requires, so drift in the last digits shows here first.  Nothing
under ``perfbench/`` is written.
"""

import json
import pathlib

import pytest

from bottlab import cli

REFERENCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference").glob("*.json"))


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
