"""Tests for the command-line interface.

Everything runs in-process through cli.main so exit codes and stdout are
observable. One subprocess test runs the ``bottlab`` entry point declared in
``pyproject.toml`` the way an installed console script does; a second, which
runs the ``bottlab`` executable found on PATH, needs the package installed.
"""

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import importlib.metadata
import io
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bottlab import cli, oscillator, verify
from bottlab.oscillator import context_bytes, hermite_rows
from bottlab.verify import MAX_QUADRATURE_LEVEL, MEMORY_BUDGET, SweepConfig, run_suite


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, **kw):
    return cli.main(list(args), **kw)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_spectrum_subcommand_passes(tmp_path, capsys):
    code = run_cli(["spectrum", "--levels", "8", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out
    assert (tmp_path / "spectrum.json").exists()
    assert (tmp_path / "spectrum.csv").exists()
    assert (tmp_path / "manifest.json").exists()


def test_invalid_dim_exits_2(tmp_path, capsys):
    code = run_cli(["spectrum", "--dim", "0", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: dim must be >= 1" in err
    assert not (tmp_path / "spectrum.json").exists()


@pytest.mark.parametrize("args,fragment", [
    (["spectrum", "--levels", "3"], "levels must be >= 4"),
    (["spectrum", "--t-min", "0.5"], "t-min must be >= 1"),
    (["spectrum", "--t-min", "4", "--t-max", "2"], "t-max must exceed t-min"),
    (["spectrum", "--t-points", "1"], "t-points must be >= 2"),
    (["report-all", "--suite", "nonsense"], "unknown suite ids"),
    (["commutators", "--t-max", "nan"], "t_grid values must be finite"),
    (["spectrum", "--t-min", "nan"], "t_grid values must be finite"),
    (["spectrum", "--t-max", "inf"], "t_grid values must be finite"),
    (["spectrum", "--t-min", "inf"], "t_grid values must be finite"),
    # above the Clifford table limit, the suites could not build the algebra
    (["spectrum", "--dim", "11", "--levels", "4"], "dim must be <= 10"),
    # t^-2 underflows to 0, which s1s2-asymptotics would pass on as a time s > 0
    (["mehler", "--t-max", "1e200"], "t_grid values must keep t^-2 > 0"),
    # np.geomspace overflows computing an endpoint this close to the largest double
    (["mehler", "--t-max", "1.7976931348622103e308"], "t_grid values must keep t^-2 > 0"),
    # the default Gauss-Hermite weights overflow above the quadrature cap
    (["spectrum", "--levels", "178"], "levels 178 needs 372 Gauss-Hermite nodes"),
])
def test_config_errors_exit_2(args, fragment, tmp_path, capsys):
    # pytest would hold back a warning from stderr, so record warnings as well
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(args + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {fragment}" in err
    assert "Traceback" not in err
    assert "Warning" not in err
    assert not caught, [str(w.message) for w in caught]


def test_a_config_over_the_memory_budget_exits_2_before_allocating(tmp_path, capsys):
    # the guard computes from binomials: (10,4) would need 2^10 blocks of 1001^2, 70 GiB,
    # and is refused at once, with the estimate
    tracemalloc.start()
    try:
        code = run_cli(["report-all", "--dim", "10", "--levels", "4", "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert "error: dim 10, levels 4 needs 70,453 MiB of operators" in err
    assert "no level fits" in err
    assert peak < 1 << 20, peak
    assert not (tmp_path / "out").exists()


def test_the_memory_budget_admits_the_largest_level_it_names():
    # (4,9) needs 9 * 8 bytes * 16 labels * 715^2 = 562 MiB and is accepted; (4,10) needs
    # 1,101 MiB of the 1,024 MiB budget and is refused, naming 9 as the largest level at dim 4
    assert context_bytes(4, 9) <= MEMORY_BUDGET < context_bytes(4, 10)
    assert SweepConfig(dim=4, level=9).level == 9
    with pytest.raises(ValueError, match="needs 1,101 MiB .* the largest level that fits at dim 4 is 9$"):
        SweepConfig(dim=4, level=10)


def test_the_quadrature_cap_is_the_largest_level_with_a_finite_gram():
    # at the cap, the default 2K + 16 Gauss-Hermite nodes integrate the Hermite rows to the identity
    # to rounding; one level above, hermgauss's weights overflow to NaN, and the config refuses that
    # level, naming the cap, before any context is built
    def gram(level):
        with np.errstate(all="ignore"):
            x, w = np.polynomial.hermite.hermgauss(2 * level + 16)
            rows = hermite_rows(level, x)
            return (rows * w) @ rows.T

    at_cap = gram(MAX_QUADRATURE_LEVEL)
    assert np.isfinite(at_cap).all()
    assert np.abs(at_cap - np.eye(MAX_QUADRATURE_LEVEL + 1)).max() < 1e-13
    assert not np.isfinite(gram(MAX_QUADRATURE_LEVEL + 1)).all()
    built = oscillator._context.cache_info().misses
    assert SweepConfig(level=MAX_QUADRATURE_LEVEL).level == MAX_QUADRATURE_LEVEL
    with pytest.raises(ValueError, match=f"the largest level that works is {MAX_QUADRATURE_LEVEL}$"):
        SweepConfig(level=MAX_QUADRATURE_LEVEL + 1)
    assert oscillator._context.cache_info().misses == built


def _bad_config():
    """CLI arguments with one bad setting among good ones: a value out of range, one that
    argparse cannot parse, or a (dim, levels) pair over the memory budget."""
    floats = st.floats(allow_nan=False, allow_infinity=False)
    junk = st.sampled_from(["x", "", "1.5e", "--"])
    bad = st.one_of(
        st.tuples(st.just("--dim"), st.integers(max_value=0) | st.integers(11, 10**9) | junk),
        st.tuples(st.just("--levels"), st.integers(max_value=3) | st.integers(MAX_QUADRATURE_LEVEL + 1, 10**9)
                  | junk),
        st.tuples(st.just("--t-min"), st.floats(max_value=1.0, exclude_max=True) | junk),
        st.tuples(st.just("--t-max"), st.floats(min_value=1e163) | st.just(math.nan) | junk),  # t^-2 is 0 or NaN
        st.tuples(st.just("--t-points"), st.integers(max_value=1) | junk),
        st.tuples(st.just("--t-max"), floats.filter(lambda t: t <= 1.0)),  # not above the default t-min
    )
    over_budget = st.tuples(st.integers(4, 10), st.integers(30, MAX_QUADRATURE_LEVEL)).map(
        lambda dl: ["--dim", str(dl[0]), "--levels", str(dl[1])])
    return st.tuples(st.sampled_from(sorted(cli.SUBCOMMANDS)),
                     bad.map(lambda kv: [kv[0], str(kv[1])]) | over_budget)


@given(_bad_config())
@settings(max_examples=150, deadline=None)
def test_a_bad_config_exits_2_with_one_error_line_and_runs_nothing(case):
    command, args = case
    ran, err = [], io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
            warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        mp.setattr(cli, "run_suite", lambda *a: ran.append(a))
        out = os.path.join(tmp, "out")
        try:
            code = run_cli([command, *args, "--out", out])
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
        made = os.path.exists(out)
    lines = err.getvalue().splitlines()
    assert code == 2, (args, lines)
    assert sum("error:" in line for line in lines) == 1, lines
    assert "Traceback" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert ran == [] and not made


def test_out_naming_a_file_exits_2_before_any_suite_runs(tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("")
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda *args: ran.append(args))
    code = run_cli(["spectrum", "--out", str(taken)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert ran == []


def test_default_grid_is_the_library_default():
    args = cli.build_parser().parse_args(["report-all"])
    assert cli._config_from_args(args).t_grid == SweepConfig().t_grid


def test_failing_suite_exits_1_and_still_writes_its_reports(tmp_path, capsys, monkeypatch):
    # the forked suite worker inherits the patched registry
    passing = verify.SUITES["dirac-commutator"]
    monkeypatch.setitem(verify.SUITES, "dirac-commutator",
                        lambda cfg: dataclasses.replace(passing(cfg), passed=False))
    code = run_cli(["commutators", "--levels", "8", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: FAIL" in out
    assert json.loads((tmp_path / "dirac-commutator.json").read_text())["pass"] is False
    assert json.loads((tmp_path / "cd-commutator.json").read_text())["pass"] is True


def test_tol_flag_is_refused(tmp_path, capsys):
    # every gate reads the one bound its suite declares
    with pytest.raises(SystemExit) as exc:
        run_cli(["report-all", "--tol", "1e-3", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_readme_common_flags_are_the_subcommand_options():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Common flags:", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", paragraph))
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = [{o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for p in subparsers.choices.values()]
    common = set.intersection(*options)
    assert named == common
    # report-all's own --suite is shown in the examples above the paragraph
    assert set.union(*options) - common == {"--suite"}
    assert "report-all --suite" in readme


# ---------------------------------------------------------------------------
# report contents
# ---------------------------------------------------------------------------

def test_json_report_schema(tmp_path, capsys):
    assert run_cli(["spectrum", "--levels", "8", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "spectrum.json").read_text())
    assert set(doc) == {"schema", "suite", "params", "datapoints",
                        "fit", "pass", "tol", "notes"}
    assert doc["schema"] == "v1"
    assert doc["pass"] is True
    assert doc["params"]["dim"] == 1 and doc["params"]["levels"] == 8
    assert all(set(p) == {"t", "value"} for p in doc["datapoints"])


def test_csv_row_counts(tmp_path, capsys):
    # 9 grid points per curve: 2 generators x 3 symbols for the first
    # suite, 3 generator pairs for the second (the pair (v, u) is the
    # pair (u, v) under the Fourier gauge)
    assert run_cli(["commutators", "--levels", "8", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    dirac = (tmp_path / "dirac-commutator.csv").read_text().splitlines()
    cd = (tmp_path / "cd-commutator.csv").read_text().splitlines()
    assert dirac[0] == "suite,curve,t,value"
    assert len(dirac) == 1 + 9 * 6
    assert len(cd) == 1 + 9 * 3


def test_format_flag_selects_outputs(tmp_path, capsys):
    assert run_cli(["spectrum", "--levels", "8", "--format", "json",
                    "--out", str(tmp_path / "j")]) == 0
    assert run_cli(["spectrum", "--levels", "8", "--format", "csv",
                    "--out", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    assert (tmp_path / "j" / "spectrum.json").exists()
    assert not (tmp_path / "j" / "spectrum.csv").exists()
    assert (tmp_path / "c" / "spectrum.csv").exists()
    assert not (tmp_path / "c" / "spectrum.json").exists()


def test_manifest_records_run(tmp_path, capsys):
    assert run_cli(["report-all", "--suite", "spectrum", "--suite", "clifford-iso",
                    "--levels", "8", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["command"] == "report-all"
    assert man["tool"].startswith("bottlab ")
    assert set(man["suites"]) == {"spectrum", "clifford-iso"}
    assert re.search(r"^overall: PASS \(2 suites, reports in ", out, re.M)
    for sid, paths in man["outputs"].items():
        for path in paths.values():
            with open(path) as fh:
                assert fh.read(1)


TWO_CPUS = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
needs_two_cpus = pytest.mark.skipif(not TWO_CPUS, reason="the CLI forks a suite worker only with two CPUs")
FOUR_SUITES = ["report-all", "--suite", "spectrum", "--suite", "clifford-iso", "--suite", "mehler",
               "--suite", "homotopy-projection", "--levels", "8", "--t-points", "3"]


def _wait_for(path: Path, timeout: float = 30.0):
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} did not appear"
        time.sleep(0.005)


def _splitting_run_suite(tmp_path: Path, raise_in: str | None = None):
    """A run_suite that logs each (process, pid, suite, CPU set) and makes each process run at
    least one suite: the worker marks that it has started one, and the calling process waits for
    the mark before its first.  ``raise_in`` names the process, "caller" or "worker", whose suites raise; when it is
    the caller, the worker's suites sleep for a minute, so only a kill ends them early."""
    caller, mark, log = os.getpid(), tmp_path / "worker-started", tmp_path / "suites.log"

    def fake(sid, cfg):
        who = "caller" if os.getpid() == caller else "worker"
        with open(log, "a") as fh:
            fh.write(f"{who} {os.getpid()} {sid} {','.join(map(str, sorted(os.sched_getaffinity(0))))}\n")
        if who == "worker":
            mark.touch()
        else:
            _wait_for(mark)
        if raise_in == who:
            raise ValueError(f"suite {sid} failed in the {who}")
        if raise_in == "caller":
            time.sleep(60.0)
        return run_suite(sid, cfg)

    return fake, log


@needs_two_cpus
def test_the_suites_split_over_the_caller_and_one_worker(tmp_path, capsys, monkeypatch):
    # each process runs on a CPU of its own, and the caller gets its CPU set back
    fake, log = _splitting_run_suite(tmp_path)
    monkeypatch.setattr(cli, "run_suite", fake)
    cpus = os.sched_getaffinity(0)
    assert run_cli([*FOUR_SUITES, "--out", str(tmp_path / "out")]) in (0, 1)
    capsys.readouterr()
    assert os.sched_getaffinity(0) == cpus
    runs = [line.split() for line in log.read_text().splitlines()]
    assert sorted(sid for _, _, sid, _ in runs) == ["clifford-iso", "homotopy-projection", "mehler", "spectrum"]
    assert {who for who, _, _, _ in runs} == {"caller", "worker"}
    assert {int(pid) for who, pid, _, _ in runs if who == "caller"} == {os.getpid()}
    assert len({pid for _, pid, _, _ in runs}) == 2
    held = {who: {int(cpu) for w, _, _, cpu in runs if w == who} for who in ("caller", "worker")}
    assert all(len(c) == 1 and c <= cpus for c in held.values()) and held["caller"] != held["worker"]
    assert len(json.loads((tmp_path / "out" / "manifest.json").read_text())["suites"]) == 4
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_two_cpus
def test_a_suite_that_raises_in_the_worker_raises_in_the_caller(tmp_path, capsys, monkeypatch):
    fake, _ = _splitting_run_suite(tmp_path, raise_in="worker")
    monkeypatch.setattr(cli, "run_suite", fake)
    with pytest.raises(ValueError, match="failed in the worker") as exc:
        run_cli([*FOUR_SUITES, "--out", str(tmp_path / "out")])
    if sys.version_info >= (3, 11):
        assert any("raised in the suite worker" in note for note in exc.value.__notes__)
    assert "overall:" not in capsys.readouterr().out
    assert not (tmp_path / "out" / "manifest.json").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_two_cpus
def test_a_suite_that_raises_in_the_caller_ends_the_worker(tmp_path, capsys, monkeypatch):
    # the worker's suite sleeps for a minute; the caller kills it rather than wait
    fake, _ = _splitting_run_suite(tmp_path, raise_in="caller")
    monkeypatch.setattr(cli, "run_suite", fake)
    start, cpus = time.monotonic(), os.sched_getaffinity(0)
    with pytest.raises(ValueError, match="failed in the caller"):
        run_cli([*FOUR_SUITES, "--out", str(tmp_path / "out")])
    assert time.monotonic() - start < 30.0
    assert os.sched_getaffinity(0) == cpus
    assert "overall:" not in capsys.readouterr().out
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity to set")
def test_a_run_on_one_cpu_writes_the_same_reports_and_one_table(tmp_path):
    # with one CPU every suite runs in the calling process; the table is printed once either way
    code = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from bottlab.cli import main
sys.exit(main(sys.argv[2:]))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    reports = []
    for cpus in ("all", "one"):
        out = tmp_path / cpus
        proc = subprocess.run([sys.executable, "-c", code, cpus, "report-all", "--levels", "6", "--t-points", "5",
                               "--out", str(out)], capture_output=True, text=True, env=env)
        assert proc.returncode in (0, 1), proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2 + 11 and lines[0].startswith("suite ") and lines[-1].startswith("overall: ")
        assert sum(line.startswith("overall: ") for line in lines) == 1
        reports.append(_snapshot(out))
    assert len(reports[0]) == 2 * 11 + 1
    assert reports[0] == reports[1]


def test_the_cli_imports_no_thread_pool_and_a_sweep_no_random_generator(tmp_path):
    # the norm cross-check is deterministic and needs no random start
    code = f"""
import sys
import bottlab.cli
assert "concurrent.futures" not in sys.modules and "numpy.random" not in sys.modules
assert bottlab.cli.main(["commutators", "--levels", "8", "--t-points", "3", "--out", {str(tmp_path)!r}]) == 0
assert "concurrent.futures" not in sys.modules and "numpy.random" not in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_flip_endpoints_imports_no_random_generator(tmp_path):
    # the grading gate checks every pair of blades, so no suite of report-all draws a sample
    code = f"""
import sys
import bottlab.cli
bottlab.cli.main(["report-all", "--levels", "4", "--t-points", "2", "--format", "json", "--out", {str(tmp_path)!r}])
assert "numpy.random" not in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_summary_table_sorted(tmp_path, capsys):
    assert run_cli(["mehler", "--levels", "12", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = [l.split()[0] for l in out[1:-1] if l.strip()]
    assert rows == sorted(rows)
    assert rows == ["mehler", "s1s2-asymptotics"]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _snapshot(outdir):
    files = {}
    for p in sorted(outdir.iterdir()):
        if p.name == "manifest.json":
            doc = json.loads(p.read_text())
            doc.pop("timestamp")
            # output paths contain the directory name; normalize
            doc["outputs"] = {
                sid: sorted(kind for kind in paths)
                for sid, paths in doc["outputs"].items()
            }
            files[p.name] = json.dumps(doc, sort_keys=True)
        else:
            files[p.name] = p.read_bytes()
    return files


def _check_byte_identical_runs(tmp_path, capsys, args, fresh: bool = False):
    """Two runs of ``args`` and one that builds its own operator context write the same bytes; with
    ``fresh`` every run builds its own."""
    for d in "abc":
        if fresh or d == "c":
            oscillator.oscillator_rep.cache_clear()
        assert run_cli(args + ["--out", str(tmp_path / d)]) in (0, 1)
    capsys.readouterr()
    a, b, c = (_snapshot(tmp_path / d) for d in "abc")
    assert set(a) == set(b) == set(c)
    assert len(a) == 2 * 11 + 1  # json + csv per suite, plus the manifest
    for name in a:
        assert a[name] == b[name], f"{name} differs between runs"
        assert a[name] == c[name], f"{name} differs with a fresh context"


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    _check_byte_identical_runs(tmp_path, capsys, ["report-all", "--levels", "8", "--t-points", "5"])


def test_reports_are_byte_identical_across_runs_at_dim_2(tmp_path, capsys):
    # the operators split by both reflections, and regrouped for the bump
    _check_byte_identical_runs(tmp_path, capsys, ["report-all", "--dim", "2", "--levels", "6", "--t-points", "5"],
                               fresh=True)


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # delta-xr is the cheapest suite whose reports changed with the BLAS
    # thread count before the CLI pinned numpy's OpenBLAS to one thread; with a second suite it
    # runs in one of two processes
    for command, suites in ([["delta"], ["delta-xr"]],
                            [["report-all", "--suite", "delta-xr", "--suite", "spectrum"], ["delta-xr", "spectrum"]]):
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / str(len(suites)) / threads
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
            proc = subprocess.run([sys.executable, "-m", "bottlab.cli", *command, "--dim", "1", "--levels", "4",
                                   "--out", str(out)], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            if "no bundled OpenBLAS" in proc.stderr:
                pytest.skip("numpy has no bundled OpenBLAS to pin here")
            reports.append({name: data for name, data in _snapshot(out).items() if name != "manifest.json"})
        assert sorted(reports[0]) == sorted(f"{sid}.{ext}" for sid in suites for ext in ("csv", "json"))
        assert reports[0] == reports[1]


@needs_two_cpus
def test_the_worker_inherits_the_blas_pin(tmp_path, capsys, monkeypatch):
    # OpenBLAS is set to two threads here; the CLI pins it to one before the fork, and each process
    # reads one thread while it runs a suite
    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                         "libscipy_openblas*")))
    if not libs:
        pytest.skip("numpy has no bundled OpenBLAS to pin here")
    lib = ctypes.CDLL(libs[0])
    get_threads, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    fake, log = _splitting_run_suite(tmp_path)

    def recording(sid, cfg):
        with open(tmp_path / "threads.log", "a") as fh:
            fh.write(f"{get_threads()}\n")
        return fake(sid, cfg)

    monkeypatch.setattr(cli, "run_suite", recording)
    set_threads(2)
    try:
        assert get_threads() == 2
        assert run_cli([*FOUR_SUITES, "--out", str(tmp_path / "out")]) in (0, 1)
    finally:
        set_threads(1)  # where the CLI leaves it
    capsys.readouterr()
    assert {line.split()[0] for line in log.read_text().splitlines()} == {"caller", "worker"}
    assert (tmp_path / "threads.log").read_text().split() == ["1"] * 4


def test_the_heap_thresholds_are_set_where_glibc_has_mallopt():
    # in a child, so that the test process keeps its own allocator settings
    code = "from bottlab.cli import _keep_freed_heap; print(_keep_freed_heap())"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    glibc = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"
    assert proc.stdout.strip() == str(glibc)


@pytest.mark.parametrize("missing", [AttributeError, OSError, TypeError])
def test_the_heap_thresholds_are_skipped_without_mallopt(missing, monkeypatch):
    # no mallopt in the C library (AttributeError), no C library to load (OSError), or no handle to
    # the running program (TypeError)
    def no_mallopt(name):
        if missing is AttributeError:
            return object()
        raise missing("no C library")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_mallopt)
    assert cli._keep_freed_heap() is False


def test_run_sets_the_heap_thresholds_before_the_suites_and_run_suite_never_does(tmp_path, capsys, monkeypatch):
    calls = []
    run_suites = cli._run_suites
    monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append("heap") or True)
    monkeypatch.setattr(cli, "_run_suites", lambda *args: calls.append("suites") or run_suites(*args))
    assert run_cli(["spectrum", "--levels", "6", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == ["heap", "suites"]
    calls.clear()
    run_suite("spectrum", SweepConfig(level=6))
    assert calls == []


def test_no_timestamps_inside_reports(tmp_path, capsys):
    assert run_cli(["spectrum", "--levels", "8", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "spectrum.json").read_text())
    flat = json.dumps(doc).lower()
    assert "time" not in flat and "date" not in flat


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0


def test_python_dash_m_bottlab_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "bottlab", "--version"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("bottlab ")


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What the wrapper generated for a console_scripts entry point does: resolve
# "module:attr", set argv[0] to the script name and exit with main()'s return.
_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
name, value = sys.argv[1:3]
main = EntryPoint(name, value, "console_scripts").load()
sys.argv = [name, "--version"]
sys.exit(main())
"""


def _installed(dist):
    try:
        importlib.metadata.distribution(dist)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_installed():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    proc = subprocess.run(
        [sys.executable, "-c", _WRAPPER, "bottlab", project["scripts"]["bottlab"]],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"bottlab {project['version']}\n"


@pytest.mark.skipif(not _installed("bottlab"),
                    reason="bottlab is not installed, so no console script exists")
def test_console_script_on_path():
    exe = shutil.which("bottlab")
    assert exe, "console script should be on PATH after installation"
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("bottlab ")
