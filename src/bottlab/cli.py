"""Command-line driver: run verification suites, write reports.

Reports are deterministic byte-for-byte for a fixed configuration: JSON and
CSV artifacts contain no timestamps (the run manifest carries those), a
suite's report does not depend on which process ran it, and BLAS runs on one
thread, so the BLAS thread count cannot change the output.

When two or more suites are selected and the process may use two CPUs, the
suites run in two processes: the calling one and one forked worker, which
take suite indices in order from one pipe, a byte each, so each suite runs
once.  Processes, unlike threads, overlap numpy's many small linalg calls.
The operator context is built before the fork, so both share it, and each
process is held to one of the two CPUs while the suites run.  The worker
sends its reports, or its exception, back through a second pipe and always
leaves by ``os._exit``; the calling process kills it if its own suite
raised, reaps it, gets its CPU set back, and writes every report.  With one
suite or one CPU the same loop runs in the calling process alone.

Before the fork, so that the worker inherits them, the CLI raises glibc's mmap
and trim thresholds, so that what a sweep frees at one grid point stays in the
heap for the next; ``run_suite`` leaves a library caller's allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import pickle
import sys

import numpy as np

from . import __version__
from .oscillator import oscillator_rep
from .verify import DEFAULT_T_GRID, SUITES, SweepConfig, run_suite

SUBCOMMANDS = {
    "spectrum": ["spectrum"],
    "mehler": ["mehler", "s1s2-asymptotics"],
    "commutators": ["dirac-commutator", "cd-commutator"],
    "composition": ["composition-gamma"],
    "homotopy": ["homotopy-projection"],
    "delta": ["delta-xr"],
    "clifford-iso": ["clifford-iso"],
    "compactness": ["compactness"],
    "report-all": sorted(SUITES),
}


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--dim", type=int, default=1, help="spatial dimension n (default 1)")
    p.add_argument("--levels", type=int, default=12,
                   help="Hermite truncation level K (default 12)")
    p.add_argument("--t-min", type=float, default=DEFAULT_T_GRID[0],
                   help="sweep start (default %(default)g)")
    p.add_argument("--t-max", type=float, default=DEFAULT_T_GRID[-1],
                   help="sweep end (default %(default)g)")
    p.add_argument("--t-points", type=int, default=len(DEFAULT_T_GRID),
                   help="geometric grid size (default %(default)d)")
    p.add_argument("--format", choices=("json", "csv", "both"), default="both",
                   help="report formats to write (default both)")
    p.add_argument("--out", default="reports", help="output directory (default ./reports)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bottlab",
        description="Numerical verification suites for the graded oscillator calculus.",
    )
    parser.add_argument("--version", action="version", version=f"bottlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run: {', '.join(SUBCOMMANDS[name])}")
        _add_common_flags(p)
        if name == "report-all":
            p.add_argument("--suite", action="append", default=None,
                           help="restrict to specific suite ids (repeatable)")
    return parser


def _config_from_args(args) -> SweepConfig:
    # checked before np.geomspace, which would warn on a non-finite endpoint
    if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)):
        raise ValueError("t_grid values must be finite")
    if args.t_min < 1.0:
        raise ValueError("t-min must be >= 1")
    if args.t_max <= args.t_min:
        raise ValueError("t-max must exceed t-min")
    if args.t_points < 2:
        raise ValueError("t-points must be >= 2")
    with np.errstate(over="ignore"):  # near the largest double only the endpoint overflows, and it is set exactly
        t_grid = tuple(float(t) for t in np.geomspace(args.t_min, args.t_max, args.t_points))
    return SweepConfig(dim=args.dim, level=args.levels, t_grid=t_grid)


def _pin_blas_threads() -> bool:
    """Set numpy's bundled OpenBLAS, whose sums depend on its thread count, to one thread;
    False if there is none."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for path in sorted(glob.glob(pattern)):
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
        return True
    return False


def _keep_freed_heap() -> bool:
    """Set glibc's mmap threshold (``M_MMAP_THRESHOLD``, -3) to 4 MiB and its trim threshold
    (``M_TRIM_THRESHOLD``, -1) to 8 MiB, so that the 117-187 KB blocks a sweep frees are neither
    unmapped nor trimmed; both, since setting one stops glibc from raising the other.  False where
    ``mallopt`` is missing or refuses them."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return all([mallopt(-3, 4 << 20) == 1, mallopt(-1, 8 << 20) == 1])  # a list: both are set


def _atomic_write(path: str, data: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _csv_text(report) -> str:
    rows = (f'{suite},"{curve}",{t!r},{v!r}' for suite, curve, t, v in report.csv_rows())
    return "\n".join(["suite,curve,t,value", *rows]) + "\n"


def _drain(tasks: int, suite_ids: list, cfg: SweepConfig) -> dict:
    """Run the suites whose indices this process takes from the pipe ``tasks``, one byte at a time,
    until it is empty."""
    reports = {}
    while index := os.read(tasks, 1):
        sid = suite_ids[index[0]]
        reports[sid] = run_suite(sid, cfg)
    return reports


def _worker(tasks: int, out, suite_ids: list, cfg: SweepConfig, cpu: int):
    """The forked worker: on CPU ``cpu``, drain the tasks, pickle the reports or the exception into
    ``out``, and leave by ``os._exit``, so no handler or buffer of the calling process runs twice;
    with status 1, and nothing written, if the result does not pickle."""
    status = 1
    try:
        try:
            os.sched_setaffinity(0, {cpu})
            payload = _drain(tasks, suite_ids, cfg)
        except BaseException as exc:
            while os.read(tasks, 64):  # so the calling process stops after its current suite
                pass
            if hasattr(exc, "add_note"):  # pickling drops the traceback
                import traceback
                exc.add_note("raised in the suite worker:\n" + "".join(traceback.format_tb(exc.__traceback__)))
            payload = exc
        out.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        out.close()
        status = 0
    finally:
        os._exit(status)


def _run_suites(suite_ids: list, cfg: SweepConfig) -> dict:
    """Every suite's report, from the calling process and, when two CPUs are free, one forked
    worker; an exception of either is raised once the worker is reaped."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    tasks, feed = os.pipe()
    try:
        os.write(feed, bytes(range(len(suite_ids))))  # far fewer bytes than a pipe holds
        os.close(feed)
        if len(suite_ids) < 2 or len(cpus) < 2 or not hasattr(os, "fork"):
            return _drain(tasks, suite_ids, cfg)
        oscillator_rep(cfg.dim, cfg.level)  # before the fork, so both processes share it
        results, sink = os.pipe()
        with open(results, "rb") as inp, open(sink, "wb") as out:
            pid = os.fork()
            # each process on a CPU of its own: a scheduler that leaves a forked child on its
            # parent's CPU would otherwise run the two in turn, slower than one process alone
            if pid == 0:
                _worker(tasks, out, suite_ids, cfg, cpus[1])
            out.close()  # the worker's copy is then the only writer, and its exit ends inp
            try:
                os.sched_setaffinity(0, cpus[:1])
                reports = _drain(tasks, suite_ids, cfg)
                sent = inp.read()
            except BaseException:
                import signal
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                os.sched_setaffinity(0, cpus)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        os.close(tasks)
    if not sent:
        raise ChildProcessError(f"the suite worker ended without a result (exit status {status})")
    theirs = pickle.loads(sent)
    if isinstance(theirs, BaseException):
        raise theirs
    return {**reports, **theirs}


def run(command: str, args) -> int:
    try:
        cfg = _config_from_args(args)
        suite_ids = list(SUBCOMMANDS[command])
        if command == "report-all" and args.suite:
            unknown = [s for s in args.suite if s not in SUITES]
            if unknown:
                raise ValueError(f"unknown suite ids: {', '.join(unknown)}")
            suite_ids = [s for s in suite_ids if s in set(args.suite)]
        os.makedirs(args.out, exist_ok=True)  # before any suite runs, so a bad --out costs no work
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not _pin_blas_threads():
        print("note: no bundled OpenBLAS to set to one thread; reports can differ in the last "
              "digits between BLAS thread counts", file=sys.stderr)
    _keep_freed_heap()  # before the fork, so the worker keeps its freed heap too
    reports = _run_suites(suite_ids, cfg)

    outputs = {}
    for sid in sorted(reports):
        rep = reports[sid]
        paths = {}
        if args.format in ("json", "both"):
            paths["json"] = os.path.join(args.out, f"{sid}.json")
            _atomic_write(paths["json"], json.dumps(rep.to_json_dict(), indent=2) + "\n")
        if args.format in ("csv", "both"):
            paths["csv"] = os.path.join(args.out, f"{sid}.csv")
            _atomic_write(paths["csv"], _csv_text(rep))
        outputs[sid] = paths

    from datetime import datetime, timezone

    manifest = {
        "tool": f"bottlab {__version__}",
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "suites": {sid: {**reports[sid].params, "tol": reports[sid].tol} for sid in sorted(reports)},
        "outputs": outputs,
    }
    _atomic_write(os.path.join(args.out, "manifest.json"),
                  json.dumps(manifest, indent=2) + "\n")

    width = max(len(s) for s in reports)
    print(f"{'suite':<{width}}  {'status':6}  {'final':>12}  {'exponent':>9}")
    for sid in sorted(reports):
        rep = reports[sid]
        final = rep.datapoints[-1][1] if rep.datapoints else float("nan")
        expo = f"{rep.fit[0]:+.2f}" if rep.fit else "-"
        status = "PASS" if rep.passed else "FAIL"
        print(f"{sid:<{width}}  {status:6}  {final:12.3e}  {expo:>9}")
    all_pass = all(r.passed for r in reports.values())
    print(f"overall: {'PASS' if all_pass else 'FAIL'} ({len(reports)} suites, reports in {args.out})")
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
