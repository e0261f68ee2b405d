"""Child process of the benchmark: one fresh interpreter per CLI invocation.

Usage: child.py SIDECAR MODE [CLI ARGS...]

MODE is ``run`` (call ``bottlab.cli.main``), ``trace`` (the same, with every
layer wrapped by :mod:`tracer`), ``setup`` (import only) or ``env`` (import,
then record library versions).  The sidecar JSON file receives the
monotonic time at which ``main`` was about to be called, the CLI exit code
or the traceback, and in ``trace`` mode the spans.  Only ``trace`` mode
imports the tracer.
"""

import json
import sys
import time
import traceback


def _versions() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> int:
    sidecar, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "trace":
        import tracer
    import bottlab.cli

    rec = None
    if mode == "trace":
        rec = tracer.Recorder()
        tracer.install(rec)
    out = {"ready": time.monotonic(), "exit": None, "error": None}
    if mode == "env":
        out["versions"] = _versions()
    elif mode in ("run", "trace"):
        try:
            out["exit"] = bottlab.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a configuration this way
            out["exit"] = exc.code
        except Exception:
            out["error"] = traceback.format_exc()
    if rec is not None:
        out["spans"] = rec.spans
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
