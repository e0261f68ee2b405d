"""Span recorder for the traced benchmark run.

Only the traced child imports this module.  :func:`install` wraps every
public function of the six bottlab modules, three ``GradedMatrix`` methods
and ``numpy.linalg.eigh``, then rebinds every module-level reference to a
wrapped function (``from ... import`` copies included), so no call slips
past the trace.  ``eigh`` spans are named after the bottlab module that
called them, which is how the numpy kernels are attributed to the calling
layer.

A span is the tuple ``(id, name, tag, thread, parent, start, end)`` with
``perf_counter`` times.  Spans stay in memory; child.py writes them once,
after ``main`` has returned.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "verify", "oscillator", "funcalc", "graded", "clifford")
GRADED_METHODS = {
    "operator_parity": "graded.operator_parity",
    "parity_part": "graded.parity_part",
    "__matmul__": "graded.matmul",
}


class Recorder:
    """Collects spans from all threads of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name, tag, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        # a pool thread starts with an empty stack: its work was caused by
        # the first span of the run, cli.main
        parent = stack[-1] if stack else self.root
        if self.root is None:
            self.root = sid
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, tag, threading.get_ident(), parent, t0, t1))

    def wrap(self, name, fn, tag_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tag_of(args) if tag_of is not None else None
            return self.call(name, tag, fn, args, kwargs)

        return traced


def _eigh_wrapper(rec: Recorder, eigh):
    @functools.wraps(eigh)
    def traced_eigh(a, *args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if not caller.startswith("bottlab."):
            return eigh(a, *args, **kwargs)
        layer = caller.rpartition(".")[2]
        arr = np.asarray(a)
        # content hash only for funcalc, the one layer whose distinct-input
        # ratio is reported; hashing happens before the span starts
        digest = None
        if layer == "funcalc":
            digest = hashlib.blake2b(np.ascontiguousarray(arr), digest_size=16).hexdigest()
        return rec.call(f"{layer}.eigh", (arr.shape[-1], digest), eigh, (a, *args), kwargs)

    return traced_eigh


def install(rec: Recorder):
    """Wrap the bottlab layers in place, recording into ``rec``."""
    import bottlab.cli  # noqa: F401  (imports every layer)
    from bottlab.graded import GradedMatrix

    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"bottlab.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            tag_of = (lambda args: args[0]) if (layer, attr) == ("verify", "run_suite") else None
            wrapped[id(obj)] = (obj, rec.wrap(f"{layer}.{attr}", obj, tag_of))

    for modname, mod in list(sys.modules.items()):
        if modname != "bottlab" and not modname.startswith("bottlab."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])

    for meth, name in GRADED_METHODS.items():
        setattr(GradedMatrix, meth, rec.wrap(name, getattr(GradedMatrix, meth)))
    np.linalg.eigh = _eigh_wrapper(rec, np.linalg.eigh)
