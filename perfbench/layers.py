"""Per-layer metrics derived from the spans of one traced invocation.

The layers are the six bottlab modules.  A span's self time is its duration
minus the part of its interval that its child spans cover; children on
pool threads overlap each other, so coverage is the measure of the union of
their intervals, not the sum of their durations.  Call counts count every
span of a function; times sum only the outermost span of each name group,
so a function reached through another wrapped function of the same group is
not counted twice.  ``clifford.calls`` and ``clifford.s`` treat all public
clifford functions as one group: calls into the layer and the time in it.
Suites and functions that a workload does not reach report 0.
"""

from __future__ import annotations

from collections import defaultdict

SUITE_IDS = (
    "cd-commutator", "clifford-iso", "compactness", "composition-gamma", "delta-xr",
    "dirac-commutator", "flip-endpoints", "homotopy-projection", "mehler",
    "s1s2-asymptotics", "spectrum",
)

# (name, unit, better); the order is the order of BENCHMARK.json's per_layer
METRICS = [
    ("cli.self_s", "s", "lower"),
    ("cli.queue_wait_s", "s", "lower"),
    ("cli.worker_idle_frac", "ratio", "lower"),
    *[(f"verify.suite_s.{sid}", "s", "lower") for sid in SUITE_IDS],
    ("verify.suites_failing", "count", "lower"),
    ("verify.windowed_norm.calls", "count", "lower"),
    ("verify.windowed_norm.s", "s", "lower"),
    ("verify.power_iteration_norm.calls", "count", "lower"),
    ("verify.power_iteration_norm.s", "s", "lower"),
    ("verify.eigh.calls", "count", "lower"),
    ("verify.eigh.s", "s", "lower"),
    ("oscillator.oscillator_rep.calls", "count", "lower"),
    ("oscillator.oscillator_rep.s", "s", "lower"),
    ("oscillator.multiplication_operator.calls", "count", "lower"),
    ("oscillator.multiplication_operator.s", "s", "lower"),
    ("oscillator.spectrum.s", "s", "lower"),
    ("oscillator.compactness_profile.s", "s", "lower"),
    ("oscillator.b_squared_identity_check.s", "s", "lower"),
    ("funcalc.matrix_function.calls", "count", "lower"),
    ("funcalc.matrix_function.s", "s", "lower"),
    ("funcalc.matrix_function.self_s", "s", "lower"),
    ("funcalc.eigh.calls", "count", "lower"),
    ("funcalc.eigh.s", "s", "lower"),
    ("funcalc.eigh.distinct_frac", "ratio", "higher"),
    ("funcalc.eigh.work_n3", "count", "lower"),
    ("funcalc.delta_via_xr_check.s", "s", "lower"),
    ("graded.graded_commutator.calls", "count", "lower"),
    ("graded.graded_commutator.s", "s", "lower"),
    ("graded.parity_s", "s", "lower"),
    ("graded.matmul.s", "s", "lower"),
    ("graded.graded_tensor.calls", "count", "lower"),
    ("graded.graded_tensor.s", "s", "lower"),
    ("graded.flip_simple.s", "s", "lower"),
    ("graded.flip_unitary.s", "s", "lower"),
    ("clifford.calls", "count", "lower"),
    ("clifford.s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

ID, NAME, TAG, THREAD, PARENT, START, END = range(7)


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


class SpanTree:
    def __init__(self, spans):
        self.spans = [tuple(s) for s in spans]
        self.by_id = {s[ID]: s for s in self.spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for s in self.spans:
            self.by_name[s[NAME]].append(s)
            if s[PARENT] is not None:
                self.children[s[PARENT]].append(s)

    def self_time(self, span) -> float:
        lo, hi = span[START], span[END]
        kids = [(max(lo, c[START]), min(hi, c[END])) for c in self.children[span[ID]]]
        return (hi - lo) - _union_length([k for k in kids if k[1] > k[0]])

    def outermost(self, names) -> list:
        """Spans named in ``names`` with no ancestor named in ``names``."""
        names = set(names)
        out = []
        for s in (s for n in names for s in self.by_name[n]):
            parent = s[PARENT]
            while parent is not None and self.by_id[parent][NAME] not in names:
                parent = self.by_id[parent][PARENT]
            if parent is None:
                out.append(s)
        return out

    def calls(self, *names) -> int:
        return sum(len(self.by_name[n]) for n in names)

    def seconds(self, *names) -> float:
        return sum(s[END] - s[START] for s in self.outermost(names))


def layer_metrics(spans, threads: int, suites_failing: int) -> dict:
    """Every per-layer metric except trace.overhead_frac, which needs two runs.

    ``threads`` is BOTTLAB_THREADS; the CLI's pool has min(threads, suites)
    workers.
    """
    tree = SpanTree(spans)
    (main,) = tree.by_name["cli.main"]
    main_s = main[END] - main[START]
    suites = tree.by_name["verify.run_suite"]
    workers = min(threads, len(suites))
    suite_s = {sid: 0.0 for sid in SUITE_IDS}
    for s in suites:
        suite_s[s[TAG]] += s[END] - s[START]
    eigh = tree.by_name["funcalc.eigh"]
    clifford = [n for n in tree.by_name if n.startswith("clifford.")]

    m = {
        "cli.self_s": main_s - _union_length([(s[START], s[END]) for s in suites]),
        "cli.queue_wait_s": sum(s[START] - main[START] for s in suites),
        "cli.worker_idle_frac": 1.0 - sum(suite_s.values()) / (workers * main_s),
        **{f"verify.suite_s.{sid}": v for sid, v in suite_s.items()},
        "verify.suites_failing": suites_failing,
        "funcalc.matrix_function.self_s": sum(
            tree.self_time(s) for s in tree.by_name["funcalc.matrix_function"]),
        "funcalc.eigh.distinct_frac": (
            len({s[TAG][1] for s in eigh}) / len(eigh) if eigh else 0.0),
        "funcalc.eigh.work_n3": sum(s[TAG][0] ** 3 for s in eigh),
        "graded.parity_s": tree.seconds("graded.operator_parity", "graded.parity_part"),
        "clifford.calls": len(tree.outermost(clifford)),
        "clifford.s": tree.seconds(*clifford),
    }
    for name, unit, _ in METRICS:
        if name in m or name == "trace.overhead_frac":
            continue
        span_name, _, kind = name.rpartition(".")
        m[name] = tree.calls(span_name) if kind == "calls" else tree.seconds(span_name)
    return m
