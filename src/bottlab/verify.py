"""Verification sweeps: decay curves and pass/fail reports for the operator model.

Each suite measures one analytic statement at finite truncation: commutator
decay of the asymptotic morphism, the Mehler factorization of the harmonic
semigroup, the composition/homotopy behaviour of the supercharge calculus,
and the algebraic endpoint identities.  A suite produces a
:class:`VerificationReport` with a datapoint curve, an optional fitted decay
exponent, and a verdict: the suite declares each pass criterion as a
:class:`Gate`, passes when every gate does, and notes each gate's outcome.

Truncation policy: operator-norm claims are evaluated on interior windows
(total Hermite level bounded away from the cut) because the truncated
supercharge has one spurious near-kernel state concentrated at the top
level; see the notes emitted by the affected suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clifford import (
    _MAX_TABLE_N,
    Signature,
    blade_label,
    blade_parities,
    blade_relation_residual,
    left_mult_operator,
    matrix_relation_residual,
    regular_representation,
)
from .funcalc import (
    GradedFunction,
    delta_via_xr_check,
    gaussian,
    matrix_function,
    position_matrix,
    scale,
    x_gaussian,
)
from .graded import (
    GradedMatrix,
    _label_bits,
    flip_simple,
    flip_unitary,
    graded_commutator,
    graded_tensor,
    grading_signs,
    involution,
    label_index,
    largest_entry,
    regroup,
    signed,
    tensor_labels,
    tensor_pairs,
    tensor_product_witness,
    window_product,
)
from .oscillator import (
    MEMORY_BUDGET,  # re-exported: callers read the budget as bottlab.verify.MEMORY_BUDGET too
    CliffFunction,
    HermiteBasis,
    OscillatorRep,
    _spatial_blade_operator,
    b_squared_identity_check,
    check_memory_budget,
    compactness_profile,
    fourier_gauge_residual,
    level_multiplicity,
    multiplication_operator,
    oscillator_rep,
    rescale,
    spectrum,
    volume_pairing_residual,
)

DEFAULT_T_GRID = tuple(float(t) for t in np.geomspace(1.0, 16.0, 9))
# the s-grids of homotopy-projection and mehler, both descending
S_GRID = tuple(float(s) for s in np.geomspace(1.0, 0.05, 9))
MEHLER_S = (0.5, 0.3, 0.2, 0.1, 0.05)

# below this magnitude, curve values are floating-point noise and monotonicity
# is not meaningful
NOISE_FLOOR = 1e-12

DELTA_LEVELS = (12, 18, 24)

# the images of the generators of the rank-8 Euclidean algebra in signature (4,4): e1 .. e4, then the
# four triple products of e5 .. e8 (squares -1 * -1 * -1 times the reordering sign -1, so +1)
EIGHT_IN_FOUR_FOUR = (0x1, 0x2, 0x4, 0x8, 0x70, 0xB0, 0xD0, 0xE0)

# the largest level whose default 2 * level + 16 Gauss-Hermite nodes have finite weights: hermgauss's
# weights are all 0 at 371 nodes and NaN from 372 on, where every multiplication operator reads NaN
MAX_QUADRATURE_LEVEL = 177


@dataclass
class SweepConfig:
    """Shared parameters for the verification suites; the s-grids are ``S_GRID`` and
    ``MEHLER_S``, and the test symbols those of :func:`named_symbols`."""

    dim: int = 1
    level: int = 12
    t_grid: tuple = DEFAULT_T_GRID

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.dim > _MAX_TABLE_N:
            raise ValueError(f"dim must be <= {_MAX_TABLE_N}, the largest Clifford algebra tabulated")
        if self.level < 4:
            raise ValueError("levels must be >= 4")
        if self.level > MAX_QUADRATURE_LEVEL:
            raise ValueError(f"levels {self.level} needs {2 * self.level + 16} Gauss-Hermite nodes, whose weights "
                             f"overflow; the largest level that works is {MAX_QUADRATURE_LEVEL}")
        check_memory_budget(HermiteBasis(self.dim, self.level))
        ts = tuple(float(t) for t in self.t_grid)
        if not all(math.isfinite(t) for t in ts):
            raise ValueError("t_grid values must be finite")
        if len(ts) < 2 or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("t_grid must be strictly increasing")
        if ts[0] < 1.0:
            raise ValueError("t_grid must start at t >= 1")
        if ts[-1] ** -2 == 0.0:
            raise ValueError(f"t_grid values must keep t^-2 > 0, the time s > 0 of s1s2-asymptotics; "
                             f"{ts[-1]:g}^-2 underflows to 0")
        self.t_grid = ts

    def params_dict(self) -> dict:
        return {
            "dim": self.dim,
            "levels": self.level,
            "t_grid": [round(t, 12) for t in self.t_grid],
            "s_grid": [round(s, 12) for s in S_GRID],
            "h_choices": [h.name for h in named_symbols(self.dim)],
        }


@dataclass
class VerificationReport:
    """Outcome of one suite: datapoints, fit, verdict, and diagnostics."""

    suite: str
    params: dict
    datapoints: list  # (t, value) pairs
    curves: dict      # curve name -> list of values aligned with datapoints
    fit: tuple | None  # (exponent, r_squared)
    passed: bool
    tol: float
    notes: list

    def to_json_dict(self) -> dict:
        return {
            "schema": "v1",
            "suite": self.suite,
            "params": self.params,
            "datapoints": [{"t": t, "value": v} for t, v in self.datapoints],
            "fit": None if self.fit is None else {"exponent": self.fit[0], "r2": self.fit[1]},
            "pass": bool(self.passed),
            "tol": self.tol,
            "notes": list(self.notes),
        }

    def csv_rows(self) -> list:
        """(suite, curve, t, value) rows, one per curve per grid point."""
        ts = [t for t, _ in self.datapoints]
        return [(self.suite, name, t, v) for name in sorted(self.curves) for t, v in zip(ts, self.curves[name])]


@dataclass(frozen=True)
class Gate:
    """One pass criterion of a suite.

    With a bound the gate passes when ``value <= bound``; a sequence value
    passes when every entry does, so a NaN entry fails it.  Without a bound
    ``value`` is the outcome of a check that has no single margin.
    """

    name: str
    value: float | bool | Sequence[float]
    bound: float | None = None

    @property
    def ok(self) -> bool:
        if self.bound is None:
            return bool(self.value)
        return all(v <= self.bound for v in np.atleast_1d(self.value))

    def note(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        if self.bound is None:
            return f"gate {self.name}: {verdict}"
        worst = float(np.max(self.value, initial=-np.inf))
        return f"gate {self.name}: {worst:.3e} <= {self.bound:.3e} {verdict}"


def _envelope(curves: dict) -> list:
    """Pointwise maximum over the curves; NaN where any curve is NaN, which ``max`` would drop."""
    return [math.nan if any(map(math.isnan, vals)) else max(vals) for vals in zip(*curves.values())]


def _report(suite: str, params: dict, xs: Sequence[float], curves: dict, tol: float,
            gates: list, notes: Sequence[str] = (), fit: tuple | None = None) -> VerificationReport:
    """The report of a suite: envelope datapoints, and a verdict and a note per gate."""
    return VerificationReport(suite, params, list(zip(xs, _envelope(curves))), curves, fit,
                              all(g.ok for g in gates), tol,
                              [*notes, *(g.note() for g in gates)])


# ---------------------------------------------------------------------------
# numerical helpers


def svd_norm(a: np.ndarray) -> tuple[float, bool]:
    """Largest singular value by LAPACK's SVD, and whether the SVD converged; 0 for an empty block.

    An independent route from :func:`block_norm`: the SVD bidiagonalises the block itself and never
    forms its Gram matrix.
    """
    if a.size == 0:
        return 0.0, True
    try:
        return float(np.linalg.svd(a, compute_uv=False)[0]), True
    except np.linalg.LinAlgError:
        return math.nan, False


def windowed_norm(g: GradedMatrix, rep: OscillatorRep, depth: int = 2) -> float:
    """Spectral norm of the window of total level <= level - depth (depth 0: the whole space), from
    the leading part of each of g's blocks that holds the window's states of its labels."""
    return g.window(rep.window(depth, len(g.index))).norm()


def _sweep(xs: Sequence[float], matrices) -> tuple[dict, list[Gate]]:
    """Norm curves over a grid, and the gates of their norm cross-check.

    ``matrices(x)`` yields ``(curve name, GradedMatrix)`` pairs, each the window its gates read,
    normed as it comes; the first curve's matrix at the first, middle and last x is also normed by
    the largest :func:`svd_norm` of its blocks, which converges when every SVD does, and the two
    norms must agree to 1e-8 relative (a NaN fails), so no matrix outlives its iteration.
    """
    curves, runs, picks = {}, [], {0, len(xs) // 2, len(xs) - 1}
    for i, x in enumerate(xs):
        for name, m in matrices(x):
            curves.setdefault(name, []).append(m.norm())
            if i in picks and name == next(iter(curves)):
                norms, converged = zip(*map(svd_norm, m.blocks))
                runs.append((curves[name][-1], largest_entry(norms), all(converged)))
    worst = largest_entry(abs(a - b) / a if a else (math.inf if b else 0.0) for a, b, _ in runs)
    return curves, [Gate(f"norm cross-check (block norm vs SVD, {len(runs)} samples)", worst, 1e-8),
                    Gate("SVD converged on every sample", all(ok for *_, ok in runs))]


def decay_fit(ts: Sequence[float], vals: Sequence[float]) -> tuple | None:
    """Least-squares slope and r^2 of log(value) against log(t); None when a value is not finite,
    so that a NaN norm, which the filter below would drop, leaves no fit for a gate to pass."""
    if not all(map(math.isfinite, vals)):
        return None
    pts = [(t, v) for t, v in zip(ts, vals) if v > 1e-300 and t > 0]
    if len(pts) < 2:
        return None
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    if np.ptp(lx) == 0:
        return None
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


def monotone_after(ts: Sequence[float], vals: Sequence[float], start: float = 2.0) -> bool:
    """Non-increasing after burn-in, allowing 5 % jitter and ignoring values under ``NOISE_FLOOR``;
    False if any value is NaN, which compares false both ways."""
    if any(map(math.isnan, vals)):
        return False
    idx = [i for i, t in enumerate(ts) if t >= start]
    for i, j in zip(idx, idx[1:]):
        if vals[j] <= NOISE_FLOOR and vals[i] <= NOISE_FLOOR:
            continue
        if vals[j] > vals[i] * 1.05 + NOISE_FLOOR:
            return False
    return True


def _decay_gates(ts: Sequence[float], curves: dict, rel: float, fit: tuple | None) -> list[Gate]:
    """Final/initial within ``rel`` per curve, every curve non-increasing after t=2, fit < 0.

    A curve that starts at 0 has ratio 0; a NaN at either end makes the ratio NaN, which fails.
    """
    return [
        *(Gate(f"{name} final/initial", c[-1] / c[0] if c[0] else 0.0 * c[-1], rel)
          for name, c in sorted(curves.items())),
        Gate("every curve non-increasing after t=2", all(monotone_after(ts, c) for c in curves.values())),
        Gate("decay exponent < 0", fit is not None and fit[0] < 0),
    ]


# ---------------------------------------------------------------------------
# test-function constructions


def shifted_bump(dim: int) -> CliffFunction:
    """Off-center Gaussian bump times the first generator (odd values).

    exp(-|x - 0.8 e_1|^2) is a product of one Gaussian per axis; the one on
    axis 1 has no parity, those on axes 2..n are the even generator u.
    """
    first = GradedFunction(lambda x: np.exp(-(x - 0.8) ** 2), None, "exp(-(x-0.8)^2)")
    return CliffFunction(dim, "bump", ((1, (first,) + (gaussian(),) * (dim - 1)),))


def _gaussian_bott_map(dim: int, odd: bool) -> CliffFunction:
    """The radial Clifford extension of u (odd=False) or v (odd=True).

    At a point x the generator is applied to the odd element sum_i x_i e_i,
    whose square is |x|^2: u gives exp(-|x|^2) on the scalar blade and v
    gives x_i exp(-|x|^2) on each e_i.  exp(-|x|^2) is the product of
    exp(-x_i^2) over the axes, so both are sums of separable terms.
    """
    u, v = gaussian(), x_gaussian()
    if odd:
        terms = tuple((1 << i, tuple(v if j == i else u for j in range(dim))) for i in range(dim))
    else:
        terms = ((0, (u,) * dim),)
    return CliffFunction(dim, "vP" if odd else "uP", terms)


def named_symbols(dim: int) -> tuple[CliffFunction, CliffFunction, CliffFunction]:
    """The test symbols of the suites on R^dim: uP, vP and bump."""
    return _gaussian_bott_map(dim, odd=False), _gaussian_bott_map(dim, odd=True), shifted_bump(dim)


# ---------------------------------------------------------------------------
# suites


def _mehler_tol(level: int) -> float:
    # truncation error of the factorization shrinks with the level; these
    # bounds are calibrated on the deep observation window used below
    return next(tol for lowest, tol in ((18, 1e-6), (16, 1e-5), (13, 1e-4), (0, 1e-3)) if level >= lowest)


def suite_spectrum(cfg: SweepConfig) -> VerificationReport:
    """Eigenvalue ladder of the squared supercharge on the interior window."""
    rep = oscillator_rep(cfg.dim, cfg.level)
    tol = 1e-8
    sp = spectrum(rep)

    deviations = []
    for val, mult in sp.clusters:
        half = round(val / 2.0)
        dev = abs(val - 2.0 * half) + abs(mult - level_multiplicity(cfg.dim, int(half)))
        deviations.append(float(dev))

    overlap = sp.kernel_overlap
    gates = [
        Gate("cluster deviation from the even-integer ladder", deviations, tol),
        Gate("lowest cluster is a simple zero", sp.clusters and sp.clusters[0] == (0.0, 1)),
        Gate("kernel overlap >= 1 - 1e-10", overlap >= 1.0 - 1e-10),
        Gate("squared-supercharge identity residual on interior",
             b_squared_identity_check(rep), 1e-12),
    ]
    cluster_str = ", ".join(f"{v:g}:{m}" for v, m in sp.clusters)
    notes = [
        f"clusters (eigenvalue:multiplicity): {cluster_str}",
        f"kernel eigenvector overlap with Gaussian ground state: {overlap:.12f}",
        f"eigenvalues reported up to the truncation level {cfg.level}",
    ]
    return _report("spectrum", cfg.params_dict(), [float(v) for v, _ in sp.clusters],
                   {"cluster-deviation": deviations}, tol, gates, notes)


def suite_clifford_iso(cfg: SweepConfig) -> VerificationReport:
    """Generator relations at low rank, the rank-8 Euclidean algebra inside signature (4,4) (the 8-fold
    periodicity), and the joined algebra inside a graded tensor square."""
    tol = 1e-10
    sigs = [[Signature(p, n - p) for p in range(n + 1)] for n in range(1, 6)]
    values = [largest_entry(matrix_relation_residual(regular_representation(sig), sig) for sig in row) for row in sigs]

    worst8 = blade_relation_residual(EIGHT_IN_FOUR_FOUR, Signature(8, 0), Signature(4, 4))
    worst2, span2 = tensor_product_witness(Signature(1, 0), Signature(1, 0))
    gates = [
        Gate("relation residual for every signature of rank <= 5", values, tol),
        Gate("rank-8 embedding residual", worst8, tol),
        Gate("graded tensor square of rank-1 algebras: relation residual", worst2, tol),
        Gate(f"graded tensor square spans rank 2 (dimension {span2} == 4)", span2 == 4),
    ]
    labels = ", ".join(blade_label(m) for m in EIGHT_IN_FOUR_FOUR)
    notes = [f"rank-8 Euclidean generators as odd blades of signature (4,4): {labels}"]
    return _report("clifford-iso", cfg.params_dict(), [float(n) for n in range(1, 6)],
                   {"relation-residual": values}, tol, gates, notes)


def _paired_half(cfg: SweepConfig) -> tuple[OscillatorRep, list[Gate]]:
    """The context the C/D curve suites norm on, and the gates that license it and every
    ``f(D) = S f(C) S`` (:meth:`OscillatorRep.gauge`).

    Every curve matrix is built from C, D and multiplication operators, which
    commute with ``R_2``; ``rho(omega)``, right multiplication by the volume
    element, commutes with C and every ``M_h``, anticommutes with D, and swaps
    the ``R_2 = +1`` and ``-1`` halves, so at dim >= 2 a curve's norm is its
    norm on the half, :attr:`OscillatorRep.half` (dim 1 holds no ``R_2``).
    :func:`volume_pairing_residual` reads the pairing, which holds for -D too;
    :func:`fourier_gauge_residual` reads ``S C S = D``, and so the sign.  The
    gauge swaps C and D, fixes H and keeps every window and norm, so no curve
    it carries to another is computed: ``s1s2-asymptotics`` has no D curves,
    ``cd-commutator`` no ``[v(C/t),u(D/t)]`` (``S [u(C),v(D)] S =
    -[v(C),u(D)]``) and ``mehler`` no ``d-outside`` (``S c-outside S``).
    """
    rep = oscillator_rep(cfg.dim, cfg.level)
    return (rep if rep.half is None else rep.half), [
        Gate("volume-element pairing", volume_pairing_residual(rep), 0.0),
        Gate("Fourier gauge S·C·S = D", fourier_gauge_residual(rep), 0.0)]


def _commutator_suite(cfg: SweepConfig, suite_id: str, matrices, symmetries: list[Gate]) -> VerificationReport:
    """Decay of the commutator curves ``matrices(t)`` yields, on the envelope and on each curve."""
    rel = 0.25
    ts = cfg.t_grid
    curves, crosscheck = _sweep(ts, matrices)
    envelope = _envelope(curves)
    fit = decay_fit(ts, envelope)
    tol_abs = rel * envelope[0]
    gates = [
        *_decay_gates(ts, curves, rel, fit),
        Gate("envelope final", envelope[-1], tol_abs),
        Gate("envelope non-increasing after t=2", monotone_after(ts, envelope)),
        *crosscheck,
        *symmetries,
    ]
    return _report(suite_id, cfg.params_dict(), ts, curves, tol_abs, gates, ["norms on interior window"], fit)


def suite_dirac_commutator(cfg: SweepConfig) -> VerificationReport:
    """Decay of [f(t^{-1}D), M_{h_t}] for the generators against each symbol."""
    rep, symmetries = _paired_half(cfg)
    gens = (("u", gaussian()), ("v", x_gaussian()))
    hs = named_symbols(cfg.dim)

    def matrices(t):
        fd = {a: rep.gauge(matrix_function(scale(f, t), rep.clifford)) for a, f in gens}
        for h in hs:
            # the bump breaks R_1: f(D/t) joins it on its coarser labels
            mh = multiplication_operator(rescale(h, t), rep.basis)
            count = len(mh.index)
            for a, fa in fd.items():
                yield f"[{a}(D/t),M_{h.name}]", graded_commutator(regroup(fa, count), mh, rep.window(2, count))

    return _commutator_suite(cfg, "dirac-commutator", matrices, symmetries)


def suite_cd_commutator(cfg: SweepConfig) -> VerificationReport:
    """Decay of [f(t^{-1}C), g(t^{-1}D)] for the generator pairs but (v, u) (:func:`_paired_half`)."""
    rep, symmetries = _paired_half(cfg)
    gens = (("u", gaussian()), ("v", x_gaussian()))

    def matrices(t):
        fc = {a: matrix_function(scale(f, t), rep.clifford) for a, f in gens}
        fd = {b: rep.gauge(x) for b, x in fc.items()}
        for a, b in (("u", "u"), ("u", "v"), ("v", "v")):
            yield f"[{a}(C/t),{b}(D/t)]", graded_commutator(fc[a], fd[b], rep.window())

    return _commutator_suite(cfg, "cd-commutator", matrices, symmetries)


def mehler_coefficients(s: float) -> tuple[float, float]:
    """The factorization coefficients s1 = (cosh 2s - 1)/sinh 2s, s2 = sinh(2s)/2.

    s1 is computed as tanh s, which it equals: the quotient loses every digit to
    cancellation as s -> 0, where s1 - s is about -s^3/3.
    """
    if not s > 0:
        raise ValueError("s must be positive")
    return math.tanh(s), math.sinh(2 * s) / 2.0


def suite_mehler(cfg: SweepConfig) -> VerificationReport:
    """Sandwich factorization of the harmonic semigroup at small s.

    Compares exp(-s(C^2+D^2)) with exp(-s1/2 C^2) exp(-s2 D^2) exp(-s1/2 C^2),
    and so the variant with C and D exchanged (:func:`_paired_half`).  The
    identity is exact in the untruncated model; at finite level the residual
    lives near the cut, so it is measured on a deep observation window (total
    level <= max(2, level//3)) and the tolerance scales with the level.
    """
    rep, symmetries = _paired_half(cfg)
    window_cap = max(2, cfg.level // 3)
    depth = cfg.level - window_cap
    tol = _mehler_tol(cfg.level)

    def heat(a: float, op: GradedMatrix) -> GradedMatrix:
        """exp(-a X^2) of an odd operator X."""
        return matrix_function(GradedFunction(lambda x: np.exp(-a * x * x), 0, "exp(-a x^2)"), op)

    w = rep.window(depth)

    def matrices(s):
        s1, s2 = mehler_coefficients(s)
        direct = matrix_function(GradedFunction(lambda x: np.exp(-s * x), None, "exp(-s x)"), rep.harmonic, w)
        ec = heat(s1 / 2.0, rep.clifford)
        yield "c-outside", direct - window_product(w, ec, rep.gauge(heat(s2, rep.clifford)), ec)

    curves, crosscheck = _sweep(MEHLER_S, matrices)
    envelope = _envelope(curves)
    # datapoints are ordered s descending: values must fall in stored order
    gates = [
        Gate("factorization residual at every s", envelope, tol),
        Gate("residual non-increasing as s falls",
             monotone_after(range(len(envelope)), envelope, start=0.0)),
        *crosscheck,
        *symmetries,
    ]
    s1_top, s2_top = mehler_coefficients(MEHLER_S[0])
    notes = [
        f"observation window: total level <= {window_cap}; residual is truncation-limited",
        f"coefficients at s={MEHLER_S[0]:g}: s1={s1_top:.12f}, s2={s2_top:.12f}",
        "datapoints ordered by decreasing s; both sides tend to the identity as s -> 0",
    ]
    return _report("mehler", cfg.params_dict(), MEHLER_S, curves, tol, gates, notes)


def suite_s1s2_asymptotics(cfg: SweepConfig) -> VerificationReport:
    """Replacing the factorization coefficients by t^{-2} is harmless as t grows.

    For both coefficients: plain and t^{-1}C-weighted norms of exp(-coef/2 C^2) -
    exp(-t^{-2}/2 C^2) along the t-grid, which are also those of D (:func:`_paired_half`).
    """
    rep, symmetries = _paired_half(cfg)
    tol = 1e-3
    w = rep.window()

    def matrices(t):
        for cname, coef in zip(("s1", "s2"), mehler_coefficients(t ** -2)):
            defect = GradedFunction(lambda x: np.exp(-coef / 2.0 * x * x) - np.exp(-(t ** -2) / 2.0 * x * x), 0,
                                    "exp(-coef/2 x^2) - exp(-t^-2/2 x^2)")
            yield f"C:{cname}", matrix_function(defect, rep.clifford, w)
            yield (f"C:{cname}:weighted",
                   matrix_function(GradedFunction(lambda x: x / t * defect(x), 1, "x/t defect"), rep.clifford, w))

    ts = cfg.t_grid
    curves, crosscheck = _sweep(ts, matrices)
    envelope = _envelope(curves)
    # scalar sanity: the coefficient defect shrinks like t^-6
    t_ref = ts[-1]
    gates = [
        Gate("final value of every curve", [c[-1] for c in curves.values()], tol),
        Gate("envelope non-increasing after t=2", monotone_after(ts, envelope)),
        Gate(f"coefficient defect |s1 - t^-2| at t={t_ref:g} (bound t^-6)",
             abs(mehler_coefficients(t_ref ** -2)[0] - t_ref ** -2), t_ref ** -6),
        *crosscheck,
        *symmetries,
    ]
    return _report("s1s2-asymptotics", cfg.params_dict(), ts, curves, tol, gates,
                   ["t=1 datapoint recorded without any claim"], decay_fit(ts, envelope))


def suite_composition_gamma(cfg: SweepConfig) -> VerificationReport:
    """Heat-kernel composition identities for the supercharge.

    u-curve: || exp(-t^-2 B^2) - exp(-t^-2 C^2) exp(-t^-2 D^2) ||
    v-curve: || t^-1 B exp(-t^-2 B^2) - t^-1 (C+D) exp(-t^-2 C^2) exp(-t^-2 D^2) ||
    both on the interior window, expected to shrink relative to their t=1
    values.  Additionally pins the multiplication-operator route against
    position functional calculus: with one quadrature node per basis level
    they coincide to rounding, because Gauss quadrature through level+1
    nodes is evaluation on the spectrum of the 1-D truncated position
    matrix X_K.  The Euclidean generators anticommute, so the Gaussian of
    the box-truncated C factorises over the axes, and the identity compares
    with the simplex entries of u(X_K) (x) .. (x) u(X_K) (x) 1.
    """
    rep = oscillator_rep(cfg.dim, cfg.level)
    u, v = gaussian(), x_gaussian()
    rel = 1e-2
    w = rep.window()

    def matrices(t):
        # (u(C) u(D))_W = u(C)[W, :] u(D)[:, W], and (B u(C) u(D))_W = B[W, :] u(C) u(D)[:, W]
        uc = matrix_function(scale(u, t), rep.clifford)
        ud = rep.gauge(uc)
        yield "gamma-u", matrix_function(scale(u, t), rep.bott, w) - window_product(w, uc, ud)
        yield "gamma-v", (matrix_function(scale(v, t), rep.bott, w)
                          - (1 / t) * window_product(w, rep.bott, uc, ud))

    ts = cfg.t_grid
    curves, crosscheck = _sweep(ts, matrices)
    envelope = _envelope(curves)
    fit = decay_fit(ts, envelope)

    # multiplication operator vs position functional calculus, matched nodes:
    # M_{uP} at K+1 nodes per axis is P_S [u(X_K) (x) .. (x) u(X_K)] (x) 1 P_S,
    # the entries prod_i u(X_K)[m_i, m'_i] at the simplex multi-indices
    hu = _gaussian_bott_map(cfg.dim, odd=False)
    m_matched = multiplication_operator(hu, rep.basis, nodes=cfg.level + 1)
    x_k = GradedMatrix(position_matrix(cfg.level), np.arange(cfg.level + 1) & 1)
    ux = matrix_function(u, x_k).mat
    product_calculus = _spatial_blade_operator(rep.basis, 0, [((ux,) * cfg.dim, np.eye(rep.basis.blade_count))])
    m_identity = windowed_norm(m_matched - product_calculus, rep, 0)
    uc1 = matrix_function(u, rep.clifford)
    m_cut = windowed_norm(m_matched - uc1, rep, 0)
    m_conv = multiplication_operator(hu, rep.basis)
    m_conv_full = windowed_norm(m_conv - uc1, rep, 0)
    m_conv_win = windowed_norm(m_conv - uc1, rep)

    gates = [
        *_decay_gates(ts, curves, rel, fit),
        Gate(f"multiplication = position calculus ({cfg.level + 1} nodes)", m_identity, 1e-6),
        *crosscheck,
        Gate("Fourier gauge S·C·S = D", fourier_gauge_residual(rep), 0.0),
    ]
    notes = [
        f"matched nodes against u(C): {m_cut:.3e} (the simplex cut truncates C; rounding only at n=1)",
        f"converged quadrature against u(C): {m_conv_full:.3e} full, "
        f"{m_conv_win:.3e} on interior window (difference concentrates at the cut)",
        f"largest-t norms: lhs {matrix_function(scale(u, ts[-1]), rep.bott).norm():.6f} "
        "(tends to the kernel-projection-dominated limit)",
    ]
    return _report("composition-gamma", cfg.params_dict(), ts, curves, rel * envelope[0],
                   gates, notes, fit)


def suite_homotopy_projection(cfg: SweepConfig) -> VerificationReport:
    """u(s^{-1}B) converges to the kernel projection as s -> 0.

    The kernel of B is spanned by the Gaussian ground state; the first
    nonzero eigenvalue of B^2 on the interior window is 2, so the interior
    norm of u(s^{-1}B) - p is exactly exp(-2/s^2) and the odd generator
    curve ||v(s^{-1}B)|| decays like (sqrt(2)/s) exp(-2/s^2).
    """
    rep = oscillator_rep(cfg.dim, cfg.level)
    u, v = gaussian(), x_gaussian()
    tol = 1e-6

    # the ground state, the Gaussian times the scalar blade, is the first basis vector of label 0
    blocks = [np.zeros((len(i),) * 2) for i in rep.bott.index]
    blocks[0][0, 0] = 1.0
    g_vec = blocks[0][:, 0].copy()
    w = rep.window()
    p = GradedMatrix.from_blocks(0, blocks, rep.bott.labels, rep.bott.index).window(w)

    def matrices(s):
        yield "u-to-projection", matrix_function(scale(u, s), rep.bott, w) - p
        yield "v-to-zero", matrix_function(scale(v, s), rep.bott, w)

    curves, crosscheck = _sweep(S_GRID, matrices)
    ub, vb = (matrix_function(scale(f, S_GRID[-1]), rep.bott) for f in (u, v))
    envelope = _envelope(curves)
    # exact endpoint identities on the full space, at the last (smallest) s
    gates = [
        Gate("envelope at the smallest s", envelope[-1], tol),
        Gate("envelope non-increasing as s falls",
             monotone_after(range(len(envelope)), envelope, start=0.0)),
        # the images of the ground state: column 0 of the blocks with label-0 columns
        Gate("kernel vector fixed by u(s^-1 B)", float(np.linalg.norm(ub.blocks[0][:, 0] - g_vec)), 1e-12),
        Gate("odd generator annihilates the kernel vector", float(np.linalg.norm(vb.blocks[1][:, 0])), 1e-12),
        *crosscheck,
    ]
    gap_val = math.exp(-2.0 / (S_GRID[-1] ** 2)) if 2.0 / S_GRID[-1] ** 2 < 700 else 0.0
    notes = [
        "norms on interior window; datapoints ordered by decreasing s",
        f"spectral-gap prediction exp(-2/s^2) at s={S_GRID[-1]:g}: {gap_val:.3e}",
    ]
    return _report("homotopy-projection", cfg.params_dict(), S_GRID, curves, tol, gates, notes)


def suite_delta_xr(cfg: SweepConfig) -> VerificationReport:
    """Comultiplication formulas against direct functional calculus.

    Truncation levels are fixed (the 1-D check is independent of the
    oscillator level); residuals are rounding noise at every level, so the
    monotonicity requirement only applies above the noise floor.  The
    residuals are bounded by 1e-10 (u) and 1e-8 (v), the report's ``tol``.
    """
    levels = [float(lev) for lev in DELTA_LEVELS]
    checks = [delta_via_xr_check(lev) for lev in DELTA_LEVELS]
    curves = {"u": [c.residual_u for c in checks], "v": [c.residual_v for c in checks]}

    gates = [
        Gate("even-generator residual (full norm)", curves["u"], 1e-10),
        Gate("odd-generator residual (interior)", curves["v"], 1e-8),
        Gate(f"envelope non-increasing above {NOISE_FLOOR:g}",
             monotone_after(levels, _envelope(curves), start=0.0)),
    ]
    notes = [
        f"truncation levels {list(DELTA_LEVELS)}; effective radii {[round(c.effective_radius, 3) for c in checks]}",
        "residuals are at rounding noise",
    ]
    return _report("delta-xr", cfg.params_dict(), levels, curves, 1e-8, gates, notes)


def suite_compactness(cfg: SweepConfig) -> VerificationReport:
    """Singular-value decay of u(B) M_h for each test symbol."""
    rep = oscillator_rep(cfg.dim, cfg.level)
    u = gaussian()
    tol = 1e-8  # also the singular-value threshold of the tail
    hs = named_symbols(cfg.dim)

    curves = {}
    tails = {}
    for h in hs:
        values = curves[f"sv:{h.name}"] = [float(s) for s in compactness_profile(u, h, rep)]
        tails[h.name] = next((i for i, s in enumerate(values) if s < tol), len(values))

    count = len(next(iter(curves.values())))
    gates = [
        Gate("smallest singular value of every symbol", [c[-1] for c in curves.values()], tol),
        Gate(f"every symbol has a singular value below {tol:g}", all(t < count for t in tails.values())),
    ]
    notes = [
        f"first singular value below {tol:g}, per symbol: "
        + ", ".join(f"{k}: {v}/{count}" for k, v in sorted(tails.items())),
        "singular values sorted descending; finite-rank shadow of compactness",
    ]
    return _report("compactness", cfg.params_dict(), [float(i) for i in range(count)],
                   curves, tol, gates, notes)


def _largest_difference(xs, ys) -> float:
    """The largest absolute entry of x - y over pairs of blocks, NaN if any is; a writeable x (a fresh
    array) is overwritten by the difference, so no other array is formed."""
    return largest_entry(np.abs(d, out=d).max(initial=0.0)
                         for d in (np.subtract(x, y, out=x if x.flags.writeable else None) for x, y in zip(xs, ys)))


def _conjugator(row: np.ndarray, sign: np.ndarray, labels: np.ndarray, index: tuple):
    """x -> the fresh blocks of ``u x u^T``, for the signed permutation u of :func:`flip_unitary` that
    sends basis vector p to ``sign[p]`` times basis vector ``row[p]``, between two spaces that hold
    these labels (``index`` their ``label_index``) and carries every label onto one of the same parity.

    Row k of label m has its one entry in column p(k), of label ``l(m)``, so block (m, m ^ d) of the
    product is ``x[l(m), l(m) ^ d]`` at the rows and columns p gives them, times the signs of its
    rows and columns; each entry is one entry of x times two signs, so the result equals the matrix
    product exactly.  The positions and the signs are read once per pair of labels, and a
    conjugation is one ``take`` and one in-place multiply per block.  A (row, sign) that is no such
    permutation gives a wrong result, not an error, for the gate that reads it to fail on.
    """
    local = np.empty(len(labels), dtype=np.intp)  # every basis index's position in its label
    for i in index:
        local[i] = np.arange(len(i))
    column = np.argsort(row)  # p(k) for every row k
    cols = [column[i] for i in index]
    source = [int(labels[c[0]]) if len(c) else m for m, c in enumerate(cols)]
    signs = [sign[c] for c in cols]
    gather = {(m, d): local[cols[m]][:, None] * len(index[source[m] ^ d]) + local[cols[m ^ d]][None, :]
              for m, d in np.ndindex(len(index), 2)}
    outer = {(m, d): signs[m][:, None] * signs[m ^ d][None, :] for m, d in np.ndindex(len(index), 2)}

    def blocks(x: GradedMatrix) -> list:
        out = [np.take(x.blocks[source[m]], gather[m, x.degree], mode="clip") for m in range(len(index))]
        for m, b in enumerate(out):
            b *= outer[m, x.degree]
        return out
    return blocks


def _flip_product_residuals(gens: tuple) -> tuple[float, float]:
    """Flip multiplicativity and involution residuals on the simple tensors of the generators, each
    side formed by :func:`graded_tensor` or :func:`flip_simple` and never by the swap.

    ``(a (x) b)(c (x) d) = (-1)^{|b||c|} ac (x) bd``, so its flip ``(-1)^{|b||c|} flip_simple(ac, bd)``
    must be ``flip_simple(a, b) @ flip_simple(c, d)``; and ``(a (x) b)^T = (-1)^{|a||b|} a^T (x) b^T``,
    for the tensor and for its flip.
    """
    pairs = [(a, b) for a in gens for b in gens]
    flips = [flip_simple(a, b) for a, b in pairs]
    mult = largest_entry(_largest_difference(flip_simple((-1.0) ** (b.degree * c.degree) * (a @ c), b @ d).blocks,
                                             (f1 @ f2).blocks)
                         for (a, b), f1 in zip(pairs, flips) for (c, d), f2 in zip(pairs, flips))
    inv = []
    for (a, b), f in zip(pairs, flips):
        # the tensor's law on a^T and b^T, whose tensor no other check forms
        sign, ta, tb = (-1.0) ** (a.degree * b.degree), involution(a), involution(b)
        inv += [_largest_difference(involution(graded_tensor(ta, tb)).blocks,
                                    graded_tensor(sign * involution(ta), involution(tb)).blocks),
                _largest_difference(involution(f).blocks, flip_simple(sign * ta, tb).blocks)]
    return mult, largest_entry(inv)


def _blade_word_product(sig: Signature, a: int, b: int) -> tuple[int, int]:
    """The sign and the blade of the product of blades a and b, read from their generator words:
    sorting ``e_a e_b`` moves each generator of b past every generator of a of a higher index, one
    sign each, and every generator in both then squares to its sign."""
    gens_a, gens_b = ([i for i in range(sig.n) if m >> i & 1] for m in (a, b))
    sign = (-1) ** sum(i > j for i in gens_a for j in gens_b)
    for i in gens_a:
        if b >> i & 1:
            sign *= sig.square_sign(i + 1)
    return sign, a ^ b


def _grading_residual(sigs) -> tuple[float, int]:
    """How far the grading automorphism g of ``xy``, with xy read from the Cayley table, is from
    ``g(x) g(y)`` multiplied by their generator words, over every pair of blades x, y of every
    signature (NaN when any is); and the number of pairs.  g negates the generators, so it is
    diagonal on blades, with the sign of each blade's parity."""
    worst, count = [], 0
    for sig in sigs:
        signs = grading_signs(blade_parities(sig))
        for a in range(sig.blade_count):
            # column b: blade a times blade b
            products = left_mult_operator(sig, a) * signs[:, None]
            for b in range(sig.blade_count):
                sign, blade = _blade_word_product(sig, a, b)
                products[blade, b] -= signs[a] * signs[b] * sign
            worst.append(products)
            count += sig.blade_count
    return largest_entry(worst), count


def suite_flip_endpoints(cfg: SweepConfig) -> VerificationReport:
    """Endpoint identities of the flip on tensor squares (rank-1 base only).

    For each t and test symbol, the element u(t^{-1}D) M_{h_t} (x) u(C) is
    assembled twice: directly, and by building the opposite-order tensor and
    conjugating with the signed swap.  The two routes exercise the Koszul
    sign bookkeeping through independent arithmetic; mismatched signs would
    show up at the odd-odd parity combinations.  The flip's product and
    involution laws are checked on simple tensors, where the signs live, and
    the grading automorphism against products read from generator words.
    """
    notes = []
    if cfg.dim != 1:
        notes.append(f"tensor-square dimensions force dim=1 (requested {cfg.dim})")
    level = min(cfg.level, 10)
    if level != cfg.level:
        notes.append(f"level capped at 10 for the tensor square (requested {cfg.level})")
    rep = oscillator_rep(1, level)
    u, v = gaussian(), x_gaussian()
    tol = 1e-8
    sub = SweepConfig(dim=1, level=level, t_grid=cfg.t_grid)
    hs = named_symbols(1)

    # the right factors on their four labels; a left factor on its own, the bump's on the parity labels
    # because the bump breaks R_1; per left label count, the swap conjugation and the grading
    uc, vc = (matrix_function(f, rep.clifford) for f in (u, v))
    lb, squares, ll = uc.labels, {}, []
    for la in (lb, lb & 1):
        (row, sign), (back, back_sign) = flip_unitary(la, lb), flip_unitary(lb, la)
        # l o l = id as signed permutations: column p of l o l holds s = back_sign[row[p]] * sign[p] in
        # row back[row[p]], so its largest entry of l o l - id is |s - 1| on the diagonal, else max(|s|, 1)
        s, home = back_sign[row] * sign, back[row] == np.arange(len(row))
        ll.append(np.where(home, np.abs(s - 1.0), np.maximum(np.abs(s), 1.0)).max(initial=0.0))
        labels = tensor_labels(la, lb)  # the (a, b) and (b, a) spaces hold these labels, sorted
        index = label_index(labels, 1 << _label_bits(labels))
        # the grading operator 1 (x) gamma on the tensor space, as the diagonal of its matrix (the sign
        # of each basis vector's second leg), per label
        second = grading_signs(lb & 1)[tensor_pairs(la, lb)[1]]
        squares[1 << _label_bits(la)] = _conjugator(row, sign, labels, index), [second[i] for i in index]

    def flip_route_residual(a: GradedMatrix, b: GradedMatrix, conj, gam, grading: bool) -> float:
        """Both routes to the flip of ``a (x) b``; with ``grading`` (for an even second leg,
        on which the grading automorphism is invisible) also how far the grading moves it."""
        ab = graded_tensor(a, b)
        worst = [_largest_difference(conj(ab), flip_simple(a, b).blocks)]
        if grading:
            worst.append(_largest_difference(signed(ab, gam).blocks, ab.blocks))
        return largest_entry(worst)

    curves: dict[str, list[float]] = {h.name: [] for h in hs}
    for t in cfg.t_grid:
        ud, vd = (rep.gauge(matrix_function(scale(f, t), rep.clifford)) for f in (u, v))
        for h in hs:
            # the morphism images u(D/t) M_{h_t} and v(D/t) M_{h_t}, sharing one M_{h_t}, on its labels
            mh = multiplication_operator(rescale(h, t), rep.basis)
            conj, gam = squares[len(mh.index)]
            a_even, a_odd = (regroup(f, len(mh.index)) @ mh for f in (ud, vd))
            curves[h.name].append(largest_entry(flip_route_residual(left, right, conj, gam,
                                                                    left is a_even and right is uc)
                                                for left in (a_even, a_odd) for right in (uc, vc)))

    mult_worst, inv_worst = _flip_product_residuals((uc, vc))
    grading_worst, blade_pairs = _grading_residual((Signature(2, 0), Signature(1, 1), Signature(2, 1)))

    gates = [
        Gate("two assembly routes agree at every t", [val for c in curves.values() for val in c], tol),
        Gate("double flip deviation from identity", largest_entry(ll), 1e-14),
        Gate("flip multiplicativity on 16 products of simple tensors", mult_worst, tol),
        Gate("tensor and flip respect the involution on 4 simple tensors", inv_worst, tol),
        Gate(f"grading automorphism multiplicative on all {blade_pairs} blade pairs (generator words)",
             grading_worst, tol),
        Gate("Fourier gauge S·C·S = D", fourier_gauge_residual(rep), 0.0),
    ]
    # params describe what was actually computed; the notes record coercion
    return _report("flip-endpoints", sub.params_dict(), cfg.t_grid, curves, tol, gates, notes)


SUITES = {
    "clifford-iso": suite_clifford_iso,
    "spectrum": suite_spectrum,
    "dirac-commutator": suite_dirac_commutator,
    "cd-commutator": suite_cd_commutator,
    "mehler": suite_mehler,
    "s1s2-asymptotics": suite_s1s2_asymptotics,
    "composition-gamma": suite_composition_gamma,
    "homotopy-projection": suite_homotopy_projection,
    "delta-xr": suite_delta_xr,
    "compactness": suite_compactness,
    "flip-endpoints": suite_flip_endpoints,
}


def run_suite(suite_id: str, cfg: SweepConfig) -> VerificationReport:
    if suite_id not in SUITES:
        raise ValueError(f"unknown suite {suite_id!r}; expected one of {sorted(SUITES)}")
    return SUITES[suite_id](cfg)
