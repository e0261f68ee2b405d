"""Tests for the verification-suite layer.

The suites themselves are exercised end to end by the acceptance tests;
here the focus is the machinery they stand on (norms, fits, monotonicity,
the radial symbol construction, the asymptotic morphism) plus structural
properties of the reports and stability of the results under enlarging
the truncation.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bottlab import clifford, graded, oscillator, verify
from bottlab.clifford import Signature, left_mult_operator, regular_representation
from bottlab.funcalc import GradedFunction, gaussian, matrix_function, scale, x_gaussian
from bottlab.graded import GradedMatrix, flip_unitary, regroup
from bottlab.oscillator import (
    CliffFunction,
    OscillatorRep,
    multiplication_operator,
    oscillator_rep,
    rescale,
)
from bottlab.verify import (
    DEFAULT_T_GRID,
    SUITES,
    Gate,
    SweepConfig,
    _gaussian_bott_map,
    decay_fit,
    mehler_coefficients,
    monotone_after,
    named_symbols,
    run_suite,
    shifted_bump,
    svd_norm,
    windowed_norm,
)
from oracles import (basis_parity, bott_map, clifford_product, dense_curve_norms, dense_flip, fmul, fprod, fsum,
                     interior_mask, signed_permutation, sup_norm, symbol_values, tensor_parity)


# ---------------------------------------------------------------------------
# norms and curve analysis
# ---------------------------------------------------------------------------

def test_operator_norm_agrees_with_svd_norm():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((30, 30))
        a, (b, converged) = np.linalg.norm(m, 2), svd_norm(m)
        assert converged and abs(a - b) <= 1e-8 * a, f"seed {seed}: {a} vs {b}"


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (5, 5)])
def test_svd_norm_of_an_empty_or_zero_block_is_zero(shape):
    assert svd_norm(np.zeros(shape)) == (0.0, True)


def _clustered(seed: int, width: float, n: int = 60, count: int = 5) -> np.ndarray:
    """A matrix whose top ``count`` singular values are 1, 1 - width, 1 - 2 width, .."""
    rng = np.random.default_rng(seed)
    s = np.concatenate([1.0 - width * np.arange(count), np.linspace(0.5, 0.01, n - count)])
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * s) @ v.T


@pytest.mark.parametrize("width", [1e-4, 1e-6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_svd_norm_resolves_clustered_top_singular_values(seed, width):
    # power iteration on A^T A converges at the rate (s_2 / s_1)^2, so on such
    # a cluster it stopped 1e-6..3e-4 short of the norm, past the cross-check's 1e-8
    norm, converged = svd_norm(_clustered(seed, width))
    assert converged
    assert abs(norm - 1.0) <= 1e-8


def test_svd_that_does_not_converge_fails_its_own_gate(monkeypatch):
    monkeypatch.setattr(verify, "svd_norm", lambda m: (svd_norm(m)[0], False))
    rep = run_suite("cd-commutator", SweepConfig(dim=1, level=12))
    assert not rep.passed
    assert "gate SVD converged on every sample: FAIL" in rep.notes


def test_svd_norm_reports_a_lapack_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    norm, converged = svd_norm(np.eye(3))
    assert math.isnan(norm) and converged is False


SWEEP_SUITES = ["dirac-commutator", "cd-commutator", "mehler", "s1s2-asymptotics", "composition-gamma",
                "homotopy-projection"]
# the C/D curve suites, which norm on the R_2 = +1 half at dim >= 2
HALVED_SUITES = ["dirac-commutator", "cd-commutator", "mehler", "s1s2-asymptotics"]
# the suites that read f(D) as S f(C) S, or a curve of D as its twin of C, under the Fourier gauge gate
GAUGED_SUITES = [*HALVED_SUITES, "composition-gamma", "flip-endpoints"]


@pytest.mark.parametrize("suite", SWEEP_SUITES)
def test_norm_cross_check_reads_three_matrices_one_of_them_resolvable(suite, monkeypatch):
    # each sample is read as its four label blocks; the gate bounds |a - b| by 1e-8 a, so an
    # SVD route off by 1e-6 relative trips it, whatever the size of the samples
    # (mehler's window residuals are 1e-12..2e-5 at (1,12))
    norms = []

    def off_by_1e6(a):
        out = svd_norm(a)
        norms.append(out[0])
        return out[0] * (1.0 + 1e-6), out[1]

    monkeypatch.setattr(verify, "svd_norm", off_by_1e6)
    rep = run_suite(suite, SweepConfig(dim=1, level=12))
    assert len(norms) == 4 * 3, norms
    if suite == "mehler":
        assert max(norms) < 1e-2, norms
    (gate,) = [n for n in rep.notes if n.startswith("gate norm cross-check")]
    assert gate.endswith(" FAIL") and not rep.passed, gate


@pytest.mark.parametrize("suite,config", [("s1s2-asymptotics", (1, 8)), ("homotopy-projection", (1, 6))])
def test_norm_cross_check_catches_a_forged_norm_certificate(suite, config, monkeypatch):
    # block_norm eigensolves the first nonzero block and skips every later one that a Cholesky
    # certificate bounds; one that always passes reads the first block of each sample, and the SVD
    # cross-check sees it on these samples, where a later block is larger
    def gate(rep):
        (note,) = [n for n in rep.notes if n.startswith("gate norm cross-check (block norm vs SVD, 3 samples)")]
        return note

    assert gate(run_suite(suite, SweepConfig(dim=config[0], level=config[1]))).endswith(" ok")
    monkeypatch.setattr(graded, "_bounded", lambda gram, c: True)
    rep = run_suite(suite, SweepConfig(dim=config[0], level=config[1]))
    assert gate(rep).endswith(" FAIL") and not rep.passed, gate(rep)


def test_windowed_norm_matches_manual_restriction():
    rep = oscillator_rep(1, 8)
    m = (rep.bott @ rep.bott).mat
    mask = interior_mask(rep.basis)
    manual = np.linalg.norm(m[np.ix_(mask, mask)], 2)
    assert windowed_norm(GradedMatrix(m, basis_parity(rep.basis)), rep) == manual
    assert windowed_norm(rep.bott @ rep.bott, rep) == manual


@given(seed=st.integers(0, 2**31 - 1), config=st.sampled_from([(1, 6), (2, 8)]),
       depth=st.sampled_from([0, 2, "level"]),
       degree=st.sampled_from([0, 1, "mixed", "mixed outside the window"]))
@settings(max_examples=60, deadline=None)
def test_windowed_norm_matches_dense_window_norm(seed, config, depth, degree):
    rep = oscillator_rep(*config)
    depth = rep.basis.level if depth == "level" else depth
    rng = np.random.default_rng(seed)
    par = basis_parity(rep.basis)
    mask = interior_mask(rep.basis, depth)
    m = rng.standard_normal((rep.basis.size, rep.basis.size))
    mix = par[:, None] ^ par[None, :]
    if degree in (0, 1):
        m *= mix == degree
    elif degree == "mixed outside the window":
        m *= (mix == 1) | ~np.outer(mask, mask)
    if m[mix == 0].any() and m[mix == 1].any():
        # a matrix of both degrees is rejected when it is built, wherever its entries lie
        with pytest.raises(ValueError, match="both degrees"):
            GradedMatrix(m, par)
        return
    want = np.linalg.norm(m[np.ix_(mask, mask)], 2)
    got = windowed_norm(GradedMatrix(m, par), rep, depth)
    assert abs(got - want) <= 1e-13 * want


def test_decay_fit_recovers_power_law():
    ts = np.geomspace(1, 64, 13)
    slope, r2 = decay_fit(ts, 3.0 * ts**-2.0)
    assert math.isclose(slope, -2.0, abs_tol=1e-9)
    assert r2 > 1.0 - 1e-12
    flat_slope, _ = decay_fit(ts, np.ones_like(ts))
    assert abs(flat_slope) < 1e-12
    assert decay_fit([1.0], [0.5]) is None
    assert decay_fit([2.0, 2.0], [0.5, 0.5]) is None


def test_monotone_after_jitter_and_floor():
    ts = [1, 2, 3, 4, 5]
    assert monotone_after(ts, [5.0, 1.0, 1.03, 0.9, 0.8])       # 3% bump: jitter
    assert not monotone_after(ts, [5.0, 1.0, 1.2, 0.9, 0.8])    # 20% bump: fails
    assert monotone_after(ts, [9.9, 1.0, 0.5, 1e-15, 8e-14])    # noise floor
    assert monotone_after(ts, [1.0, 50.0, 40.0, 30.0, 20.0], start=2.0)  # burn-in


def test_curve_helpers_read_a_nan_as_a_failure():
    nan, ts = math.nan, [1, 2, 3, 4, 5]
    # max([1.0, nan]) is 1.0: the envelope must not drop a NaN that comes second
    env = verify._envelope({"a": [1.0, 0.5], "b": [nan, 0.25], "c": [0.75, nan]})
    assert math.isnan(env[0]) and math.isnan(env[1])
    assert verify._envelope({"a": [1.0, 0.5], "b": [0.25, 2.0]}) == [1.0, 2.0]
    # a NaN compares false both ways, so no rise could be seen at it
    assert not monotone_after(ts, [5.0, 1.0, nan, 0.9, 0.8])
    assert not monotone_after(ts, [5.0, 1.0, 0.9, 0.8, nan])
    assert not monotone_after(ts, [nan, 1.0, 0.9, 0.8, 0.7])
    assert not monotone_after(ts, [5.0, 1e-15, nan, 1e-15, 1e-15])

    def ratio(curve):
        (gate, *_) = verify._decay_gates(ts, {"c": curve}, 0.25, (-1.0, 1.0))
        return gate

    assert math.isnan(ratio([nan, 1.0, 0.5, 0.2, 0.1]).value)
    assert math.isnan(ratio([1.0, 1.0, 0.5, 0.2, nan]).value)
    assert math.isnan(ratio([0.0, 0.0, 0.0, 0.0, nan]).value)
    assert not ratio([nan, 1.0, 0.5, 0.2, 0.1]).ok
    assert ratio([0.0, 0.0, 0.0, 0.0, 0.0]).value == 0.0 and ratio([0.0] * 5).ok
    assert repr(ratio([4.0, 1.0, 0.5, 0.2, 0.1]).value) == repr(0.1 / 4.0)

    # the fit's filter drops values at or below 1e-300, and NaN compares false to it: a NaN anywhere
    # leaves no fit, so the exponent gate fails, where the finite points alone would fit a decay
    for curve in ([1.0, 0.5, nan, 0.2, 0.1], [nan, 0.5, 0.3, 0.2, 0.1], [1.0, 0.5, 0.3, 0.2, nan],
                  [1.0, 0.5, math.inf, 0.2, 0.1]):
        assert decay_fit(ts, curve) is None, curve
        (exponent,) = [g for g in verify._decay_gates(ts, {"c": curve}, 0.25, decay_fit(ts, curve))
                       if g.name == "decay exponent < 0"]
        assert not exponent.ok
    # finite fits are those of before, to the last digit, a dropped underflow included
    assert repr(decay_fit(ts, [5.0, 1.0, 0.9, 0.8, 0.1])) == "(-1.9515647538234078, 0.7944858880895207)"
    assert repr(decay_fit(ts, [1.0, 0.5, 1e-320, 0.2, 0.1])) == "(-1.3645790112070728, 0.9645264838072831)"


def _sweep_cross_check(value, monkeypatch):
    # three samples of a 2 x 2 matrix, the middle one with the value added to an entry
    par = np.array([0, 1], dtype=np.uint8)

    def matrices(x):
        yield "c", GradedMatrix(np.array([[x, 0.0], [0.0, 1.0 + value if x == 2.0 else 1.0]]), par)
    return verify._sweep([1.0, 2.0, 3.0], matrices)[1][0].value


def _largest_difference(value, monkeypatch):
    return verify._largest_difference([np.zeros(2), np.array([0.0, 0.0 + value])], [np.zeros(2), np.zeros(2)])


def _relation_residual(value, monkeypatch):
    # the generators of Cl(2,0), the second with the value added to an entry
    sig = Signature(2, 0)
    mats = regular_representation(sig)
    mats[1][0, 0] += value
    return clifford.matrix_relation_residual(mats, sig)


def _rank_relation_residual(value, monkeypatch):
    # clifford-iso's relation residual at rank 2, with the value added to that of signature (1,1),
    # the second of its rank
    monkeypatch.setattr(verify, "matrix_relation_residual", lambda mats, sig: clifford.matrix_relation_residual(
        mats, sig) + (value if (sig.p, sig.q) == (1, 1) else 0.0))
    return run_suite("clifford-iso", SweepConfig()).curves["relation-residual"][1]


def _dirac_residual(residual):
    def read(value, monkeypatch):
        # D at (2,4) with the value added to an entry of its last block
        rep = oscillator_rep(2, 4)
        blocks = [b.copy() for b in rep.dirac.blocks]
        blocks[-1][0, 0] += value
        dirac = GradedMatrix.from_blocks(1, blocks, rep.dirac.labels, rep.dirac.index)
        return residual(OscillatorRep(rep.basis, rep.clifford, dirac, rep.bott, rep.number, rep.harmonic))
    return read


def _grading_residual(value, monkeypatch):
    # the Cayley table's products of blade e_1, with the value added to an entry
    def added(sig, mask):
        out = left_mult_operator(sig, mask)
        out[0, 0] += value if mask == 1 else 0.0
        return out
    monkeypatch.setattr(verify, "left_mult_operator", added)
    return verify._grading_residual((Signature(2, 0),))[0]


# name: the residual, exactly 0, with a value added to one of the entries it reads after the first
NAN_RESIDUALS = {
    "sweep cross-check": _sweep_cross_check,
    "largest difference": _largest_difference,
    "matrix relation residual": _relation_residual,
    "relation residual of a rank": _rank_relation_residual,
    "volume pairing residual": _dirac_residual(oscillator.volume_pairing_residual),
    "Fourier gauge residual": _dirac_residual(oscillator.fourier_gauge_residual),
    "grading residual": _grading_residual,
}


@pytest.mark.parametrize("name", sorted(NAN_RESIDUALS))
def test_exact_residuals_read_a_nan_as_a_failure(name, monkeypatch):
    # max([0.0, nan]) is 0.0: a NaN entry after the first must still reach the residual and fail its
    # gate, and with 0 added the residual is 0 exactly, as before
    residual = NAN_RESIDUALS[name]
    assert math.isnan(residual(math.nan, monkeypatch))
    assert not Gate(name, residual(math.nan, monkeypatch), 1e-8).ok
    assert repr(residual(0.0, monkeypatch)) == "0.0"


def test_flip_gates_read_a_nan_as_a_failure(monkeypatch):
    # a NaN in the last block of every flip of simple tensors reaches all three flip residual gates
    real = graded.flip_simple

    def with_nan(a, b):
        out = real(a, b)
        blocks = [x.copy() for x in out.blocks]
        blocks[-1][...] = math.nan
        return GradedMatrix.from_blocks(out.degree, blocks, out.labels, out.index)
    monkeypatch.setattr(verify, "flip_simple", with_nan)
    rep = run_suite("flip-endpoints", SweepConfig(dim=1, level=4, t_grid=(1.0, 2.0)))
    failed = {note.split(":")[0] for note in rep.notes if note.endswith("FAIL")}
    assert failed == {"gate two assembly routes agree at every t",
                      "gate flip multiplicativity on 16 products of simple tensors",
                      "gate tensor and flip respect the involution on 4 simple tensors"}
    assert all(math.isnan(v) for c in rep.curves.values() for v in c)


def test_a_nan_curve_norm_fails_the_commutator_suite(monkeypatch):
    # three curves per t: the 11th norm is [u(C/t),v(D/t)] at t index 3, after the burn-in
    norm, calls = GradedMatrix.norm, []

    def nan_on_the_11th_call(self):
        calls.append(self)
        return math.nan if len(calls) == 11 else norm(self)

    monkeypatch.setattr(GradedMatrix, "norm", nan_on_the_11th_call)
    rep = run_suite("cd-commutator", SweepConfig(dim=1, level=10))
    assert math.isnan(rep.curves["[u(C/t),v(D/t)]"][3])
    assert math.isnan(rep.datapoints[3][1])
    assert not rep.passed
    assert "gate every curve non-increasing after t=2: FAIL" in rep.notes
    assert "gate envelope non-increasing after t=2: FAIL" in rep.notes


# ---------------------------------------------------------------------------
# radial Clifford symbols
# ---------------------------------------------------------------------------

def _blade_coordinates(mat: np.ndarray, sig: Signature) -> np.ndarray:
    """Express a matrix in the blade basis of the regular representation."""
    basis = np.stack([left_mult_operator(sig, m).ravel() for m in range(sig.blade_count)])
    coeffs, *_ = np.linalg.lstsq(basis.T, mat.ravel(), rcond=None)
    return coeffs


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bott_map_matches_functional_calculus_oracle(dim):
    # oracle: evaluate f on the odd matrix sum_i v_i lambda(e_i) by direct
    # eigendecomposition, then read off its blade coordinates
    sig = Signature(dim, 0)
    gens = regular_representation(sig)
    rng = np.random.default_rng(17)
    pts = rng.uniform(-2, 2, size=(6, dim))
    for f in (gaussian(), x_gaussian(), fsum(gaussian(), x_gaussian())):
        values = bott_map(f, dim)(pts)
        for row, v in enumerate(pts):
            vmat = sum(vi * g for vi, g in zip(v, gens))
            w, q = np.linalg.eigh(vmat)
            fv = (q * f(w)) @ q.T
            expected = _blade_coordinates(fv, sig)
            assert np.allclose(values[row], expected, atol=1e-10), (f.name, v)


def test_bott_map_even_generator_values():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    vals = bott_map(gaussian(), 2)(pts)
    # scalar blade carries exp(-||v||^2); vector blades vanish for even f
    assert math.isclose(vals[0, 0], 1.0)
    assert math.isclose(vals[1, 0], math.exp(-2.0))
    assert np.abs(vals[:, 1:]).max() == 0.0
    assert _gaussian_bott_map(2, odd=False).parity == 0


def test_bott_map_odd_generator_values():
    v = np.array([[0.6, -0.3]])
    vals = bott_map(x_gaussian(), 2)(v)
    r2 = 0.36 + 0.09
    assert math.isclose(vals[0, 0], 0.0, abs_tol=1e-15)
    assert math.isclose(vals[0, 1], 0.6 * math.exp(-r2), rel_tol=1e-12)
    assert math.isclose(vals[0, 2], -0.3 * math.exp(-r2), rel_tol=1e-12)
    assert _gaussian_bott_map(2, odd=True).parity == 1


def test_bott_map_multiplicative_pointwise():
    # (f g)(V) = f(V) g(V) pointwise in v, as Clifford products
    dim = 2
    sig = Signature(dim, 0)
    u, v = gaussian(), x_gaussian()
    fu, fv, fuv = bott_map(u, dim), bott_map(v, dim), bott_map(fprod(u, v), dim)
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1.5, 1.5, size=(5, dim))
    cu, cv, cuv = fu(pts), fv(pts), fuv(pts)
    for row in range(len(pts)):
        assert np.allclose(clifford_product(sig, cu[row], cv[row]), cuv[row], atol=1e-12)


def test_shifted_bump_shape():
    h = shifted_bump(2)
    vals = symbol_values(h, np.array([[0.8, 0.0], [0.0, 0.0]]))
    assert vals[0, 1] == 1.0                     # peak on the e1 coefficient
    assert 0 < vals[1, 1] < 1.0
    assert np.abs(vals[:, [0, 2, 3]]).max() == 0.0
    assert h.parity == 1


def test_named_symbols():
    for dim in (1, 3):
        out = named_symbols(dim)
        assert [h.name for h in out] == ["uP", "vP", "bump"]
        assert [h.parity for h in out] == [0, 1, 1]
        assert all(h.dim == dim for h in out)


# ---------------------------------------------------------------------------
# the asymptotic morphism
# ---------------------------------------------------------------------------

def alpha(f: GradedFunction, h: CliffFunction, t: float, rep: OscillatorRep) -> GradedMatrix:
    """The asymptotic-morphism image f(t^{-1} D) M_{h(./t)} at parameter t >= 1."""
    if not t >= 1:
        raise ValueError(f"morphism parameter must be >= 1, got {t}")
    mh = multiplication_operator(rescale(h, t), rep.basis)
    return regroup(matrix_function(scale(f, t), rep.dirac), len(mh.index)) @ mh


def test_alpha_validation_and_norm_bound():
    rep = oscillator_rep(1, 10)
    u = gaussian()
    h = _gaussian_bott_map(1, odd=False)
    with pytest.raises(ValueError):
        alpha(u, h, 0.5, rep)
    a = alpha(u, h, 1.0, rep)
    # ||f(D/t)|| <= sup|f| exactly; the symbol factor is a contraction too
    assert np.linalg.norm(a.mat, 2) <= sup_norm(u) * 1.0 + 1e-10


def test_alpha_zero_function_is_zero():
    rep = oscillator_rep(1, 8)
    zero = fsum(gaussian(), fmul(-1.0, gaussian()))
    a = alpha(zero, _gaussian_bott_map(1, odd=False), 2.0, rep)
    assert np.abs(a.mat).max() <= 1e-15


def _symbol_product_1d(h1: CliffFunction, h2: CliffFunction) -> CliffFunction:
    """Pointwise Clifford product of two symbols on R^1 (blades 1, e1).

    The product of blades b1, b2 is the blade b1 ^ b2 with sign +1, since
    e1^2 = 1, so each pair of terms gives one term.
    """
    terms = tuple((b1 ^ b2, (GradedFunction(lambda x, f=g1, g=g2: f(x) * g(x), None, "product"),))
                  for b1, (g1,) in h1.terms for b2, (g2,) in h2.terms)
    return CliffFunction(1, f"{h1.name}*{h2.name}", terms)


def test_alpha_is_asymptotically_multiplicative():
    # the homomorphism defect on products of the comultiplied generators
    # decays along the parameter grid
    rep = oscillator_rep(1, 12)
    u, v = gaussian(), x_gaussian()
    uP, vP = _gaussian_bott_map(1, odd=False), _gaussian_bott_map(1, odd=True)
    du = [(1.0, u, uP)]
    dv = [(1.0, u, vP), (1.0, v, uP)]

    def alpha_of(elem, t):
        return sum(c * alpha(f, h, t, rep).mat for c, f, h in elem)

    def product(e1, e2):
        out = []
        for c1, f1, h1 in e1:
            for c2, f2, h2 in e2:
                sign = -1.0 if (h1.parity == 1 and f2.parity == 1) else 1.0
                out.append((c1 * c2 * sign, fprod(f1, f2), _symbol_product_1d(h1, h2)))
        return out

    ts = np.geomspace(1.0, 32.0, 6)
    for name, e1, e2 in [("uu", du, du), ("uv", du, dv), ("vv", dv, dv)]:
        defects = []
        for t in ts:
            lhs = alpha_of(product(e1, e2), t)
            rhs = alpha_of(e1, t) @ alpha_of(e2, t)
            defects.append(windowed_norm(GradedMatrix(lhs - rhs, basis_parity(rep.basis)), rep))
        assert defects[-1] <= 1e-2, f"{name}: {defects}"
        assert defects[-1] <= 0.05 * defects[0], f"{name}: {defects}"
        assert monotone_after(ts, defects), f"{name}: {defects}"


# ---------------------------------------------------------------------------
# configuration and reports
# ---------------------------------------------------------------------------

def test_sweep_config_validation_messages():
    with pytest.raises(ValueError, match="dim must be >= 1"):
        SweepConfig(dim=0, level=8)
    with pytest.raises(ValueError, match="dim must be <= 10"):
        SweepConfig(dim=11, level=8)
    # the largest Clifford algebra tabulated, but its 1024 labels of 1001 states are over the memory budget
    with pytest.raises(ValueError, match="dim 10, levels 4 needs .* no level fits"):
        SweepConfig(dim=10, level=4)
    assert SweepConfig(dim=7, level=4).dim == 7
    with pytest.raises(ValueError, match="levels must be >= 4"):
        SweepConfig(dim=1, level=3)
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepConfig(dim=1, level=8, t_grid=(2.0, 1.0))
    with pytest.raises(ValueError, match="start at t >= 1"):
        SweepConfig(dim=1, level=8, t_grid=(0.5, 2.0))
    # comparisons with NaN are false, so no ordering check can catch it
    with pytest.raises(ValueError, match="t_grid values must be finite"):
        SweepConfig(dim=1, level=8, t_grid=(1.0, float("nan")))
    with pytest.raises(ValueError, match="t_grid values must be finite"):
        SweepConfig(dim=1, level=8, t_grid=(float("nan"), 2.0))
    with pytest.raises(ValueError, match="t_grid values must be finite"):
        SweepConfig(dim=1, level=8, t_grid=(1.0, math.inf))
    # there is no per-run override: every gate reads the bound its suite declares
    with pytest.raises(TypeError, match="tol"):
        SweepConfig(dim=1, level=8, tol=-1.0)


def test_report_schema_and_csv_shape():
    rep = run_suite("spectrum", SweepConfig(dim=1, level=8))
    d = rep.to_json_dict()
    assert set(d) == {"schema", "suite", "params", "datapoints",
                      "fit", "pass", "tol", "notes"}
    assert d["schema"] == "v1"
    assert d["suite"] == "spectrum"
    assert all(set(p) == {"t", "value"} for p in d["datapoints"])
    assert isinstance(d["pass"], bool)
    rows = rep.csv_rows()
    assert len(rows) == len(rep.datapoints) * len(rep.curves)
    assert all(r[0] == "spectrum" for r in rows)


def test_suite_registry_and_unknown_id():
    assert len(SUITES) == 11
    with pytest.raises(ValueError):
        run_suite("not-a-suite", SweepConfig(dim=1, level=8))


def test_passing_report_meets_its_own_tolerance():
    cfg = SweepConfig(dim=1, level=10)
    rep = run_suite("dirac-commutator", cfg)
    assert rep.passed
    assert rep.datapoints[-1][1] <= rep.tol
    assert monotone_after([t for t, _ in rep.datapoints],
                          [v for _, v in rep.datapoints])
    assert rep.fit is not None and rep.fit[0] < 0


def test_mehler_coefficient_identities():
    for s in (0.05, 0.1, 0.3, 0.5):
        s1, s2 = mehler_coefficients(s)
        assert math.isclose(s1, math.tanh(s), rel_tol=1e-12)
        assert math.isclose(s2, math.sinh(2 * s) / 2.0, rel_tol=1e-12)
        # both approach s from opposite sides as s -> 0
        assert abs(s1 - s) <= s**3
        assert abs(s2 - s) <= 1.4 * s**3
        assert s1 <= s <= s2


def test_mehler_coefficients_keep_their_digits_at_small_s():
    # s1 - s is about -s^3/3; (cosh 2s - 1)/sinh 2s lost it to cancellation
    # (1e-10 off at s = 1e-6)
    for s in (1e-4, 1e-6, 1e-8):
        s1, _ = mehler_coefficients(s)
        assert abs(s1 - math.tanh(s)) <= 1e-15 * s
        assert abs(s1 - s + s**3 / 3) <= 1e-15 * s
    # so s1s2-asymptotics passes on a grid reaching t = 1000, where s = 1e-6
    rep = run_suite("s1s2-asymptotics", SweepConfig(dim=1, level=12,
                                                    t_grid=tuple(np.geomspace(1.0, 1000.0, 9))))
    assert rep.passed, rep.notes


def test_homotopy_suite_interior_values_are_exact():
    rep = run_suite("homotopy-projection", SweepConfig(dim=1, level=10))
    assert rep.passed
    svals = [t for t, _ in rep.datapoints]
    curve = rep.curves["u-to-projection"]
    for s, val in zip(svals, curve):
        expected = math.exp(-2.0 / (s * s))
        assert abs(val - expected) <= 1e-12 + 1e-6 * expected, s


def test_flip_endpoints_forms_each_tensor_once(monkeypatch):
    # every (left, right) pair is tensored once: the route check's tensors
    # serve the grading check, and the flips of the generators serve both the
    # multiplicativity and the involution check
    pairs, operands = [], []
    real = graded.graded_tensor

    def recording(a, b):
        operands.append((a, b))  # kept alive, so no id is reused
        pairs.append((id(a), id(b)))
        return real(a, b)

    monkeypatch.setattr(graded, "graded_tensor", recording)
    monkeypatch.setattr(verify, "graded_tensor", recording)
    cfg = SweepConfig(dim=1, level=6, t_grid=(1.0, 2.0, 4.0))
    assert run_suite("flip-endpoints", cfg).passed
    assert len(pairs) == len(set(pairs))
    # 4 route checks of two tensors each per (t, symbol); the 4 flips of the generators, the
    # 16 flips of products of generators, and three tensors per generator pair for the involution
    assert len(pairs) == 3 * 3 * 8 + 4 + 16 + 3 * 4


def test_flip_endpoints_suite_coerces_dimension():
    rep = run_suite("flip-endpoints", SweepConfig(dim=2, level=8))
    assert rep.passed
    assert any("dim" in note for note in rep.notes)
    assert rep.params["dim"] == 1


def test_double_flip_gate_fails_for_a_non_involutive_swap(monkeypatch):
    def cycled(pa, pb):
        # a cycle of the even basis vectors: orthogonal and parity-preserving, so only l o l = id tells it
        # from a flip
        even = np.flatnonzero(tensor_parity(pa, pb) == 0)
        perm = np.arange(len(pa) * len(pb))
        perm[even] = np.roll(even, 1)
        row, sign = perm, np.ones(len(perm))
        # as a matrix it is orthogonal, but not its own inverse
        u = signed_permutation(row, sign)
        assert np.array_equal(u @ u.T, np.eye(len(perm))) and not np.array_equal(u @ u, np.eye(len(perm)))
        return row, sign

    monkeypatch.setattr(verify, "flip_unitary", cycled)
    rep = run_suite("flip-endpoints", SweepConfig(dim=1, level=4, t_grid=(1.0, 2.0)))
    (note,) = [n for n in rep.notes if n.startswith("gate double flip deviation from identity")]
    assert note.endswith("FAIL")


def _without_koszul_sign(tensor):
    """graded_tensor with the Koszul sign dropped: the columns of odd first leg negated back."""
    def mutant(a, b):
        out = tensor(a, b)
        if not b.degree:
            return out
        signs = 1.0 - 2.0 * (a.labels & 1)[graded.tensor_pairs(a.labels, b.labels)[0]]
        blocks = [x * signs[out.index[r ^ out.degree]] for r, x in enumerate(out.blocks)]
        return GradedMatrix.from_blocks(out.degree, blocks, out.labels, out.index)
    return mutant


def _koszul_sign_on_even_legs(tensor):
    """graded_tensor with the Koszul sign put on the even column legs instead of the odd ones."""
    return lambda a, b: -tensor(a, b) if b.degree else tensor(a, b)


def _swap_sign_dropped(unitary):
    """flip_unitary with every sign +1."""
    def mutant(la, lb):
        row, sign = unitary(la, lb)
        return row, np.abs(sign)
    return mutant


def _even_even_swap(unitary):
    """flip_unitary with its sign on the pairs of even vectors instead of the pairs of odd ones."""
    def mutant(la, lb):
        i, j = graded.tensor_pairs(la, lb)
        both_even = (1 - (np.asarray(la)[i] & 1)) & (1 - (np.asarray(lb)[j] & 1))
        row, sign = unitary(la, lb)
        return row, np.abs(sign) * (1.0 - 2.0 * both_even)
    return mutant


SIGN_MUTANTS = {
    # name: (function replaced, mutant of the real one, gates that must fail)
    "tensor, sign dropped": ("graded_tensor", _without_koszul_sign,
                             {"two assembly routes", "flip multiplicativity", "tensor and flip respect"}),
    "tensor, sign on even legs": ("graded_tensor", _koszul_sign_on_even_legs, {"two assembly routes"}),
    "flip, sign dropped": ("flip_simple", lambda f: lambda a, b: graded.graded_tensor(b, a),
                           {"two assembly routes", "flip multiplicativity"}),
    "flip, sign negated": ("flip_simple", lambda f: lambda a, b: -f(a, b),
                           {"two assembly routes", "flip multiplicativity"}),
    "swap, sign dropped": ("flip_unitary", _swap_sign_dropped, {"two assembly routes"}),
    "swap, sign on even pairs": ("flip_unitary", _even_even_swap, {"two assembly routes"}),
}


@pytest.mark.parametrize("name", sorted(SIGN_MUTANTS))
def test_flip_endpoints_gates_fail_on_a_wrong_sign(name, monkeypatch):
    # each Koszul sign the suite exists to check, dropped or misplaced, trips the gates that read it;
    # the product gates are stated on simple tensors, so they see the signs of the tensor and the flip
    attr, mutate, expected = SIGN_MUTANTS[name]
    mutant = mutate(getattr(graded, attr))
    if attr == "flip_unitary":
        # a swap mutant moves signs only: as a matrix it is the oracle's swap up to the sign of its entries
        la, lb = np.array([0, 1, 3, 2, 1]), np.array([1, 0, 2, 3])
        u, swap = signed_permutation(*mutant(la, lb)), dense_flip(la, lb)
        assert np.array_equal(np.abs(u), np.abs(swap)) and not np.array_equal(u, swap)
    monkeypatch.setattr(graded, attr, mutant)
    monkeypatch.setattr(verify, attr, mutant)
    rep = run_suite("flip-endpoints", SweepConfig(dim=1, level=4, t_grid=(1.0, 2.0, 4.0)))
    failed = {note for note in rep.notes if note.endswith("FAIL")}
    assert not rep.passed
    for gate in expected:
        assert any(note.startswith(f"gate {gate}") for note in failed), (gate, failed)


def test_grading_gate_reads_the_cayley_signs(monkeypatch):
    # random signs in the Cayley tables leave iota multiplicative on the table's own products; the
    # gate compares them with the products of the generator words, so it fails
    oscillator_rep(1, 4)  # built from the real tables, as the suite finds it
    rng = np.random.default_rng(3)
    real = clifford._tables

    def random_signs(p, q):
        sign, idx = real(p, q)
        return rng.choice(np.array([-1, 1], dtype=np.int8), size=sign.shape), idx

    monkeypatch.setattr(clifford, "_tables", random_signs)
    rep = run_suite("flip-endpoints", SweepConfig(dim=1, level=4, t_grid=(1.0, 2.0)))
    (note,) = [n for n in rep.notes if n.startswith("gate grading automorphism")]
    assert note.endswith("FAIL") and "all 96 blade pairs" in note


def test_rank_eight_gate_reads_the_cayley_signs(monkeypatch):
    # the fixed images of the rank-8 generators are checked against the Cayley table of signature
    # (4,4); with random signs there, they no longer anticommute and square to +1
    rng = np.random.default_rng(3)
    real = clifford._tables

    def random_signs(p, q):
        sign, idx = real(p, q)
        return rng.choice(np.array([-1, 1], dtype=np.int8), size=sign.shape), idx

    monkeypatch.setattr(clifford, "_tables", random_signs)
    rep = run_suite("clifford-iso", SweepConfig(dim=1, level=4))
    (note,) = [n for n in rep.notes if n.startswith("gate rank-8 embedding residual")]
    assert note.endswith("FAIL") and not rep.passed


def test_blade_word_products_are_the_cayley_table():
    for sig in (Signature(3, 0), Signature(1, 2), Signature(2, 2)):
        blades = np.eye(sig.blade_count)
        for a in range(sig.blade_count):
            for b in range(sig.blade_count):
                sign, blade = verify._blade_word_product(sig, a, b)
                assert np.array_equal(clifford_product(sig, blades[a], blades[b]), sign * blades[blade])


def test_delta_xr_residual_gates_read_their_bounds():
    rep = run_suite("delta-xr", SweepConfig(dim=1, level=6))
    bounds = {n.split(":")[0]: n.split(" <= ")[1].split()[0] for n in rep.notes if "-generator residual" in n}
    assert bounds == {"gate even-generator residual (full norm)": "1.000e-10",
                      "gate odd-generator residual (interior)": "1.000e-08"}
    assert rep.tol == 1e-8


def test_gate_compares_value_to_bound():
    assert Gate("g", 1e-9, 1e-8).ok
    assert Gate("g", 1e-8, 1e-8).note() == "gate g: 1.000e-08 <= 1.000e-08 ok"
    assert not Gate("g", 2e-8, 1e-8).ok
    assert not Gate("g", math.nan, 1e-8).ok
    # every entry of a sequence must pass, and a NaN anywhere fails it
    assert Gate("g", [0.5, 1.0], 1.0).ok
    assert not Gate("g", [math.nan, 0.5], 1.0).ok
    assert not Gate("g", [0.5, math.nan], 1.0).ok
    assert Gate("g", [0.5, math.nan], 1.0).note() == "gate g: nan <= 1.000e+00 FAIL"
    # no bound: a plain check
    assert Gate("g", True).note() == "gate g: ok"
    assert Gate("g", False).note() == "gate g: FAIL"


@pytest.mark.parametrize("config", [(1, 8), (2, 6)])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verdict_is_the_conjunction_of_the_gate_notes(suite, config):
    rep = run_suite(suite, SweepConfig(dim=config[0], level=config[1]))
    gates = [n for n in rep.notes if n.startswith("gate ")]
    assert gates, rep.notes
    assert all(n.endswith(" ok") or n.endswith(" FAIL") for n in gates), gates
    assert rep.passed == all(n.endswith(" ok") for n in gates)


# every bounded gate of every suite at (1,8), as a name pattern and its bound; a callable bound is
# relative to the report.  A looser bound is a change to this table, never a silent one
CROSS_CHECK = (r"norm cross-check \(block norm vs SVD, 3 samples\)", 1e-8)
PAIRING = (r"volume-element pairing", 0.0)
GAUGE = (r"Fourier gauge S·C·S = D", 0.0)
GATE_BOUNDS = {
    "clifford-iso": [(r"relation residual for every signature of rank <= 5", 1e-10),
                     (r"rank-8 embedding residual", 1e-10),
                     (r"graded tensor square of rank-1 algebras: relation residual", 1e-10)],
    "spectrum": [(r"cluster deviation from the even-integer ladder", 1e-8),
                 (r"squared-supercharge identity residual on interior", 1e-12)],
    "dirac-commutator": [(r"\[[uv]\(D/t\),M_(uP|vP|bump)\] final/initial", 0.25),
                         (r"envelope final", lambda rep: 0.25 * rep.datapoints[0][1]), CROSS_CHECK, PAIRING, GAUGE],
    "cd-commutator": [(r"\[[uv]\(C/t\),[uv]\(D/t\)\] final/initial", 0.25),
                      (r"envelope final", lambda rep: 0.25 * rep.datapoints[0][1]), CROSS_CHECK, PAIRING, GAUGE],
    "mehler": [(r"factorization residual at every s", 1e-3), CROSS_CHECK, PAIRING, GAUGE],  # the level-8 bound
    "s1s2-asymptotics": [(r"final value of every curve", 1e-3),
                         (r"coefficient defect \|s1 - t\^-2\| at t=16 \(bound t\^-6\)", 16.0 ** -6),
                         CROSS_CHECK, PAIRING, GAUGE],
    "composition-gamma": [(r"gamma-[uv] final/initial", 1e-2),
                          (r"multiplication = position calculus \(9 nodes\)", 1e-6), CROSS_CHECK, GAUGE],
    "homotopy-projection": [(r"envelope at the smallest s", 1e-6),
                            (r"kernel vector fixed by u\(s\^-1 B\)", 1e-12),
                            (r"odd generator annihilates the kernel vector", 1e-12), CROSS_CHECK],
    "delta-xr": [(r"even-generator residual \(full norm\)", 1e-10),
                 (r"odd-generator residual \(interior\)", 1e-8)],
    "compactness": [(r"smallest singular value of every symbol", 1e-8)],
    "flip-endpoints": [(r"two assembly routes agree at every t", 1e-8),
                       (r"double flip deviation from identity", 1e-14),
                       (r"flip multiplicativity on 16 products of simple tensors", 1e-8),
                       (r"tensor and flip respect the involution on 4 simple tensors", 1e-8),
                       (r"grading automorphism multiplicative on all \d+ blade pairs \(generator words\)", 1e-8),
                       GAUGE],
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_gate_reads_its_pinned_bound(suite):
    assert set(GATE_BOUNDS) == set(SUITES)
    rep = run_suite(suite, SweepConfig(dim=1, level=8))
    bounded = [m.groups() for n in rep.notes if (m := re.fullmatch(r"gate (.*): (\S+) <= (\S+) (?:ok|FAIL)", n))]
    assert bounded
    seen = set()
    for name, _, bound in bounded:
        ((pattern, want),) = [(p, b) for p, b in GATE_BOUNDS[suite] if re.fullmatch(p, name)]
        assert bound == f"{want(rep) if callable(want) else want:.3e}", (name, bound)
        seen.add(pattern)
    assert seen == {p for p, _ in GATE_BOUNDS[suite]}


# failures that a fix has turned into passes; their named gate must now read ok
MENDED_FAILURES = {
    # the matched-node gate compares with the product of 1-D calculi, which holds at n >= 2
    ("composition-gamma", (2, 6)),
}


@pytest.mark.parametrize("suite,config,gate", [
    ("composition-gamma", (2, 6), "gate multiplication = position calculus (7 nodes): "),
    ("mehler", (1, 6), "gate factorization residual at every s: "),
])
def test_known_failures_trip_one_named_gate(suite, config, gate):
    rep = run_suite(suite, SweepConfig(dim=config[0], level=config[1]))
    failed = [n for n in rep.notes if n.startswith("gate ") and n.endswith(" FAIL")]
    (named,) = [n for n in rep.notes if n.startswith(gate)]
    if (suite, config) in MENDED_FAILURES:
        assert rep.passed and not failed and named.endswith(" ok"), rep.notes
    else:
        assert not rep.passed
        assert failed == [named], failed


# every suite's verdict on the library grid; a change here is a regression or
# a fix, never noise
VERDICT_FAILURES = {
    (2, 10): set(),
    (3, 6): {"composition-gamma", "mehler"},
    # at n = 4 the commutator curves peak after t = 1, so two final/initial ratios pass 0.25;
    # composition-gamma's ratios fail at every n >= 3 and mehler's window is too shallow at K = 4
    (4, 4): {"cd-commutator", "composition-gamma", "dirac-commutator", "mehler"},
    # across K at n = 2 and n = 3, where the C/D curve suites norm on the R_2 = +1 half; compactness
    # needs a singular value under 1e-8, which K = 4 does not reach
    (2, 4): {"compactness", "mehler"},
    (2, 8): set(),
    (3, 4): {"compactness", "composition-gamma", "mehler"},
    (3, 8): {"composition-gamma"},
    # n = 1 across K, and (2,6): compactness at K <= 6 and mehler's shallow window, as at (2,4)
    (1, 4): {"compactness", "mehler"},
    (1, 6): {"compactness", "mehler"},
    (1, 8): set(),
    (1, 12): set(),
    (2, 6): {"mehler"},
    # n = 3 and 4 at K = 7, where the commutator ratios pass again, and (4,5), (4,6) and (5,5) below it
    (3, 7): {"composition-gamma"},
    (4, 5): {"cd-commutator", "composition-gamma", "dirac-commutator", "mehler"},
    (4, 6): {"cd-commutator", "composition-gamma", "dirac-commutator", "mehler"},
    (4, 7): {"composition-gamma"},
    (5, 5): {"cd-commutator", "composition-gamma", "dirac-commutator", "mehler"},
}


# in insertion order, so that each parameter id keeps naming the configuration it named before
@pytest.mark.parametrize("config", list(VERDICT_FAILURES))
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verdict_grid(suite, config):
    rep = run_suite(suite, SweepConfig(dim=config[0], level=config[1]))
    assert rep.passed == (suite not in VERDICT_FAILURES[config]), rep.notes
    if suite in HALVED_SUITES:
        assert "gate volume-element pairing: 0.000e+00 <= 0.000e+00 ok" in rep.notes
    if suite in GAUGED_SUITES:
        assert "gate Fourier gauge S·C·S = D: 0.000e+00 <= 0.000e+00 ok" in rep.notes


@pytest.mark.parametrize("config", [(1, 8), (2, 6)])
@pytest.mark.parametrize("suite", SWEEP_SUITES)
def test_commutator_suites_stay_on_blocks(suite, config, monkeypatch):
    # no full-size matrix is formed, neither assembled from blocks nor given
    # as an array, and every matrix a sweep norms is the window its gates
    # read: depth 2, or mehler's deep window; a halved suite's at dim >= 2 is
    # the window of the R_2 = +1 half, exactly half of the whole window
    full_rep = oscillator_rep(*config)
    size = full_rep.basis.size
    rep = full_rep.half if suite in HALVED_SUITES and config[0] >= 2 else full_rep
    assert (rep is full_rep) == (config[0] == 1 or suite not in HALVED_SUITES)
    full, normed = [], []
    assemble = graded._assemble
    init = GradedMatrix.__init__
    sweep = verify._sweep

    def counting_assemble(*args):
        out = assemble(*args)
        full.append(out.shape)
        return out

    def counting_init(self, mat, parity):
        init(self, mat, parity)
        full.append(self.mat.shape)

    def recording_sweep(xs, matrices):
        def recorded(x):
            for name, m in matrices(x):
                normed.append((name, m))
                yield name, m
        return sweep(xs, recorded)

    monkeypatch.setattr(graded, "_assemble", counting_assemble)
    monkeypatch.setattr(GradedMatrix, "__init__", counting_init)
    monkeypatch.setattr(verify, "_sweep", recording_sweep)
    report = run_suite(suite, SweepConfig(dim=config[0], level=config[1]))
    # mehler's window is too shallow for its bound at K = 6
    assert report.passed == (suite != "mehler" or config[1] > 6), report.notes
    assert [s for s in full if s == (size, size)] == [], full
    depth = config[1] - max(2, config[1] // 3) if suite == "mehler" else 2
    assert normed
    for name, m in normed:
        # on all the labels, or (the bump's curves) on the labels without R_1; the half has no R_2 bit
        k = rep.window(depth, len(m.index))
        assert len(k) == 2 ** (config[0] + ("bump" not in name) - (rep is not full_rep)), name
        assert [b.shape for b in m.blocks] == [(k[r], k[r ^ m.degree]) for r in range(len(k))]
        assert len(m.parity) == sum(k)
        assert sum(k) << (rep is not full_rep) == sum(full_rep.window(depth))


# the curves of D a suite reads off its curves of C through the Fourier gauge, each with its partner
TWINS = {**{f"D:{c}": f"C:{c}" for c in ("s1", "s2", "s1:weighted", "s2:weighted")},
         "[v(C/t),u(D/t)]": "[u(C/t),v(D/t)]", "d-outside": "c-outside"}


@pytest.mark.parametrize("config", [(2, 6), (3, 4)])
@pytest.mark.parametrize("suite", HALVED_SUITES)
def test_halved_curves_are_the_whole_space_norms(suite, config):
    # every curve, normed on the R_2 = +1 half, is the spectral norm of the dense matrix on the whole
    # space, and so is every twin the suite no longer computes, by eigh of the dense D; the last mehler
    # residuals (2.3e-7 at (2,6)) are differences of matrices of norm 1, known to about 4e-16 by any
    # route, so the absolute term is rounding
    ts = (1.0, 2.0, 4.0)
    rep = run_suite(suite, SweepConfig(dim=config[0], level=config[1], t_grid=ts))
    dense = dense_curve_norms(suite, *config, verify.MEHLER_S if suite == "mehler" else ts)
    twins = {name for name in TWINS if name in dense}
    assert rep.curves.keys() == dense.keys() - twins
    assert bool(twins) == (suite != "dirac-commutator")
    for name, want in dense.items():
        for got, w in zip(rep.curves[TWINS.get(name, name)], want, strict=True):
            assert abs(got - w) <= 1e-10 * w + 1e-15, (name, got, w)


def _pairing_note(rep) -> str:
    (note,) = [n for n in rep.notes if n.startswith("gate volume-element pairing: ")]
    return note


@pytest.mark.parametrize("config", [(2, 6), (3, 4)])
def test_pairing_gate_fails_on_a_sign_flipped_in_the_twisted_right_multiplication(config, monkeypatch):
    # the sign of blade e_1 in rho~(e_1): its row and its column, so that the operator stays
    # antisymmetric and D symmetric, and the context builds; D no longer anticommutes with rho(omega)
    # (at dim 1 the row and column of e_1 hold both entries of rho~(e_1), and the flip negates D)
    real = oscillator.twisted_right_mult_operator

    def flipped(sig, mask):
        out = real(sig, mask)
        if mask == 1:
            out[1, :] *= -1.0
            out[:, 1] *= -1.0
        return out

    cfg = SweepConfig(dim=config[0], level=config[1], t_grid=(1.0, 2.0, 4.0))
    for suite in HALVED_SUITES:
        assert _pairing_note(run_suite(suite, cfg)).endswith(" ok")
    oscillator_rep.cache_clear()
    monkeypatch.setattr(oscillator, "twisted_right_mult_operator", flipped)
    try:
        for suite in HALVED_SUITES:
            rep = run_suite(suite, cfg)
            assert _pairing_note(rep).endswith(" FAIL") and not rep.passed, rep.notes
    finally:
        oscillator_rep.cache_clear()


@pytest.mark.parametrize("config", [(2, 6), (3, 4)])
def test_gauge_gate_fails_on_a_negated_dirac_operator(config, monkeypatch):
    # rho(omega) anticommutes with -D as with D, so the pairing cannot see the sign of D; S C S = D can,
    # in every suite that reads f(D) as S f(C) S (flip-endpoints at dim 1, on its own context)
    real = oscillator.dirac_operator
    cfg = SweepConfig(dim=config[0], level=config[1], t_grid=(1.0, 2.0, 4.0))
    gauge = "gate Fourier gauge S·C·S = D: "
    for suite in GAUGED_SUITES:
        assert f"{gauge}0.000e+00 <= 0.000e+00 ok" in run_suite(suite, cfg).notes, suite
    oscillator_rep.cache_clear()
    monkeypatch.setattr(oscillator, "dirac_operator", lambda basis: -real(basis))
    try:
        for suite in GAUGED_SUITES:
            rep = run_suite(suite, cfg)
            (note,) = [n for n in rep.notes if n.startswith(gauge)]
            assert note.endswith(" FAIL") and not rep.passed, rep.notes
            if suite in HALVED_SUITES:
                assert _pairing_note(rep).endswith(" ok")
    finally:
        oscillator_rep.cache_clear()


@pytest.mark.parametrize("config", [(1, 6), (2, 6), (3, 4)])
def test_a_derivative_that_keeps_its_lower_sign_is_refused_before_any_pairing(config, monkeypatch):
    # rho(omega) acts on the blades alone, so no sign of the 1-D derivative can move the pairing:
    # with the lower half's sign kept, D is sum_i x_i (x) rho~(e_i), which rho(omega) still sends to
    # -D; it is antisymmetric, so the context refuses it before any suite runs
    def symmetric_derivative(basis):
        x = oscillator.position_matrix(basis.level)
        return oscillator._spatial_blade_operator(basis, 1, oscillator._axis_terms(basis, x, [
            oscillator.twisted_right_mult_operator(basis.sig, 1 << i) for i in range(basis.dim)]))

    basis = oscillator.HermiteBasis(*config)
    c, d = oscillator.clifford_operator(basis), symmetric_derivative(basis)
    raw = OscillatorRep(basis, c, d, c + d, oscillator.blade_number_operator(basis), c @ c + d @ d)
    assert oscillator.volume_pairing_residual(raw) == 0.0
    assert np.array_equal(d.mat.T, -d.mat) and d.mat.any()
    oscillator_rep.cache_clear()
    monkeypatch.setattr(oscillator, "dirac_operator", symmetric_derivative)
    try:
        for suite in HALVED_SUITES:
            with pytest.raises(ValueError, match="requires a symmetric matrix"):
                run_suite(suite, SweepConfig(dim=config[0], level=config[1]))
    finally:
        oscillator_rep.cache_clear()


def test_conjugation_by_index_equals_the_signed_swap_product():
    # parity labels, a square on four labels (the swap permutes its labels), and a two-label left
    # factor with a four-label right one (both orders hold the same sorted labels)
    rng = np.random.default_rng(5)
    fine = np.array([0, 1, 3, 2, 1, 0, 2])
    cases = [(p, p) for p in ([0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1, 0])] + [(fine, fine), (fine & 1, fine)]
    for la, lb in cases:
        labels = graded.tensor_labels(la, lb)
        assert np.array_equal(graded.tensor_labels(lb, la), labels)
        u = dense_flip(np.array(la), np.array(lb))
        index = graded.label_index(labels, 1 << graded._label_bits(labels))
        conjugate = verify._conjugator(*flip_unitary(np.array(la), np.array(lb)), labels, index)
        for degree in (0, 1):
            blocks = [rng.standard_normal((len(i), len(index[r ^ degree]))) for r, i in enumerate(index)]
            x = GradedMatrix.from_blocks(degree, blocks, labels, index)
            got = conjugate(x)
            assert all(b.flags.writeable for b in got)
            assert np.array_equal(GradedMatrix.from_blocks(degree, got, labels, index).mat, u @ x.mat @ u.T)


# ---------------------------------------------------------------------------
# stability under enlarging the truncation
# ---------------------------------------------------------------------------

STABILITY_SUITES = [
    "spectrum",
    "clifford-iso",
    "dirac-commutator",
    "cd-commutator",
    "composition-gamma",
    "homotopy-projection",
    "delta-xr",
    "flip-endpoints",
]


@pytest.mark.parametrize("suite", STABILITY_SUITES)
def test_results_stable_under_level_increase(suite):
    # every reported value moves by at most 10% when K grows by 2, except
    # points that have already converged to numerical zero on both runs;
    # the spectrum ladder legitimately gains rungs, so compare the shared
    # prefix there
    small = run_suite(suite, SweepConfig(dim=1, level=12))
    large = run_suite(suite, SweepConfig(dim=1, level=14))
    assert small.passed and large.passed
    scale = max((abs(v) for _, v in small.datapoints), default=0.0)
    floor = max(1e-9, 1e-6 * scale)
    assert len(large.datapoints) >= len(small.datapoints)
    for (t1, v1), (t2, v2) in zip(small.datapoints, large.datapoints):
        assert abs(t1 - t2) <= 1e-9 * max(1.0, abs(t1))
        if abs(v1) <= floor and abs(v2) <= floor:
            continue
        drift = abs(v1 - v2) / max(abs(v1), abs(v2))
        assert drift <= 0.10, f"{suite} at t={t1}: {v1} vs {v2}"


def test_s1s2_decay_exponent_stable_under_level_increase():
    # the raw values of this suite are weighted by the largest position
    # eigenvalue inside the window, which itself moves with the truncation;
    # the stable observable is the decay exponent of the curve
    small = run_suite("s1s2-asymptotics", SweepConfig(dim=1, level=12))
    large = run_suite("s1s2-asymptotics", SweepConfig(dim=1, level=14))
    assert small.passed and large.passed
    e_small, r2_small = small.fit
    e_large, r2_large = large.fit
    assert abs(e_small - e_large) <= 0.10 * abs(e_small)
    assert r2_small > 0.99 and r2_large > 0.99
