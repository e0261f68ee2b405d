"""Tests for graded functional calculus and the comultiplication checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bottlab.funcalc import (
    DeltaCheck,
    GradedFunction,
    delta_via_xr_check,
    gaussian,
    matrix_function,
    scale,
    x_gaussian,
)
from bottlab.graded import GradedMatrix
from bottlab.oscillator import oscillator_rep
from oracles import basis_parity, even_part, fmul, fprod, fsum, interior_mask, odd_part, sup_norm


# ---------------------------------------------------------------------------
# the two generators
# ---------------------------------------------------------------------------

def test_generator_values_and_parity():
    u, v = gaussian(), x_gaussian()
    assert u.parity == 0 and v.parity == 1
    x = np.linspace(-4, 4, 33)
    assert np.allclose(u(x), np.exp(-x * x))
    assert np.allclose(v(x), x * np.exp(-x * x))
    assert u(np.array([0.0]))[0] == 1.0


def test_generator_sup_norms():
    assert sup_norm(gaussian()) == 1.0
    # max of |x e^{-x^2}| is at x = 1/sqrt(2)
    expected = math.exp(-0.5) / math.sqrt(2.0)
    assert math.isclose(sup_norm(x_gaussian()), expected, rel_tol=1e-3)


def test_even_and_odd_parts():
    u, v = gaussian(), x_gaussian()
    x = np.linspace(-5, 5, 101)
    mixed = fsum(u, v)
    assert mixed.parity is None
    assert np.allclose(even_part(mixed)(x), u(x), atol=1e-15)
    assert np.allclose(odd_part(mixed)(x), v(x), atol=1e-15)
    assert np.abs(even_part(v)(x)).max() == 0.0


def test_products_compose_parity():
    u, v = gaussian(), x_gaussian()
    x = np.linspace(-3, 3, 61)
    uv = fprod(u, v)
    assert uv.parity == 1
    assert np.allclose(uv(x), x * np.exp(-2 * x * x))
    assert fprod(v, v).parity == 0
    assert fmul(2.0, u).parity == 0
    assert np.allclose(fmul(2.0, u)(x), 2 * np.exp(-x * x))


def test_scale_values_and_validation():
    u = gaussian()
    x = np.linspace(-2, 2, 21)
    assert np.allclose(scale(u, 2.0)(x), u(x / 2.0))
    assert scale(u, 1.0).parity == 0
    with pytest.raises(ValueError):
        scale(u, 0.0)
    with pytest.raises(ValueError):
        scale(u, -1.0)


# ---------------------------------------------------------------------------
# matrix functional calculus
# ---------------------------------------------------------------------------

def _random_symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


def _even(m):
    """m as a graded matrix on an all-even space."""
    return GradedMatrix(m, np.zeros(len(m), dtype=np.uint8))


def test_matrix_function_against_constructed_eigensystem():
    # oracle: build the eigensystem first, then the matrix from it
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    lam = rng.uniform(-3, 3, size=6)
    a = (q * lam) @ q.T
    u = gaussian()
    expected = (q * np.exp(-lam * lam)) @ q.T
    assert np.allclose(matrix_function(u, _even(a)).mat, expected, atol=1e-12)


def test_matrix_function_requires_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        matrix_function(gaussian(), _even(np.array([[0.0, 1.0], [0.0, 0.0]])))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_matrix_function_multiplicative(seed):
    # (fg)(T) = f(T) g(T) because both sides share the eigenbasis
    rng = np.random.default_rng(seed)
    t = _even(_random_symmetric(rng, 5))
    u, v = gaussian(), x_gaussian()
    lhs = matrix_function(fprod(u, v), t)
    rhs = matrix_function(u, t) @ matrix_function(v, t)
    assert np.abs(lhs.mat - rhs.mat).max() <= 1e-12


def test_parity_covariance_is_exact():
    rep = oscillator_rep(1, 10)
    b = rep.bott  # odd, symmetric
    odd_result = matrix_function(x_gaussian(), b)
    even_result = matrix_function(gaussian(), b)
    assert odd_result.degree == 1
    assert even_result.degree == 0
    # even input: any f lands in the even part
    b2 = b @ b
    assert matrix_function(x_gaussian(), b2).degree == 0


@pytest.mark.parametrize("f", [
    fsum(gaussian(), x_gaussian()),
    GradedFunction(lambda x: np.exp(-0.3 * x), None, "exp(-0.3 x)"),
])
def test_mixed_function_of_an_even_matrix_is_exactly_even(f):
    # an even matrix commutes with the grading, so f of it is even for any f
    assert f.parity is None
    h = oscillator_rep(2, 6).harmonic
    assert matrix_function(f, h).degree == 0


@pytest.mark.parametrize("name", ["clifford", "dirac", "bott"])
def test_function_of_no_declared_parity_rejects_an_odd_matrix(name):
    # of an odd matrix such an f has both degrees; its even and odd parts apply
    op = getattr(oscillator_rep(1, 6), name)
    f = fsum(gaussian(), x_gaussian())
    with pytest.raises(ValueError, match="no declared parity"):
        matrix_function(f, op)
    parts = [matrix_function(part(f), op) for part in (even_part, odd_part)]
    assert [p.degree for p in parts] == [0, 1]
    want = _dense_matrix_function(f, op.mat, op.parity, 1)
    assert np.abs(parts[0].mat + parts[1].mat - want).max() <= 1e-13


def _dense_matrix_function(f, m, parity, degree):
    """Reference: the dense Q f(w) Q^T, masked to the parity the result must have
    (not masked for f of no declared parity on an odd matrix)."""
    w, q = np.linalg.eigh(m)
    dense = (q * f(w)) @ q.T
    d = f.parity if degree else 0
    if d is None:
        return dense
    mix = parity[:, None] ^ parity[None, :]
    return np.where(mix == d, dense, 0.0)


_FUNCTIONS = [gaussian(), x_gaussian(), fsum(gaussian(), x_gaussian())]


@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(1, 12),
       kind=st.sampled_from(["random", "even", "odd"]), degree=st.sampled_from([0, 1]),
       f=st.sampled_from(_FUNCTIONS), t=st.floats(0.5, 20.0))
@settings(max_examples=60, deadline=None)
def test_matrix_function_blocks_match_dense_product(seed, dim, kind, degree, f, t):
    rng = np.random.default_rng(seed)
    if kind == "random":
        par = rng.integers(0, 2, size=dim).astype(np.uint8)
    else:
        par = np.full(dim, kind == "odd", dtype=np.uint8)
    m = GradedMatrix(_random_symmetric(rng, dim) * ((par[:, None] ^ par[None, :]) == degree), par)
    if f.parity is None and m.degree == 1:
        with pytest.raises(ValueError, match="no declared parity"):
            matrix_function(scale(f, t), m)
        return
    got = matrix_function(scale(f, t), m).mat
    want = _dense_matrix_function(scale(f, t), m.mat, par, m.degree)
    assert np.abs(got - want).max() <= 1e-13


@pytest.mark.parametrize("name", ["clifford", "dirac", "bott", "harmonic"])
@pytest.mark.parametrize("f", _FUNCTIONS, ids=["even", "odd", "mixed"])
def test_context_matrix_function_blocks_match_dense_product(name, f):
    op = getattr(oscillator_rep(2, 6), name)
    for t in (1.0, 4.0, 32.0):
        if f.parity is None and op.degree == 1:
            with pytest.raises(ValueError, match="no declared parity"):
                matrix_function(scale(f, t), op)
            continue
        got = matrix_function(scale(f, t), op).mat
        want = _dense_matrix_function(scale(f, t), op.mat, op.parity, op.degree)
        assert np.abs(got - want).max() <= 1e-13, t


@pytest.mark.parametrize("f", [gaussian(), x_gaussian()], ids=["even-f", "odd-f"])
@pytest.mark.parametrize("name", ["harmonic", "bott"], ids=["even-X", "odd-X"])
def test_matrix_function_on_a_window_is_the_window_of_the_full_route(name, f):
    rep = oscillator_rep(2, 6)
    x, w = getattr(rep, name), rep.window()
    got = matrix_function(scale(f, 2.0), x, w)
    want = matrix_function(scale(f, 2.0), x).window(w).blocks
    assert np.array_equal(got.parity, basis_parity(rep.basis)[interior_mask(rep.basis)])
    for a, b in zip(got.blocks, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max())


def test_scale_composes_with_functional_calculus():
    rng = np.random.default_rng(3)
    t = _random_symmetric(rng, 6)
    f = gaussian()
    lhs = matrix_function(scale(f, 2.5), _even(t))
    rhs = matrix_function(f, _even(t / 2.5))
    assert np.abs(lhs.mat - rhs.mat).max() <= 1e-12


# ---------------------------------------------------------------------------
# comultiplication
# ---------------------------------------------------------------------------

def test_delta_scalar_identities():
    # scalar shadow of the expansion: the summands of the doubled variable
    # anticommute, so its square is a^2 + b^2 with no cross term, and the
    # Gaussian of that sum factorizes
    u, v = gaussian(), x_gaussian()
    a = np.linspace(-3, 3, 41)[:, None]
    b = np.linspace(-3, 3, 41)[None, :]
    sq = a * a + b * b
    assert np.allclose(np.exp(-sq), u(a) * u(b), atol=1e-14)
    assert np.allclose((a + b) * np.exp(-sq), u(a) * v(b) + v(a) * u(b), atol=1e-14)


@pytest.mark.parametrize("level", [12, 18, 24])
def test_delta_residuals_are_rounding_noise(level):
    c = delta_via_xr_check(level)
    assert c.level == level
    assert c.residual_u <= 1e-10, f"u at level {level}: {c.residual_u:.3e}"
    assert c.residual_v <= 1e-8, f"v at level {level}: {c.residual_v:.3e}"


def test_delta_effective_radius_grows_with_level():
    radii = [delta_via_xr_check(level).effective_radius for level in (12, 18, 24)]
    assert radii[0] < radii[1] < radii[2]
    assert radii[0] > 3.0


def test_delta_validation():
    with pytest.raises(ValueError):
        delta_via_xr_check(3)


def test_graded_function_name_threading():
    u, v = gaussian(), x_gaussian()
    assert "*" in fprod(u, v).name
    assert "@t=" in scale(u, 3.0).name
