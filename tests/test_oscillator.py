"""Tests for the truncated oscillator model.

Strategy: every computed quantity with independent structure gets an
oracle written from scratch here (hermval for the basis functions, direct
state counting for multiplicities, functional calculus of the position
matrix for the quadrature), and the operator identities are checked on
the interior window where truncation cannot reach.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import hermite as np_hermite

from bottlab.clifford import (
    blade_grade,
    blade_parities,
    left_mult_operator,
    number_operator,
    twisted_right_mult_operator,
)
from bottlab.funcalc import GradedFunction, gaussian, matrix_function, position_matrix, x_gaussian
from bottlab.graded import GradedMatrix
from bottlab.oscillator import (
    CliffFunction,
    HermiteBasis,
    b_squared_identity_check,
    compactness_profile,
    hermite_rows,
    level_multiplicity,
    multiplication_operator,
    oscillator_rep,
    rescale,
    spectrum,
)
from bottlab.verify import _gaussian_bott_map, named_symbols
from oracles import (basis_parity, bott_map, bump_coeffs, fsum, grid_multiplication_operator, interior_mask,
                     symbol_values)


# ---------------------------------------------------------------------------
# one-dimensional building blocks
# ---------------------------------------------------------------------------

def derivative_matrix(level: int) -> np.ndarray:
    """d/dx on Hermite functions 0..level (antisymmetric tridiagonal).

    Column k holds +sqrt(k/2) at row k-1 and -sqrt((k+1)/2) at row k+1,
    from d/dx psi_k = sqrt(k/2) psi_{k-1} - sqrt((k+1)/2) psi_{k+1}.
    """
    off = np.sqrt((np.arange(level) + 1) / 2.0)
    return np.diag(off, 1) - np.diag(off, -1)


def test_position_matrix_hand_values():
    x = position_matrix(4)
    assert x.shape == (5, 5)
    assert np.allclose(x, x.T)
    assert math.isclose(x[0, 1], math.sqrt(0.5))
    assert math.isclose(x[3, 4], math.sqrt(2.0))
    assert np.count_nonzero(x) == 8  # two off-diagonals only


def test_derivative_matrix_antisymmetric():
    d = derivative_matrix(4)
    assert np.allclose(d, -d.T)
    assert math.isclose(d[0, 1], math.sqrt(0.5))


def test_canonical_commutator_on_interior():
    # [d/dx, x] = 1 away from the truncation edge
    level = 10
    comm = derivative_matrix(level) @ position_matrix(level) - position_matrix(level) @ derivative_matrix(level)
    interior = comm[:level, :level]
    assert np.allclose(interior, np.eye(level), atol=1e-14)


def test_hermite_rows_against_hermval():
    # oracle: physicists' Hermite polynomials from numpy, normalized by hand
    x = np.linspace(-3.0, 3.0, 41)
    rows = hermite_rows(6, x)
    for k in range(7):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        norm = math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))
        assert np.allclose(rows[k], np_hermite.hermval(x, coeffs) / norm, atol=1e-12), k


def test_hermite_rows_orthonormal_under_quadrature():
    kmax, q = 8, 20
    x, w = np_hermite.hermgauss(q)
    rows = hermite_rows(kmax, x)
    gram = (rows * w) @ rows.T
    assert np.allclose(gram, np.eye(kmax + 1), atol=1e-13)


# ---------------------------------------------------------------------------
# simplex basis
# ---------------------------------------------------------------------------

def test_basis_sizes():
    assert HermiteBasis(1, 12).size == 26
    assert HermiteBasis(2, 10).size == 264
    assert HermiteBasis(3, 8).size == 1320


def test_basis_ordering_and_lookup():
    basis = HermiteBasis(2, 5)
    mind = basis.mindices
    keys = [(sum(m), m) for m in mind]
    assert keys == sorted(keys), "multi-indices must be sorted by (total, lex)"
    assert mind[0] == (0, 0)
    for pos, m in enumerate(mind):
        assert mind.index(m) == pos
    assert basis.spatial_size == math.comb(5 + 2, 2)


def test_basis_parity_and_levels():
    basis = HermiteBasis(2, 4)
    par = basis_parity(basis)
    assert len(par) == basis.size
    assert np.array_equal(par, basis.labels() & 1)
    assert np.array_equal(par[: basis.blade_count], blade_parities(basis.sig))
    tot = np.repeat([sum(m) for m in basis.mindices], basis.blade_count)
    # the truncation variable is the spatial level; the blade factor is
    # complete and never truncated
    idx = basis.mindices.index((1, 2)) * basis.blade_count + 0b11
    assert tot[idx] == 3
    interior = interior_mask(basis)
    assert np.array_equal(interior, tot <= basis.level - 2)


def axis_matrix(basis: HermiteBasis, axis: int, one_d: np.ndarray) -> np.ndarray:
    """The 1-D matrix on one axis of the truncated simplex, entry by entry: ``one_d[m_a, m'_a]``
    where the other indices of m and m' agree, zero elsewhere."""
    out = np.zeros((basis.spatial_size,) * 2)
    for i, mi in enumerate(basis.mindices):
        for j, mj in enumerate(basis.mindices):
            if all(mi[a] == mj[a] for a in range(basis.dim) if a != axis):
                out[i, j] = one_d[mi[axis], mj[axis]]
    return out


def test_axis_operators_against_direct_construction():
    # C and D are the sums of the 1-D position and derivative matrices on each axis, tensored
    # with lambda(e_i) and rho~(e_i), exactly
    basis = HermiteBasis(2, 4)
    rep = oscillator_rep(2, 4)
    x1d = position_matrix(4)
    d1d = derivative_matrix(4)
    gens = [1 << i for i in range(2)]
    xs = sum(np.kron(axis_matrix(basis, i, x1d), left_mult_operator(basis.sig, e)) for i, e in enumerate(gens))
    ds = sum(np.kron(axis_matrix(basis, i, d1d), twisted_right_mult_operator(basis.sig, e)) for i, e in enumerate(gens))
    assert np.array_equal(rep.clifford.mat, xs)
    assert np.array_equal(rep.dirac.mat, ds)


# ---------------------------------------------------------------------------
# supercharge structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,level", [(1, 8), (2, 6)])
def test_supercharge_parts_symmetric_and_odd(dim, level):
    rep = oscillator_rep(dim, level)
    for op in (rep.clifford, rep.dirac, rep.bott):
        assert np.allclose(op.mat, op.mat.T, atol=1e-14)
        assert op.degree == 1
        mix = op.parity[:, None] ^ op.parity[None, :]
        assert not op.mat[mix == 0].any(), "must vanish on the even parity blocks"
    assert np.array_equal(rep.bott.mat, rep.clifford.mat + rep.dirac.mat)
    assert rep.number.degree == 0


@pytest.mark.parametrize("dim,level", [(1, 12), (2, 10), (3, 8)])
def test_squared_supercharge_identity(dim, level):
    assert b_squared_identity_check(oscillator_rep(dim, level)) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_supercharge_annihilates_gaussian_ground_state(dim):
    rep = oscillator_rep(dim, 8)
    basis = rep.basis
    vec = np.zeros(basis.size)
    vec[basis.mindices.index((0,) * dim) * basis.blade_count] = 1.0
    assert np.abs(rep.bott.mat @ vec).max() <= 1e-12


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def brute_force_multiplicity(basis: HermiteBasis, m: int) -> int:
    """Count basis states with spatial level + blade degree == m directly."""
    count = 0
    for mind in basis.mindices:
        for blade in range(basis.blade_count):
            if sum(mind) + blade_grade(blade) == m:
                count += 1
    return count


@pytest.mark.parametrize("dim,level", [(1, 12), (2, 8)])
def test_spectrum_clusters_match_state_counting(dim, level):
    rep = oscillator_rep(dim, level)
    res = spectrum(rep)
    basis = rep.basis
    for value, mult in res.clusters:
        assert abs(value - round(value)) <= 1e-8, f"non-integer eigenvalue {value}"
        v = int(round(value))
        assert v % 2 == 0, f"odd eigenvalue {v}"
        assert mult == brute_force_multiplicity(basis, v // 2), value
    # every even integer in the window shows up
    centers = [int(round(v)) for v, _ in res.clusters]
    assert centers == list(range(0, 2 * (level // 2) + 1, 2))


def test_level_multiplicity_matches_brute_force():
    for dim in (1, 2, 3):
        basis = HermiteBasis(dim, 10)
        for m in range(0, 9):
            assert level_multiplicity(dim, m) == brute_force_multiplicity(basis, m)


def test_kernel_is_one_dimensional_with_gaussian_ground_state():
    res = spectrum(oscillator_rep(2, 10))
    assert res.clusters[0] == (0.0, 1)
    assert res.kernel_overlap is not None and res.kernel_overlap >= 1.0 - 1e-10
    # spectral gap: nothing between the kernel and the first excited level
    positive = res.eigenvalues[res.eigenvalues > 1e-8]
    assert positive.min() >= 1.5


def test_spectrum_stable_under_level_increase():
    # the interior block is exactly diagonal, so enlarging the basis must
    # not move eigenvalues inside the shared window
    small = spectrum(oscillator_rep(1, 10))
    large = spectrum(oscillator_rep(1, 12))
    large_centers = {round(v): (v, m) for v, m in large.clusters}
    for value, mult in small.clusters:
        if value > small.window - 2:
            continue
        v_large, m_large = large_centers[round(value)]
        assert abs(v_large - value) <= 1e-9
        assert m_large == mult


# ---------------------------------------------------------------------------
# multiplication operators
# ---------------------------------------------------------------------------

def _constant(value: float, blade: int = 0) -> CliffFunction:
    return CliffFunction(1, f"{value}", ((blade, (GradedFunction(lambda x: np.full_like(x, value), 0, "c"),)),))


def test_constant_symbol_gives_identity():
    basis = HermiteBasis(1, 10)
    m = multiplication_operator(_constant(2.5), basis)
    assert np.allclose(m.mat, 2.5 * np.eye(basis.size), atol=1e-12)


def test_multiplication_operator_is_a_contraction_for_contractive_symbols():
    basis = HermiteBasis(1, 12)
    h = _gaussian_bott_map(1, odd=False)   # sup norm 1, attained at the origin
    m = multiplication_operator(h, basis)
    nrm = np.linalg.norm(m.mat, 2)
    assert nrm <= 1.0 + 1e-10
    assert nrm > 0.5


def test_matched_nodes_reproduce_position_functional_calculus():
    # quadrature on the eigenvalues of the truncated position operator is
    # evaluation at those eigenvalues: the two routes agree to rounding
    level = 12
    rep = oscillator_rep(1, level)
    basis = rep.basis
    direct = matrix_function(gaussian(), rep.clifford).mat
    quad = multiplication_operator(_gaussian_bott_map(1, odd=False), basis, nodes=level + 1).mat
    assert np.abs(direct - quad).max() <= 1e-12


def test_multiplication_operator_node_convergence():
    basis = HermiteBasis(1, 12)
    h = _gaussian_bott_map(1, odd=False)
    m40 = multiplication_operator(h, basis, nodes=40).mat
    m80 = multiplication_operator(h, basis, nodes=80).mat
    assert np.abs(m40 - m80).max() <= 1e-7


def kronecker_sum(h: CliffFunction, basis: HermiteBasis) -> np.ndarray:
    """The dense operator ``sum_c kron(Gram_c, lambda(c))`` of a separable symbol between all states,
    every Gram entry the product over axes of the 1-D quadrature Grams at the default nodes."""
    x, w = np_hermite.hermgauss(2 * basis.level + 16)
    rows, k = hermite_rows(basis.level, x), np.array(basis.mindices)
    return sum(np.kron(np.prod([((rows * (w * g(x))) @ rows.T)[np.ix_(k[:, i], k[:, i])] for i, g in enumerate(fns)],
                               axis=0), left_mult_operator(basis.sig, c)) for c, fns in h.terms)


@pytest.mark.parametrize("dim,level", [(2, 6), (3, 4)])
def test_reflections_are_exact_symmetries_of_the_operators(dim, level):
    # R_i = (-1)^{k_i} (x) lambda(e_i) rho~(e_i) is diagonal, (-1)^(k_i + b_i) on the state with
    # Hermite index k_i and blade bit b_i on axis i.  Every R_i, R_1 included, commutes exactly with
    # C, D and N, and to rounding with the Kronecker sums of M_uP and M_vP at every t, so these are
    # held on the labels of all n reflections and are exactly zero outside their blocks.  The bump is
    # shifted along axis 1: it breaks R_1 and is held on the labels of R_2 .. R_n only.
    rep = oscillator_rep(dim, level)
    basis = rep.basis
    blades, spatial = basis.blade_count, basis.spatial_size
    k = np.array(basis.mindices)
    b = np.tile(np.arange(blades), spatial)
    gens = [1 << i for i in range(dim)]
    signs = []
    for i, e in enumerate(gens):
        r = np.kron(np.diag((-1.0) ** k[:, i]),
                    left_mult_operator(basis.sig, e) @ twisted_right_mult_operator(basis.sig, e))
        assert np.array_equal(r, np.diag((-1.0) ** (np.repeat(k[:, i], blades) + (b >> i & 1))))
        signs.append(np.diag(r))
    sector = np.array(signs).T  # the signs of R_1 .. R_n of every state
    # whether two states share their signs under every R_i, or under R_2 .. R_n
    same_sector = {fine: (s[:, None, :] == s[None, :, :]).all(axis=2) for fine, s in ((True, sector),
                                                                                        (False, sector[:, 1:]))}
    par = basis_parity(basis)
    # the dense operators from their Kronecker sums, apart from the package's label blocks
    ops = {
        "C": (rep.clifford, sum(np.kron(axis_matrix(basis, i, position_matrix(level)), left_mult_operator(basis.sig, e))
                                for i, e in enumerate(gens))),
        "D": (rep.dirac, sum(np.kron(axis_matrix(basis, i, derivative_matrix(level)),
                                     twisted_right_mult_operator(basis.sig, e))
                             for i, e in enumerate(gens))),
        "N": (rep.number, np.kron(np.eye(spatial), number_operator(basis.sig))),
    }
    for t in (1.0, 2.0, 16.0):
        ops.update({f"M_{h.name}@{t:g}": (multiplication_operator(rescale(h, t), basis),
                                          kronecker_sum(rescale(h, t), basis)) for h in named_symbols(dim)})
    for name, (op, want) in ops.items():
        x, fine = op.mat, "bump" not in name
        if name in ("C", "D", "N"):
            assert np.array_equal(x, want), name
            for i, sign in enumerate(signs):
                assert np.abs(sign[:, None] * x - x * sign[None, :]).max() == 0.0, (name, i + 1)
        else:
            # the quadrature leaves rounding noise between sectors, which the blocks do not hold
            assert np.abs(x - want).max() <= 1e-15, name
            for i, sign in enumerate(signs):
                moved = np.abs(sign[:, None] * want - want * sign[None, :]).max()
                assert moved <= 1e-15 if fine or i else moved >= 0.1, (name, i + 1, moved)
            if name.endswith("@1"):
                grid = grid_multiplication_operator(REFERENCE_COEFFS[name[2:-2]](dim), basis)
                assert np.abs(x - grid).max() <= 1e-13, name
        assert len(op.index) == 2 ** (dim + fine), name
        assert np.array_equal(op.labels, basis.labels() & (len(op.index) - 1)), name
        outside = ~same_sector[fine] | ((par[:, None] ^ par[None, :]) != op.degree)
        assert not x[outside].any(), name


def test_symbols_declare_their_parity_on_axes_2_to_n():
    # every factor is a GradedFunction, and on every axis i >= 2 of the parity of [e_i in blade],
    # so that the operator commutes with R_i; the one on axis 1 may have none
    u, v = gaussian(), x_gaussian()
    with pytest.raises(ValueError, match="axis 2 of the term on blade 2 must be a GradedFunction of parity 1"):
        CliffFunction(2, "u on e2", ((0b10, (u, u)),))
    assert CliffFunction(2, "v on e2", ((0b10, (u, v)),)).parity == 1
    with pytest.raises(ValueError, match="axis 3 .* parity 0"):
        CliffFunction(3, "v off e3", ((0b001, (u, u, v)),))
    with pytest.raises(ValueError, match="axis 2 .* parity 0"):
        CliffFunction(2, "undeclared", ((0, (u, lambda x: np.exp(-x * x))),))
    with pytest.raises(ValueError, match="axis 1 of the term on blade 0 must be a GradedFunction$"):
        CliffFunction(2, "plain", ((0, (lambda x: np.exp(-x * x), u)),))
    shifted = GradedFunction(lambda x: np.exp(-(x - 1.0) ** 2), None, "shifted")
    free = CliffFunction(2, "free axis 1", ((0b10, (shifted, v)),))
    flat = rescale(free, 4.0)
    assert isinstance(flat.terms[0][1][1], GradedFunction) and flat.terms[0][1][1].parity == 1
    pts = np.array([[0.3, -1.7]])
    assert np.allclose(symbol_values(flat, pts), symbol_values(free, pts / 4.0), rtol=1e-15)


def test_odd_symbol_gives_exactly_odd_operator():
    basis = HermiteBasis(1, 8)
    m = multiplication_operator(_gaussian_bott_map(1, odd=True), basis)
    assert m.operator_parity() == m.degree == 1
    assert GradedMatrix(m.mat.copy(), m.parity).degree == 1  # no entry of degree 0


def test_dimension_mismatch_rejected():
    basis = HermiteBasis(2, 6)
    with pytest.raises(ValueError, match="dimension"):
        multiplication_operator(_gaussian_bott_map(1, odd=False), basis)


# the named symbols, each as one formula written independently of its terms
REFERENCE_COEFFS = {
    "uP": lambda dim: bott_map(gaussian(), dim),
    "vP": lambda dim: bott_map(x_gaussian(), dim),
    "bump": bump_coeffs,
}


def _symbol(name: str, dim: int) -> CliffFunction:
    """The named symbol of the suites on R^dim."""
    return {h.name: h for h in named_symbols(dim)}[name]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name", ["uP", "vP", "bump"])
def test_named_symbol_terms_match_their_reference_formulas(name, dim):
    h = _symbol(name, dim)
    pts = np.random.default_rng(11).uniform(-2.5, 2.5, size=(40, dim))
    pts[0] = 0.0
    want = REFERENCE_COEFFS[name](dim)(pts)
    assert np.allclose(symbol_values(h, pts), want, rtol=1e-13, atol=0.0)
    assert h.parity == {"uP": 0, "vP": 1, "bump": 1}[name]


@pytest.mark.parametrize("dim,level", [(1, 12), (2, 6), (3, 5)])
@pytest.mark.parametrize("name", ["uP", "vP", "bump"])
def test_separable_symbols_match_the_grid_route(name, dim, level):
    # oracle: the symbol's reference formula evaluated on the full q^dim grid
    basis = HermiteBasis(dim, level)
    h = _symbol(name, dim)
    coeffs = REFERENCE_COEFFS[name](dim)
    for t in (1.0, 4.0):
        for nodes in (None, level + 1):
            got = multiplication_operator(rescale(h, t), basis, nodes=nodes)
            want = grid_multiplication_operator(lambda p: coeffs(p / t), basis, nodes=nodes)
            assert got.operator_parity() == h.parity
            assert np.abs(got.mat - want).max() <= 1e-13, (t, nodes)


def test_mixed_symbol_is_the_sum_of_its_parts():
    # a caller's symbol with terms of both blade parities is rejected; its
    # even and odd terms are two symbols whose operators sum, as dense
    # matrices, to the grid operator of the whole symbol
    basis = HermiteBasis(1, 8)
    const = _constant(2.5)
    odd = CliffFunction(1, "odd", ((1, (gaussian(),)),))
    with pytest.raises(ValueError, match="one parity"):
        CliffFunction(1, "both", const.terms + odd.terms)
    parts = [multiplication_operator(h, basis) for h in (const, odd)]
    assert [m.degree for m in parts] == [0, 1]
    with pytest.raises(ValueError, match="degrees 0 and 1"):
        parts[0] + parts[1]
    want = grid_multiplication_operator(
        lambda p: np.stack([np.full(len(p), 2.5), np.exp(-p[:, 0] ** 2)], axis=1), basis)
    assert np.abs(parts[0].mat + parts[1].mat - want).max() <= 1e-13


def test_cliff_function_shape_validation():
    # every term carries exactly one function per axis: a missing axis is
    # not taken as the constant 1
    u = gaussian()
    with pytest.raises(ValueError, match="axis functions"):
        CliffFunction(2, "short", ((0, (u,)),))
    with pytest.raises(ValueError, match="axis functions"):
        CliffFunction(1, "long", ((0, (u, u)),))


def test_cliff_function_rejects_blades_outside_the_algebra():
    u = gaussian()
    with pytest.raises(ValueError, match="blade 9"):
        CliffFunction(2, "far", ((9, (u, u)),))
    with pytest.raises(ValueError, match="blade -1"):
        CliffFunction(2, "negative", ((-1, (u, u)),))
    assert CliffFunction(2, "top", ((3, (u, x_gaussian())),)).parity == 0


def test_rescale_flattens_and_validates():
    h = _gaussian_bott_map(1, odd=True)
    wide = rescale(h, 4.0)
    pts = np.array([[2.0]])
    assert np.allclose(symbol_values(wide, pts), symbol_values(h, pts / 4.0))
    assert wide.parity == h.parity
    with pytest.raises(ValueError):
        rescale(h, 0.5)


def _tail_start(values, tol: float = 1e-8) -> int:
    """The index of the first singular value below tol, as the compactness suite reads it (len if none is)."""
    return next((i for i, s in enumerate(values) if s < tol), len(values))


def test_compactness_singular_value_decay():
    rep = oscillator_rep(1, 10)
    sv = compactness_profile(gaussian(), _gaussian_bott_map(1, odd=False), rep)
    assert np.all(np.diff(sv) <= 1e-14), "singular values must be sorted descending"
    assert sv[-1] < 1e-8
    assert _tail_start(sv) < len(sv)


@pytest.mark.parametrize("name", ["uP", "vP", "bump"])
def test_compactness_profile_matches_the_dense_svd(name):
    # the singular values of the product's two parity blocks, together, are
    # those of the full-size product
    rep = oscillator_rep(2, 6)
    h = _symbol(name, 2)
    sv = compactness_profile(gaussian(), h, rep)
    dense = matrix_function(gaussian(), rep.bott).mat @ multiplication_operator(h, rep.basis).mat
    want = np.linalg.svd(dense, compute_uv=False)
    assert sv.shape == want.shape
    assert np.abs(sv - want).max() <= 1e-14
    assert _tail_start(sv) == _tail_start(want)


@pytest.mark.parametrize("dim,level", [(2, 6), (3, 4)])
def test_compactness_profile_has_one_singular_value_per_state(dim, level):
    # u(B) M_vP is odd, and its label blocks are rectangular (a rows of one level parity against b of
    # the other): their singular values fall short of N, and the structural zeros make up the rest
    rep = oscillator_rep(dim, level)
    for h in named_symbols(dim):
        assert len(compactness_profile(gaussian(), h, rep)) == rep.basis.size, h.name
    odd = matrix_function(gaussian(), rep.bott) @ multiplication_operator(named_symbols(dim)[1], rep.basis)
    assert sum(min(b.shape) for b in odd.blocks) < rep.basis.size


def test_compactness_profile_rejects_a_mixed_symbol():
    # the symbol is rejected when it is built, the function when it is applied to B
    rep = oscillator_rep(2, 6)
    u = gaussian()
    with pytest.raises(ValueError, match="one parity"):
        CliffFunction(2, "mixed", ((0, (u, u)), (1, (u, u))))
    with pytest.raises(ValueError, match="no declared parity"):
        compactness_profile(fsum(u, x_gaussian()), CliffFunction(2, "even", ((0, (u, u)),)), rep)


def test_oscillator_rep_is_cached():
    assert oscillator_rep(1, 8) is oscillator_rep(1, 8)


def test_cached_quadrature_and_cayley_tables_are_read_only():
    # both caches are shared by every later multiplication operator and Clifford product
    from bottlab import clifford, oscillator

    basis = HermiteBasis(1, 8)
    h = named_symbols(1)[1]
    before = multiplication_operator(h, basis).blocks
    for a in (*oscillator._gh_nodes(2 * basis.level + 16), *clifford._tables(1, 0)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] += 1
    after = multiplication_operator(h, basis).blocks
    assert all(np.array_equal(x, y) for x, y in zip(before, after))
