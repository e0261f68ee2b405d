"""Tests for graded (super) linear algebra.

The Koszul sign conventions are the load-bearing part: the graded tensor,
the flip, and the graded commutator must satisfy the textbook sign laws
exactly, or everything downstream silently computes the wrong object.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bottlab.clifford import Signature, blade_parities
from bottlab.funcalc import SpectralMatrix, gaussian, matrix_function, scale, x_gaussian
from bottlab.graded import (
    NORM_SLACK,
    GradedMatrix,
    block_norm,
    flip_simple,
    flip_unitary,
    graded_commutator,
    graded_tensor,
    grading_signs,
    identity_like,
    involution,
    label_index,
    largest_entry,
    regroup,
    signed,
    tensor_labels,
    tensor_pairs,
    tensor_product_witness,
)
from bottlab.oscillator import CliffFunction, multiplication_operator, oscillator_rep
from bottlab.verify import SweepConfig, named_symbols, run_suite, windowed_norm
from oracles import (basis_parity, clifford_product, dense_flip, dense_signed_map, every_block_norm, fsum,
                     interior_mask, signed_permutation, tensor_parity)


def random_parity(rng, dim):
    p = rng.integers(0, 2, size=dim).astype(np.uint8)
    return p


def random_homogeneous(rng, parity, op_parity, integer=False):
    """Random matrix supported on the blocks of the given operator parity.

    Built from its array; when those blocks are empty the array is zero,
    which is even, so the zero matrix of the asked degree is returned.  With
    ``integer`` the entries are small integers, whose products are exact.
    """
    dim = len(parity)
    mask = (parity[:, None] ^ parity[None, :]) == op_parity
    draw = rng.integers(-9, 10, (dim, dim)) if integer else rng.standard_normal((dim, dim))
    return GradedMatrix(draw * mask, parity).parity_part(op_parity)


def flip_matrix(la, lb):
    """flip_unitary(la, lb) written out as a matrix, once its rows are checked to be a permutation,
    its signs to be +-1, and the matrix to be the dense oracle's swap."""
    row, sign = flip_unitary(la, lb)
    assert np.array_equal(np.sort(row), np.arange(len(row))) and np.array_equal(np.abs(sign), np.ones(len(row)))
    u = signed_permutation(row, sign)
    assert np.array_equal(u, dense_flip(la, lb))
    return u


def tensor_position(pa, pb):
    """The position of ``x_i (x) y_j`` in the basis of graded_tensor, indexed ``[i, j]``."""
    i, j = tensor_pairs(pa, pb)
    where = np.empty((len(pa), len(pb)), dtype=int)
    where[i, j] = np.arange(len(i))
    return where


def parity_vector(rng, dim, kind):
    """Random (interleaved) parities, or all even, or all odd."""
    if kind == "random":
        return random_parity(rng, dim)
    return np.full(dim, kind == "odd", dtype=np.uint8)


def mixed_array(rng, parity):
    """A dense array with nonzero entries of both degrees."""
    return rng.standard_normal((len(parity),) * 2)


# ---------------------------------------------------------------------------
# parity bookkeeping
# ---------------------------------------------------------------------------

def test_operator_parity_detection():
    rng = np.random.default_rng(0)
    par = np.array([0, 1, 0, 1], dtype=np.uint8)
    even = random_homogeneous(rng, par, 0)
    odd = random_homogeneous(rng, par, 1)
    assert even.operator_parity() == even.degree == 0
    assert odd.operator_parity() == odd.degree == 1
    assert GradedMatrix(np.zeros((4, 4)), par).degree == 0  # the zero matrix is even
    # the part of the other degree is zero; the part of its own is the matrix
    assert even.parity_part(0) is even
    assert odd.parity_part(0).degree == 0 and not odd.parity_part(0).mat.any()
    assert even.parity_part(1).degree == 1 and not even.parity_part(1).mat.any()


def test_a_matrix_of_both_degrees_cannot_be_built():
    rng = np.random.default_rng(12)
    par = np.array([0, 1, 0, 1, 1], dtype=np.uint8)
    rejected = mixed_array(rng, par)
    with pytest.raises(ValueError, match="both degrees"):
        GradedMatrix(rejected, par)
    assert rejected.flags.writeable and par.flags.writeable  # a rejected input is not frozen
    # one entry of each degree is enough
    with pytest.raises(ValueError, match="both degrees"):
        GradedMatrix(np.diag([0.0, 0.0, 0.0, 0.0, 1.0]) + np.eye(5, k=1) * 1e-300, par)


def test_sums_of_different_degrees_are_rejected():
    rng = np.random.default_rng(13)
    par = np.array([0, 1, 1, 0], dtype=np.uint8)
    even, odd = random_homogeneous(rng, par, 0), random_homogeneous(rng, par, 1)
    with pytest.raises(ValueError, match="degrees 0 and 1"):
        even + odd
    with pytest.raises(ValueError, match="degrees 1 and 0"):
        odd - even
    # the zero part of the other degree does not change that
    with pytest.raises(ValueError, match="degrees 0 and 1"):
        even + even.parity_part(1)


def test_grading_operator_conjugation():
    rng = np.random.default_rng(1)
    par = random_parity(rng, 6)
    g = np.diag(grading_signs(par))
    for p in (0, 1):
        a = random_homogeneous(rng, par, p)
        assert np.allclose(g @ a.mat @ g, (-1.0) ** p * a.mat)


def test_graded_matrix_validation():
    with pytest.raises(ValueError):
        GradedMatrix(np.zeros((2, 3)), np.array([0, 1]))
    with pytest.raises(ValueError):
        GradedMatrix(np.zeros((2, 2)), np.array([0, 1, 0]))


@pytest.mark.parametrize("parity", [[0.5, 1], [0, 1.7], [0, -1], [0, 256], [0, math.nan]])
def test_graded_matrix_refuses_a_parity_that_is_not_0_or_1(parity):
    # checked on the raw values: the uint8 cast would read 0.5 and 1.7 as 0 and 1, and overflow on -1 and 256
    with pytest.raises(ValueError, match="parities must be 0 or 1"):
        GradedMatrix(np.zeros((2, 2)), parity)


def _random_on_labels(rng, sizes, degree):
    """A random degree-d graded matrix with ``sizes[l]`` basis vectors of label l, in shuffled order,
    and its dense form."""
    labels = rng.permutation(np.repeat(np.arange(len(sizes), dtype=np.uint16), sizes))
    dense = rng.standard_normal((len(labels), len(labels)))
    dense[(labels[:, None] ^ labels[None, :]) != degree] = 0.0
    index = label_index(labels, len(sizes))
    blocks = [dense[np.ix_(i, index[r ^ degree])] for r, i in enumerate(index)]
    return GradedMatrix.from_blocks(degree, blocks, labels, index), dense


@pytest.mark.parametrize("count", [2, 4, 8])
@pytest.mark.parametrize("degree", [0, 1])
def test_signed_is_the_dense_conjugation(count, degree):
    # T X T^T, without a shift and with the shift onto label l ^ (count - 1), whose size is made to
    # match; then on a window, whose blocks cut the signs to their leading states
    rng = np.random.default_rng(10 * count + degree)
    half = rng.integers(1, 6, count)
    sizes = [half[min(r, r ^ (count - 1))] for r in range(count)]
    x, dense = _random_on_labels(rng, sizes, degree)
    signs = [rng.choice([-1.0, 1.0], n) for n in sizes]
    for shift in (0, count - 1):
        t = dense_signed_map(x.labels, x.index, signs, shift)
        got = signed(x, signs, shift)
        assert got.degree == degree and np.array_equal(got.mat, t @ dense @ t.T)
    keep = tuple(max(1, n - 2) for n in sizes)
    states = np.sort(np.concatenate([i[:k] for i, k in zip(x.index, keep)]))
    t = dense_signed_map(x.labels, x.index, signs)
    assert np.array_equal(signed(x.window(keep), signs).mat, (t @ dense @ t.T)[np.ix_(states, states)])


def test_signed_reads_coarser_labels_and_keeps_mirrored_and_symmetry():
    # an odd function of C is mirrored and symmetric; signed on C's labels, and on the two parity
    # labels with signs given on those, it is the dense conjugation and stays both
    rng = np.random.default_rng(3)
    fx = matrix_function(x_gaussian(), oscillator_rep(2, 4).clifford)
    assert fx.mirrored and fx._symmetric
    for g in (fx, regroup(fx, 2)):
        signs = [rng.choice([-1.0, 1.0], len(i)) for i in g.index]
        t = dense_signed_map(g.labels, g.index, signs)
        got = signed(g, signs)
        assert np.array_equal(got.mat, t @ g.mat @ t.T)
        assert got.mirrored and got._symmetric


def test_largest_entry_carries_every_nan():
    assert largest_entry([]) == 0.0 and largest_entry(iter(())) == 0.0
    assert largest_entry([1.5, np.array([[-3.0, 2.0]]), -0.5]) == 3.0
    assert largest_entry([np.array([1.0, -math.inf]), 2.0]) == math.inf
    assert largest_entry([-math.inf]) == math.inf
    for values in ([math.nan, 1.0, 2.0], [1.0, np.array([0.0, math.nan]), 2.0], [1.0, 2.0, np.array([math.nan])],
                   [np.zeros(3), np.array([[math.nan]]), 4.0]):
        assert math.isnan(largest_entry(values))
        assert math.isnan(largest_entry(iter(values)))


# ---------------------------------------------------------------------------
# graded tensor: action law, multiplication law, associativity
# ---------------------------------------------------------------------------

@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_graded_tensor_action_law(seed):
    # defining property on basis vectors:
    #   (a (x) b)(x_j (x) y_l) = (-1)^{deg b * deg x_j} (a x_j) (x) (b y_l)
    # where x_j (x) y_l sits at the position tensor_pairs gives it
    rng = np.random.default_rng(seed)
    da, db = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    pa, pb = random_parity(rng, da), random_parity(rng, db)
    a = random_homogeneous(rng, pa, int(rng.integers(0, 2)))
    opb = int(rng.integers(0, 2))
    b = random_homogeneous(rng, pb, opb)
    tp = graded_tensor(a, b)
    where = tensor_position(pa, pb)
    assert np.array_equal(np.sort(where.ravel()), np.arange(da * db))
    for j in range(da):
        for l in range(db):
            vec = np.eye(da * db)[where[j, l]]
            sign = (-1.0) ** (opb * int(pa[j]))
            expected = np.zeros(da * db)
            expected[where] = sign * np.outer(a.mat[:, j], b.mat[:, l])
            assert np.allclose(tp.mat @ vec, expected)
    assert np.array_equal(tp.parity, tensor_parity(pa, pb))
    assert np.array_equal(tp.parity[where], pa[:, None] ^ pb[None, :])


def unequal_parity(rng, dim):
    """A shuffled parity vector with one class larger than the other, as in delta-xr's
    level-12 factor (7 even and 6 odd states)."""
    p = np.zeros(dim, dtype=np.uint8)
    p[:int(rng.integers(0, dim + 1))] = 1
    if 2 * int(p.sum()) == dim:
        p[0] ^= 1
    return rng.permutation(p)


def test_graded_tensor_is_the_koszul_kron_on_the_basis_of_tensor_pairs():
    # every entry is the one product kron(a . (-1)^{deg b * deg xi} on columns, b) makes, so
    # the two agree exactly once the dense product is permuted to the basis of tensor_pairs
    rng = np.random.default_rng(17)
    dims = [(13, 13), (7, 4), (1, 6), (5, 1), (22, 22)]
    for da, db in dims:
        pa, pb = unequal_parity(rng, da), unequal_parity(rng, db)
        i, j = tensor_pairs(pa, pb)
        flat = i * db + j
        for p1 in (0, 1):
            for p2 in (0, 1):
                a = random_homogeneous(rng, pa, p1)
                b = random_homogeneous(rng, pb, p2)
                left = a.mat * grading_signs(pa)[None, :] if p2 else a.mat
                dense = np.kron(left, b.mat)[np.ix_(flat, flat)]
                tp = graded_tensor(a, b)
                assert tp.degree == p1 ^ p2
                assert np.array_equal(tp.mat, dense), (da, db, p1, p2)
                assert np.array_equal(tp.parity, (pa[:, None] ^ pb[None, :]).ravel()[flat])


def test_graded_tensor_negates_a_one_column_run():
    # odd factors with one state of one parity: a run of the tensor is one column, a strided slice
    # that numpy 2.4's in-place np.negative reads wrongly, so its Koszul sign must be applied otherwise
    rng = np.random.default_rng(52192)
    pa, pb = np.array([1, 0], dtype=np.uint8), np.array([1, 0, 1, 1, 1, 1, 1, 1], dtype=np.uint8)
    a, b = random_homogeneous(rng, pa, 1, integer=True), random_homogeneous(rng, pb, 1, integer=True)
    i, j = tensor_pairs(pa, pb)
    flat = i * len(pb) + j
    dense = np.kron(a.mat * grading_signs(pa)[None, :], b.mat)[np.ix_(flat, flat)]
    assert np.count_nonzero(dense)
    assert np.array_equal(graded_tensor(a, b).mat, dense)


def random_on_labels(rng, labels, degree):
    """A random matrix of the given degree held on the labels: block l maps label l ^ degree to l."""
    index = label_index(labels, 1 << max(1, int(labels.max()).bit_length()))
    blocks = [rng.standard_normal((len(i), len(index[r ^ degree]))) for r, i in enumerate(index)]
    return GradedMatrix.from_blocks(degree, blocks, labels, index)


def factor_labels(rng, dim, count):
    """Shuffled labels 0 .. count - 1, every one of them present."""
    return rng.permutation(np.arange(dim) % count).astype(np.uint16)


LABEL_COUNTS = [(2, 2), (4, 4), (2, 4), (4, 2)]


@pytest.mark.parametrize("counts", LABEL_COUNTS)
def test_graded_tensor_on_labels_is_the_koszul_kron_on_the_basis_of_tensor_pairs(counts):
    # factors on 2 and on 4 labels, in every degree pair: the dense Koszul Kronecker product,
    # permuted to the basis of tensor_pairs, and zero between labels of different reflection bits
    rng = np.random.default_rng(sum(counts))
    for da, db in [(9, 7), (6, 11), (22, 22)]:
        la, lb = factor_labels(rng, da, counts[0]), factor_labels(rng, db, counts[1])
        i, j = tensor_pairs(la, lb)
        flat = i * db + j
        labels = tensor_labels(la, lb)
        assert np.array_equal(labels, np.sort(labels))
        assert np.array_equal(labels & 1, (la[i] ^ lb[j]) & 1)
        assert np.array_equal(labels >> 1, (la[i] >> 1) | (lb[j] >> 1) << (counts[0].bit_length() - 2))
        for p1 in (0, 1):
            for p2 in (0, 1):
                a, b = random_on_labels(rng, la, p1), random_on_labels(rng, lb, p2)
                left = a.mat * grading_signs(la & 1)[None, :] if p2 else a.mat
                tp = graded_tensor(a, b)
                assert tp.degree == p1 ^ p2 and len(tp.index) == counts[0] * counts[1] // 2
                assert np.array_equal(tp.labels, labels)
                assert np.array_equal(tp.mat, np.kron(left, b.mat)[np.ix_(flat, flat)]), (da, db, p1, p2)


def test_factors_on_their_parities_keep_the_parity_layout():
    # two-label factors: the basis ordered by parity, then by the first leg's parity, then a-major
    rng = np.random.default_rng(19)
    pa, pb = unequal_parity(rng, 13), unequal_parity(rng, 6)
    i, j = tensor_pairs(pa, pb)
    key = 2 * (pa[i] ^ pb[j]).astype(int) + pa[i]
    assert np.all(np.diff(key) >= 0)
    for k in np.unique(key):
        run = i[key == k] * 6 + j[key == k]
        assert np.all(np.diff(run) > 0)  # a-major within a run
    assert np.array_equal(tensor_labels(pa, pb), pa[i] ^ pb[j])


@pytest.mark.parametrize("counts", LABEL_COUNTS)
def test_flip_unitary_carries_the_tensor_to_the_flip_on_labels(counts):
    # conjugation by flip_unitary(la, lb) carries graded_tensor(a, b) to flip_simple(a, b), exactly,
    # and carries every label of the (a, b) space onto one label of the (b, a) space
    rng = np.random.default_rng(10 + sum(counts))
    la, lb = factor_labels(rng, 7, counts[0]), factor_labels(rng, 9, counts[1])
    u = flip_matrix(la, lb)
    assert np.array_equal(np.abs(u).sum(axis=0), np.ones(63)) and np.array_equal(u @ u.T, np.eye(63))
    assert np.array_equal(flip_matrix(lb, la) @ u, np.eye(63))
    source, target = tensor_labels(la, lb), tensor_labels(lb, la)
    rows = np.abs(u).argmax(axis=0)
    for label in np.unique(source):
        assert len(np.unique(target[rows[source == label]])) == 1
        assert np.all(target[rows[source == label]] & 1 == label & 1)
    for p1 in (0, 1):
        for p2 in (0, 1):
            a, b = random_on_labels(rng, la, p1), random_on_labels(rng, lb, p2)
            assert np.array_equal(u @ graded_tensor(a, b).mat @ u.T, flip_simple(a, b).mat), (p1, p2)


def test_oscillator_factors_tensor_on_their_reflection_labels():
    # u(C) and v(C) at (1,10) sit on 4 labels of 6/5/5/6 rows; their tensor is 8 blocks, a quarter
    # of the entries the two parity blocks of 242 rows hold, and the same matrix
    rep = oscillator_rep(1, 10)
    uc, vc = (matrix_function(f, rep.clifford) for f in (gaussian(), x_gaussian()))
    assert [len(i) for i in uc.index] == [6, 5, 5, 6]
    fine, coarse = graded_tensor(uc, vc), graded_tensor(regroup(uc, 2), regroup(vc, 2))
    assert len(fine.index) == 8
    assert sum(b.size for b in fine.blocks) < sum(b.size for b in coarse.blocks) / 3.5
    order = np.argsort(tensor_pairs(uc.labels, vc.labels)[0] * 22 + tensor_pairs(uc.labels, vc.labels)[1])
    back = np.argsort(tensor_pairs(uc.parity, vc.parity)[0] * 22 + tensor_pairs(uc.parity, vc.parity)[1])
    assert np.array_equal(fine.mat[np.ix_(order, order)], coarse.mat[np.ix_(back, back)])


def test_graded_tensor_forms_no_dense_matrix_of_the_tensor_space():
    # two 22-state factors: their tensor space has 484 states, and one dense 484 x 484 array
    # (1.87 MB) is more than the traced peak of forming the product from the parity blocks
    rng = np.random.default_rng(18)
    par = unequal_parity(rng, 22)
    a = random_homogeneous(rng, par, 1)
    b = random_homogeneous(rng, par, 0)
    graded_tensor(a, b)  # the basis layout is cached once per pair of parity vectors
    tracemalloc.start()
    try:
        tp = graded_tensor(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tp.parity) == 484
    assert peak < 484 * 484 * 8, peak


def test_flip_endpoints_forms_no_dense_matrix_of_the_tensor_space():
    # at level 10 the tensor squares have 484 states; the swap is held as a permutation and every
    # tensor as label blocks, so the suite's traced peak stays below three dense 484 x 484 arrays
    cfg = SweepConfig(dim=1, level=10, t_grid=(1.0, 2.0, 4.0))
    run_suite("flip-endpoints", cfg)  # the context, the layouts and the quadratures are cached
    tracemalloc.start()
    try:
        assert run_suite("flip-endpoints", cfg).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 484 * 484 * 8, peak


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_graded_tensor_multiplication_law(seed):
    # (a (x) b)(c (x) d) = (-1)^{deg b deg c} (ac) (x) (bd)
    rng = np.random.default_rng(seed)
    da, db = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    pa, pb = random_parity(rng, da), random_parity(rng, db)
    opb, opc = int(rng.integers(0, 2)), int(rng.integers(0, 2))
    a = random_homogeneous(rng, pa, int(rng.integers(0, 2)))
    b = random_homogeneous(rng, pb, opb)
    c = random_homogeneous(rng, pa, opc)
    d = random_homogeneous(rng, pb, int(rng.integers(0, 2)))
    lhs = graded_tensor(a, b) @ graded_tensor(c, d)
    sign = (-1.0) ** (opb * opc)
    rhs = sign * graded_tensor(a @ c, b @ d)
    assert np.allclose(lhs.mat, rhs.mat, atol=1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_graded_tensor_associative(seed):
    # the two bracketings order the basis differently; after the fixed permutation that
    # matches their vectors x_i (x) y_j (x) z_k, they agree exactly on integer entries
    rng = np.random.default_rng(seed)
    dims = [int(rng.integers(1, 9)) for _ in range(3)]
    pars = [random_parity(rng, d) for d in dims]
    a, b, c = (random_homogeneous(rng, p, int(rng.integers(0, 2)), integer=True) for p in pars)
    ab, bc = graded_tensor(a, b), graded_tensor(b, c)
    lhs, rhs = graded_tensor(ab, c), graded_tensor(a, bc)
    # the flat index of x_i (x) y_j (x) z_k at every position of either basis
    p, k = tensor_pairs(ab.parity, pars[2])
    i, j = tensor_pairs(pars[0], pars[1])
    left = (i[p] * dims[1] + j[p]) * dims[2] + k
    i, q = tensor_pairs(pars[0], bc.parity)
    j, k = tensor_pairs(pars[1], pars[2])
    right = (i * dims[1] + j[q]) * dims[2] + k[q]
    lo, ro = np.argsort(left), np.argsort(right)
    assert np.array_equal(left[lo], right[ro])
    assert np.array_equal(lhs.parity[lo], rhs.parity[ro])
    assert np.array_equal(lhs.mat[np.ix_(lo, lo)], rhs.mat[np.ix_(ro, ro)])


def test_graded_tensor_rejects_mixed_second_factor():
    # a mixed factor cannot be built; the tensors with its two parts can,
    # and each has the degree of its part
    par = np.array([0, 1], dtype=np.uint8)
    a = GradedMatrix(np.eye(2), par)
    with pytest.raises(ValueError, match="both degrees"):
        GradedMatrix(np.ones((2, 2)), par)
    for d, part in enumerate((np.eye(2), np.ones((2, 2)) - np.eye(2))):
        tensor = graded_tensor(a, GradedMatrix(part, par))
        assert tensor.degree == d
        assert GradedMatrix(tensor.mat.copy(), tensor.parity).degree == d


def test_identity_tensor_identity():
    rng = np.random.default_rng(3)
    pa, pb = random_parity(rng, 3), random_parity(rng, 4)
    ia = identity_like(GradedMatrix(np.zeros((3, 3)), pa))
    ib = identity_like(GradedMatrix(np.zeros((4, 4)), pb))
    assert np.array_equal(graded_tensor(ia, ib).mat, np.eye(12))


# ---------------------------------------------------------------------------
# graded commutator
# ---------------------------------------------------------------------------

def test_graded_commutator_sign_table():
    rng = np.random.default_rng(4)
    par = random_parity(rng, 5)
    for p1 in (0, 1):
        for p2 in (0, 1):
            a = random_homogeneous(rng, par, p1)
            b = random_homogeneous(rng, par, p2)
            got = graded_commutator(a, b).mat
            if p1 and p2:
                want = a.mat @ b.mat + b.mat @ a.mat
            else:
                want = a.mat @ b.mat - b.mat @ a.mat
            assert np.allclose(got, want), (p1, p2)


@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(1, 12),
       kind=st.sampled_from(["random", "even", "odd"]),
       deg_a=st.sampled_from([0, 1, None]), deg_b=st.sampled_from([0, 1, None]))
@settings(max_examples=80, deadline=None)
def test_graded_commutator_matches_dense_formula(seed, dim, kind, deg_a, deg_b):
    rng = np.random.default_rng(seed)
    par = parity_vector(rng, dim, kind)
    if deg_a is None or deg_b is None:
        # an operand of both degrees is rejected when it is built
        if (par == 0).any() and (par == 1).any():
            with pytest.raises(ValueError, match="both degrees"):
                GradedMatrix(mixed_array(rng, par), par)
        return
    a, b = random_homogeneous(rng, par, deg_a), random_homogeneous(rng, par, deg_b)
    got = graded_commutator(a, b)
    assert got.degree == deg_a ^ deg_b
    sign = (-1.0) ** (deg_a * deg_b)
    want = a.mat @ b.mat - sign * (b.mat @ a.mat)
    # componentwise bound on the rounding of both products
    scale = (np.abs(a.mat) @ np.abs(b.mat) + np.abs(b.mat) @ np.abs(a.mat)).max()
    assert np.abs(got.mat - want).max() <= 1e-13 * scale
    assert np.array_equal(got.parity, par)


def records(blocks, margin):
    """How many blocks have a largest singular value above ``1 + margin`` times every one before
    them (the first nonzero block counts): the blocks that raise the running maximum."""
    count, top = 0, 0.0
    for x in blocks:
        value = np.linalg.svd(x, compute_uv=False)[0] if x.size else 0.0
        if value > 0.0 and value > (1 + margin) * top:
            count, top = count + 1, max(top, value)
    return count


@pytest.mark.parametrize("deg_b", [0, 1], ids=["b-even", "b-odd"])
@pytest.mark.parametrize("deg_a", [0, 1], ids=["a-even", "a-odd"])
def test_window_commutator_is_the_window_of_the_commutator(deg_a, deg_b, monkeypatch):
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    for config in ((2, 6), (3, 4)):
        rep = oscillator_rep(*config)
        labels, w = rep.basis.labels(), rep.window()
        rng = np.random.default_rng([*config, 2 * deg_a + deg_b])
        a, b = (symmetric_operand(rng, labels, d, from_blocks=True, count=len(w)) for d in (deg_a, deg_b))
        got = graded_commutator(a, b, w)
        want = graded_commutator(a, b).window(w)
        assert got.degree == deg_a ^ deg_b
        assert np.array_equal(got.labels, labels[interior_mask(rep.basis)])
        for x, y in zip(got.blocks, want.blocks):
            assert x.shape == y.shape
            assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max()
        if deg_a ^ deg_b:
            # [a, b]^T = -[a, b] for symmetric a and b of opposite degrees: the blocks of the odd
            # labels are not formed
            assert got.mirrored
            for r in range(1, len(w), 2):
                assert np.array_equal(got.blocks[r], -got.blocks[r ^ 1].T)
        else:
            # ba = (ab)^T: each block is formed from one product P as P - sign P^T
            sign = -1.0 if deg_a else 1.0
            assert not got.mirrored
            for x in got.blocks:
                assert np.array_equal(x, -sign * x.T)
        norm = np.linalg.norm(want.mat, 2)
        # only a block that raises the running maximum is eigensolved, once; the others are
        # certified not to raise it, and the mirrored blocks are not read
        calls.clear()
        assert abs(got.norm() - norm) <= 1e-13 * norm
        read = got.blocks[::2] if got.mirrored else got.blocks
        assert records(read, 1e-10) <= len(calls) <= records(read, -1e-10), config
        calls.clear()
        assert abs(block_norm(want.blocks) - norm) <= 1e-13 * norm
        assert records(want.blocks, 1e-10) <= len(calls) <= records(want.blocks, -1e-10), config


def largest_singular_value(blocks):
    return max((np.linalg.svd(x, compute_uv=False)[0] for x in blocks if x.size), default=0.0)


def counting_eigvalsh(monkeypatch):
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    return calls


def assert_certified_norm(blocks, eigensolves, calls):
    """block_norm reads the largest block SVD to rounding and the slack, eigensolving as many blocks."""
    calls.clear()
    want, got = largest_singular_value(blocks), block_norm(blocks)
    assert want * (1 - NORM_SLACK / 2 - 1e-14) <= got <= want * (1 + 1e-14), (got, want)
    assert len(calls) == eigensolves, calls


@pytest.mark.parametrize("scale_", [1.0, 1e-165, 1e150])
def test_certified_norm_skips_a_twin_block(scale_, monkeypatch):
    # label blocks come in exactly equal pairs: a block and its signed permutation have one norm,
    # and the slack lets the second skip its eigensolve
    calls = counting_eigvalsh(monkeypatch)
    rng = np.random.default_rng(7)
    x = scale_ * rng.standard_normal((12, 9))
    twin = (rng.choice([-1.0, 1.0], 12)[:, None] * x[rng.permutation(12)])[:, rng.permutation(9)]
    assert_certified_norm([x, twin], 1, calls)
    assert_certified_norm([x, twin.T, x.T], 1, calls)
    # a larger block after them is still eigensolved
    assert_certified_norm([x, twin, 1.5 * twin], 2, calls)


def test_certified_norm_reads_a_rank_one_block_after_a_flat_one(monkeypatch):
    # the identity has norm 1 and Frobenius norm sqrt(10); the rank-one block after it has norm 2
    # and the smaller Frobenius norm 2: only the running maximum, never a Frobenius norm, bounds it
    calls = counting_eigvalsh(monkeypatch)
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal(10), rng.standard_normal(8)
    rank_one = 2.0 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
    assert np.linalg.norm(rank_one) < np.linalg.norm(np.eye(10))
    assert_certified_norm([np.eye(10), rank_one], 2, calls)
    assert block_norm([np.eye(10), rank_one]) == pytest.approx(2.0, rel=1e-14)
    # a flat block after a rank-one block of larger norm but smaller Frobenius norm is certified
    assert_certified_norm([rank_one, np.eye(10)], 1, calls)


def test_certified_norm_at_the_underflow_scale(monkeypatch):
    # at 1e-165 the squares of the entries underflow to 0: the Frobenius norms are compared, and
    # the Gram matrices formed, after scaling by the largest entry
    calls = counting_eigvalsh(monkeypatch)
    rng = np.random.default_rng(11)
    small = [1e-165 * rng.standard_normal((6, 5)) for _ in range(4)]
    assert np.all(small[0] ** 2 == 0.0)
    assert_certified_norm(small, records(small, 1e-10), calls)
    assert 0.0 < block_norm(small) == pytest.approx(largest_singular_value(small), rel=1e-13)
    assert_certified_norm([small[0], 1e150 * small[1]], 2, calls)


@pytest.mark.parametrize("blocks", [[], [np.zeros((0, 3)), np.zeros((3, 0))], [np.zeros((4, 4))],
                                    [np.zeros((0, 3)), np.zeros((4, 4)), np.zeros((3, 0))]],
                         ids=["none", "empty", "zero", "empty-and-zero"])
def test_certified_norm_of_empty_and_zero_blocks_is_zero(blocks, monkeypatch):
    calls = counting_eigvalsh(monkeypatch)
    assert_certified_norm(blocks, 0, calls)
    assert block_norm(blocks) == 0.0
    x = np.diag([3.0, 1.0])
    assert_certified_norm([*blocks, x, *blocks], 1, calls)


def with_entry(shape, value, at=(0, 0)):
    x = np.eye(*shape)
    x[at] = value
    return x


NON_FINITE = {
    "nan-1x1-alone": [np.array([[np.nan]])],
    "nan-after": [3 * np.eye(3), with_entry((3, 3), np.nan, (1, 2))],
    "nan-before": [with_entry((3, 3), np.nan, (1, 2)), 3 * np.eye(3)],
    "nan-row-after": [3 * np.eye(3), np.array([[1.0, np.nan]])],
    "nan-1x1-after": [3 * np.eye(3), np.array([[np.nan]])],
    "small-nan-after": [3 * np.eye(3), 1e-3 * with_entry((2, 2), np.nan)],
    "inf-after": [3 * np.eye(3), with_entry((3, 3), np.inf, (0, 1))],
    "inf-before": [with_entry((3, 3), -np.inf, (0, 1)), 3 * np.eye(3)],
    "inf-1x1-after": [3 * np.eye(3), np.array([[np.inf]])],
    "inf-after-small": [0.1 * np.eye(2), with_entry((3, 3), np.inf, (0, 1))],
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_certified_norm_of_non_finite_blocks_is_that_of_every_block(name):
    # a block with a NaN or an Inf makes the norm NaN, whatever its shape and wherever it stands,
    # so a curve value built on it fails its gate; eigvalsh of a 1x1 NaN Gram matrix returns NaN,
    # and max(3.0, nan) is 3.0, which is how such a block used to read as 0 or as its neighbour
    blocks = NON_FINITE[name]
    assert math.isnan(block_norm(blocks))
    assert math.isnan(every_block_norm(blocks))


@given(seed=st.integers(0, 2**31 - 1), count=st.integers(1, 8),
       scale_=st.sampled_from([1.0, 1e-165, 1e-30, 1e100]))
@settings(max_examples=60, deadline=None)
def test_certified_norm_matches_every_block_norm(seed, count, scale_):
    # random shapes, twins and rescaled copies, in random order
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(count):
        kind = rng.integers(0, 4)
        if kind == 0 or not blocks:
            blocks.append(scale_ * rng.standard_normal(tuple(rng.integers(0, 9, 2))))
        elif kind == 1:
            blocks.append(-blocks[rng.integers(len(blocks))].T)
        elif kind == 2:
            blocks.append(rng.uniform(0.5, 1.5) * blocks[rng.integers(len(blocks))])
        else:
            blocks.append(np.zeros(tuple(rng.integers(0, 5, 2))))
    want = every_block_norm(blocks)
    got = block_norm(blocks)
    assert want * (1 - NORM_SLACK / 2 - 1e-14) <= got <= want * (1 + 1e-14), (got, want)


@pytest.mark.parametrize("dim,level", [(2, 6), (3, 4)])
def test_regroup_onto_coarser_labels_keeps_the_matrix(dim, level):
    # onto the parity labels and onto the labels of R_2 .. R_n, block by block, with nothing dense
    rep = oscillator_rep(dim, level)
    ops = (rep.clifford, rep.dirac, matrix_function(scale(gaussian(), 2.0), rep.dirac),
           matrix_function(scale(x_gaussian(), 2.0), rep.dirac))
    for g in ops:
        assert len(g.index) == 2 ** (dim + 1) and regroup(g, len(g.index)) is g
        for count in (2, 2 ** dim):
            coarse = regroup(g, count)
            assert (len(coarse.index), coarse.degree, coarse.mirrored) == (count, g.degree, g.mirrored)
            assert np.array_equal(coarse.labels, g.labels & (count - 1))
            assert np.array_equal(coarse.mat, g.mat)


def test_windows_of_one_space_share_their_labels_and_index():
    # the window's labels and index are computed once per (labels, sizes) and shared, read-only
    rep = oscillator_rep(2, 8)
    w = rep.window()
    x = rep.clifford.window(w)
    y = graded_commutator(matrix_function(scale(gaussian(), 2.0), rep.clifford), rep.dirac, w)
    assert x.labels is y.labels and x.index is y.index
    assert not x.labels.flags.writeable and not any(i.flags.writeable for i in x.index)
    keep = np.sort(np.concatenate([i[:k] for i, k in zip(rep.clifford.index, w)]))
    assert np.array_equal(x.labels, rep.clifford.labels[keep])
    assert all(np.array_equal(i, j) for i, j in zip(x.index, label_index(x.labels, len(w))))


def test_window_commutator_of_degree_1_rejects_a_non_symmetric_operand():
    rep = oscillator_rep(2, 6)
    # lambda(e1 e2) squares to -1 and is antisymmetric, and so is the multiplication operator
    v = x_gaussian()
    mh = multiplication_operator(CliffFunction(2, "e12", ((0b11, (v, v)),)), rep.basis)
    with pytest.raises(ValueError, match="symmetric"):
        graded_commutator(matrix_function(x_gaussian(), rep.dirac), mh, rep.window())


def test_even_window_commutator_rejects_a_non_symmetric_operand():
    rep = oscillator_rep(2, 6)
    # the e1e2 symbol with v on both axes is even, and antisymmetric like lambda(e1 e2)
    v = x_gaussian()
    mh = multiplication_operator(CliffFunction(2, "e12", ((0b11, (v, v)),)), rep.basis)
    fd = matrix_function(gaussian(), rep.dirac)
    assert (mh.degree, fd.degree) == (0, 0)
    for _ in range(2):  # the verdict is kept, and raises again
        with pytest.raises(ValueError, match="symmetric"):
            graded_commutator(fd, mh, rep.window())
    # the whole commutator takes any operands
    got, want = graded_commutator(fd, mh).mat, fd.mat @ mh.mat - mh.mat @ fd.mat
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_window_commutator_checks_each_operand_once(monkeypatch):
    calls, absolute = [], np.abs
    monkeypatch.setattr(np, "abs", lambda x: calls.append(x.shape) or absolute(x))
    rep = oscillator_rep(2, 6)
    labels, w = rep.basis.labels(), rep.window()
    rng = np.random.default_rng(5)
    a, b = (symmetric_operand(rng, labels, d, from_blocks=True, count=len(w)) for d in (0, 1))
    graded_commutator(a, b, w)
    assert calls  # both operands are checked
    calls.clear()
    graded_commutator(b, a, w)
    graded_commutator(a, a, w)
    assert not calls
    # functions of a checked symmetric matrix are symmetric by construction, and so are their
    # regroupings and their Fourier gauges, f(D) = S f(C) S
    fd, fc = rep.gauge(matrix_function(x_gaussian(), rep.clifford)), matrix_function(gaussian(), rep.clifford)
    graded_commutator(fc, fd, w)
    graded_commutator(regroup(fc, 4), regroup(fd, 4), rep.window(2, 4))
    assert not calls


def test_multiplication_operators_of_blades_squaring_to_one_are_recorded_symmetric(monkeypatch):
    # lambda(c) is symmetric exactly when c^2 = +1: M_h of uP, vP and the bump (blades 1 and e_i) is
    # recorded symmetric when built, and is symmetric; of the bivector e1e2 it is left to the check
    rep = oscillator_rep(2, 6)
    fd = matrix_function(x_gaussian(), rep.dirac)
    v = x_gaussian()
    bivector = multiplication_operator(CliffFunction(2, "e12", ((0b11, (v, v)),)), rep.basis)
    symbols = [multiplication_operator(h, rep.basis) for h in named_symbols(2)]
    assert bivector._symmetric is None
    calls, absolute = [], np.abs
    monkeypatch.setattr(np, "abs", lambda x: calls.append(x.shape) or absolute(x))
    for mh in symbols:
        assert mh._symmetric is True
        count = len(mh.index)
        graded_commutator(regroup(fd, count), mh, rep.window(2, count))
    assert not calls
    monkeypatch.undo()
    for mh in symbols:
        assert np.abs(mh.mat - mh.mat.T).max() <= 1e-13 * np.abs(mh.mat).max()
    with pytest.raises(ValueError, match="symmetric"):
        graded_commutator(fd, bivector, rep.window())


# ---------------------------------------------------------------------------
# block-held matrices
# ---------------------------------------------------------------------------

def block_held(rng, parity, degree):
    """A random matrix of the given degree held as its two blocks, and its
    dense matrix built here."""
    index = label_index(parity, 2)
    blocks = [rng.standard_normal((len(index[r]), len(index[r ^ degree]))) for r in (0, 1)]
    dense = np.zeros((len(parity),) * 2)
    for r in (0, 1):
        dense[np.ix_(index[r], index[r ^ degree])] = blocks[r]
    return GradedMatrix.from_blocks(degree, blocks, parity), dense


def assert_close(got, want, scale):
    assert np.abs(got.mat - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("config", [(1, 6), (2, 6)])
@pytest.mark.parametrize("deg_a", [0, 1, None], ids=["a-even", "a-odd", "a-mixed"])
@pytest.mark.parametrize("deg_b", [0, 1, None], ids=["b-even", "b-odd", "b-mixed"])
def test_block_held_arithmetic_matches_dense(config, deg_a, deg_b):
    rep = oscillator_rep(*config)
    par = basis_parity(rep.basis)
    rng = np.random.default_rng([config[0], 3 if deg_a is None else deg_a, 3 if deg_b is None else deg_b])
    if deg_a is None or deg_b is None:
        # a mixed operand is rejected when it is built, from an array or as a sum of its parts
        with pytest.raises(ValueError, match="both degrees"):
            GradedMatrix(mixed_array(rng, par), par)
        with pytest.raises(ValueError, match="degrees 0 and 1"):
            block_held(rng, par, 0)[0] + block_held(rng, par, 1)[0]
        return
    a, am = block_held(rng, par, deg_a)
    b, bm = block_held(rng, par, deg_b)
    ab = np.abs(am) @ np.abs(bm)
    ba = np.abs(bm) @ np.abs(am)
    entries = np.abs(am).max() + np.abs(bm).max()
    assert_close(a @ b, am @ bm, ab.max())
    if deg_a == deg_b:
        assert_close(a + b, am + bm, entries)
        assert_close(a - b, am - bm, entries)
    else:
        with pytest.raises(ValueError, match="degrees"):
            a + b
        with pytest.raises(ValueError, match="degrees"):
            a - b
    assert_close(2.5 * a, 2.5 * am, entries)
    assert_close(-b, -bm, entries)
    sign = -1.0 if (deg_a and deg_b) else 1.0
    assert_close(graded_commutator(a, b), am @ bm - sign * (bm @ am), (ab + ba).max())
    norm = np.linalg.norm(am, 2)
    assert abs(a.norm() - norm) <= 1e-13 * norm
    for depth in (0, 2, rep.basis.level):
        mask = interior_mask(rep.basis, depth)
        norm = np.linalg.norm(am[np.ix_(mask, mask)], 2)
        assert abs(windowed_norm(a, rep, depth) - norm) <= 1e-13 * norm, depth


def symmetric_operand(rng, labels, degree, from_blocks, count=2):
    """A random symmetric matrix of the given degree on ``count`` labels, built
    by from_blocks or from its dense array (which takes parities as labels)."""
    index = label_index(labels, count)
    blocks = [None] * count
    for r in range(0, count, 1 + degree):
        x = rng.standard_normal((len(index[r]), len(index[r ^ degree])))
        blocks[r], blocks[r ^ degree] = (x + x.T, x + x.T) if degree == 0 else (x, x.T)
    m = GradedMatrix.from_blocks(degree, blocks, labels)
    return m if from_blocks else GradedMatrix(m.mat.copy(), labels)


def assert_read_only(m):
    arrays = [m.mat, m.parity, *m.blocks]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1


@pytest.mark.parametrize("from_blocks", [False, True], ids=["array", "parts"])
@pytest.mark.parametrize("degree", [0, 1, None], ids=["even", "odd", "mixed"])
def test_every_result_is_read_only(degree, from_blocks):
    rng = np.random.default_rng([3 if degree is None else degree, from_blocks])
    par = np.array([0, 1, 1, 0, 1, 0, 0, 1, 0], dtype=np.uint8)
    given = rng.standard_normal((len(par), len(par))) * (par[:, None] == par[None, :])
    built = GradedMatrix(given, par)
    kept = given.copy()
    given += 1.0  # the caller's array stays writable, and a later write does not reach the matrix
    assert np.array_equal(built.mat, kept)
    if degree is None:
        # a symmetric operand of both degrees is rejected, as an array or as a sum of its parts
        even, odd = (symmetric_operand(rng, par, d, from_blocks) for d in (0, 1))
        with pytest.raises(ValueError, match="both degrees"):
            GradedMatrix(even.mat + odd.mat, par)
        with pytest.raises(ValueError, match="degrees 0 and 1"):
            even + odd
        a = even
    else:
        a = symmetric_operand(rng, par, degree, from_blocks)
    results = [a, 2.5 * a, -a]
    for d in (0, 1):
        b = symmetric_operand(rng, par, d, from_blocks)
        results += [a @ b, b @ a, graded_commutator(a, b)]
        if d == a.degree:
            results += [a + b, a - b]
    op = SpectralMatrix(a)
    functions = (gaussian(), x_gaussian(), fsum(gaussian(), x_gaussian()))
    for f in functions if op.degree == 0 else functions[:2]:
        first = matrix_function(f, op)
        results.append(first)
        expected = first.mat.copy()
        assert_read_only(first)
        assert np.array_equal(matrix_function(f, op).mat, expected), f.name
    for r in results:
        assert_read_only(r)


# ---------------------------------------------------------------------------
# involution and flip
# ---------------------------------------------------------------------------

def test_involution_antimultiplicative():
    rng = np.random.default_rng(6)
    par = random_parity(rng, 5)
    for p1 in (0, 1):
        for p2 in (0, 1):
            a = random_homogeneous(rng, par, p1)
            b = random_homogeneous(rng, par, p2)
            assert np.allclose(involution(a @ b).mat, (involution(b) @ involution(a)).mat)


def test_involution_tensor_sign_law():
    # (a (x) b)^T = (-1)^{deg a deg b} a^T (x) b^T, all four parity combos
    rng = np.random.default_rng(7)
    pa, pb = random_parity(rng, 4), random_parity(rng, 3)
    for p1 in (0, 1):
        for p2 in (0, 1):
            a = random_homogeneous(rng, pa, p1)
            b = random_homogeneous(rng, pb, p2)
            lhs = involution(graded_tensor(a, b)).mat
            rhs = (-1.0) ** (p1 * p2) * graded_tensor(involution(a), involution(b)).mat
            assert np.allclose(lhs, rhs), (p1, p2)


def test_flip_unitary_is_orthogonal_and_involutive():
    rng = np.random.default_rng(8)
    pa, pb = random_parity(rng, 3), random_parity(rng, 4)
    u = flip_matrix(pa, pb)
    assert np.array_equal(u @ u.T, np.eye(12))
    # flipping back is the inverse: l o l = id, as matrices and as composed signed permutations
    assert np.array_equal(flip_matrix(pb, pa) @ u, np.eye(12))
    (row, sign), (back, back_sign) = flip_unitary(pa, pb), flip_unitary(pb, pa)
    assert np.array_equal(back[row], np.arange(12)) and np.array_equal(back_sign[row] * sign, np.ones(12))


def test_flip_simple_matches_unitary_conjugation():
    rng = np.random.default_rng(9)
    pa, pb = random_parity(rng, 3), random_parity(rng, 4)
    u = flip_matrix(pa, pb)
    for p1 in (0, 1):
        for p2 in (0, 1):
            a = random_homogeneous(rng, pa, p1)
            b = random_homogeneous(rng, pb, p2)
            direct = flip_simple(a, b).mat
            conj = u @ graded_tensor(a, b).mat @ u.T
            assert np.allclose(direct, conj), (p1, p2)


def test_flip_is_multiplicative():
    # l(xy) = l(x) l(y) on simple tensors -- the Koszul signs from the flip
    # and from the tensor multiplication law cancel exactly
    rng = np.random.default_rng(10)
    pa, pb = random_parity(rng, 3), random_parity(rng, 3)
    for _ in range(8):
        a = random_homogeneous(rng, pa, int(rng.integers(0, 2)))
        b = random_homogeneous(rng, pb, int(rng.integers(0, 2)))
        c = random_homogeneous(rng, pa, int(rng.integers(0, 2)))
        d = random_homogeneous(rng, pb, int(rng.integers(0, 2)))
        lhs = flip_simple(a, b) @ flip_simple(c, d)
        prod = graded_tensor(a, b) @ graded_tensor(c, d)
        u = flip_matrix(pa, pb)
        rhs = u @ prod.mat @ u.T
        assert np.allclose(lhs.mat, rhs, atol=1e-12)


def test_flip_requires_homogeneous_factors():
    # a factor of both degrees is rejected when it is built
    par = np.array([0, 1], dtype=np.uint8)
    with pytest.raises(ValueError, match="both degrees"):
        GradedMatrix(np.ones((2, 2)), par)
    a = GradedMatrix(np.ones((2, 2)) - np.eye(2), par)
    assert flip_simple(a, a).degree == 0


# ---------------------------------------------------------------------------
# grading automorphism of the Clifford algebra
# ---------------------------------------------------------------------------

# iota scales the coefficient of each blade by grading_signs(blade_parities(sig)), as the grading gate of
# flip-endpoints reads it

def test_iota_on_generators_and_involutive():
    sig = Signature(2, 1)
    iota = grading_signs(blade_parities(sig))
    for i in range(3):
        assert iota[1 << i] == -1.0
    rng = np.random.default_rng(11)
    x = rng.standard_normal(sig.blade_count)
    assert np.array_equal(iota * (iota * x), x)


def test_iota_is_an_algebra_automorphism():
    rng = np.random.default_rng(2024)
    for sig in [Signature(2, 0), Signature(1, 1), Signature(2, 1)]:
        iota = grading_signs(blade_parities(sig))
        for _ in range(8):
            x, y = rng.standard_normal((2, sig.blade_count))
            lhs = iota * clifford_product(sig, x, y)
            rhs = clifford_product(sig, iota * x, iota * y)
            assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, np.linalg.norm(lhs))


# ---------------------------------------------------------------------------
# joined algebras inside graded tensor products
# ---------------------------------------------------------------------------

def test_tensor_product_witness_two_lines():
    residual, span = tensor_product_witness(Signature(1, 0), Signature(1, 0))
    assert residual <= 1e-10
    assert span == 4  # the images generate the full 2^2-dimensional algebra


def test_tensor_product_witness_mixed_signature():
    residual, span = tensor_product_witness(Signature(1, 1), Signature(2, 0))
    assert residual <= 1e-10
    assert span == 16


def test_grading_signs_values():
    assert np.array_equal(grading_signs(np.array([0, 1, 1, 0])), [1.0, -1.0, -1.0, 1.0])
