"""Tests for the Clifford algebra layer.

Covers blade arithmetic (signs, masks, associativity), the dense
multivector type, the left/twisted-right regular representations, the
blade number operator, and the signature-embedding witness search.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bottlab import clifford
from bottlab.clifford import (
    IsoWitness,
    MultiVector,
    Signature,
    algebra_isomorphism_check,
    blade_grade,
    blade_label,
    blade_parities,
    blade_parity,
    blade_square_sign,
    left_mult_operator,
    mv_multiply,
    number_operator,
    regular_representation,
    twisted_right_mult_operator,
)
from bottlab.graded import GradedMatrix, graded_commutator

SMALL_SIGS = [Signature(p, q) for p in range(6) for q in range(6) if 1 <= p + q <= 5]


# ---------------------------------------------------------------------------
# blade products
# ---------------------------------------------------------------------------

def blade_product(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Scalar oracle for the sign tables: ``(sign, mask)`` of a blade product.

    The sign counts, for each generator of ``b`` taken in increasing order,
    the generators of ``a`` it has to jump over (each jump a transposition),
    and picks up the square ``e_i^2 = +-1`` whenever a generator occurs in
    both factors.
    """
    sign = 1
    rest = b
    while rest:
        low = rest & -rest
        j = low.bit_length() - 1  # 0-based generator index
        rest ^= low
        if ((a >> (j + 1)).bit_count()) & 1:
            sign = -sign
        if a >> j & 1 and j >= sig.p:
            sign = -sign
    return sign, a ^ b


def test_blade_product_hand_cases():
    s20 = Signature(2, 0)
    assert blade_product(0b01, 0b10, s20) == (1, 0b11)   # e1 e2 = e12
    assert blade_product(0b10, 0b01, s20) == (-1, 0b11)  # e2 e1 = -e12
    assert blade_product(0b01, 0b01, s20) == (1, 0)      # e1^2 = +1
    assert blade_product(0b11, 0b11, s20) == (-1, 0)     # (e12)^2 = -1

    s01 = Signature(0, 1)
    assert blade_product(0b1, 0b1, s01) == (-1, 0)       # e1^2 = -1

    s11 = Signature(1, 1)
    assert blade_product(0b01, 0b01, s11) == (1, 0)
    assert blade_product(0b10, 0b10, s11) == (-1, 0)     # second generator squares to -1

    # scalar blade is a two-sided unit
    for m in range(4):
        assert blade_product(0, m, s20) == (1, m)
        assert blade_product(m, 0, s20) == (1, m)


def test_blade_product_matches_cached_tables():
    # the vectorized sign/index tables and the scalar loop are independent
    # code paths; they must agree everywhere
    for sig in [s for s in SMALL_SIGS if s.n <= 3]:
        sign, idx = clifford._tables(sig.p, sig.q)
        d = sig.blade_count
        for a in range(d):
            for b in range(d):
                s, m = blade_product(a, b, sig)
                assert s == sign[a, b] and m == idx[a, b], (sig, a, b)


def test_blade_product_associative_exhaustive():
    # all triples of blades, every signature with up to five generators
    for sig in SMALL_SIGS:
        sign, idx = clifford._tables(sig.p, sig.q)
        d = sig.blade_count
        a = np.arange(d)[:, None, None]
        b = np.arange(d)[None, :, None]
        c = np.arange(d)[None, None, :]
        ab = idx[a, b]
        bc = idx[b, c]
        lhs_sign = sign[a, b] * sign[ab, c]
        rhs_sign = sign[b, c] * sign[a, bc]
        assert np.array_equal(idx[ab, c], idx[a, bc]), f"masks differ for {sig}"
        assert np.array_equal(lhs_sign, rhs_sign), f"signs differ for {sig}"


@given(
    p=st.integers(min_value=0, max_value=8),
    q=st.integers(min_value=0, max_value=8),
    masks=st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)),
)
@settings(max_examples=300, deadline=None)
def test_blade_product_associative_random(p, q, masks):
    if not 1 <= p + q <= 8:
        return
    sig = Signature(p, q)
    d = sig.blade_count
    a, b, c = (m % d for m in masks)
    s1, ab = blade_product(a, b, sig)
    s2, abc_l = blade_product(ab, c, sig)
    t1, bc = blade_product(b, c, sig)
    t2, abc_r = blade_product(a, bc, sig)
    assert abc_l == abc_r
    assert s1 * s2 == t1 * t2


def test_product_parity_is_additive():
    # parity of a product blade = XOR of the factor parities (mask = a ^ b)
    for sig in [Signature(3, 2), Signature(0, 4)]:
        for a in range(sig.blade_count):
            for b in range(sig.blade_count):
                _, m = blade_product(a, b, sig)
                assert blade_parity(m) == blade_parity(a) ^ blade_parity(b)


def test_blade_square_sign_matches_product():
    for sig in [s for s in SMALL_SIGS if s.n <= 4]:
        for m in range(sig.blade_count):
            s, mm = blade_product(m, m, sig)
            assert mm == 0
            assert blade_square_sign(m, sig) == s


def test_blade_labels():
    assert blade_label(0) == "1"
    assert blade_label(0b1) == "e1"
    assert blade_label(0b110) == "e2*e3"
    assert blade_grade(0b10110) == 3
    assert blade_parity(0b111) == 1


# ---------------------------------------------------------------------------
# multivectors
# ---------------------------------------------------------------------------

def test_multivector_basics():
    sig = Signature(2, 0)
    e1 = MultiVector.generator(sig, 1)
    e2 = MultiVector.generator(sig, 2)
    one = MultiVector.scalar(sig)
    assert (e1 * e1 - one).norm() == 0.0
    assert (e1 * e2 + e2 * e1).norm() == 0.0
    x = 2.0 * e1 + e1 * e2
    assert x.grades() == {1, 2}
    assert not x.is_homogeneous()
    assert x.parity() is None
    assert e1.parity() == 1 and one.parity() == 0
    assert math.isclose(x.norm(), math.sqrt(5.0))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_mv_multiply_associative_random_coeffs(seed):
    rng = np.random.default_rng(seed)
    sig = Signature(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
    if sig.n == 0:
        return
    vecs = []
    for _ in range(3):
        v = MultiVector.zero(sig)
        v.coeffs[:] = rng.standard_normal(sig.blade_count)
        vecs.append(v)
    a, b, c = vecs
    lhs = mv_multiply(mv_multiply(a, b), c)
    rhs = mv_multiply(a, mv_multiply(b, c))
    assert (lhs - rhs).norm() < 1e-12 * max(1.0, lhs.norm())


@pytest.mark.parametrize("sig", [Signature(2, 1), Signature(4, 4)])
def test_mv_multiply_equals_the_dense_cayley_contraction(sig):
    # the reference sums every product, zeros included, in row-major order
    sign, idx = clifford._tables(sig.p, sig.q)
    rng = np.random.default_rng(5)
    for keep in (1.0, 0.5, 0.1, 1 / sig.blade_count, 0.0):
        a, b = (rng.standard_normal(sig.blade_count) * (rng.random(sig.blade_count) < keep) for _ in range(2))
        dense = np.zeros(sig.blade_count)
        np.add.at(dense, idx.ravel(), (np.multiply.outer(a, b) * sign).ravel())
        assert np.array_equal(mv_multiply(MultiVector(sig, a), MultiVector(sig, b)).coeffs, dense)


def test_left_mult_operator_action():
    rng = np.random.default_rng(11)
    for sig in [Signature(2, 1), Signature(0, 3)]:
        x = MultiVector.zero(sig)
        x.coeffs[:] = rng.standard_normal(sig.blade_count) * blade_parities(sig)  # odd part
        y = MultiVector.zero(sig)
        y.coeffs[:] = rng.standard_normal(sig.blade_count)
        assert np.allclose(left_mult_operator(x) @ y.coeffs, mv_multiply(x, y).coeffs)


def test_twisted_right_mult_against_plain_right_mult():
    # column j of the twisted operator is (-1)^{deg blade_j} * (blade_j * x)
    rng = np.random.default_rng(5)
    for sig in [Signature(3, 0), Signature(1, 2)]:
        x = MultiVector.zero(sig)
        x.coeffs[:] = rng.standard_normal(sig.blade_count) * (1 - blade_parities(sig))
        mat = twisted_right_mult_operator(x)
        twist = 1.0 - 2.0 * blade_parities(sig)
        for j in range(sig.blade_count):
            col = twist[j] * mv_multiply(MultiVector.blade(sig, j), x).coeffs
            assert np.allclose(mat[:, j], col)


def test_mult_operators_reject_inhomogeneous():
    sig = Signature(2, 0)
    x = MultiVector.scalar(sig) + MultiVector.generator(sig, 1)
    with pytest.raises(ValueError):
        left_mult_operator(x)
    with pytest.raises(ValueError):
        twisted_right_mult_operator(x)


# ---------------------------------------------------------------------------
# regular representation
# ---------------------------------------------------------------------------

def test_regular_representation_relations_exact():
    # integer matrices, so the anticommutation relations hold with zero error
    for sig in SMALL_SIGS:
        lams = regular_representation(sig)
        eye = np.eye(sig.blade_count)
        for i, li in enumerate(lams):
            for j, lj in enumerate(lams):
                anti = li @ lj + lj @ li
                target = 2.0 * sig.square_sign(i + 1) * eye if i == j else 0.0 * eye
                assert np.array_equal(anti, target), (sig, i, j)


def test_left_and_twisted_right_graded_commute():
    # the mixed terms of the squared supercharge vanish because these two
    # families of odd operators anticommute -- for every generator pair
    for sig in SMALL_SIGS:
        par = blade_parities(sig)
        for i in range(1, sig.n + 1):
            lam = GradedMatrix(left_mult_operator(MultiVector.generator(sig, i)), par)
            for j in range(1, sig.n + 1):
                rho = GradedMatrix(
                    twisted_right_mult_operator(MultiVector.generator(sig, j)), par
                )
                assert graded_commutator(lam, rho).norm() == 0.0, (sig, i, j)


def test_number_operator_spectrum():
    # eigenvalue 2d - n on grade-d blades, multiplicity C(n, d)
    for n in range(1, 6):
        sig = Signature(n, 0)
        evals = np.sort(np.linalg.eigvalsh(number_operator(sig)))
        expected = np.sort(
            np.concatenate(
                [np.full(math.comb(n, d), 2 * d - n) for d in range(n + 1)]
            ).astype(float)
        )
        assert np.allclose(evals, expected, atol=1e-12), f"n={n}"


def test_number_operator_requires_euclidean_signature():
    with pytest.raises(ValueError):
        number_operator(Signature(1, 1))


def test_spanned_matrix_dimension():
    # the blade images are linearly independent: the span has full dimension 2^n
    for sig in [Signature(1, 0), Signature(2, 0), Signature(1, 1), Signature(2, 1)]:
        images = [left_mult_operator(MultiVector.blade(sig, m)).ravel()
                  for m in range(sig.blade_count)]
        assert np.linalg.matrix_rank(np.stack(images)) == sig.blade_count


# ---------------------------------------------------------------------------
# signature embedding witnesses
# ---------------------------------------------------------------------------

def _verify_witness(w: IsoWitness):
    """Independent replay of the relations the witness claims."""
    assert w.found
    worst = 0.0
    for i, gi in enumerate(w.images):
        assert gi.parity() == 1, "generator images must be odd"
        for j, gj in enumerate(w.images):
            anti = mv_multiply(gi, gj) + mv_multiply(gj, gi)
            if i == j:
                anti = anti - MultiVector.scalar(gi.sig, 2.0 * w.sig_from.square_sign(i + 1))
            worst = max(worst, anti.norm())
    return worst


def test_witness_eight_zero_into_four_four():
    w = algebra_isomorphism_check(Signature(8, 0), Signature(4, 4))
    assert w.found, w.notes
    assert len(w.images) == 8
    assert w.max_residual <= 1e-10
    assert _verify_witness(w) <= 1e-10
    assert len(w.image_labels()) == 8


def test_witness_nine_one_into_five_five():
    w = algebra_isomorphism_check(Signature(9, 1), Signature(5, 5))
    assert w.found, w.notes
    assert w.max_residual <= 1e-10
    assert _verify_witness(w) <= 1e-10


def test_witness_identity_fast_path():
    w = algebra_isomorphism_check(Signature(3, 1), Signature(3, 1))
    assert w.found and w.max_residual == 0.0
    assert "identity" in w.notes


def test_witness_honest_failure_reporting():
    # no single-blade witness maps (2,0) into (1,1): the odd blades of (1,1)
    # contain only one square of each sign
    w = algebra_isomorphism_check(Signature(2, 0), Signature(1, 1))
    assert not w.found
    assert "no claim about non-isomorphism" in w.notes
    assert w.images == []

    too_small = algebra_isomorphism_check(Signature(3, 0), Signature(1, 0))
    assert not too_small.found


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(-1, 2)
    sig = Signature(2, 1)
    assert sig.n == 3 and sig.blade_count == 8
    assert sig.square_sign(1) == 1 and sig.square_sign(3) == -1
    with pytest.raises(ValueError):
        sig.square_sign(4)
