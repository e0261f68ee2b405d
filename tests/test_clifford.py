"""Tests for the Clifford algebra layer.

Covers blade arithmetic (signs, masks, associativity), the left and
twisted-right blade operators, the regular representation, the blade
number operator, and the fixed images of the rank-8 Euclidean generators
in signature (4,4).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bottlab import clifford, verify
from bottlab.clifford import (
    Signature,
    blade_grade,
    blade_label,
    blade_parities,
    blade_parity,
    blade_relation_residual,
    blade_square_sign,
    left_mult_operator,
    matrix_relation_residual,
    number_operator,
    regular_representation,
    twisted_right_mult_operator,
)
from bottlab.graded import GradedMatrix, graded_commutator
from oracles import clifford_product

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
# blade operators
# ---------------------------------------------------------------------------

def test_left_mult_operator_action():
    # L(a) L(b) = sign[a, b] L(a ^ b): the operators multiply as the Cayley table says, so L(a) maps
    # every blade b to sign[a, b] e_{a ^ b}, and the table is associative on them
    for sig in [s for s in SMALL_SIGS if s.n <= 4]:
        sign, _ = clifford._tables(sig.p, sig.q)
        ops = [left_mult_operator(sig, m) for m in range(sig.blade_count)]
        for a, la in enumerate(ops):
            for b, lb in enumerate(ops):
                assert np.array_equal(la @ lb, sign[a, b] * ops[a ^ b]), (sig, a, b)


def test_twisted_right_mult_against_plain_right_mult():
    # R(a) y = (-1)^{deg y} y e_a, so R(a) R(b) y = (-1)^{deg b} y e_b e_a: R(a) R(b) is
    # (-1)^{deg b} sign[b, a] R(a ^ b) G, with G the grading (-1)^{deg y} on the blade basis; and
    # column j of R(a) is (-1)^{deg j} e_j e_a, column a of L(j)
    for sig in [s for s in SMALL_SIGS if s.n <= 4]:
        sign, _ = clifford._tables(sig.p, sig.q)
        twist = 1.0 - 2.0 * blade_parities(sig)
        ops = [twisted_right_mult_operator(sig, m) for m in range(sig.blade_count)]
        lefts = [left_mult_operator(sig, m) for m in range(sig.blade_count)]
        for a, ra in enumerate(ops):
            for b, rb in enumerate(ops):
                assert np.array_equal(ra @ rb, twist[b] * sign[b, a] * ops[a ^ b] * twist), (sig, a, b)
            for j, lj in enumerate(lefts):
                assert np.array_equal(ra[:, j], twist[j] * lj[:, a]), (sig, a, j)


@pytest.mark.parametrize("sig", [Signature(2, 1), Signature(4, 4)])
def test_left_mult_operators_equal_the_dense_cayley_contraction(sig):
    # x y = sum_a x_a L(a) y, whichever coefficients are zero
    rng = np.random.default_rng(5)
    for keep in (1.0, 0.1, 1 / sig.blade_count):
        x, y = (rng.standard_normal(sig.blade_count) * (rng.random(sig.blade_count) < keep) for _ in range(2))
        action = sum(x[a] * (left_mult_operator(sig, a) @ y) for a in np.flatnonzero(x))
        assert np.allclose(action, clifford_product(sig, x, y), rtol=1e-12, atol=1e-12)


def test_mult_operators_reject_masks_outside_the_signature():
    sig = Signature(2, 0)
    for mask in (-1, 4, 0b101):
        with pytest.raises(ValueError, match="outside the signature"):
            left_mult_operator(sig, mask)
        with pytest.raises(ValueError, match="outside the signature"):
            twisted_right_mult_operator(sig, mask)


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
        for i in range(sig.n):
            lam = GradedMatrix(left_mult_operator(sig, 1 << i), par)
            for j in range(sig.n):
                rho = GradedMatrix(twisted_right_mult_operator(sig, 1 << j), par)
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
        images = [left_mult_operator(sig, m).ravel() for m in range(sig.blade_count)]
        assert np.linalg.matrix_rank(np.stack(images)) == sig.blade_count


# ---------------------------------------------------------------------------
# the rank-8 Euclidean algebra in signature (4,4)
# ---------------------------------------------------------------------------

def test_witness_eight_zero_into_four_four():
    images = verify.EIGHT_IN_FOUR_FOUR
    assert len(set(images)) == 8 and all(blade_parity(m) for m in images)
    assert blade_relation_residual(images, Signature(8, 0), Signature(4, 4)) == 0.0
    # replayed on the left-multiplication matrices, an independent route through the same table
    mats = [left_mult_operator(Signature(4, 4), m) for m in images]
    assert matrix_relation_residual(mats, Signature(8, 0)) == 0.0
    # a wrong square (e5^2 = -1 for a generator squaring to +1) and a commuting pair (e5, e6*e7) show
    assert blade_relation_residual((0x1, 0x10), Signature(2, 0), Signature(4, 4)) == 4.0
    assert blade_relation_residual((0x10, 0x60), Signature(0, 2), Signature(4, 4)) == 2.0


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(-1, 2)
    # one size limit: every signature has Cayley tables
    with pytest.raises(ValueError, match="exceeds 10"):
        Signature(11, 0)
    assert Signature(10, 0).blade_count == 1024
    sig = Signature(2, 1)
    assert sig.n == 3 and sig.blade_count == 8
    assert sig.square_sign(1) == 1 and sig.square_sign(3) == -1
    with pytest.raises(ValueError):
        sig.square_sign(4)
