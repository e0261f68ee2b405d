"""Real Clifford algebras with blades encoded as bit masks.

The algebra on generators ``e_1 .. e_(p+q)`` has ``e_i^2 = +1`` for
``i <= p``, ``e_i^2 = -1`` for ``i > p``, and ``e_i e_j = -e_j e_i`` for
``i != j``.  A product of distinct generators (a *blade*) is stored as an
integer whose bit ``i-1`` says whether ``e_i`` is present, so blade
multiplication is a XOR of masks together with a sign obtained by counting
the transpositions needed to re-sort the factors, plus the squares of any
repeated generators.  Every element the package builds is a single blade,
so operators take its mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Dense sign/index tables are cached per signature; 2^10 x 2^10 is the
# largest table we ever want to materialize, so the largest signature.
_MAX_TABLE_N = 10


@dataclass(frozen=True)
class Signature:
    """Signature (p, q) of a real Clifford algebra: p plus-squares, q minus."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature components must be >= 0, got ({self.p}, {self.q})")
        if self.n > _MAX_TABLE_N:
            raise ValueError(f"p + q = {self.n} exceeds {_MAX_TABLE_N}, the largest signature whose Cayley "
                             "tables are held")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def blade_count(self) -> int:
        return 1 << self.n

    def square_sign(self, i: int) -> int:
        """Square of generator e_i (1-based): +1 or -1."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        return 1 if i <= self.p else -1


def blade_grade(mask: int) -> int:
    """Number of generators in the blade."""
    return int(mask).bit_count()


def blade_parity(mask: int) -> int:
    """0 for even blades, 1 for odd blades."""
    return blade_grade(mask) & 1


def blade_parities(sig: Signature) -> np.ndarray:
    """Parity (0/1) of every blade of the algebra, in mask order."""
    masks = np.arange(sig.blade_count, dtype=np.uint32)
    return (np.bitwise_count(masks) & 1).astype(np.uint8)


def blade_label(mask: int) -> str:
    """Human-readable blade name, e.g. ``e1*e3``; ``1`` for the scalar."""
    if mask == 0:
        return "1"
    return "*".join(f"e{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=32)
def _tables(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(sign, index) Cayley tables for all blade pairs of R_{p,q}, read-only: every caller shares them."""
    sig = Signature(p, q)
    n, dim = sig.n, sig.blade_count
    masks = np.arange(dim, dtype=np.uint32)
    idx = (masks[:, None] ^ masks[None, :]).astype(np.intp)
    # parity of the sign exponent, accumulated bit by bit of the right factor
    par = np.zeros((dim, dim), dtype=np.uint8)
    for j in range(n):
        b_has = (masks[None, :] >> j) & 1
        swaps = np.bitwise_count(masks[:, None] >> (j + 1)) & 1
        par ^= (b_has & swaps).astype(np.uint8)
        if j >= p:  # e_{j+1}^2 = -1 contributes when both factors carry it
            contract = ((masks[:, None] >> j) & 1) & b_has
            par ^= contract.astype(np.uint8)
    sign = (1 - 2 * par.astype(np.int8)).astype(np.int8)
    sign.flags.writeable = idx.flags.writeable = False
    return sign, idx


def _check_mask(sig: Signature, mask: int):
    if not 0 <= mask < sig.blade_count:
        raise ValueError(f"blade mask {mask} uses generators outside the signature ({sig.p}, {sig.q})")


def left_mult_operator(sig: Signature, mask: int) -> np.ndarray:
    """Matrix of y -> c*y on the blade basis, for the blade c of ``mask``: a signed permutation whose
    column b holds ``sign[mask, b]`` in row ``mask ^ b``."""
    _check_mask(sig, mask)
    sign, idx = _tables(sig.p, sig.q)
    out = np.zeros((sig.blade_count, sig.blade_count))
    out[idx[mask], np.arange(sig.blade_count)] = sign[mask]
    return out


def right_mult_signs(sig: Signature, mask: int) -> np.ndarray:
    """The sign of ``y*c`` for every blade y, c the blade of ``mask``: right multiplication by c sends
    blade y to this sign times blade ``y ^ mask``."""
    _check_mask(sig, mask)
    return _tables(sig.p, sig.q)[0][:, mask].astype(float)


def twisted_right_mult_operator(sig: Signature, mask: int) -> np.ndarray:
    """Matrix of the grading-twisted right multiplication y -> (-1)^{deg y} y*c, for the blade c of
    ``mask``: column j holds ``(-1)^{deg j} sign[j, mask]`` in row ``j ^ mask``.

    For odd generators this operator anticommutes (in the graded sense) with
    every left multiplication operator, which is what makes the mixed terms
    of the squared supercharge collapse to the number operator.
    """
    _check_mask(sig, mask)
    sign, idx = _tables(sig.p, sig.q)
    twist = 1.0 - 2.0 * blade_parities(sig).astype(float)
    out = np.zeros((sig.blade_count, sig.blade_count))
    out[idx[:, mask], np.arange(sig.blade_count)] = twist * sign[:, mask]
    return out


def number_operator(sig: Signature) -> np.ndarray:
    """Sum over generators of (twisted right mult) o (left mult).

    Defined for Euclidean signatures (q = 0).  Diagonal on blades with
    eigenvalue ``2d - n`` on blades of grade ``d``; binomial multiplicities.
    """
    if sig.q != 0:
        raise ValueError("number operator is defined for signatures (n, 0) only")
    dim = sig.blade_count
    out = np.zeros((dim, dim))
    for i in range(sig.n):
        out += twisted_right_mult_operator(sig, 1 << i) @ left_mult_operator(sig, 1 << i)
    return out


def regular_representation(sig: Signature) -> list[np.ndarray]:
    """Left-multiplication matrices of the generators, in order e_1..e_n."""
    return [left_mult_operator(sig, 1 << i) for i in range(sig.n)]


def matrix_relation_residual(mats: list[np.ndarray], sig: Signature) -> float:
    """Largest entry, NaN if any is, of ``g_i g_j + g_j g_i - 2 [i = j] e_i^2`` over matrices g_i of the
    generators of sig."""
    squares = [2.0 * sig.square_sign(i + 1) * np.eye(len(g)) for i, g in enumerate(mats)]
    return float(np.max([np.abs(gi @ gj + gj @ gi - (squares[i] if i == j else 0.0)).max()
                         for i, gi in enumerate(mats) for j, gj in enumerate(mats)], initial=0.0))


def blade_square_sign(mask: int, sig: Signature) -> int:
    """Sign of (blade)^2: (-1)^{k(k-1)/2} times the product of generator squares."""
    k = blade_grade(mask)
    s = -1 if (k * (k - 1) // 2) & 1 else 1
    minus_bits = blade_grade(mask >> sig.p)  # generators with square -1
    return -s if minus_bits & 1 else s


def blade_relation_residual(masks, sig_from: Signature, sig_into: Signature) -> float:
    """Largest coefficient of ``g_i g_j + g_j g_i - 2 [i = j] e_i^2``, over the generators e_i of sig_from
    and their images g_i, the blades of ``masks`` in sig_into, read from the Cayley table of sig_into:
    ``g_i g_j + g_j g_i = (sign[a, b] + sign[b, a]) e_{a ^ b}`` for the masks a, b of g_i, g_j."""
    sign, _ = _tables(sig_into.p, sig_into.q)
    pair = sign[np.ix_(masks, masks)].astype(float)
    squares = [2.0 * sig_from.square_sign(i + 1) for i in range(len(masks))]
    return float(np.abs(pair + pair.T - np.diag(squares)).max(initial=0.0))
