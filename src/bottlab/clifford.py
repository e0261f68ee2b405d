"""Real Clifford algebras with blades encoded as bit masks.

The algebra on generators ``e_1 .. e_(p+q)`` has ``e_i^2 = +1`` for
``i <= p``, ``e_i^2 = -1`` for ``i > p``, and ``e_i e_j = -e_j e_i`` for
``i != j``.  A product of distinct generators (a *blade*) is stored as an
integer whose bit ``i-1`` says whether ``e_i`` is present, so blade
multiplication is a XOR of masks together with a sign obtained by counting
the transpositions needed to re-sort the factors, plus the squares of any
repeated generators.  Elements are dense coefficient vectors over the
``2^n`` blades.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Dense sign/index tables are cached per signature; 2^10 x 2^10 is the
# largest table we ever want to materialize.
_MAX_TABLE_N = 10
_MAX_N = 16
# search nodes algebra_isomorphism_check visits before it gives up
NODE_BUDGET = 500_000


@dataclass(frozen=True)
class Signature:
    """Signature (p, q) of a real Clifford algebra: p plus-squares, q minus."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature components must be >= 0, got ({self.p}, {self.q})")
        if self.n > _MAX_N:
            raise ValueError(f"p + q = {self.n} exceeds supported maximum {_MAX_N}")

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
    n = sig.n
    if n > _MAX_TABLE_N:
        raise ValueError(f"dense Cayley tables limited to n <= {_MAX_TABLE_N}")
    dim = sig.blade_count
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


@dataclass
class MultiVector:
    """Dense element of a real Clifford algebra: one coefficient per blade."""

    sig: Signature
    coeffs: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.coeffs is None:
            self.coeffs = np.zeros(self.sig.blade_count)
        else:
            self.coeffs = np.asarray(self.coeffs, dtype=float)
            if self.coeffs.shape != (self.sig.blade_count,):
                raise ValueError(
                    f"expected {self.sig.blade_count} blade coefficients, got shape {self.coeffs.shape}"
                )

    # -- constructors ------------------------------------------------
    @classmethod
    def zero(cls, sig: Signature) -> "MultiVector":
        return cls(sig)

    @classmethod
    def scalar(cls, sig: Signature, value: float = 1.0) -> "MultiVector":
        out = cls(sig)
        out.coeffs[0] = value
        return out

    @classmethod
    def generator(cls, sig: Signature, i: int) -> "MultiVector":
        """The generator e_i, 1-based."""
        if not 1 <= i <= sig.n:
            raise ValueError(f"generator index {i} out of range 1..{sig.n}")
        out = cls(sig)
        out.coeffs[1 << (i - 1)] = 1.0
        return out

    @classmethod
    def blade(cls, sig: Signature, mask: int, value: float = 1.0) -> "MultiVector":
        if mask >> sig.n:
            raise ValueError("blade mask uses generators outside the signature")
        out = cls(sig)
        out.coeffs[mask] = value
        return out

    # -- structure ---------------------------------------------------
    def grades(self) -> set[int]:
        masks = np.nonzero(self.coeffs)[0]
        return {blade_grade(int(m)) for m in masks}

    def parity(self) -> int | None:
        """0 (even), 1 (odd), or None when the element mixes parities."""
        pars = {g & 1 for g in self.grades()}
        if len(pars) == 1:
            return pars.pop()
        if not pars:
            return 0  # zero element counts as even
        return None

    def is_homogeneous(self) -> bool:
        return self.parity() is not None

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    # -- arithmetic --------------------------------------------------
    def _check_same(self, other: "MultiVector"):
        if self.sig != other.sig:
            raise ValueError(f"signature mismatch: {self.sig} vs {other.sig}")

    def __add__(self, other: "MultiVector") -> "MultiVector":
        self._check_same(other)
        return MultiVector(self.sig, self.coeffs + other.coeffs)

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        self._check_same(other)
        return MultiVector(self.sig, self.coeffs - other.coeffs)

    def __neg__(self) -> "MultiVector":
        return MultiVector(self.sig, -self.coeffs)

    def __rmul__(self, scalar: float) -> "MultiVector":
        return MultiVector(self.sig, float(scalar) * self.coeffs)

    def __mul__(self, other):
        if isinstance(other, MultiVector):
            return mv_multiply(self, other)
        return MultiVector(self.sig, self.coeffs * float(other))

    def __repr__(self):
        body = " ".join(f"{c:+g}*{blade_label(int(m))}" for m, c in enumerate(self.coeffs) if c != 0.0) or "0"
        return f"MultiVector[{self.sig.p},{self.sig.q}]({body})"


def mv_multiply(a: MultiVector, b: MultiVector) -> MultiVector:
    """Clifford product of two elements: the Cayley-table contraction over their nonzero coefficients,
    in the order of the dense contraction, so the sums are the same."""
    if a.sig != b.sig:
        raise ValueError(f"signature mismatch: {a.sig} vs {b.sig}")
    sign, idx = _tables(a.sig.p, a.sig.q)
    i, j = np.flatnonzero(a.coeffs), np.flatnonzero(b.coeffs)
    out = np.zeros_like(a.coeffs)
    prod = np.multiply.outer(a.coeffs[i], b.coeffs[j]) * sign[np.ix_(i, j)]
    np.add.at(out, idx[np.ix_(i, j)].ravel(), prod.ravel())
    return MultiVector(a.sig, out)


def left_mult_operator(x: MultiVector) -> np.ndarray:
    """Matrix of y -> x*y on the blade basis."""
    if not x.is_homogeneous():
        raise ValueError("left multiplication operator requires a parity-homogeneous element")
    sign, idx = _tables(x.sig.p, x.sig.q)
    dim = x.sig.blade_count
    out = np.zeros((dim, dim))
    cols = np.broadcast_to(np.arange(dim), (dim, dim))
    np.add.at(out, (idx, cols), x.coeffs[:, None] * sign)
    return out


def twisted_right_mult_operator(x: MultiVector) -> np.ndarray:
    """Matrix of the grading-twisted right multiplication y -> (-1)^{deg y} y*x.

    For odd generators this operator anticommutes (in the graded sense) with
    every left multiplication operator, which is what makes the mixed terms
    of the squared supercharge collapse to the number operator.
    """
    if not x.is_homogeneous():
        raise ValueError("twisted right multiplication requires a parity-homogeneous element")
    sign, idx = _tables(x.sig.p, x.sig.q)
    dim = x.sig.blade_count
    twist = 1.0 - 2.0 * blade_parities(x.sig).astype(float)
    out = np.zeros((dim, dim))
    for i in np.nonzero(x.coeffs)[0]:
        # column j holds blade_j * x_i, rows indexed by the product mask
        out[idx[:, i], np.arange(dim)] += twist * x.coeffs[i] * sign[:, i]
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
    for i in range(1, sig.n + 1):
        e = MultiVector.generator(sig, i)
        out += twisted_right_mult_operator(e) @ left_mult_operator(e)
    return out


def regular_representation(sig: Signature) -> list[np.ndarray]:
    """Left-multiplication matrices of the generators, in order e_1..e_n."""
    return [left_mult_operator(MultiVector.generator(sig, i)) for i in range(1, sig.n + 1)]


def matrix_relation_residual(mats: list[np.ndarray], sig: Signature) -> float:
    """Largest entry of ``g_i g_j + g_j g_i - 2 [i = j] e_i^2`` over matrices g_i of the generators of sig."""
    squares = [2.0 * sig.square_sign(i + 1) * np.eye(len(g)) for i, g in enumerate(mats)]
    return max((float(np.abs(gi @ gj + gj @ gi - (squares[i] if i == j else 0.0)).max())
                for i, gi in enumerate(mats) for j, gj in enumerate(mats)), default=0.0)


def blade_square_sign(mask: int, sig: Signature) -> int:
    """Sign of (blade)^2: (-1)^{k(k-1)/2} times the product of generator squares."""
    k = blade_grade(mask)
    s = -1 if (k * (k - 1) // 2) & 1 else 1
    minus_bits = blade_grade(mask >> sig.p)  # generators with square -1
    return -s if minus_bits & 1 else s


@dataclass
class IsoWitness:
    """Explicit generator images realizing one signature inside another."""

    found: bool
    sig_from: Signature
    sig_into: Signature
    images: list[MultiVector]
    max_residual: float
    notes: str = ""

    def image_labels(self) -> list[str]:
        return ["+".join(f"{c:+g}*{blade_label(int(m))}" for m, c in enumerate(g.coeffs) if c) for g in self.images]


def _relation_residual(images: list[MultiVector], sig_from: Signature) -> float:
    """Max deviation of the images from the target anticommutation relations."""
    return max(((mv_multiply(gi, gj) + mv_multiply(gj, gi)
                 - MultiVector.scalar(gi.sig, 2.0 * sig_from.square_sign(i + 1) if i == j else 0.0)).norm()
                for i, gi in enumerate(images) for j, gj in enumerate(images)), default=0.0)


def algebra_isomorphism_check(sig_from: Signature, sig_into: Signature) -> IsoWitness:
    """Search for generator images of one Clifford algebra inside another.

    Images are sought among the odd blades of the target algebra, in
    deterministic mask order: two odd blades anticommute exactly when they
    share an even number of generators, so the search is a backtracking walk
    over that compatibility graph with the required squares (+1 for the
    first ``p`` generators, -1 for the rest) as a node filter.  A successful
    witness proves the relations embed; exhausting the ``NODE_BUDGET``
    proves nothing and is reported as such.
    """
    if sig_from == sig_into:
        images = [MultiVector.generator(sig_into, i) for i in range(1, sig_into.n + 1)]
        return IsoWitness(True, sig_from, sig_into, images,
                          _relation_residual(images, sig_from), "identity witness")
    if sig_from.n > sig_into.n:
        return IsoWitness(False, sig_from, sig_into, [], float("inf"),
                          "target algebra too small for a generator image")

    needed = [sig_from.square_sign(i) for i in range(1, sig_from.n + 1)]
    odd_blades = [m for m in range(1, sig_into.blade_count) if blade_parity(m)]
    by_square = {
        +1: [m for m in odd_blades if blade_square_sign(m, sig_into) == +1],
        -1: [m for m in odd_blades if blade_square_sign(m, sig_into) == -1],
    }

    chosen: list[int] = []
    nodes = 0

    def compatible(m: int) -> bool:
        return all(blade_grade(m & c) % 2 == 0 for c in chosen)

    def extend(k: int) -> bool:
        nonlocal nodes
        if k == len(needed):
            return True
        for m in by_square[needed[k]]:
            nodes += 1
            if nodes > NODE_BUDGET:
                return False
            if m not in chosen and compatible(m):
                chosen.append(m)
                if extend(k + 1):
                    return True
                chosen.pop()
        return False

    if extend(0):
        images = [MultiVector.blade(sig_into, m) for m in chosen]
        res = _relation_residual(images, sig_from)
        return IsoWitness(True, sig_from, sig_into, images, res,
                          f"blade witness found after {nodes} nodes")
    note = "search budget exhausted" if nodes > NODE_BUDGET else "no blade witness exists"
    return IsoWitness(False, sig_from, sig_into, [], float("inf"),
                      f"{note} (no claim about non-isomorphism)")
