"""Z/2-graded matrices and the sign rules that come with them.

A graded matrix is an ordinary real matrix together with a parity bit per
basis vector.  Tensor products pick up Koszul signs: on simple tensors,
``(a (x) b)(xi (x) eta) = (-1)^{deg b * deg xi} (a xi) (x) (b eta)``, which
is what the column scaling in :func:`graded_tensor` implements.  All the
sign laws here (commutators, involution, flip) reduce to that one rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import MultiVector, Signature, blade_parities


@dataclass
class GradedMatrix:
    """A square real matrix with a 0/1 parity per basis index."""

    mat: np.ndarray
    parity: np.ndarray

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=float)
        self.parity = np.asarray(self.parity, dtype=np.uint8)
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError(f"graded matrix must be square, got shape {self.mat.shape}")
        if self.parity.shape != (self.mat.shape[0],):
            raise ValueError("parity vector length must match matrix dimension")
        if np.any(self.parity > 1):
            raise ValueError("parities must be 0 or 1")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def operator_parity(self, tol: float = 0.0) -> int | None:
        """0 if the matrix preserves basis parity, 1 if it reverses it.

        Measured from the sparsity pattern: entry (i, j) belongs to the
        parity-(p_i + p_j) part.  Returns None for genuinely mixed operators.
        """
        mix = self.parity[:, None] ^ self.parity[None, :]
        even_mass = float(np.abs(np.where(mix == 0, self.mat, 0.0)).max(initial=0.0))
        odd_mass = float(np.abs(np.where(mix == 1, self.mat, 0.0)).max(initial=0.0))
        if odd_mass <= tol:
            return 0
        if even_mass <= tol:
            return 1
        return None

    def parity_part(self, p: int) -> "GradedMatrix":
        mix = self.parity[:, None] ^ self.parity[None, :]
        return GradedMatrix(np.where(mix == p, self.mat, 0.0), self.parity)

    def even_part(self) -> "GradedMatrix":
        return self.parity_part(0)

    def odd_part(self) -> "GradedMatrix":
        return self.parity_part(1)

    def _check_compatible(self, other: "GradedMatrix"):
        if self.dim != other.dim or np.any(self.parity != other.parity):
            raise ValueError("graded matrices live on different graded spaces")

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._check_compatible(other)
        return GradedMatrix(self.mat + other.mat, self.parity)

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._check_compatible(other)
        return GradedMatrix(self.mat - other.mat, self.parity)

    def __neg__(self) -> "GradedMatrix":
        return GradedMatrix(-self.mat, self.parity)

    def __rmul__(self, scalar: float) -> "GradedMatrix":
        return GradedMatrix(float(scalar) * self.mat, self.parity)

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._check_compatible(other)
        return GradedMatrix(self.mat @ other.mat, self.parity)

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat, 2))


def identity_like(g: GradedMatrix) -> GradedMatrix:
    return GradedMatrix(np.eye(g.dim), g.parity)


def grading_signs(parity: np.ndarray) -> np.ndarray:
    """(-1)^parity as a float vector."""
    return 1.0 - 2.0 * np.asarray(parity, dtype=float)


def tensor_parity(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Parity vector of the tensor product space, a-major ordering."""
    return (np.asarray(pa, dtype=np.uint8)[:, None] ^ np.asarray(pb, dtype=np.uint8)[None, :]).ravel()


def graded_tensor(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Graded tensor product of graded matrices (a-major basis ordering).

    Requires ``b`` of definite operator parity; the Koszul sign
    ``(-1)^{deg b * deg xi}`` only involves the parity of ``b`` and of the
    first-leg basis vector, so it is absorbed by scaling the columns of the
    first factor before taking the Kronecker product.
    """
    pb = b.operator_parity()
    if pb is None:
        raise ValueError("graded tensor needs a parity-homogeneous second factor; "
                         "split it with even_part()/odd_part() first")
    left = a.mat * grading_signs(a.parity)[None, :] if pb else a.mat
    return GradedMatrix(np.kron(left, b.mat), tensor_parity(a.parity, b.parity))


def parity_index(parity) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the even and of the odd basis vectors, in basis order."""
    p = np.asarray(parity)
    return np.flatnonzero(p == 0), np.flatnonzero(p == 1)


def parity_blocks(mat: np.ndarray, index) -> list[list[np.ndarray]]:
    """The four blocks ``mat[index[r], index[c]]``, nested as ``[r][c]``.

    ``index`` is a pair of even and odd index arrays.  An operator of degree
    d lives in the blocks ``(r, r ^ d)``.
    """
    slabs = [mat.take(rows, axis=0) for rows in index]
    return [[slab.take(cols, axis=1) for cols in index] for slab in slabs]


def from_parity_blocks(blocks: dict, index) -> np.ndarray:
    """The full matrix holding ``blocks[r, c]`` at ``(index[r], index[c])``, zero elsewhere."""
    dim = len(index[0]) + len(index[1])
    out = np.zeros((dim, dim))
    for (r, c), block in blocks.items():
        out[np.ix_(index[r], index[c])] = block
    return out


def _degrees(blocks: list[list[np.ndarray]]) -> list[int]:
    """Operator degrees d whose blocks (0, d) and (1, 1 ^ d) are not all zero."""
    return [d for d in (0, 1) if blocks[0][d].any() or blocks[1][1 ^ d].any()]


def graded_commutator(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """[a, b] = ab - (-1)^{deg a deg b} ba, extended bilinearly.

    Odd-odd pairs get the anticommutator; everything else the plain
    commutator.  Both inputs are split into parity blocks, and each nonzero
    pair of parts ``a_pa``, ``b_pb`` is multiplied blockwise: row block r of
    the result is ``a[r, r^pa] b[r^pa, c] - sign b[r, r^pb] a[r^pb, c]`` with
    ``c = r ^ pa ^ pb``, a quarter of the dense flops.
    """
    a._check_compatible(b)
    index = parity_index(a.parity)
    ab, bb = parity_blocks(a.mat, index), parity_blocks(b.mat, index)
    out: dict = {}
    for pa in _degrees(ab):
        for pb in _degrees(bb):
            sign = -1.0 if (pa and pb) else 1.0
            for r in (0, 1):
                c = r ^ pa ^ pb
                block = ab[r][r ^ pa] @ bb[r ^ pa][c] - sign * (bb[r][r ^ pb] @ ab[r ^ pb][c])
                out[r, c] = out.get((r, c), 0.0) + block
    return GradedMatrix(from_parity_blocks(out, index), a.parity)


def involution(a: GradedMatrix) -> GradedMatrix:
    """The adjoint (transpose) as the *-operation on graded matrices."""
    return GradedMatrix(a.mat.T, a.parity)


def flip_simple(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Flip on a simple graded tensor: a (x) b -> (-1)^{deg a deg b} b (x) a."""
    pa, pb = a.operator_parity(), b.operator_parity()
    if pa is None or pb is None:
        raise ValueError("flip of a simple tensor needs parity-homogeneous factors")
    sign = -1.0 if (pa and pb) else 1.0
    return sign * graded_tensor(b, a)


def flip_unitary(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Signed permutation implementing xi (x) eta -> (-1)^{deg xi deg eta} eta (x) xi.

    Conjugation by this matrix carries ``graded_tensor(a, b)`` on the (a, b)
    ordering to ``flip_simple(a, b)`` on the (b, a) ordering.
    """
    pa = np.asarray(pa, dtype=np.uint8)
    pb = np.asarray(pb, dtype=np.uint8)
    da, db = len(pa), len(pb)
    out = np.zeros((da * db, da * db))
    for i in range(da):
        for j in range(db):
            sign = -1.0 if (pa[i] and pb[j]) else 1.0
            out[j * da + i, i * db + j] = sign
    return out


def iota(m: MultiVector) -> MultiVector:
    """Grading automorphism of the Clifford algebra: e_i -> -e_i on generators.

    Acts by (-1)^grade on each blade; it is an algebra automorphism and
    squares to the identity.
    """
    signs = grading_signs(blade_parities(m.sig))
    return MultiVector(m.sig, m.coeffs * signs)


def tensor_product_witness(sig1: Signature, sig2: Signature):
    """Realize the joined algebra inside the graded tensor of two regular reps.

    The generator images are ``e_i (x) 1`` from the first factor and
    ``1 (x) e_j`` from the second, listed with all +1-square generators
    before the -1-square ones so they line up with how the joined signature
    ``(p1 + p2, q1 + q2)`` orders its generators.  The graded tensor signs
    are exactly what makes these satisfy the joined anticommutation
    relations.  Returns (generators, max relation residual, spanned
    dimension).
    """
    from .clifford import left_mult_operator  # local to keep module deps one-way

    sig = Signature(sig1.p + sig2.p, sig1.q + sig2.q)
    par1, par2 = blade_parities(sig1), blade_parities(sig2)
    id1 = GradedMatrix(np.eye(sig1.blade_count), par1)
    id2 = GradedMatrix(np.eye(sig2.blade_count), par2)

    def image(factor: int, i: int) -> GradedMatrix:
        if factor == 0:
            g = GradedMatrix(left_mult_operator(MultiVector.generator(sig1, i)), par1)
            return graded_tensor(g, id2)
        g = GradedMatrix(left_mult_operator(MultiVector.generator(sig2, i)), par2)
        return graded_tensor(id1, g)

    gens: list[GradedMatrix] = []
    for sign in (+1, -1):
        for factor, s in ((0, sig1), (1, sig2)):
            for i in range(1, s.n + 1):
                if s.square_sign(i) == sign:
                    gens.append(image(factor, i))

    dim = sig1.blade_count * sig2.blade_count
    worst = 0.0
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            anti = gi.mat @ gj.mat + gj.mat @ gi.mat
            target = 2.0 * sig.square_sign(i + 1) * np.eye(dim) if i == j else 0.0
            worst = max(worst, float(np.abs(anti - target).max()))

    # span of all products of generator subsets = dimension of the image algebra
    prods = [np.eye(dim)]
    for g in gens:
        prods += [p @ g.mat for p in prods]
    stack = np.stack([p.ravel() for p in prods])
    spanned = int(np.linalg.matrix_rank(stack, tol=1e-9))
    return gens, worst, spanned
