"""Z/2-graded matrices and the sign rules that come with them.

A graded matrix is an ordinary real matrix together with a parity bit per
basis vector.  Tensor products pick up Koszul signs: on simple tensors,
``(a (x) b)(xi (x) eta) = (-1)^{deg b * deg xi} (a xi) (x) (b eta)``, which
is what the column scaling in :func:`graded_tensor` implements.  All the
sign laws here (commutators, involution, flip) reduce to that one rule.
"""

from __future__ import annotations

import math

import numpy as np

from .clifford import MultiVector, Signature, blade_parities


class GradedMatrix:
    """A square real matrix with a 0/1 parity per basis index.

    It is held in one of two forms.  Built from an array it is dense.  Built
    by a block kernel (:meth:`from_parts`) it is parity-homogeneous of some
    degree d and holds only its two nonzero half-size blocks ``X[0, d]`` and
    ``X[1, 1 ^ d]``, where ``X[r, c]`` collects the rows of parity r and the
    columns of parity c in basis order.  ``@``, ``+``, ``-``, scalar
    multiples, :func:`graded_commutator` and :meth:`norm` work on the blocks
    when an operand holds them; two dense operands give a dense result.
    ``mat`` assembles the dense matrix on first access, and from then on it
    is the only source of truth: the blocks are dropped, so a caller who
    writes into ``mat`` never meets stale blocks.
    """

    def __init__(self, mat, parity):
        self._mat = np.asarray(mat, dtype=float)
        self.parity = np.asarray(parity, dtype=np.uint8)
        self._degree = self._blocks = self._index = None
        if self._mat.ndim != 2 or self._mat.shape[0] != self._mat.shape[1]:
            raise ValueError(f"graded matrix must be square, got shape {self._mat.shape}")
        if self.parity.shape != (self._mat.shape[0],):
            raise ValueError("parity vector length must match matrix dimension")
        if np.any(self.parity > 1):
            raise ValueError("parities must be 0 or 1")

    @staticmethod
    def from_parts(parts: dict, parity, index=None) -> "GradedMatrix":
        """The matrix whose degree-d part has the blocks ``parts[d] = (X[0, d], X[1, 1 ^ d])``.

        With one degree it is held as those two blocks, with both it is
        dense, and with none it is zero.  ``index`` is
        ``parity_index(parity)``; callers that hold it pass it on.
        """
        parity = np.asarray(parity, dtype=np.uint8)
        index = parity_index(parity) if index is None else index
        if len(parts) == 2:
            return GradedMatrix(_assemble(parts, index), parity)
        if not parts:
            parts = {0: [np.zeros((len(i), len(i))) for i in index]}
        (degree, blocks), = parts.items()
        blocks = tuple(blocks)
        for r, block in enumerate(blocks):
            if block.shape != (len(index[r]), len(index[r ^ degree])):
                raise ValueError(f"block {r} has shape {block.shape}, which does not fit the parities")
        out = object.__new__(GradedMatrix)
        out._mat, out.parity, out._index = None, parity, index
        out._degree, out._blocks = degree, blocks
        return out

    @property
    def mat(self) -> np.ndarray:
        if self._mat is None:
            self._mat = _assemble({self._degree: self._blocks}, self._index)
            self._degree = self._blocks = None
        return self._mat

    @property
    def index(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the even and of the odd basis vectors."""
        return parity_index(self.parity) if self._index is None else self._index

    @property
    def dim(self) -> int:
        return len(self.parity)

    def operator_parity(self, tol: float = 0.0) -> int | None:
        """0 if the matrix preserves basis parity, 1 if it reverses it.

        Measured from the sparsity pattern: entry (i, j) belongs to the
        parity-(p_i + p_j) part.  Returns None for genuinely mixed operators.
        """
        if self._blocks is not None:
            mass = max(float(np.abs(b).max(initial=0.0)) for b in self._blocks)
            return 1 if self._degree and mass > tol else 0
        mix = self.parity[:, None] ^ self.parity[None, :]
        even_mass = float(np.abs(np.where(mix == 0, self._mat, 0.0)).max(initial=0.0))
        odd_mass = float(np.abs(np.where(mix == 1, self._mat, 0.0)).max(initial=0.0))
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
        if self.parity is other.parity:
            return
        if self.dim != other.dim or np.any(self.parity != other.parity):
            raise ValueError("graded matrices live on different graded spaces")

    def _parts(self) -> list[tuple[int, tuple[np.ndarray, np.ndarray]]]:
        """``(d, (X[0, d], X[1, 1 ^ d]))`` for each degree d with a nonzero part."""
        if self._blocks is not None:
            return [(self._degree, self._blocks)]
        blocks = parity_blocks(self._mat, self.index)
        return [(d, (blocks[0][d], blocks[1][1 ^ d])) for d in (0, 1)
                if blocks[0][d].any() or blocks[1][1 ^ d].any()]

    def _linear(self, other: "GradedMatrix", op) -> "GradedMatrix":
        """``op`` (np.add or np.subtract) entrywise, on blocks when an operand holds them."""
        self._check_compatible(other)
        if self._blocks is None and other._blocks is None:
            return GradedMatrix(op(self._mat, other._mat), self.parity)
        out = dict(self._parts())
        for d, blocks in other._parts():
            out[d] = tuple(op(x, y) for x, y in zip(out.get(d, (0.0, 0.0)), blocks))
        return GradedMatrix.from_parts(out, self.parity, _shared_index(self, other))

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self._linear(other, np.add)

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self._linear(other, np.subtract)

    def __neg__(self) -> "GradedMatrix":
        return -1.0 * self

    def __rmul__(self, scalar: float) -> "GradedMatrix":
        if self._blocks is None:
            return GradedMatrix(float(scalar) * self._mat, self.parity)
        return GradedMatrix.from_parts({self._degree: [float(scalar) * b for b in self._blocks]},
                                       self.parity, self._index)

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        """Row block r of a degree-da by degree-db product is ``A[r, r^da] @ B[r^da, r^da^db]``."""
        self._check_compatible(other)
        if self._blocks is None and other._blocks is None:
            return GradedMatrix(self._mat @ other._mat, self.parity)
        out: dict = {}
        for da, a in self._parts():
            for db, b in other._parts():
                _accumulate(out, da ^ db, (a[0] @ b[da], a[1] @ b[1 ^ da]))
        return GradedMatrix.from_parts(out, self.parity, _shared_index(self, other))

    def nonzero_blocks(self, leading: tuple[int, int] | None = None) -> tuple | None:
        """The nonzero parity blocks, or None when the matrix is mixed.

        With ``leading = (k0, k1)`` only the window of the first k0 even and
        the first k1 odd basis vectors is read, and "mixed" refers to it.
        """
        if self._blocks is not None:
            if leading is None:
                return self._blocks
            d = self._degree
            return tuple(b[:leading[r], :leading[r ^ d]] for r, b in enumerate(self._blocks))
        index = self.index if leading is None else tuple(i[:k] for i, k in zip(self.index, leading))
        (ee, eo), (oe, oo) = parity_blocks(self._mat, index)
        if not (eo.any() or oe.any()):
            return ee, oo
        if not (ee.any() or oo.any()):
            return eo, oe
        return None

    def norm(self) -> float:
        """Spectral norm: :func:`block_norm` of the nonzero blocks, a dense SVD if mixed."""
        blocks = self.nonzero_blocks()
        return float(np.linalg.norm(self.mat, 2)) if blocks is None else block_norm(blocks)


def _shared_index(a: GradedMatrix, b: GradedMatrix):
    """The parity index of two compatible operands, reusing one that is held."""
    return a._index if a._index is not None else b.index


def _accumulate(out: dict, degree: int, blocks: tuple):
    """Add the blocks of a degree-d part into ``out[d]``."""
    out[degree] = tuple(x + y for x, y in zip(out[degree], blocks)) if degree in out else blocks


def _assemble(parts: dict, index) -> np.ndarray:
    """The dense matrix holding the blocks ``parts[d] = (X[0, d], X[1, 1 ^ d])``, zero elsewhere."""
    dim = len(index[0]) + len(index[1])
    out = np.zeros((dim, dim))
    for d, blocks in parts.items():
        for r, block in enumerate(blocks):
            out[np.ix_(index[r], index[r ^ d])] = block
    return out


def block_norm(blocks) -> float:
    """The largest singular value over the blocks; 0 for none.

    Each block's is ``s * sqrt(lambda_max(Y^T Y))`` with ``Y = X / s`` and
    ``s = max |X|`` (the scaling keeps the Gram matrix clear of underflow),
    using the Gram matrix on the shorter side and ``eigvalsh``, which is
    cheaper than the SVD and as accurate for the largest singular value.
    """
    out = 0.0
    for x in blocks:
        s = float(np.abs(x).max(initial=0.0))
        if s == 0.0:
            continue
        y = x / s
        gram = y.T @ y if y.shape[0] >= y.shape[1] else y @ y.T
        out = max(out, s * math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)))
    return out


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


def graded_commutator(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """[a, b] = ab - (-1)^{deg a deg b} ba, extended bilinearly.

    Odd-odd pairs get the anticommutator; everything else the plain
    commutator.  Each pair of nonzero parts ``a_pa``, ``b_pb`` is multiplied
    blockwise: row block r of the result is
    ``a[r, r^pa] b[r^pa, c] - sign b[r, r^pb] a[r^pb, c]`` with
    ``c = r ^ pa ^ pb``, a quarter of the dense flops.  Block-held operands
    are used as they are; a dense one is split into its parts first.
    """
    a._check_compatible(b)
    out: dict = {}
    for pa, ab in a._parts():
        for pb, bb in b._parts():
            sign = -1.0 if (pa and pb) else 1.0
            _accumulate(out, pa ^ pb, tuple(ab[r] @ bb[r ^ pa] - sign * (bb[r] @ ab[r ^ pb])
                                            for r in (0, 1)))
    return GradedMatrix.from_parts(out, a.parity, _shared_index(a, b))


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
