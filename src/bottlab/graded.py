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
    """A read-only square real matrix with a 0/1 parity per basis index.

    It is its degree parts: ``parts[d] = (X[0, d], X[1, 1 ^ d])`` for each
    degree d present, where ``X[r, c]`` collects the rows of parity r and
    the columns of parity c in basis order.  Built from an array, it splits
    the array into the parts of the degrees with a nonzero entry on first
    use; built by :meth:`from_parts`, it assembles ``mat`` on first access.
    Both are cached (threads that race on a first use compute equal
    values), and every array held is read-only: the constructor marks the
    array it is given read-only without copying it.  ``@``, ``+``, ``-``,
    scalar multiples, commutators and norms work on the parts.
    """

    def __init__(self, mat, parity):
        mat = np.asarray(mat, dtype=float)
        parity = np.asarray(parity, dtype=np.uint8)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"graded matrix must be square, got shape {mat.shape}")
        if parity.shape != (mat.shape[0],):
            raise ValueError("parity vector length must match matrix dimension")
        if np.any(parity > 1):
            raise ValueError("parities must be 0 or 1")
        self._mat, self.parity = _frozen(mat), _frozen(parity)
        self._parts = self._index = None

    @staticmethod
    def from_parts(parts: dict, parity, index=None) -> "GradedMatrix":
        """The matrix whose degree-d part has the blocks ``parts[d] = (X[0, d], X[1, 1 ^ d])``.

        No parts is the zero matrix.  ``index`` is ``parity_index(parity)``;
        callers that hold it pass it on.
        """
        out = object.__new__(GradedMatrix)
        out._set_parts(parts, parity, index)
        return out

    def _set_parts(self, parts: dict, parity, index=None):
        """Make this the matrix of :meth:`from_parts`; the blocks are frozen, not copied."""
        parity = _frozen(np.asarray(parity, dtype=np.uint8))
        index = parity_index(parity) if index is None else index
        for d, blocks in parts.items():
            for r, block in enumerate(blocks):
                if block.shape != (len(index[r]), len(index[r ^ d])):
                    raise ValueError(f"block {r} has shape {block.shape}, which does not fit the parities")
        self._mat, self.parity, self._index = None, parity, index
        self._parts = {d: tuple(_frozen(b) for b in blocks) for d, blocks in parts.items()}

    @property
    def parts(self) -> dict:
        """``{d: (X[0, d], X[1, 1 ^ d])}`` for each degree d present."""
        if self._parts is None:
            slabs = [self._mat.take(rows, axis=0) for rows in self.index]
            blocks = [[slab.take(cols, axis=1) for cols in self.index] for slab in slabs]
            self._parts = {d: (_frozen(blocks[0][d]), _frozen(blocks[1][1 ^ d])) for d in (0, 1)
                           if blocks[0][d].any() or blocks[1][1 ^ d].any()}
        return self._parts

    @property
    def mat(self) -> np.ndarray:
        if self._mat is None:
            self._mat = _frozen(_assemble(self._parts, self._index))
        return self._mat

    @property
    def index(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the even and of the odd basis vectors."""
        if self._index is None:
            self._index = parity_index(self.parity)
        return self._index

    @property
    def dim(self) -> int:
        return len(self.parity)

    def operator_parity(self) -> int | None:
        """0 if the matrix preserves basis parity, 1 if it reverses it.

        A part counts when it has a nonzero entry; the zero matrix is even,
        and None means mixed.
        """
        present = [d for d, blocks in self.parts.items() if any(b.any() for b in blocks)]
        return None if len(present) > 1 else max(present, default=0)

    def parity_part(self, p: int) -> "GradedMatrix":
        """The degree-p part as a matrix of its own."""
        parts = {p: self.parts[p]} if p in self.parts else {}
        return GradedMatrix.from_parts(parts, self.parity, self.index)

    def _check_compatible(self, other: "GradedMatrix"):
        if self.parity is other.parity:
            return
        if self.dim != other.dim or np.any(self.parity != other.parity):
            raise ValueError("graded matrices live on different graded spaces")

    def _linear(self, other: "GradedMatrix", op) -> "GradedMatrix":
        """``op`` (np.add or np.subtract) entrywise, part by part."""
        self._check_compatible(other)
        out = dict(self.parts)
        for d, blocks in other.parts.items():
            out[d] = tuple(op(x, y) for x, y in zip(out.get(d, (0.0, 0.0)), blocks))
        return GradedMatrix.from_parts(out, self.parity, self.index)

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self._linear(other, np.add)

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self._linear(other, np.subtract)

    def __neg__(self) -> "GradedMatrix":
        return -1.0 * self

    def __rmul__(self, scalar: float) -> "GradedMatrix":
        parts = {d: tuple(float(scalar) * b for b in blocks) for d, blocks in self.parts.items()}
        return GradedMatrix.from_parts(parts, self.parity, self.index)

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        """Row block r of a degree-da by degree-db product is ``A[r, r^da] @ B[r^da, r^da^db]``."""
        self._check_compatible(other)
        out: dict = {}
        for da, a in self.parts.items():
            for db, b in other.parts.items():
                _accumulate(out, da ^ db, (a[0] @ b[da], a[1] @ b[1 ^ da]))
        return GradedMatrix.from_parts(out, self.parity, self.index)

    def nonzero_blocks(self, leading: tuple[int, int] | None = None) -> tuple | None:
        """The blocks of the one part, none for zero, or None when the matrix is mixed.

        With ``leading = (k0, k1)`` only the window of the first k0 even and
        the first k1 odd basis vectors is returned.
        """
        parts = self.parts
        if len(parts) != 1:
            return None if parts else ()
        (d, blocks), = parts.items()
        if leading is None:
            return blocks
        return tuple(b[:leading[r], :leading[r ^ d]] for r, b in enumerate(blocks))

    def norm(self) -> float:
        """Spectral norm: :func:`block_norm` of the nonzero blocks, a dense SVD if mixed."""
        blocks = self.nonzero_blocks()
        return float(np.linalg.norm(self.mat, 2)) if blocks is None else block_norm(blocks)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only."""
    a.flags.writeable = False
    return a


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
                         "split it with parity_part() first")
    left = a.mat * grading_signs(a.parity)[None, :] if pb else a.mat
    return GradedMatrix(np.kron(left, b.mat), tensor_parity(a.parity, b.parity))


def parity_index(parity) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the even and of the odd basis vectors, in basis order."""
    p = np.asarray(parity)
    return _frozen(np.flatnonzero(p == 0)), _frozen(np.flatnonzero(p == 1))


def graded_commutator(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """[a, b] = ab - (-1)^{deg a deg b} ba, extended bilinearly.

    Odd-odd pairs get the anticommutator; everything else the plain
    commutator.  Each pair of nonzero parts ``a_pa``, ``b_pb`` is multiplied
    blockwise: row block r of the result is
    ``a[r, r^pa] b[r^pa, c] - sign b[r, r^pb] a[r^pb, c]`` with
    ``c = r ^ pa ^ pb``, a quarter of the dense flops.
    """
    a._check_compatible(b)
    out: dict = {}
    for pa, ab in a.parts.items():
        for pb, bb in b.parts.items():
            sign = -1.0 if (pa and pb) else 1.0
            _accumulate(out, pa ^ pb, tuple(ab[r] @ bb[r ^ pa] - sign * (bb[r] @ ab[r ^ pb])
                                            for r in (0, 1)))
    return GradedMatrix.from_parts(out, a.parity, a.index)


def involution(a: GradedMatrix) -> GradedMatrix:
    """The adjoint (transpose) as the *-operation on graded matrices."""
    return GradedMatrix(a.mat.T, a.parity)


def flip_simple(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Flip on a simple graded tensor: a (x) b -> (-1)^{deg a deg b} b (x) a.

    The sign is applied to the small factor b, not to the tensor.
    """
    pa, pb = a.operator_parity(), b.operator_parity()
    if pa is None or pb is None:
        raise ValueError("flip of a simple tensor needs parity-homogeneous factors")
    return graded_tensor(-b if (pa and pb) else b, a)


def flip_unitary(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Signed permutation implementing xi (x) eta -> (-1)^{deg xi deg eta} eta (x) xi.

    Conjugation by this matrix carries ``graded_tensor(a, b)`` on the (a, b)
    ordering to ``flip_simple(a, b)`` on the (b, a) ordering.
    """
    pa, pb = np.asarray(pa, dtype=np.uint8), np.asarray(pb, dtype=np.uint8)
    i, j = np.divmod(np.arange(len(pa) * len(pb)), len(pb))  # xi_i (x) eta_j, a-major
    out = np.zeros((len(i), len(i)))
    out[j * len(pa) + i, i * len(pb) + j] = 1.0 - 2.0 * (pa[i] & pb[j])
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
