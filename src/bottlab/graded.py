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
    """A read-only square real matrix of one degree, with a 0/1 parity per basis index.

    It is held as its degree d (0 if it preserves basis parity, 1 if it
    reverses it) and its ``blocks = (X[0, d], X[1, 1 ^ d])``, where
    ``X[r, c]`` collects the rows of parity r and the columns of parity c in
    basis order; every other entry is zero.  Built from an array, it copies
    the array's blocks, so a later write into the array does not reach it,
    and raises ``ValueError`` when both degrees have a nonzero entry (the
    zero matrix is even).  ``mat`` assembles a new read-only dense array on
    each access, for oracles and small inputs.  Every array held is read-only
    and no field can be rebound.  Products, sums of equal degrees, scalar
    multiples, commutators and norms work on the blocks.
    """

    def __init__(self, mat, parity):
        mat = np.asarray(mat, dtype=float)
        parity = np.array(parity, dtype=np.uint8)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"graded matrix must be square, got shape {mat.shape}")
        if parity.shape != (mat.shape[0],):
            raise ValueError("parity vector length must match matrix dimension")
        if np.any(parity > 1):
            raise ValueError("parities must be 0 or 1")
        index = parity_index(parity)
        split = [_split(mat, index, d) for d in (0, 1)]
        present = [d for d in (0, 1) if any(b.any() for b in split[d])]
        if len(present) > 1:
            raise ValueError("the matrix has nonzero entries of both degrees; build one graded matrix from "
                             "its even part (rows and columns of equal parity) and one from its odd part")
        degree = max(present, default=0)
        self._set_blocks(degree, split[degree], parity, index)

    @staticmethod
    def from_blocks(degree: int, blocks, parity, index=None) -> "GradedMatrix":
        """The degree-d matrix with ``blocks = (X[0, d], X[1, 1 ^ d])``; ``index`` is
        ``parity_index(parity)``, passed on by callers that hold it."""
        out = object.__new__(GradedMatrix)
        out._set_blocks(degree, blocks, parity, index)
        return out

    def _set_blocks(self, degree: int, blocks, parity, index=None):
        """Make this the matrix of :meth:`from_blocks`; the blocks are frozen, not copied."""
        parity = _frozen(np.asarray(parity, dtype=np.uint8))
        index = parity_index(parity) if index is None else index
        for r, block in enumerate(blocks):
            if block.shape != (len(index[r]), len(index[r ^ degree])):
                raise ValueError(f"block {r} has shape {block.shape}, which does not fit the parities")
        self.degree, self.parity, self.index = degree, parity, index
        self.blocks = tuple(_frozen(b) for b in blocks)

    def __setattr__(self, name, value):
        if name in ("degree", "parity", "index", "blocks") and name in self.__dict__:
            raise AttributeError(f"{name} of a graded matrix is set once, at construction")
        super().__setattr__(name, value)

    @property
    def mat(self) -> np.ndarray:
        """The dense matrix, assembled from the blocks on each access."""
        return _frozen(_assemble(self.degree, self.blocks, self.index))

    def operator_parity(self) -> int:
        """The degree: 0 if the matrix preserves basis parity, 1 if it reverses it."""
        return self.degree

    def parity_part(self, p: int) -> "GradedMatrix":
        """The degree-p part as a matrix of its own: this matrix, or zero."""
        if p == self.degree:
            return self
        zero = tuple(np.zeros((len(self.index[r]), len(self.index[r ^ p]))) for r in (0, 1))
        return GradedMatrix.from_blocks(p, zero, self.parity, self.index)

    def _check_compatible(self, other: "GradedMatrix"):
        if self.parity is other.parity:
            return
        if len(self.parity) != len(other.parity) or np.any(self.parity != other.parity):
            raise ValueError("graded matrices live on different graded spaces")

    def _linear(self, other: "GradedMatrix", op) -> "GradedMatrix":
        """``op`` (np.add or np.subtract) entrywise, block by block."""
        self._check_compatible(other)
        if other.degree != self.degree:
            raise ValueError(f"cannot add graded matrices of degrees {self.degree} and {other.degree}: "
                             "the result would have both; keep the two degrees as separate matrices")
        blocks = tuple(op(x, y) for x, y in zip(self.blocks, other.blocks))
        return GradedMatrix.from_blocks(self.degree, blocks, self.parity, self.index)

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self._linear(other, np.add)

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self._linear(other, np.subtract)

    def __neg__(self) -> "GradedMatrix":
        return -1.0 * self

    def __rmul__(self, scalar: float) -> "GradedMatrix":
        blocks = tuple(float(scalar) * b for b in self.blocks)
        return GradedMatrix.from_blocks(self.degree, blocks, self.parity, self.index)

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        """Row block r of a degree-da by degree-db product is ``A[r, r^da] @ B[r^da, r^da^db]``."""
        return window_product(WHOLE, self, other)

    def window(self, sizes: tuple) -> "GradedMatrix":
        """``P_W X P_W`` as a matrix of the window W of the first ``sizes[0]`` even and ``sizes[1]``
        odd basis vectors; its blocks are the leading parts of this matrix's blocks."""
        blocks = [b[:sizes[r], :sizes[r ^ self.degree]] for r, b in enumerate(self.blocks)]
        return _on_window(self, sizes, self.degree, blocks)

    def norm(self) -> float:
        """Spectral norm: :func:`block_norm` of the two blocks."""
        return block_norm(self.blocks)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only."""
    a.flags.writeable = False
    return a


def _split(mat: np.ndarray, index, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only blocks ``(X[0, d], X[1, 1 ^ d])`` of a dense matrix."""
    return tuple(_frozen(mat.take(index[r], axis=0).take(index[r ^ degree], axis=1)) for r in (0, 1))


def _assemble(degree: int, blocks, index) -> np.ndarray:
    """The dense matrix holding ``blocks = (X[0, d], X[1, 1 ^ d])``, zero elsewhere."""
    dim = len(index[0]) + len(index[1])
    out = np.zeros((dim, dim))
    for r, block in enumerate(blocks):
        out[np.ix_(index[r], index[r ^ degree])] = block
    return out


WHOLE = (None, None)  # the window sizes that keep every basis vector: x[:None] is all of x


def _on_window(g: GradedMatrix, sizes, degree: int, blocks) -> GradedMatrix:
    """The degree-d matrix with ``blocks`` on the window of g's space that holds its first
    ``sizes[0]`` even and ``sizes[1]`` odd basis vectors, in basis order."""
    if all(k is None or k == len(i) for k, i in zip(sizes, g.index)):
        return GradedMatrix.from_blocks(degree, blocks, g.parity, g.index)
    keep = np.sort(np.concatenate([i[:k] for i, k in zip(g.index, sizes)]))
    return GradedMatrix.from_blocks(degree, blocks, g.parity[keep])


def _check_symmetric(g: GradedMatrix, what: str):
    """Raise ``ValueError`` unless g is symmetric to 1e-10 of its largest entry (at least 1)."""
    scale_ref = max(1.0, *(np.abs(b).max(initial=0.0) for b in g.blocks))
    # block r is X[r, r ^ d], and its transpose is block r ^ d; for d = 1 the comparison of
    # block 1 is the transpose of that of block 0
    asym = max(np.abs(b - g.blocks[r ^ g.degree].T).max(initial=0.0)
               for r, b in enumerate(g.blocks[:2 - g.degree]))
    if asym > 1e-10 * scale_ref:
        raise ValueError(f"{what} requires a symmetric matrix")


def block_norm(blocks) -> float:
    """The largest singular value over the blocks; 0 for none.

    Each block's is ``s * sqrt(lambda_max(Y^T Y))`` with ``Y = X / s`` and
    ``s = max |X|`` (the scaling keeps the Gram matrix clear of underflow),
    using the Gram matrix on the shorter side and ``eigvalsh``, which is
    cheaper than the SVD and as accurate for the largest singular value.
    A block equal to plus or minus the transpose of an earlier one, as the odd
    blocks of a symmetric or antisymmetric matrix are, is skipped.
    """
    out, seen = 0.0, []
    for x in blocks:
        s = float(np.abs(x).max(initial=0.0))
        if s == 0.0 or any(np.array_equal(x, sign * y.T) for y in seen for sign in (1.0, -1.0)):
            continue
        seen.append(x)
        y = x / s
        gram = y.T @ y if y.shape[0] >= y.shape[1] else y @ y.T
        out = max(out, s * math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)))
    return out


def identity_like(g: GradedMatrix) -> GradedMatrix:
    return GradedMatrix.from_blocks(0, tuple(np.eye(len(i)) for i in g.index), g.parity, g.index)


def grading_signs(parity: np.ndarray) -> np.ndarray:
    """(-1)^parity as a float vector."""
    return 1.0 - 2.0 * np.asarray(parity, dtype=float)


def tensor_parity(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Parity vector of the tensor product space, a-major ordering."""
    return (np.asarray(pa, dtype=np.uint8)[:, None] ^ np.asarray(pb, dtype=np.uint8)[None, :]).ravel()


def graded_tensor(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Graded tensor product of graded matrices (a-major basis ordering).

    The Koszul sign ``(-1)^{deg b * deg xi}`` only involves the degree of
    ``b`` and the parity of the first-leg basis vector, so it is absorbed by
    scaling the columns of the first factor before taking the Kronecker
    product, which is split into its blocks at once.  The degrees add.
    """
    left = a.mat * grading_signs(a.parity)[None, :] if b.degree else a.mat
    parity = tensor_parity(a.parity, b.parity)
    degree, index = a.degree ^ b.degree, parity_index(parity)
    return GradedMatrix.from_blocks(degree, _split(np.kron(left, b.mat), index, degree), parity, index)


def parity_index(parity) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the even and of the odd basis vectors, in basis order."""
    p = np.asarray(parity)
    return _frozen(np.flatnonzero(p == 0)), _frozen(np.flatnonzero(p == 1))


def window_product(sizes: tuple, *factors: GradedMatrix) -> GradedMatrix:
    """``P_W f_1 .. f_m P_W`` for two or more factors, as a matrix of the window W of
    :meth:`GradedMatrix.window`: block r is the row slab ``f_1[r, :][:k_r]`` times the
    middle factors' blocks times the column slab ``f_m[:, c][:, :k_c]``."""
    for f in factors[1:]:
        factors[0]._check_compatible(f)
    degree = sum(f.degree for f in factors) & 1
    return _on_window(factors[0], sizes, degree, [_window_block(factors, sizes, r) for r in (0, 1)])


def _window_block(factors, sizes, r: int) -> np.ndarray:
    """Block r of :func:`window_product`; ``p`` is the column parity of the partial product."""
    first, *middle, last = factors
    out, p = first.blocks[r][:sizes[r]], r ^ first.degree
    for f in middle:
        out, p = out @ f.blocks[p], p ^ f.degree
    return out @ last.blocks[p][:, :sizes[p ^ last.degree]]


def graded_commutator(a: GradedMatrix, b: GradedMatrix, sizes: tuple = WHOLE) -> GradedMatrix:
    """[a, b] = ab - (-1)^{deg a deg b} ba, or its window ``P_W [a, b] P_W`` for window ``sizes``.

    Odd-odd pairs get the anticommutator; everything else the plain
    commutator, block by block from :func:`window_product`'s slabs.  For
    symmetric a and b, ``[a, b]^T = -sign [a, b]``: a window of degree 1 forms
    block 0 only, after checking that both operands are symmetric.
    """
    sign = -1.0 if (a.degree and b.degree) else 1.0
    a._check_compatible(b)
    one_block = sizes != WHOLE and a.degree != b.degree
    for g in (a, b) if one_block else ():
        _check_symmetric(g, "a windowed commutator of degree 1")
    blocks = [_window_block((a, b), sizes, r) - sign * _window_block((b, a), sizes, r)
              for r in range(2 - one_block)]
    if one_block:
        blocks.append(-sign * blocks[0].T)
    return _on_window(a, sizes, a.degree ^ b.degree, blocks)


def involution(a: GradedMatrix) -> GradedMatrix:
    """The adjoint (transpose) as the *-operation on graded matrices.

    Block r of the transpose is ``X[r ^ d, r]^T``, the transpose of block ``r ^ d``.
    """
    return GradedMatrix.from_blocks(a.degree, tuple(a.blocks[r ^ a.degree].T for r in (0, 1)),
                                    a.parity, a.index)


def flip_simple(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Flip on a simple graded tensor: a (x) b -> (-1)^{deg a deg b} b (x) a.

    The sign is applied to the small factor b, not to the tensor.
    """
    return graded_tensor(-b if (a.degree and b.degree) else b, a)


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
    mats = [g.mat for g in gens]
    worst = 0.0
    for i, gi in enumerate(mats):
        for j, gj in enumerate(mats):
            target = 2.0 * sig.square_sign(i + 1) * np.eye(dim) if i == j else 0.0
            worst = max(worst, float(np.abs(gi @ gj + gj @ gi - target).max()))

    # span of all products of generator subsets = dimension of the image algebra
    prods = [np.eye(dim)]
    for g in mats:
        prods += [p @ g for p in prods]
    stack = np.stack([p.ravel() for p in prods])
    spanned = int(np.linalg.matrix_rank(stack, tol=1e-9))
    return gens, worst, spanned
