"""Z/2-graded matrices, held as blocks between labelled sectors, and their sign rules.

Every basis vector has a label ``l``: bit 0 is its parity, the bits above it
its signs under further diagonal +-1 symmetries (the reflections ``R_1 ..
R_n`` of the oscillator space; elsewhere the labels are the parities).  A
matrix of degree d that commutes with them is zero outside its blocks
``X[l, l ^ d]``, and every parity-block rule holds label by label.  A matrix
that commutes with fewer of them is held on the first labels only, and
:func:`regroup` moves a finer operand onto its labels.

Tensor products pick up Koszul signs: on simple tensors,
``(a (x) b)(xi (x) eta) = (-1)^{deg b * deg xi} (a xi) (x) (b eta)``, the
sign :func:`graded_tensor` puts on the first factor's odd columns.  All the
sign laws here (commutators, involution, flip) reduce to that one rule.  A
tensor label is the total parity and both factors' bits above their parity;
the tensor space's basis is ordered by label, then by the parity of the first
leg, then a-major (:func:`tensor_pairs`), so each block of ``a (x) b`` is two
Kronecker products of the factors' own blocks.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .clifford import Signature, blade_parities, matrix_relation_residual, regular_representation


class GradedMatrix:
    """A read-only square real matrix of one degree d, held as ``blocks[l] = X[l, l ^ d]``.

    Block l maps the basis vectors of label ``l ^ d`` to those of label l, and
    every other entry is zero; ``labels`` gives each basis index its label,
    ``parity`` its bit 0, and ``index[l]`` the indices of label l in basis
    order.  Built from an array and a parity vector, the labels are the
    parities: it copies the array's two blocks, so a later write into the
    array does not reach it, and raises ``ValueError`` when both degrees have
    a nonzero entry (the zero matrix is even).  ``mat`` assembles a new
    read-only dense array on each access, for oracles and small inputs.  Every
    array held is read-only and no field can be rebound.  ``transpose`` is the
    law ``X^T = transpose * X`` (+1 or -1) that its construction fixes, or None;
    so block ``l ^ 1`` of a degree-1 matrix with a law is plus or minus the
    transpose of block l, and its norm reads the even labels' blocks only.
    """

    def __init__(self, mat, parity):
        mat, raw = np.asarray(mat, dtype=float), np.asarray(parity)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"graded matrix must be square, got shape {mat.shape}")
        if raw.shape != (mat.shape[0],):
            raise ValueError("parity vector length must match matrix dimension")
        if not np.isin(raw, (0, 1)).all():  # before the cast, which reads 0.5 as 0 and -1 as an overflow
            raise ValueError("parities must be 0 or 1")
        parity = raw.astype(np.uint8)
        index = label_index(parity, 2)
        split = [_split(mat, index, d) for d in (0, 1)]
        present = [d for d in (0, 1) if any(b.any() for b in split[d])]
        if len(present) > 1:
            raise ValueError("the matrix has nonzero entries of both degrees; build one graded matrix from "
                             "its even part (rows and columns of equal parity) and one from its odd part")
        degree = max(present, default=0)
        self._set_blocks(degree, split[degree], parity, index)

    @staticmethod
    def from_blocks(degree: int, blocks, labels, index=None, transpose: int | None = None) -> "GradedMatrix":
        """The degree-d matrix with ``blocks[l] = X[l, l ^ d]`` and the transpose law its builder
        fixes; ``index`` is ``label_index(labels, len(blocks))``, passed on by callers that hold it."""
        out = object.__new__(GradedMatrix)
        out._set_blocks(degree, blocks, labels, index, transpose)
        return out

    def _set_blocks(self, degree: int, blocks, labels, index=None, transpose: int | None = None):
        """Make this the matrix of :meth:`from_blocks`; the blocks are frozen, not copied."""
        labels = _frozen(np.asarray(labels, dtype=np.uint16))
        if index is None and np.any(labels >= len(blocks)):
            raise ValueError(f"a label has no block: {len(blocks)} blocks hold labels 0 .. {len(blocks) - 1} only")
        index = label_index(labels, len(blocks)) if index is None else index
        for r, block in enumerate(blocks):
            if block.shape != (len(index[r]), len(index[r ^ degree])):
                raise ValueError(f"block {r} has shape {block.shape}, which does not fit the labels")
        self.degree, self.labels, self.index, self.transpose = degree, labels, index, transpose
        self.parity = _frozen((labels & 1).astype(np.uint8))
        self.blocks = tuple(_frozen(b) for b in blocks)

    def __setattr__(self, name, value):
        if name in ("degree", "labels", "parity", "index", "blocks", "transpose") and name in self.__dict__:
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
        zero = tuple(np.zeros((len(i), len(self.index[r ^ p]))) for r, i in enumerate(self.index))
        return GradedMatrix.from_blocks(p, zero, self.labels, self.index)

    def on_labels(self, keep, labels, index) -> "GradedMatrix":
        """This matrix on the states of the labels ``keep``, a set it leaves invariant, in order and
        closed under ``l -> l ^ 1``: label j of the result, given by ``labels`` and ``index``, is
        ``keep[j]``, and its blocks are this matrix's blocks at ``keep``, not copies."""
        out = object.__new__(type(self))
        out._set_blocks(self.degree, [self.blocks[r] for r in keep], labels, index, self.transpose)
        return out

    def _check_compatible(self, other: "GradedMatrix"):
        if self.labels is other.labels:
            return
        if len(self.labels) != len(other.labels) or np.any(self.labels != other.labels):
            raise ValueError("graded matrices live on different graded spaces")

    def _linear(self, other: "GradedMatrix", op) -> "GradedMatrix":
        """``op`` (np.add or np.subtract) entrywise, block by block."""
        if other.degree != self.degree:
            raise ValueError(f"cannot add graded matrices of degrees {self.degree} and {other.degree}: "
                             "the result would have both; keep the two degrees as separate matrices")
        self._check_compatible(other)
        blocks = tuple(op(x, y) for x, y in zip(self.blocks, other.blocks))
        return GradedMatrix.from_blocks(self.degree, blocks, self.labels, self.index)

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self._linear(other, np.add)

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self._linear(other, np.subtract)

    def __neg__(self) -> "GradedMatrix":
        return -1.0 * self

    def __rmul__(self, scalar: float) -> "GradedMatrix":
        blocks = tuple(float(scalar) * b for b in self.blocks)
        return GradedMatrix.from_blocks(self.degree, blocks, self.labels, self.index)

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        """Block l of a degree-da by degree-db product is ``A[l, l^da] @ B[l^da, l^da^db]``."""
        return window_product(WHOLE, self, other)

    def window(self, sizes: tuple) -> "GradedMatrix":
        """``P_W X P_W`` as a matrix of the window W of the first ``sizes[l]`` basis vectors of
        every label l; its blocks are the leading parts of this matrix's blocks."""
        blocks = [b[:sizes[r], :sizes[r ^ self.degree]] for r, b in enumerate(self.blocks)]
        return _on_window(self, sizes, self.degree, blocks, self.transpose)

    def norm(self) -> float:
        """Spectral norm: :func:`block_norm` of the blocks, the even labels' only at degree 1 with a law."""
        return block_norm(self.blocks[::2] if self.degree and self.transpose else self.blocks)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only."""
    a.flags.writeable = False
    return a


def label_index(labels, count: int) -> tuple:
    """The basis indices of every label ``0 .. count - 1``, each in basis order."""
    return tuple(_frozen(np.flatnonzero(np.asarray(labels) == r)) for r in range(count))


def _split(mat: np.ndarray, index, degree: int) -> tuple:
    """The read-only blocks ``X[l, l ^ d]`` of a dense matrix."""
    return tuple(_frozen(mat.take(i, axis=0).take(index[r ^ degree], axis=1)) for r, i in enumerate(index))


def _assemble(degree: int, blocks, index) -> np.ndarray:
    """The dense matrix holding ``blocks[l] = X[l, l ^ d]``, zero elsewhere."""
    dim = sum(len(i) for i in index)
    out = np.zeros((dim, dim))
    for r, block in enumerate(blocks):
        out[np.ix_(index[r], index[r ^ degree])] = block
    return out


class _Whole:
    """The window sizes that keep every basis vector: ``x[:None]`` is all of x, whatever the label."""

    def __getitem__(self, label):
        return None


WHOLE = _Whole()


def _on_window(g: GradedMatrix, sizes, degree: int, blocks, transpose: int | None = None) -> GradedMatrix:
    """The degree-d matrix with ``blocks`` and transpose law ``transpose`` on the window of g's space
    that holds the first ``sizes[l]`` basis vectors of every label l, in basis order."""
    if all(sizes[r] in (None, len(i)) for r, i in enumerate(g.index)):
        return GradedMatrix.from_blocks(degree, blocks, g.labels, g.index, transpose)
    return GradedMatrix.from_blocks(degree, blocks, *_window_layout(g.labels.tobytes(), tuple(sizes)), transpose)


@lru_cache(maxsize=64)
def _window_layout(labels: bytes, sizes: tuple) -> tuple:
    """The labels and ``label_index`` of the window that keeps the first ``sizes[l]`` basis vectors
    of every label l of the space with these labels (uint16 bytes), read-only and shared."""
    labels = np.frombuffer(labels, dtype=np.uint16)
    keep = np.sort(np.concatenate([i[:k] for i, k in zip(label_index(labels, len(sizes)), sizes)]))
    labels = _frozen(labels[keep])
    return labels, label_index(labels, len(sizes))


def _check_symmetric(g: GradedMatrix, what: str) -> GradedMatrix:
    """g, when its transpose law is +1; else g's blocks under law +1 when g is symmetric to 1e-10
    of its largest entry (at least 1), checked on every call, or ``ValueError``."""
    if g.transpose == 1:
        return g
    scale_ref = max(1.0, *(np.abs(b).max(initial=0.0) for b in g.blocks))
    # the transpose of block l is block l ^ d; for d = 1 an odd label repeats its even partner
    asym = max(np.abs(b - g.blocks[r ^ g.degree].T).max(initial=0.0)
               for r, b in enumerate(g.blocks) if not r & g.degree)
    if asym > 1e-10 * scale_ref:
        raise ValueError(f"{what} requires a symmetric matrix")
    return GradedMatrix.from_blocks(g.degree, g.blocks, g.labels, g.index, 1)


# the relative slack of the certificate by which block_norm skips a block: label blocks come in pairs
# of exactly equal norms, which without it fail the certificate on rounding.  Right multiplication by
# the volume element (oscillator) is why: it carries block l of C, D, every multiplication operator
# and every product and function of them to plus or minus block l ^ m, up to the signs of its rows
# and columns, where m flips every reflection bit (and the parity when n is odd)
NORM_SLACK = 1e-12


def block_norm(blocks) -> float:
    """The largest singular value over the blocks, to within ``NORM_SLACK / 2`` relative below it;
    0 for none.

    A block's is ``s * sqrt(lambda_max(Y^T Y))`` with ``Y = X / s`` and
    ``s = max |X|`` (the scaling keeps the Gram matrix clear of underflow),
    using the Gram matrix on the shorter side and ``eigvalsh``, which is
    cheaper than the SVD and as accurate for the largest singular value.  The
    blocks are read in turn, and one is skipped when it cannot raise the
    running maximum m by more than the slack: when its Frobenius norm
    ``s * ||Y||_F`` is at most m, or when ``c I - Y^T Y`` with
    ``c = (m / s)^2 (1 + NORM_SLACK)`` has a Cholesky factor, so that its
    largest singular value is below ``m sqrt(1 + NORM_SLACK)``.  A block with
    a non-finite entry makes the norm NaN, whatever the other blocks hold.
    """
    out = 0.0
    for x in blocks:
        s = float(np.abs(x).max(initial=0.0))
        if not math.isfinite(s):
            return math.nan
        if s == 0.0:
            continue
        y = x / s
        if out > 0.0 and s * float(np.linalg.norm(y)) <= out:
            continue
        gram = y.T @ y if y.shape[0] >= y.shape[1] else y @ y.T
        del y  # before the factorisation, which takes two more arrays of the Gram matrix's size
        if out > 0.0 and _bounded(gram, (out / s) ** 2 * (1.0 + NORM_SLACK)):
            continue
        out = max(out, s * math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)))
    return out


def _bounded(gram: np.ndarray, c: float) -> bool:
    """Whether ``c I - gram`` has a Cholesky factor, which bounds every eigenvalue of gram by c.
    The shift is made in gram itself and undone exactly when the factor does not exist."""
    diagonal = gram.diagonal().copy()
    np.negative(gram, out=gram)
    np.fill_diagonal(gram, c - diagonal)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        np.negative(gram, out=gram)
        np.fill_diagonal(gram, diagonal)
        return False
    return True


def signed(x: GradedMatrix, signs, shift: int = 0) -> GradedMatrix:
    """``T x T^-1`` for the map T that multiplies the basis vectors of label l by the +-1 vector
    ``signs[l]`` and carries them, in order, to label ``l ^ shift``.

    Block ``l ^ shift`` of a degree-d x is block l times ``signs[l]`` on its rows and ``signs[l ^ d]``
    on its columns, each cut to the block, so that a window of x fits, as do coarser labels when
    ``signs`` is given on them.  T is orthogonal, so x's transpose law holds for the result too.
    Every entry is one entry of x times two signs: exact, and NaN on a NaN.
    """
    d, blocks = x.degree, [None] * len(x.blocks)
    for r, b in enumerate(x.blocks):
        blocks[r ^ shift] = signs[r][:len(b), None] * b * signs[r ^ d][:b.shape[1]]
    return GradedMatrix.from_blocks(d, blocks, x.labels, x.index, x.transpose)


def largest_entry(values) -> float:
    """The largest absolute entry over arrays or numbers, 0 for none; NaN when any entry is NaN,
    which Python's ``max`` would drop unless it came first."""
    return float(np.max([np.abs(v).max(initial=0.0) for v in values], initial=0.0))


def identity_like(g: GradedMatrix) -> GradedMatrix:
    return GradedMatrix.from_blocks(0, tuple(np.eye(len(i)) for i in g.index), g.labels, g.index)


def grading_signs(parity: np.ndarray) -> np.ndarray:
    """(-1)^parity as a float vector."""
    return 1.0 - 2.0 * np.asarray(parity, dtype=float)


def _label_bits(labels: np.ndarray) -> int:
    """The bits of a label vector, at least one: its labels are ``0 .. 2^bits - 1``."""
    return max(1, int(labels.max(initial=0)).bit_length())


@lru_cache(maxsize=16)
def _tensor_layout(la: bytes, lb: bytes) -> tuple:
    """``(i, j, labels, index)`` of the tensor space of factors with labels la, lb (uint16 bytes):
    :func:`tensor_pairs`, the tensor labels, and their ``label_index``."""
    la, lb = (np.frombuffer(x, dtype=np.uint16).astype(np.intp) for x in (la, lb))
    ka, kb = _label_bits(la), _label_bits(lb)
    i, j = np.divmod(np.arange(len(la) * len(lb)), len(lb))  # a-major, then sorted stably
    # the total parity, a's bits above its parity, then b's
    labels = ((la[i] ^ lb[j]) & 1) | (la[i] >> 1 << 1) | (lb[j] >> 1 << ka)
    order = np.argsort(2 * labels + (la[i] & 1), kind="stable")
    labels = _frozen(labels[order].astype(np.uint16))
    return _frozen(i[order]), _frozen(j[order]), labels, label_index(labels, 1 << (ka + kb - 1))


def _layout_of(la, lb) -> tuple:
    return _tensor_layout(*(np.asarray(x, dtype=np.uint16).tobytes() for x in (la, lb)))


@lru_cache(maxsize=32)
def _tensor_plan(la: bytes, lb: bytes, da: int, db: int) -> tuple:
    """``(labels, index, plan)`` for :func:`graded_tensor` of factors of degrees da, db with labels
    la, lb (uint16 bytes): ``plan`` holds, for every tensor label, the shape of its block and its two
    runs ``(a's label, b's label, rows, columns, (m, p, n, q), negated)``: the Kronecker product of
    a's m x n block and b's p x q block, written into those rows and columns, and whether the
    Koszul sign negates it."""
    _, _, labels, index = _tensor_layout(la, lb)
    la, lb = (np.frombuffer(x, dtype=np.uint16) for x in (la, lb))
    ka, degree = _label_bits(la), da ^ db
    counts = [np.bincount(x, minlength=1 << _label_bits(x)) for x in (la, lb)]

    def run(r: int, s: int) -> tuple:
        """Run s of label r: the pairs of a's label s | ra and b's label s ^ r | rb, and its first row."""
        fa, fb = s | r & ((1 << ka) - 2), s ^ r & 1 | r >> ka << 1
        return fa, fb, 0 if s == 0 else int(counts[0][fa ^ 1] * counts[1][fb ^ 1])

    plan = []
    for r in range(len(index)):
        runs = []
        for s in (0, 1):
            fa, fb, row = run(r, s)
            (m, n), (p, q) = (counts[0][fa], counts[0][fa ^ da]), (counts[1][fb], counts[1][fb ^ db])
            col = run(r ^ degree, s ^ da)[2]
            runs.append((fa, fb, slice(row, row + m * p), slice(col, col + n * q), (m, p, n, q),
                         bool(db and s ^ da)))
        plan.append(((len(index[r]), len(index[r ^ degree])), tuple(runs)))
    return labels, index, tuple(plan)


def tensor_pairs(la: np.ndarray, lb: np.ndarray) -> tuple:
    """The factor indices ``(i, j)`` of every basis vector ``xi_i (x) eta_j`` of the tensor space of
    factors with labels la and lb (a parity vector is a label vector of two labels), read-only and
    shared between calls.

    The label of ``xi_i (x) eta_j`` is its parity, then the bits of ``la[i]`` above its parity, then
    those of ``lb[j]`` (:func:`tensor_labels`).  The basis is ordered by label, then by the parity of
    ``xi_i``, then a-major: the vectors of a label whose first leg has parity s are the pairs of one
    label of ``xi_i`` and one of ``eta_j``, a-major, in one run.  Factors on their parities give the
    order by parity, then by the parity of ``xi_i``.
    """
    return _layout_of(la, lb)[:2]


def tensor_labels(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """The label of every basis vector of the tensor space, in the order of :func:`tensor_pairs`."""
    return _layout_of(la, lb)[2]


def graded_tensor(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Graded tensor product of graded matrices, on the basis and labels of :func:`tensor_pairs`.

    Each factor commutes with the reflections its labels hold, so the product is zero between
    labels of different reflection bits.  In block ``l`` of parity r, with a's bits ``ra`` and
    b's ``rb``, the rows whose first leg has parity s meet only the columns whose first leg has
    parity ``t = s ^ deg a``, and there the block is the Kronecker product of the factors' blocks
    at a's label ``s | ra`` and b's label ``s ^ r | rb``, negated by the Koszul sign
    ``(-1)^{deg b * deg xi}`` when b and the column leg xi are odd.  Each product is written in
    place into its slice of the block, so nothing the size of the whole tensor space is formed.
    The degrees add.
    """
    labels, index, plan = _tensor_plan(a.labels.tobytes(), b.labels.tobytes(), a.degree, b.degree)
    blocks = []
    for shape, runs in plan:
        out = np.zeros(shape)
        for fa, fb, rows, cols, shape4, negated in runs:
            view = out[rows, cols].reshape(shape4)
            np.multiply(a.blocks[fa][:, None, :, None], b.blocks[fb][None, :, None, :], out=view)
            if negated:
                view *= -1.0  # numpy 2.4's in-place np.negative misreads a one-column slice
        blocks.append(out)
    degree = a.degree ^ b.degree
    return GradedMatrix.from_blocks(degree, blocks, labels, index)


def regroup(g: GradedMatrix, count: int) -> GradedMatrix:
    """g on the coarser labels ``g.labels & (count - 1)``, for a power of two ``count`` (g itself
    when it has ``count`` labels): block c holds g's blocks f with ``f & (count - 1) == c``, each
    scattered into the rows and columns of its labels, and zeros between them; g's transpose law holds."""
    if len(g.index) == count:
        return g
    labels = g.labels & (count - 1)
    index = label_index(labels, count)
    blocks = [np.zeros((len(i), len(index[c ^ g.degree]))) for c, i in enumerate(index)]
    for f, b in enumerate(g.blocks):
        c = f & (count - 1)
        rows, cols = (np.searchsorted(index[k], g.index[j]) for k, j in ((c, f), (c ^ g.degree, f ^ g.degree)))
        blocks[c][rows[:, None], cols] = b
    return GradedMatrix.from_blocks(g.degree, blocks, labels, index, g.transpose)


def window_product(sizes: tuple, *factors: GradedMatrix) -> GradedMatrix:
    """``P_W f_1 .. f_m P_W`` for two or more factors, as a matrix of the window W of
    :meth:`GradedMatrix.window`: block l is the row slab ``f_1[l, :][:k_l]`` times the
    middle factors' blocks times the column slab ``f_m[:, c][:, :k_c]``."""
    for f in factors[1:]:
        factors[0]._check_compatible(f)
    degree = sum(f.degree for f in factors) & 1
    blocks = [_window_block(factors, sizes, r) for r in range(len(factors[0].index))]
    return _on_window(factors[0], sizes, degree, blocks)


def _window_block(factors, sizes, r: int) -> np.ndarray:
    """Block r of :func:`window_product`; ``p`` is the column label of the partial product."""
    first, *middle, last = factors
    out, p = first.blocks[r][:sizes[r]], r ^ first.degree
    for f in middle:
        out, p = out @ f.blocks[p], p ^ f.degree
    return out @ last.blocks[p][:, :sizes[p ^ last.degree]]


def graded_commutator(a: GradedMatrix, b: GradedMatrix, sizes: tuple = WHOLE) -> GradedMatrix:
    """[a, b] = ab - (-1)^{deg a deg b} ba, or its window ``P_W [a, b] P_W`` for window ``sizes``.

    Odd-odd pairs get the anticommutator; everything else the plain
    commutator, block by block from :func:`window_product`'s slabs.  A window
    takes symmetric operands (one whose transpose law is not +1 is checked on
    every call), so ``ba = (ab)^T`` and ``[a, b]^T = -sign [a, b]``, its law:
    block l of an even window is ``P - sign P^T`` with ``P = (ab)[l, l]``, one
    slab product per label, and a window of degree 1 forms the blocks of the
    even labels only.
    """
    sign = -1.0 if (a.degree and b.degree) else 1.0
    a._check_compatible(b)
    degree, count, windowed = a.degree ^ b.degree, len(a.index), sizes is not WHOLE
    if windowed:
        a, b = (_check_symmetric(g, "a windowed commutator") for g in (a, b))
    if windowed and not degree:
        products = (_window_block((a, b), sizes, r) for r in range(count))
        return _on_window(a, sizes, degree, [p - sign * p.T for p in products], int(-sign))
    formed = range(0, count, 1 + windowed)
    blocks = {r: _window_block((a, b), sizes, r) - sign * _window_block((b, a), sizes, r) for r in formed}
    if windowed:
        blocks.update({r ^ 1: -sign * blocks[r].T for r in formed})
    return _on_window(a, sizes, degree, [blocks[r] for r in range(count)], int(-sign) if windowed else None)


def involution(a: GradedMatrix) -> GradedMatrix:
    """The adjoint (transpose) as the *-operation on graded matrices.

    Block l of the transpose is ``X[l ^ d, l]^T``, the transpose of block ``l ^ d``.
    """
    return GradedMatrix.from_blocks(a.degree, tuple(a.blocks[r ^ a.degree].T for r in range(len(a.blocks))),
                                    a.labels, a.index)


def flip_simple(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Flip on a simple graded tensor: a (x) b -> (-1)^{deg a deg b} b (x) a.

    The sign is applied to the small factor b, not to the tensor.
    """
    return graded_tensor(-b if (a.degree and b.degree) else b, a)


def flip_unitary(la: np.ndarray, lb: np.ndarray) -> tuple:
    """The signed permutation xi (x) eta -> (-1)^{deg xi deg eta} eta (x) xi, as ``(row, sign)``.

    For factors with labels la and lb, each tensor space ordered as :func:`tensor_pairs` orders
    it, basis vector p of the (a, b) space, ``xi_i (x) eta_j``, goes to ``sign[p]`` times basis
    vector ``row[p]`` of the (b, a) space, ``eta_j (x) xi_i``.  Conjugation by it carries
    ``graded_tensor(a, b)`` to ``flip_simple(a, b)``, and every label of the (a, b) space onto one
    label of the (b, a) space, of the same parity.
    """
    la, lb = np.asarray(la, dtype=np.uint16), np.asarray(lb, dtype=np.uint16)
    (i, j), (jb, ib) = tensor_pairs(la, lb), tensor_pairs(lb, la)
    row = np.argsort(jb * len(la) + ib)[j * len(la) + i]
    return row, 1.0 - 2.0 * (la[i] & lb[j] & 1)


def tensor_product_witness(sig1: Signature, sig2: Signature):
    """Realize the joined algebra inside the graded tensor of two regular reps.

    The generator images are ``e_i (x) 1`` from the first factor and
    ``1 (x) e_j`` from the second, listed with all +1-square generators
    before the -1-square ones so they line up with how the joined signature
    ``(p1 + p2, q1 + q2)`` orders its generators.  The graded tensor signs
    are exactly what makes these satisfy the joined anticommutation
    relations.  Returns (max relation residual, spanned dimension).
    """
    par1, par2 = blade_parities(sig1), blade_parities(sig2)
    id1, id2 = (GradedMatrix(np.eye(len(p)), p) for p in (par1, par2))
    lift = (lambda g: graded_tensor(GradedMatrix(g, par1), id2), lambda g: graded_tensor(id1, GradedMatrix(g, par2)))
    mats = [lift[f](g).mat for sign in (+1, -1) for f, s in enumerate((sig1, sig2))
            for i, g in enumerate(regular_representation(s), 1) if s.square_sign(i) == sign]
    worst = matrix_relation_residual(mats, Signature(sig1.p + sig2.p, sig1.q + sig2.q))

    # span of all products of generator subsets = dimension of the image algebra
    prods = [np.eye(sig1.blade_count * sig2.blade_count)]
    for g in mats:
        prods += [p @ g for p in prods]
    spanned = int(np.linalg.matrix_rank(np.stack([p.ravel() for p in prods]), tol=1e-9))
    return worst, spanned
