"""Truncated harmonic-oscillator model with Clifford-valued coefficients.

The Hilbert space is spanned by products of normalized Hermite functions
``psi_k1(x_1) .. psi_kn(x_n)`` with total level ``k_1 + .. + k_n <= level``,
tensored with the ``2^n`` blades of the Euclidean Clifford algebra; blade
degree provides the grading.  On it live the odd operators

    C = sum_i  (x_i .) (x) lambda(e_i)        (position part)
    D = sum_i  (d/dx_i) (x) rho~(e_i)         (derivative part)
    B = C + D                                 (the supercharge)

where lambda is left multiplication and rho~ the grading-twisted right
multiplication.  The square B^2 = C^2 + D^2 + N holds exactly on the
interior window (total level <= level - 2); outside it, truncation edge
effects appear, which is why every spectral statement here is windowed.

The reflection ``R_i = (-1)^{k_i} (x) lambda(e_i) rho~(e_i)``, the sign
``(-1)^(k_i + b_i)`` of Hermite index k_i and blade bit b_i on axis i,
commutes with C, D, N and the operators of the symbols uP and vP, so they are
held as ``2^(n+1)`` blocks on the labels of :meth:`HermiteBasis.labels`:
parity and the signs of ``R_2 .. R_n`` and ``R_1``.  The signs and the parity
fix the total level's parity, so each label holds the states of one level
parity, one blade per spatial state.  The shifted bump breaks ``R_1``; its
operator is held on the ``2^n`` labels without the ``R_1`` bit, of
``S = C(level + n, n)`` states each.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .clifford import (
    MultiVector,
    Signature,
    blade_parities,
    blade_parity,
    left_mult_operator,
    number_operator,
    twisted_right_mult_operator,
)
from .funcalc import GradedFunction, SpectralMatrix, matrix_function, scale
from .graded import GradedMatrix, _frozen, label_index, regroup, window_product


# ---------------------------------------------------------------------------
# one-dimensional building blocks


def position_matrix(level: int) -> np.ndarray:
    """Multiplication by x on Hermite functions 0..level (tridiagonal)."""
    if level < 1:
        raise ValueError("level must be >= 1")
    off = np.sqrt((np.arange(level) + 1) / 2.0)
    return np.diag(off, 1) + np.diag(off, -1)


@lru_cache(maxsize=64)
def _gh_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes/weights for the weight exp(-x^2), read-only: every caller shares them."""
    x, w = np.polynomial.hermite.hermgauss(count)
    return _frozen(x), _frozen(w)


def hermite_rows(kmax: int, x: np.ndarray) -> np.ndarray:
    """Values of the Gaussian-stripped normalized Hermite functions.

    Row k evaluated at the points x equals psi_k(x) * exp(x^2 / 2); against
    the Gauss-Hermite weight exp(-x^2) these rows are orthonormal, so
    quadrature Gram matrices built from them converge to Hermite-function
    matrix elements.
    """
    rows = np.empty((kmax + 1, len(x)))
    rows[0] = math.pi ** -0.25
    if kmax >= 1:
        rows[1] = math.sqrt(2.0) * x * rows[0]
    for k in range(1, kmax):
        rows[k + 1] = math.sqrt(2.0 / (k + 1)) * x * rows[k] - math.sqrt(k / (k + 1)) * rows[k - 1]
    return rows


# ---------------------------------------------------------------------------
# basis


@lru_cache(maxsize=None)
def _simplex_mindices(dim: int, level: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], budget: int):
        if len(prefix) == dim:
            out.append(prefix)
            return
        for k in range(budget + 1):
            rec(prefix + (k,), budget - k)

    rec((), level)
    out.sort(key=lambda m: (sum(m), m))
    return tuple(out)


@dataclass(frozen=True)
class HermiteBasis:
    """Indexing data for the truncated oscillator space.

    Basis order is spatial-major: full index = position in ``mindices`` *
    2^dim + blade_mask, with multi-indices sorted by total level then
    lexicographically.
    """

    dim: int
    level: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.level < 4:
            raise ValueError("level must be >= 4")

    @property
    def sig(self) -> Signature:
        return Signature(self.dim, 0)

    @property
    def mindices(self) -> tuple[tuple[int, ...], ...]:
        return _simplex_mindices(self.dim, self.level)

    @property
    def spatial_size(self) -> int:
        return len(self.mindices)

    @property
    def blade_count(self) -> int:
        return 1 << self.dim

    @property
    def size(self) -> int:
        return self.spatial_size * self.blade_count

    def parity(self) -> np.ndarray:
        """Blade parity of every full basis index."""
        return np.tile(blade_parities(self.sig), self.spatial_size)

    def labels(self) -> np.ndarray:
        """Label of every full basis index: bit 0 its parity, bit i in 1..n-1 its R_(i+1) sign bit
        k + b mod 2 on axis i + 1, and bit n its R_1 sign bit."""
        k = np.repeat(np.array(self.mindices), self.blade_count, axis=0)
        blades = np.tile(np.arange(self.blade_count), self.spatial_size)
        bits = (k + (blades[:, None] >> np.arange(self.dim))) & 1
        bits = np.column_stack([self.parity(), bits[:, 1:], bits[:, 0]])
        return (bits << np.arange(self.dim + 1)).sum(axis=1)

    def interior_mask(self, depth: int = 2) -> np.ndarray:
        """Boolean mask of the full basis indices with total level <= level - depth."""
        return np.repeat([sum(m) <= self.level - depth for m in self.mindices], self.blade_count)


# ---------------------------------------------------------------------------
# operator assembly


@dataclass(frozen=True, eq=False)
class OscillatorRep:
    """Immutable operator context on one truncated basis.

    C, D, B and H = C^2 + D^2 are :class:`SpectralMatrix` objects: one
    read-only block per label each, diagonalised per block at most once, on
    first use, for every caller and thread that shares the context.
    """

    basis: HermiteBasis
    clifford: SpectralMatrix  # position part C
    dirac: SpectralMatrix     # derivative part D
    bott: SpectralMatrix      # supercharge B = C + D
    number: GradedMatrix      # blade number operator N
    harmonic: SpectralMatrix  # H = C^2 + D^2

    def window(self, depth: int = 2, count: int | None = None) -> tuple:
        """The number of states of total level <= level - depth of every label, or of every label
        ``c < count`` of the coarser labels ``labels & (count - 1)`` (:func:`~bottlab.graded.regroup`).

        The basis is ordered by total level, so inside a matrix of degree d the
        window is the leading ``window[l]`` rows and ``window[l ^ d]`` columns
        of block l.
        """
        if not 0 <= depth <= self.basis.level:
            raise ValueError(f"window depth must lie in 0..{self.basis.level}, got {depth}")
        mask = self.basis.interior_mask(depth)
        fine = [int(np.count_nonzero(mask[i])) for i in self.bott.index]
        count = count or len(fine)
        return tuple(sum(fine[c::count]) for c in range(count))


@lru_cache(maxsize=16)
def _label_layout(basis: HermiteBasis, count: int) -> tuple:
    """The labels ``basis.labels() & (count - 1)`` and their ``label_index``, read-only and shared
    by every operator held on them."""
    labels = _frozen((basis.labels() & (count - 1)).astype(np.uint16))
    return labels, label_index(labels, count)


def _spatial_blade_operator(basis: HermiteBasis, degree: int, terms, count: int = 0) -> GradedMatrix:
    """The sum of ``(A_1 (x) .. (x) A_n) (x) L`` over ``terms = [((A_1, .., A_n), L), ..]`` on the
    truncated basis, every A_i a matrix on the Hermite indices 0..level of axis i and every L of the
    given degree d, held on the labels ``basis.labels() & (count - 1)``, all of them by default.

    Entry ``((m, b), (m', b'))`` of a term is ``A_1[m_1, m'_1] .. A_n[m_n, m'_n] L[b, b']``, and label
    l holds one blade ``b_l(m)`` per spatial state m of its states ``m_l``, so block l is
    ``L[b_l, b_(l ^ d)]`` times the gathers ``A_i[m_l, m_(l ^ d)]``; no entry between other labels is
    formed, so every term must commute with the reflections the labels hold.
    """
    count = count or 2 * basis.blade_count
    labels, index = _label_layout(basis, count)
    states, blades = zip(*(np.divmod(i, basis.blade_count) for i in index))
    k = np.array(basis.mindices)
    # the labels share few sets of states (one level parity each, or all of them), and each term's
    # spatial block between two sets is formed once
    sets, spatial = [m.tobytes() for m in states], {}

    def block(r: int, t: int, axes, blade_op) -> np.ndarray:
        rows, cols = states[r], states[r ^ degree]
        key = t, sets[r], sets[r ^ degree]
        if key not in spatial:
            spatial[key] = reduce(np.multiply, [a[k[rows, i][:, None], k[cols, i]] for i, a in enumerate(axes)])
        return spatial[key] * blade_op[blades[r][:, None], blades[r ^ degree]]

    blocks = [sum(block(r, t, *term) for t, term in enumerate(terms)) for r in range(count)]
    return GradedMatrix.from_blocks(degree, blocks, labels, index)


def _axis_terms(basis: HermiteBasis, one_d: np.ndarray, blade_ops) -> list:
    """The terms ``(1 (x) .. (x) A (x) .. (x) 1, L_i)`` with the 1-D matrix A on axis i, for the
    blade operators ``L_1 .. L_n``."""
    eye = np.eye(basis.level + 1)
    return [(tuple(one_d if j == i else eye for j in range(basis.dim)), op) for i, op in enumerate(blade_ops)]


def clifford_operator(basis: HermiteBasis) -> GradedMatrix:
    """C = sum_i x_i (x) lambda(e_i); odd, symmetric.  On the truncated basis, x_i is the restriction
    of the 1-D position matrix on axis i."""
    return _spatial_blade_operator(basis, 1, _axis_terms(basis, position_matrix(basis.level), [
        left_mult_operator(MultiVector.generator(basis.sig, i + 1)) for i in range(basis.dim)]))


def dirac_operator(basis: HermiteBasis) -> GradedMatrix:
    """D = sum_i d/dx_i (x) rho~(e_i); odd, symmetric.

    Both factors of each summand are antisymmetric, so their Kronecker
    product is symmetric even though neither factor is.  The 1-D d/dx is
    the position matrix with its lower half negated.
    """
    x = position_matrix(basis.level)
    return _spatial_blade_operator(basis, 1, _axis_terms(basis, np.triu(x) - np.tril(x), [
        twisted_right_mult_operator(MultiVector.generator(basis.sig, i + 1)) for i in range(basis.dim)]))


def blade_number_operator(basis: HermiteBasis) -> GradedMatrix:
    """N = 1 (x) sum_i rho~(e_i) lambda(e_i); diagonal, eigenvalue 2d - n."""
    return _spatial_blade_operator(basis, 0, [((np.eye(basis.level + 1),) * basis.dim, number_operator(basis.sig))])


def context_bytes(dim: int, level: int) -> int:
    """An upper bound on the bytes of the context at (dim, level), from binomials: per pair of labels
    l, l ^ 1 (2^dim pairs, of ``S = C(level + dim, dim)`` states together), nine S x S arrays of
    doubles, more than the blocks of C, D, B, N and H and the eigensystems of C, D, B (U and V per
    even label) and H (w and Q per label) take on the pair's a + b = S states:
    ``6ab + 6(a^2 + b^2) + 4S <= 9 S^2``."""
    return 8 * 9 * (1 << dim) * math.comb(level + dim, dim) ** 2


@lru_cache(maxsize=8)
def _context(dim: int, level: int) -> OscillatorRep:
    basis = HermiteBasis(dim, level)
    c = clifford_operator(basis)
    d = dirac_operator(basis)
    return OscillatorRep(
        basis,
        SpectralMatrix(c),
        SpectralMatrix(d),
        SpectralMatrix(c + d),
        blade_number_operator(basis),
        SpectralMatrix(c @ c + d @ d),
    )


_CONTEXT_LOCK = threading.Lock()


def oscillator_rep(dim: int, level: int) -> OscillatorRep:
    """The shared operator context for (dim, level), built once.

    The lock makes concurrent first calls share one context, and with it
    one eigendecomposition per operator; the LRU bounds the number kept.
    """
    with _CONTEXT_LOCK:
        return _context(dim, level)


oscillator_rep.cache_clear = _context.cache_clear


def b_squared_identity_check(rep: OscillatorRep) -> float:
    """Interior-windowed residual of B^2 = C^2 + D^2 + N (spectral norm)."""
    w = rep.window()
    return (window_product(w, rep.bott, rep.bott) - rep.harmonic.window(w) - rep.number.window(w)).norm()


# ---------------------------------------------------------------------------
# spectra


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    clusters: list[tuple[float, int]]
    window: float
    kernel_overlap: float


_CLUSTER_TOL = 1e-8


def _cluster(values: np.ndarray, tol: float) -> list[tuple[float, int]]:
    clusters: list[tuple[float, int]] = []
    for v in values:
        if clusters and abs(v - clusters[-1][0]) <= tol:
            val, mult = clusters[-1]
            clusters[-1] = (val, mult + 1)
        else:
            snapped = round(v) if abs(v - round(v)) <= tol else v
            clusters.append((float(snapped), 1))
    return clusters


def spectrum(rep: OscillatorRep) -> SpectrumResult:
    """Interior-windowed eigenvalues of B^2 with multiplicities, one ``eigh`` per label block.

    Only eigenvalues up to the truncation level are reported: the interior
    block of B^2 is exactly diagonal, but levels near the cut have no room
    left for the full multiplet structure, so clusters above the window mix
    truncated and untruncated states.  ``kernel_overlap`` is the weight of
    the Gaussian ground state, the first even basis vector, in the lowest
    eigenvector.  The ground state is the first basis vector of label 0.
    """
    ws, qs = zip(*(np.linalg.eigh(b) for b in window_product(rep.window(), rep.bott, rep.bott).blocks))
    vals = np.sort(np.concatenate(ws))
    window = float(rep.basis.level)
    clusters = _cluster(vals[vals <= window + _CLUSTER_TOL], _CLUSTER_TOL)
    overlap = float(abs(qs[0][0, 0]) / np.linalg.norm(qs[0][:, 0])) if ws[0][0] <= vals[0] else 0.0
    return SpectrumResult(vals, clusters, window, overlap)


def level_multiplicity(dim: int, half_eigenvalue: int) -> int:
    """Count of basis states with total level + blade degree = m.

    Splitting m = (spatial level) + (blade degree d) gives
    sum_d  C(dim, d) * C(m - d + dim - 1, dim - 1).
    """
    m = half_eigenvalue
    return sum(math.comb(dim, d) * math.comb(m - d + dim - 1, dim - 1) for d in range(min(dim, m) + 1))


# ---------------------------------------------------------------------------
# Clifford-valued multiplication operators


@dataclass(frozen=True)
class CliffFunction:
    """Function on R^dim with values in the Euclidean Clifford algebra.

    It is a sum of separable terms: each entry ``(blade, (g_1, .., g_dim))``
    of ``terms`` puts ``g_1(x_1) .. g_dim(x_dim)`` on that blade, every
    ``g_i`` a function of one variable on arrays.  The symbols of the
    asymptotic morphism, the Gaussian generator pair and a bump, all
    factor this way, and :func:`multiplication_operator` works from
    one-dimensional quadratures of the terms.  There is at least one term,
    and all blades share one parity, so the values are even or odd.  Every
    ``g_i`` is a :class:`GradedFunction`; for i >= 2 its parity is
    ``[e_i in blade]``, so the operator commutes with ``R_i``.
    """

    dim: int
    name: str
    terms: tuple

    def __post_init__(self):
        for blade, axis_fns in self.terms:
            if not 0 <= blade < 1 << self.dim:
                raise ValueError(f"blade {blade} outside 0..{(1 << self.dim) - 1} at dim {self.dim}")
            if len(axis_fns) != self.dim:
                raise ValueError(f"term on blade {blade} has {len(axis_fns)} axis functions, "
                                 f"expected {self.dim}")
            for i, g in enumerate(axis_fns):
                if not isinstance(g, GradedFunction) or (i and g.parity != blade >> i & 1):
                    parity = f" of parity {blade >> i & 1}" if i else ""
                    raise ValueError(f"symbol {self.name!r}: the function on axis {i + 1} of the term on blade "
                                     f"{blade} must be a GradedFunction{parity}")
        if len({blade_parity(blade) for blade, _ in self.terms}) != 1:
            raise ValueError(f"symbol {self.name!r} needs terms on blades of one parity; "
                             "build one CliffFunction from its even terms and one from its odd terms")

    @property
    def parity(self) -> int:
        """Blade parity of the values."""
        return blade_parity(self.terms[0][0])


def rescale(h: CliffFunction, t: float) -> CliffFunction:
    """Flattened function v -> h(v / t); defined for t >= 1.  Every axis function keeps its parity."""
    if not t >= 1:
        raise ValueError(f"rescaling parameter must be >= 1, got {t}")
    terms = tuple((blade, tuple(scale(g, t) for g in axis_fns)) for blade, axis_fns in h.terms)
    return CliffFunction(h.dim, f"{h.name}@t={t:g}", terms)


def multiplication_operator(h: CliffFunction, basis: HermiteBasis,
                            nodes: int | None = None) -> GradedMatrix:
    """Gauss-Hermite discretization of pointwise multiplication by h.

    Each blade coefficient contributes kron(Gram, lambda(blade)) where the
    Gram matrix pairs truncated Hermite functions against the coefficient.
    The default node count (2 * level + 16 per axis) is converged for the
    Gaussian-type symbols used here; passing ``nodes=level + 1`` instead
    reproduces functional calculus of the position operator exactly, since
    the quadrature built on the eigenvalues of the truncated position matrix
    *is* evaluation at those eigenvalues.

    A separable term ``g_1(x_1) .. g_n(x_n)`` on blade c is the product of
    the 1-D Grams ``G_i = <psi_k, g_i psi_k'>``, one (K+1)x(K+1) quadrature
    per axis, times lambda(c) (:func:`_spatial_blade_operator`); the
    parities the symbol declares on axes 2..n keep it on the blocks.  When
    every axis-1 function has the parity ``[e_1 in blade]`` as well, the
    operator commutes with ``R_1`` and is held on all the labels, else on
    the first ``2^n``.
    """
    if h.dim != basis.dim:
        raise ValueError(f"function dimension {h.dim} != basis dimension {basis.dim}")
    x, w = _gh_nodes(nodes if nodes is not None else 2 * basis.level + 16)
    rows = hermite_rows(basis.level, x)
    terms = [(tuple((rows * (w * g(x))) @ rows.T for g in axis_fns),
              left_mult_operator(MultiVector.blade(basis.sig, c))) for c, axis_fns in h.terms]
    r1 = all(axis_fns[0].parity == c & 1 for c, axis_fns in h.terms)
    return _spatial_blade_operator(basis, h.parity, terms, basis.blade_count << r1)


@dataclass
class CompactnessProfile:
    """Singular-value decay of f(B) M_h."""

    singular_values: np.ndarray
    tol: float

    @property
    def tail_start(self) -> int:
        """Index of the first singular value below tol (len if none is)."""
        below = np.nonzero(self.singular_values < self.tol)[0]
        return int(below[0]) if len(below) else len(self.singular_values)


def compactness_profile(f: GradedFunction, h: CliffFunction, rep: OscillatorRep,
                        tol: float = 1e-8) -> CompactnessProfile:
    """Singular values of f(B) M_h, sorted descending.

    For vanishing-at-infinity symbols this product is a compact operator in
    the untruncated model; finitely many singular values above any
    threshold is the finite-dimensional shadow of that.  The product's
    singular values are those of its blocks, on the labels of M_h, and the
    zeros that an odd product's rectangular blocks leave out, so there are
    always ``basis.size`` of them.
    """
    mh = multiplication_operator(h, rep.basis)
    blocks = (regroup(matrix_function(f, rep.bott), len(mh.index)) @ mh).blocks
    svals = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in blocks])
    svals = np.concatenate([svals, np.zeros(rep.basis.size - len(svals))])
    return CompactnessProfile(np.sort(svals)[::-1], tol)
