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
commutes with C, D, N and the symbols' operators (the bump's breaks R_1), so
every operator is held as ``2^n`` blocks of ``S = C(level + n, n)`` rows, on
the labels of :meth:`HermiteBasis.labels`: parity and ``R_2 .. R_n`` signs.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

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
from .graded import GradedMatrix, _frozen, label_index, window_product


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
        """Label of every full basis index: bit 0 its parity, bit i >= 1 its R_(i+1) sign bit k + b mod 2."""
        k = np.repeat(np.array(self.mindices), self.blade_count, axis=0)
        blades = np.tile(np.arange(self.blade_count), self.spatial_size)
        bits = (k + (blades[:, None] >> np.arange(self.dim))) & 1
        bits[:, 0] = self.parity()
        return (bits << np.arange(self.dim)).sum(axis=1)

    def interior_mask(self, depth: int = 2) -> np.ndarray:
        """Boolean mask of the full basis indices with total level <= level - depth."""
        return np.repeat([sum(m) <= self.level - depth for m in self.mindices], self.blade_count)


@lru_cache(maxsize=None)
def _mindex_lookup(dim: int, level: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(_simplex_mindices(dim, level))}


def _axis_raising(basis: HermiteBasis, axis: int) -> np.ndarray:
    """Matrix with entries sqrt((k_axis + 1)/2) from m to m + e_axis."""
    s = basis.spatial_size
    out = np.zeros((s, s))
    lookup = _mindex_lookup(basis.dim, basis.level)
    for i, m in enumerate(basis.mindices):
        if sum(m) < basis.level:
            up = m[:axis] + (m[axis] + 1,) + m[axis + 1:]
            out[lookup[up], i] = math.sqrt((m[axis] + 1) / 2.0)
    return out


def axis_position(basis: HermiteBasis, axis: int) -> np.ndarray:
    """Multiplication by x_axis on the truncated simplex (symmetric)."""
    u = _axis_raising(basis, axis)
    return u + u.T


def axis_derivative(basis: HermiteBasis, axis: int) -> np.ndarray:
    """d/dx_axis on the truncated simplex (antisymmetric)."""
    u = _axis_raising(basis, axis)
    return u.T - u


# ---------------------------------------------------------------------------
# operator assembly


@dataclass(frozen=True, eq=False)
class OscillatorRep:
    """Immutable operator context on one truncated basis.

    C, D, B and H = C^2 + D^2 are :class:`SpectralMatrix` objects: one
    read-only block per label each, diagonalised per block at most once, on
    first use, for every suite thread that shares the context.
    """

    basis: HermiteBasis
    clifford: SpectralMatrix  # position part C
    dirac: SpectralMatrix     # derivative part D
    bott: SpectralMatrix      # supercharge B = C + D
    number: GradedMatrix      # blade number operator N
    harmonic: SpectralMatrix  # H = C^2 + D^2

    def window(self, depth: int = 2) -> tuple:
        """The number of states of total level <= level - depth of every label.

        The basis is ordered by total level, so inside a matrix of degree d the
        window is the leading ``window[l]`` rows and ``window[l ^ d]`` columns
        of block l; each label holds one blade per spatial state.
        """
        if not 0 <= depth <= self.basis.level:
            raise ValueError(f"window depth must lie in 0..{self.basis.level}, got {depth}")
        blades = self.basis.blade_count
        return (int(np.count_nonzero(self.basis.interior_mask(depth))) // blades,) * blades


def _spatial_blade_operator(basis: HermiteBasis, degree: int, terms) -> GradedMatrix:
    """The sum of ``kron(S, L)`` over ``terms = [(S, L), ..]``, every L of the given degree d.

    Entry ``((m, b), (m', b'))`` of ``kron(S, L)`` is ``S[m, m'] L[b, b']``, and label l holds one
    blade ``b_l(m)`` per spatial state m, so block l is ``S * L[b_l, b_(l ^ d)]``; no entry between
    other labels is formed, so every term must commute with ``R_2 .. R_n``.
    """
    labels = basis.labels()
    index = label_index(labels, basis.blade_count)
    blades = [i % basis.blade_count for i in index]
    blocks = [sum(spatial * blade_op[np.ix_(blades[r], blades[r ^ degree])] for spatial, blade_op in terms)
              for r in range(len(index))]
    return GradedMatrix.from_blocks(degree, blocks, labels, index)


def clifford_operator(basis: HermiteBasis) -> GradedMatrix:
    """C = sum_i x_i (x) lambda(e_i); odd, symmetric."""
    return _spatial_blade_operator(basis, 1, [
        (axis_position(basis, i), left_mult_operator(MultiVector.generator(basis.sig, i + 1)))
        for i in range(basis.dim)])


def dirac_operator(basis: HermiteBasis) -> GradedMatrix:
    """D = sum_i d/dx_i (x) rho~(e_i); odd, symmetric.

    Both factors of each summand are antisymmetric, so their Kronecker
    product is symmetric even though neither factor is.
    """
    return _spatial_blade_operator(basis, 1, [
        (axis_derivative(basis, i), twisted_right_mult_operator(MultiVector.generator(basis.sig, i + 1)))
        for i in range(basis.dim)])


def blade_number_operator(basis: HermiteBasis) -> GradedMatrix:
    """N = 1 (x) sum_i rho~(e_i) lambda(e_i); diagonal, eigenvalue 2d - n."""
    return _spatial_blade_operator(basis, 0, [(np.eye(basis.spatial_size), number_operator(basis.sig))])


def context_bytes(dim: int, level: int) -> int:
    """The bytes of the context at (dim, level), from binomials: per label (2^dim of them, of
    ``S = C(level + dim, dim)`` states), nine S x S arrays of doubles, the blocks of C, D, B, N and H
    and the eigensystems of C, D, B (U and V per even label) and H (Q per label)."""
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


def _separable_grams(h: CliffFunction, basis: HermiteBasis, q: int) -> dict[int, np.ndarray]:
    """Spatial Gram matrix of every blade of h, from its separable terms.

    The Gram entry of multi-indices m, m' of a term ``g_1(x_1) .. g_n(x_n)``
    is the product over axes of the 1-D Gram entries ``G_i[m_i, m'_i]``, so
    each term costs n (K+1)x(K+1) quadratures and n gathers of size S^2.
    """
    x, w = _gh_nodes(q)
    rows = hermite_rows(basis.level, x)
    k = np.array(basis.mindices).T  # (dim, spatial size)
    grams: dict[int, np.ndarray] = {}
    for blade, axis_fns in h.terms:
        gram = 1.0
        for axis, g in enumerate(axis_fns):
            gram = gram * ((rows * (w * g(x))) @ rows.T)[k[axis][:, None], k[axis][None, :]]
        grams[blade] = grams[blade] + gram if blade in grams else gram
    return grams


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

    The Grams come from 1-D quadratures of the symbol's separable terms.
    The blades all have the symbol's parity d, and block l of the degree-d
    result is the sum of ``Gram_c * lambda(c)[b_l, b_(l ^ d)]`` over the
    blades c (:func:`_spatial_blade_operator`); the parities the symbol
    declares on axes 2..n keep it on those blocks.
    """
    if h.dim != basis.dim:
        raise ValueError(f"function dimension {h.dim} != basis dimension {basis.dim}")
    q = nodes if nodes is not None else 2 * basis.level + 16
    return _spatial_blade_operator(basis, h.parity, [
        (gram, left_mult_operator(MultiVector.blade(basis.sig, c)))
        for c, gram in _separable_grams(h, basis, q).items()])


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
    singular values are those of its blocks.
    """
    blocks = (matrix_function(f, rep.bott) @ multiplication_operator(h, rep.basis)).blocks
    svals = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in blocks])
    return CompactnessProfile(np.sort(svals)[::-1], tol)
