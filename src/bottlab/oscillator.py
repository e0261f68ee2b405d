"""Truncated harmonic-oscillator model with Clifford-valued coefficients.

The Hilbert space is spanned by products of normalized Hermite functions
``psi_k1(x_1) .. psi_kn(x_n)`` with total level ``k_1 + .. + k_n <= level``,
tensored with the ``2^n`` blades of the Euclidean Clifford algebra; blade
degree provides the grading.  On it live the odd operators

    C = sum_i  (x_i .) (x) lambda(e_i)        (position part)
    D = sum_i  (d/dx_i) (x) rho~(e_i)         (derivative part)
    B = C + D                                 (the supercharge)

where lambda is left multiplication and rho~ the grading-twisted right
multiplication; the Fourier gauge S swaps C and D
(:meth:`OscillatorRep.gauge`).  The square B^2 = C^2 + D^2 + N holds exactly
on the interior window (total level <= level - 2); outside it, truncation
edge effects appear, which is why every spectral statement here is windowed.

The reflection ``R_i = (-1)^{k_i} (x) lambda(e_i) rho~(e_i)``, the sign
``(-1)^(k_i + b_i)`` of Hermite index k_i and blade bit b_i on axis i,
commutes with C, D, N and the operators of the symbols uP and vP, so they are
held as ``2^(n+1)`` blocks on the labels of :meth:`HermiteBasis.labels`:
parity and the signs of ``R_2 .. R_n`` and ``R_1``.  The signs and the parity
fix the total level's parity, so each label holds the states of one level
parity, one blade per spatial state.  The shifted bump breaks ``R_1``; its
operator is held on the ``2^n`` labels without the ``R_1`` bit, of
``S = C(level + n, n)`` states each.

Right multiplication by the volume element ``omega = e_1 .. e_n`` acts on the
blades alone and sends blade b to ``+-(b ^ (2^n - 1))``.  It commutes with
every left multiplication, so with C, N and every multiplication operator,
and anticommutes with every ``rho~(e_i)``, so with D; it flips every
reflection sign, and the parity when n is odd.  At n >= 2 every operator the
C/D curves are made of commutes with ``R_2`` and is carried by ``rho(omega)``
to plus or minus itself, so its norm is its norm on the ``R_2 = +1`` half,
the states whose label bit 1 is clear: the context holds that half as a
context of its own (:attr:`OscillatorRep.half`), on the same blocks and
eigensystems, and :func:`volume_pairing_residual` checks the pairing on the
blocks of C and D.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .clifford import (
    Signature,
    blade_parity,
    blade_square_sign,
    left_mult_operator,
    number_operator,
    right_mult_signs,
    twisted_right_mult_operator,
)
from .funcalc import GradedFunction, SpectralMatrix, matrix_function, position_matrix, scale
from .graded import (GradedMatrix, _check_symmetric, _frozen, label_index, largest_entry, regroup, signed,
                     window_product)


# ---------------------------------------------------------------------------
# one-dimensional building blocks


@lru_cache(maxsize=64)
def _gh_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes/weights for the weight exp(-x^2), read-only: every caller shares them."""
    x, w = np.polynomial.hermite.hermgauss(count)
    return _frozen(x), _frozen(w)


@lru_cache(maxsize=16)
def _gh_rows(kmax: int, count: int) -> np.ndarray:
    """:func:`hermite_rows` through ``kmax`` at the ``count`` Gauss-Hermite nodes, read-only."""
    return _frozen(hermite_rows(kmax, _gh_nodes(count)[0]))


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
    """Indexing data for the truncated oscillator space, or with ``half`` for its ``R_2 = +1`` half.

    Basis order is spatial-major: full index = position in ``mindices`` *
    2^dim + blade_mask, with multi-indices sorted by total level then
    lexicographically.  The half (dim >= 2) is the sub-basis of the states
    whose ``R_2`` sign bit, label bit 1, is clear, in the same order; its
    labels are theirs without that bit, and ``size``, ``states`` and
    ``labels`` describe its states only.
    """

    dim: int
    level: int
    half: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.level < 4:
            raise ValueError("level must be >= 4")
        if self.half and self.dim < 2:
            raise ValueError("the R_2 half needs dim >= 2")

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
        return self.spatial_size * self.blade_count >> self.half

    @property
    def label_count(self) -> int:
        """The number of labels: parity and every reflection sign, less ``R_2``'s in the half."""
        return 2 * self.blade_count >> self.half

    def states(self) -> np.ndarray:
        """The full basis index of every state, read-only."""
        return _states(self.dim, self.level, self.half)

    def labels(self) -> np.ndarray:
        """Label of every state: bit 0 its parity, bit i in 1..n-1 its R_(i+1) sign bit k + b mod 2
        on axis i + 1, and bit n its R_1 sign bit; in the half, bit 1 (clear) is dropped."""
        labels = _full_labels(self.dim, self.level)[self.states()]
        return labels & 1 | labels >> 2 << 1 if self.half else labels


def _full_labels(dim: int, level: int) -> np.ndarray:
    """The labels of :meth:`HermiteBasis.labels` on the whole space."""
    mindices = _simplex_mindices(dim, level)
    k = np.repeat(np.array(mindices), 1 << dim, axis=0)
    blades = np.tile(np.arange(1 << dim), len(mindices))
    bits = (k + (blades[:, None] >> np.arange(dim))) & 1
    bits = np.column_stack([np.bitwise_count(blades) & 1, bits[:, 1:], bits[:, 0]])
    return (bits << np.arange(dim + 1)).sum(axis=1)


@lru_cache(maxsize=16)
def _states(dim: int, level: int, half: bool) -> np.ndarray:
    """:meth:`HermiteBasis.states`, shared by every basis of the same fields."""
    full = len(_simplex_mindices(dim, level)) << dim
    return _frozen(np.flatnonzero(_full_labels(dim, level) & 2 == 0) if half else np.arange(full))


# ---------------------------------------------------------------------------
# operator assembly


@dataclass(frozen=True, eq=False)
class OscillatorRep:
    """Immutable operator context on one truncated basis.

    C, B and H = C^2 + D^2 are :class:`SpectralMatrix` objects: one read-only
    block per label each, diagonalised per block at most once, on first use,
    for every caller and thread that shares the context; D is read-only and
    symmetric, and has no eigensystem (:meth:`gauge`).  At dim >= 2, ``half``
    is the context of the ``R_2 = +1`` half: the same operators on the labels
    with bit 1 clear, holding the very blocks and eigensystems of the whole
    ones, so that no block is diagonalised twice, whichever asks first; it is
    None at dim 1 and in the half itself.
    """

    basis: HermiteBasis
    clifford: SpectralMatrix  # position part C
    dirac: GradedMatrix       # derivative part D = S C S
    bott: SpectralMatrix      # supercharge B = C + D
    number: GradedMatrix      # blade number operator N
    harmonic: SpectralMatrix  # H = C^2 + D^2
    half: OscillatorRep | None = None

    def window(self, depth: int = 2, count: int | None = None) -> tuple:
        """The number of states of total level <= level - depth of every label, or of every label
        ``c < count`` of the coarser labels ``labels & (count - 1)`` (:func:`~bottlab.graded.regroup`).

        The basis is ordered by total level, so inside a matrix of degree d the
        window is the leading ``window[l]`` rows and ``window[l ^ d]`` columns
        of block l.
        """
        if not 0 <= depth <= self.basis.level:
            raise ValueError(f"window depth must lie in 0..{self.basis.level}, got {depth}")
        return _window(self.basis, depth, count or self.basis.label_count)

    def gauge(self, x: GradedMatrix) -> GradedMatrix:
        """``S x S`` for the Fourier gauge ``S = prod_i (-1)^floor((k_i + b_i) / 2)``, the rotation by pi/2 in
        every (x_i, d/dx_i) plane: ``S C S = D``, so ``f(D) = S f(C) S``: :func:`~bottlab.graded.signed` with
        the signs of x's labels, those of C, coarser ones or a window; x's transpose law holds for the result."""
        return signed(x, _label_layout(self.basis, len(x.index))[5])


@lru_cache(maxsize=64)
def _window(basis: HermiteBasis, depth: int, count: int) -> tuple:
    """:meth:`OscillatorRep.window`, from the total level of every state of each label."""
    return tuple(int(np.count_nonzero(sum(ks) <= basis.level - depth)) for ks in _label_layout(basis, count)[4])


@lru_cache(maxsize=16)
def _label_layout(basis: HermiteBasis, count: int) -> tuple:
    """The labels ``basis.labels() & (count - 1)``, their ``label_index``, and per label the bytes of
    its spatial states, the blade, the Hermite index on each axis and the Fourier gauge's sign of every
    state, all read-only and shared by every operator held on them."""
    labels = _frozen((basis.labels() & (count - 1)).astype(np.uint16))
    index = label_index(labels, count)
    states, blades = zip(*(map(_frozen, np.divmod(basis.states()[i], basis.blade_count)) for i in index))
    k = np.array(basis.mindices)
    sets = tuple(m.tobytes() for m in states)
    axes = tuple(tuple(_frozen(k[m, i]) for i in range(basis.dim)) for m in states)
    signs = tuple(_frozen((-1.0) ** sum((k + (b >> i & 1)) >> 1 for i, k in enumerate(ks)))
                  for b, ks in zip(blades, axes))
    return labels, index, sets, blades, axes, signs


def _spatial_blade_operator(basis: HermiteBasis, degree: int, terms, count: int = 0,
                            transpose: int | None = None) -> GradedMatrix:
    """The sum of ``(A_1 (x) .. (x) A_n) (x) L`` over ``terms = [((A_1, .., A_n), L), ..]`` on the
    truncated basis, every A_i a matrix on the Hermite indices 0..level of axis i and every L of the
    given degree d, held on the labels ``basis.labels() & (count - 1)``, all of them by default;
    on a half basis, on its states only.  ``transpose`` is the transpose law the caller's terms fix.

    Entry ``((m, b), (m', b'))`` of a term is ``A_1[m_1, m'_1] .. A_n[m_n, m'_n] L[b, b']``, and label
    l holds one blade ``b_l(m)`` per spatial state m of its states ``m_l``, so block l is
    ``L[b_l, b_(l ^ d)]`` times the gathers ``A_i[m_l, m_(l ^ d)]``; no entry between other labels is
    formed, so every term must commute with the reflections the labels hold.
    """
    count = count or basis.label_count
    labels, index, sets, blades, axes, _ = _label_layout(basis, count)
    # the labels share few sets of states (one level parity each, or all of them), and each term's
    # spatial block between two sets is formed once
    spatial = {}

    def block(r: int, t: int, ops, blade_op) -> np.ndarray:
        c = r ^ degree
        key = t, sets[r], sets[c]
        if key not in spatial:
            spatial[key] = reduce(np.multiply, [a.take(axes[r][i], 0).take(axes[c][i], 1) for i, a in enumerate(ops)])
        return spatial[key] * blade_op.take(blades[r], 0).take(blades[c], 1)

    blocks = [sum(block(r, t, *term) for t, term in enumerate(terms)) for r in range(count)]
    return GradedMatrix.from_blocks(degree, blocks, labels, index, transpose)


def _axis_terms(basis: HermiteBasis, one_d: np.ndarray, blade_ops) -> list:
    """The terms ``(1 (x) .. (x) A (x) .. (x) 1, L_i)`` with the 1-D matrix A on axis i, for the
    blade operators ``L_1 .. L_n``."""
    eye = np.eye(basis.level + 1)
    return [(tuple(one_d if j == i else eye for j in range(basis.dim)), op) for i, op in enumerate(blade_ops)]


def clifford_operator(basis: HermiteBasis) -> GradedMatrix:
    """C = sum_i x_i (x) lambda(e_i); odd, symmetric.  On the truncated basis, x_i is the restriction
    of the 1-D position matrix on axis i."""
    return _spatial_blade_operator(basis, 1, _axis_terms(basis, position_matrix(basis.level), [
        left_mult_operator(basis.sig, 1 << i) for i in range(basis.dim)]))


def dirac_operator(basis: HermiteBasis) -> GradedMatrix:
    """D = sum_i d/dx_i (x) rho~(e_i); odd, symmetric.

    Both factors of each summand are antisymmetric, so their Kronecker
    product is symmetric even though neither factor is.  The 1-D d/dx is
    the position matrix with its lower half negated.
    """
    x = position_matrix(basis.level)
    return _spatial_blade_operator(basis, 1, _axis_terms(basis, np.triu(x) - np.tril(x), [
        twisted_right_mult_operator(basis.sig, 1 << i) for i in range(basis.dim)]))


def blade_number_operator(basis: HermiteBasis) -> GradedMatrix:
    """N = 1 (x) sum_i rho~(e_i) lambda(e_i); diagonal, eigenvalue 2d - n."""
    return _spatial_blade_operator(basis, 0, [((np.eye(basis.level + 1),) * basis.dim, number_operator(basis.sig))])


def volume_pairing_residual(rep: OscillatorRep) -> float:
    """The largest entry of ``rho(omega) C rho(omega)^-1 - C`` and ``rho(omega) D rho(omega)^-1 + D``
    on the whole space of the context, from the blocks of C and D and the signs of right
    multiplication by ``omega = e_1 .. e_n``.

    ``rho(omega)`` sends the state (m, b) to ``sigma(b)`` times (m, b ^ (2^n - 1)), with
    ``b omega = sigma(b) (b ^ (2^n - 1))``, so it carries label l onto ``l ^ mask`` (every reflection
    bit, and the parity when n is odd), whose states are the same spatial states in the same order:
    ``rho X rho^-1`` is :func:`~bottlab.graded.signed` with the signs ``sigma`` of every label and
    ``shift = mask``.  Exactly 0 when C commutes with ``rho(omega)`` and D anticommutes with it; NaN
    on a NaN (:func:`~bottlab.graded.largest_entry`).
    """
    basis = rep.basis
    sigma = right_mult_signs(basis.sig, basis.blade_count - 1)
    mask = 2 * basis.blade_count - 2 | basis.dim & 1
    signs = [sigma[i % basis.blade_count] for i in rep.clifford.index]  # C and D share the labels
    paired = (signed(rep.clifford, signs, mask) - rep.clifford, signed(rep.dirac, signs, mask) + rep.dirac)
    return largest_entry(b for g in paired for b in g.blocks)


def fourier_gauge_residual(rep: OscillatorRep) -> float:
    """The largest entry of ``S C S - D`` (:meth:`OscillatorRep.gauge`), by
    :func:`~bottlab.graded.largest_entry`: exactly 0 when D has its sign, NaN on a NaN."""
    return largest_entry((rep.gauge(rep.clifford) - rep.dirac).blocks)


def context_bytes(dim: int, level: int) -> int:
    """An upper bound on the bytes of the context at (dim, level), from binomials: per pair of labels
    l, l ^ 1 (2^dim pairs, of ``S = C(level + dim, dim)`` states together), nine S x S arrays of
    doubles, more than the blocks of C, D, B, N and H and the eigensystems of C, B (U and V per
    even label) and H (w and Q per label) take on the pair's a + b = S states, ``6ab + 5(a^2 + b^2) + 3S
    < 9 S^2``; kept from when D had U and V too, so that no configuration refused then is accepted."""
    return 8 * 9 * (1 << dim) * math.comb(level + dim, dim) ** 2


# the largest context_bytes a configuration may need: report-all's peak RSS with two suites at once was
# 76, 133, 542 and 932 MiB at (3,8), (4,6), (4,8) and (5,6), whose contexts take 15, 48, 269 and 469 MiB,
# so about 60 MiB plus 1.9 times the context; a run within this bound peaked near 2 GiB.  The CLI runs
# at most two suites at once, one in each of two processes; they share the pages of the context built
# before the fork, but each computes the eigensystems it first uses after the fork
MEMORY_BUDGET = 1 << 30


def check_memory_budget(basis: HermiteBasis):
    """Raise ``ValueError``, naming the largest level that fits, when the context on the basis would
    need more than ``MEMORY_BUDGET`` bytes by :func:`context_bytes`; nothing is allocated."""
    dim, need = basis.dim, context_bytes(basis.dim, basis.level)
    if need > MEMORY_BUDGET:
        fits = 3
        while context_bytes(dim, fits + 1) <= MEMORY_BUDGET:
            fits += 1
        hint = f"the largest level that fits at dim {dim} is {fits}" if fits >= 4 else "no level fits"
        raise ValueError(f"dim {dim}, levels {basis.level} needs {need / 2**20:,.0f} MiB of operators, "
                         f"over the memory budget of {MEMORY_BUDGET / 2**20:,.0f} MiB; {hint}")


@lru_cache(maxsize=8)
def _context(dim: int, level: int) -> OscillatorRep:
    basis = HermiteBasis(dim, level)
    c = clifford_operator(basis)
    d = _check_symmetric(dirac_operator(basis), "the Dirac operator")
    ops = (SpectralMatrix(c), d, SpectralMatrix(c + d), blade_number_operator(basis), SpectralMatrix(c @ c + d @ d))
    if dim == 1:
        return OscillatorRep(basis, *ops)
    # the labels with bit 1, the R_2 sign, clear, in order: label j of the half is keep[j]
    half = HermiteBasis(dim, level, half=True)
    keep = [r for r in range(basis.label_count) if not r & 2]
    labels, index, *_ = _label_layout(half, half.label_count)
    return OscillatorRep(basis, *ops, OscillatorRep(half, *(op.on_labels(keep, labels, index) for op in ops)))


_CONTEXT_LOCK = threading.Lock()


def oscillator_rep(dim: int, level: int) -> OscillatorRep:
    """The shared operator context for (dim, level), built once.

    A configuration over the memory budget raises ``ValueError`` before
    anything is allocated (:func:`check_memory_budget`).  The lock makes
    concurrent first calls share one context, and with it one
    eigendecomposition per operator; the LRU bounds the number kept.
    """
    check_memory_budget(HermiteBasis(dim, level))
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
    operator commutes with ``R_1`` and is held on all the labels of the
    basis, else on the first half of them.  On a half basis it is built on
    the half's states only.  The Grams are symmetric, and lambda(c) is symmetric
    exactly when ``c^2 = +1``, so when every blade of h squares to +1 the
    operator is built with transpose law +1, and no check reads it.
    """
    if h.dim != basis.dim:
        raise ValueError(f"function dimension {h.dim} != basis dimension {basis.dim}")
    count = nodes if nodes is not None else 2 * basis.level + 16
    (x, w), rows = _gh_nodes(count), _gh_rows(basis.level, count)
    terms = [(tuple((rows * (w * g(x))) @ rows.T for g in axis_fns),
              left_mult_operator(basis.sig, c)) for c, axis_fns in h.terms]
    r1 = all(axis_fns[0].parity == c & 1 for c, axis_fns in h.terms)
    symmetric = all(blade_square_sign(c, basis.sig) == 1 for c, _ in h.terms)
    return _spatial_blade_operator(basis, h.parity, terms, basis.label_count >> (not r1), 1 if symmetric else None)


def compactness_profile(f: GradedFunction, h: CliffFunction, rep: OscillatorRep) -> np.ndarray:
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
    return np.sort(np.concatenate([svals, np.zeros(rep.basis.size - len(svals))]))[::-1]
