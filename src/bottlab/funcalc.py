"""Functional calculus on graded matrices and the comultiplication checks.

The scalar function algebra in play is generated by the even Gaussian
``u(x) = exp(-x^2)`` and its odd partner ``v(x) = x exp(-x^2)``; parity of a
function refers to its behaviour under ``x -> -x``.  Applying an odd
function to an odd symmetric matrix yields an odd matrix, an even function
an even one, which is what lets these functions be pushed through graded
tensor constructions.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graded import (WHOLE, GradedMatrix, _check_symmetric, _frozen, _on_window, block_norm, graded_tensor,
                     identity_like, tensor_pairs)


@dataclass
class GradedFunction:
    """A real function of one variable with a declared parity.

    ``fn`` must accept numpy arrays.  ``parity`` is 0 for even, 1 for odd,
    None when undeclared; only a function of declared parity applies to an
    odd matrix.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    parity: int | None
    name: str

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def gaussian() -> GradedFunction:
    """u(x) = exp(-x^2), the even generator."""
    return GradedFunction(lambda x: np.exp(-x * x), 0, "exp(-x^2)")


def x_gaussian() -> GradedFunction:
    """v(x) = x exp(-x^2), the odd generator."""
    return GradedFunction(lambda x: x * np.exp(-x * x), 1, "x*exp(-x^2)")


def scale(f: GradedFunction, t: float) -> GradedFunction:
    """Rescaled function x -> f(x / t) for t > 0 (flattens as t grows)."""
    if not t > 0:
        raise ValueError(f"scale parameter must be positive, got {t}")
    fn = f.fn
    return GradedFunction(lambda x: fn(x / t), f.parity, f"{f.name}@t={t:g}")


class SpectralMatrix(GradedMatrix):
    """A read-only symmetric graded matrix of one degree, each block diagonalised at most once.

    It checks and copies the blocks of the matrix it is built from, and its
    transpose law is +1; threads sharing it share one eigensolve per block,
    computed on first use.  A matrix of :meth:`on_labels` shares its blocks,
    its eigensystems and its lock with this one.
    """

    def __init__(self, g: GradedMatrix):
        _check_symmetric(g, "matrix functional calculus")
        self._set_blocks(g.degree, tuple(np.array(b, dtype=float) for b in g.blocks), g.labels, g.index, 1)
        # one eigensystem per label, or per even label when odd, in a list shared with on_labels
        count = len(self.blocks) >> self.degree
        self._lock, self._eigs, self._slots, self._eig = threading.Lock(), [None] * count, range(count), None

    def on_labels(self, keep, labels, index) -> "SpectralMatrix":
        """:meth:`GradedMatrix.on_labels`, sharing the eigensystems of the kept blocks: each is
        computed once, for whichever of the two matrices asks first."""
        out = super().on_labels(keep, labels, index)
        out._lock, out._eigs, out._eig = self._lock, self._eigs, None
        out._slots = tuple(self._slots[r >> self.degree] for r in keep[::1 << self.degree])
        return out

    @property
    def eig(self) -> tuple:
        """The eigensystem per label block, read-only and computed once.

        Even: ``(w_l, Q_l)`` for every label l, with ``X[l, l] = Q_l diag(w_l) Q_l^T``.  Odd:
        ``(U, s, V)`` for every even label l, with ``X[l, l ^ 1] = U diag(s) V^T``, U and V square.
        """
        with self._lock:
            if self._eig is None:
                for j, k in enumerate(self._slots):
                    if self._eigs[k] is None:
                        if self.degree == 0:
                            eig = np.linalg.eigh(self.blocks[j])
                        else:
                            u, s, vt = np.linalg.svd(self.blocks[2 * j])
                            eig = u, s, vt.T
                        self._eigs[k] = tuple(_frozen(a) for a in eig)
                self._eig = tuple(self._eigs[k] for k in self._slots)
        return self._eig


def matrix_function(f: GradedFunction, a: GradedMatrix, window: tuple = WHOLE) -> GradedMatrix:
    """Apply f to a symmetric graded matrix through its eigensystem per label block.

    Any matrix but a :class:`SpectralMatrix` is wrapped in one first.  Even:
    ``Q_l f(w_l) Q_l^T`` per block, for any f.  Odd, with
    ``X[l, l ^ 1] = U diag(s) V^T`` for each even label l: an even f gives
    ``U f(s) U^T`` and ``V f(s) V^T`` (s padded with zeros) as blocks l and
    ``l ^ 1``, an odd f gives ``U f(s) V^T`` and its transpose; f of no declared
    parity raises ``ValueError``.  f(X) has transpose law +1.  With ``window``
    sizes only ``P_W f(X) P_W`` is formed (:meth:`GradedMatrix.window`): every
    Q, U and V above keeps the leading ``window[l]`` rows of its label l.
    """
    if not isinstance(a, SpectralMatrix):
        a = SpectralMatrix(a)
    if a.degree == 0:
        return _on_window(a, window, 0, [(q[:window[r]] * f(w)) @ q[:window[r]].T for r, (w, q) in enumerate(a.eig)], 1)
    if f.parity is None:
        raise ValueError(f"{f.name} has no declared parity, so of an odd matrix it has both degrees; "
                         "apply its even part and its odd part separately")
    blocks = [None] * len(a.index)
    for r, (u, s, v) in zip(range(0, len(a.index), 2), a.eig):
        m = len(s)
        x = np.concatenate([s, np.zeros(max(len(u), len(v)) - m)])
        fx, fm = f(x), f(-x)
        u, v = u[:window[r]], v[:window[r ^ 1]]
        if f.parity == 0:
            even = (fx + fm) / 2.0
            blocks[r], blocks[r ^ 1] = (u * even[:u.shape[1]]) @ u.T, (v * even[:v.shape[1]]) @ v.T
        else:
            blocks[r] = (u[:, :m] * (fx - fm)[:m] / 2.0) @ v[:, :m].T
            blocks[r ^ 1] = blocks[r].T
    return _on_window(a, window, f.parity, blocks, 1)


def position_matrix(level: int) -> np.ndarray:
    """Multiplication by x on Hermite functions 0..level (tridiagonal)."""
    if level < 1:
        raise ValueError("level must be >= 1")
    off = np.sqrt((np.arange(level) + 1) / 2.0)
    return np.diag(off, 1) + np.diag(off, -1)


@dataclass
class DeltaCheck:
    """The residuals of both comultiplication formulas at one truncation level.

    ``residual_u`` is the full norm of the even generator's residual,
    ``residual_v`` the odd generator's on the interior window.
    """

    level: int
    residual_u: float
    residual_v: float
    effective_radius: float


def delta_via_xr_check(level: int) -> DeltaCheck:
    """Verify the comultiplication of both generators against direct functional calculus.

    With u = exp(-x^2) and v = x exp(-x^2):
        u  |->  u (x) u
        v  |->  u (x) v  +  v (x) u
    Both identities follow from exp(-(x+y)^2) = exp(-x^2)exp(-y^2) when x
    and y commute, plus linearity in the prefactor for v.

    Builds the 1-D position matrix X at the given truncation and the graded
    sum X~ = X (x) 1 + 1 (x) X once, and compares u(X~) and v(X~), from one
    eigensystem of X~, with the tensor expansions above.  The two summands
    of X~ anticommute, so X~^2 = X^2 (x) 1 + 1 (x) X^2 and the Gaussian of
    the sum factorizes exactly; residuals are floating-point noise at every
    level.
    """
    if level < 4:
        raise ValueError("truncation level must be at least 4")
    x = position_matrix(level)
    xg = SpectralMatrix(GradedMatrix(x, np.arange(level + 1) & 1))
    ig = identity_like(xg)
    xt = SpectralMatrix(graded_tensor(xg, ig) + graded_tensor(ig, xg))

    u, v = gaussian(), x_gaussian()
    ux, vx = matrix_function(u, xg), matrix_function(v, xg)
    # each residual has the parity of its generator, so both norms take the block kernel
    residual_u = (matrix_function(u, xt) - graded_tensor(ux, ux)).norm()
    diff_v = matrix_function(v, xt) - graded_tensor(ux, vx) - graded_tensor(vx, ux)
    # the odd generator is graded on the interior window, the even one globally
    interior = np.arange(level + 1) <= level - 2
    i, j = tensor_pairs(xg.parity, xg.parity)
    mask = [(interior[i] & interior[j])[k] for k in xt.index]  # per parity block
    residual_v = block_norm(x[np.ix_(mask[r], mask[r ^ diff_v.degree])] for r, x in enumerate(diff_v.blocks))
    radius = float(np.abs(np.linalg.eigvalsh(x)).max())
    return DeltaCheck(level, residual_u, residual_v, radius)
