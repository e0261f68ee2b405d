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

from .graded import GradedMatrix, graded_tensor, identity_like


@dataclass
class GradedFunction:
    """A real function of one variable with a declared parity.

    ``fn`` must accept numpy arrays.  ``parity`` is 0 for even, 1 for odd,
    None when mixed.
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
    """A read-only symmetric graded matrix that is diagonalised at most once.

    Symmetry and operator parity are checked once, at construction, on a
    private copy of the input.  The eigendecomposition ``(w, q)`` is
    computed on first use under a lock, so threads sharing the matrix share
    one eigensolve and one result.  Like every graded matrix it holds only
    read-only arrays.
    """

    def __init__(self, mat, parity):
        super().__init__(np.array(mat, dtype=float), np.array(parity, dtype=np.uint8))
        scale_ref = max(1.0, float(np.abs(self.mat).max()))
        if np.abs(self.mat - self.mat.T).max() > 1e-10 * scale_ref:
            raise ValueError("matrix functional calculus requires a symmetric matrix")
        self.op_parity = self.operator_parity(tol=1e-10 * scale_ref)
        self._lock = threading.Lock()
        self._eig = None

    @property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and orthonormal eigenvectors (read-only, computed once)."""
        with self._lock:
            if self._eig is None:
                w, q = np.linalg.eigh(self.mat)
                w.flags.writeable = False
                q.flags.writeable = False
                self._eig = (w, q)
        return self._eig


def matrix_function(f: GradedFunction, a: GradedMatrix) -> GradedMatrix:
    """Apply f to a symmetric graded matrix: ``Q f(w) Q^T`` on its eigensystem.

    A :class:`SpectralMatrix` reuses its cached eigensystem and its
    construction-time checks; any other graded matrix is wrapped in one
    first.  The result's parity d is forced exactly where it is known: an
    even matrix commutes with the grading, so f of it is even for any f,
    and an odd matrix maps to an operator of f's parity.  Then only the two
    allowed parity blocks ``(r, r ^ d)`` are computed; the forbidden ones,
    which would hold only the eigensolver's rounding noise, are never formed:
    the result holds just those two blocks (see :class:`GradedMatrix`).  A
    mixed matrix, or an odd one under a mixed f, takes the dense product.
    """
    if not isinstance(a, SpectralMatrix):
        a = SpectralMatrix(a.mat, a.parity)
    w, q = a.eig
    fw = f(w)
    d = 0 if a.op_parity == 0 else f.parity if a.op_parity == 1 else None
    if d is None:
        return GradedMatrix((q * fw) @ q.T, a.parity)
    rows = [q.take(i, axis=0) for i in a.index]
    blocks = [(rows[r] * fw) @ rows[r ^ d].T for r in (0, 1)]
    return GradedMatrix.from_parts({d: blocks}, a.parity, a.index)


def delta_on_generators() -> dict[str, list[tuple[GradedFunction, GradedFunction]]]:
    """Comultiplication of the generators as sums of simple tensors.

    With u = exp(-x^2) and v = x exp(-x^2):
        u  |->  u (x) u
        v  |->  u (x) v  +  v (x) u
    Both identities follow from exp(-(x+y)^2) = exp(-x^2)exp(-y^2) when x
    and y commute, plus linearity in the prefactor for v.
    """
    u, v = gaussian(), x_gaussian()
    return {"u": [(u, u)], "v": [(u, v), (v, u)]}


@dataclass
class DeltaCheck:
    """Comparison of the two routes to f(X~) at one truncation level."""

    which: str
    level: int
    residual_full: float
    residual_interior: float
    effective_radius: float

    @property
    def residual(self) -> float:
        # the odd generator is graded on the interior window, the even one globally
        return self.residual_interior if self.which == "v" else self.residual_full


def delta_via_xr_check(level: int, which: str = "u") -> DeltaCheck:
    """Verify the comultiplication against direct functional calculus.

    Builds the 1-D position matrix X at the given truncation, forms the
    graded sum X~ = X (x) 1 + 1 (x) X, and compares f(X~) computed directly
    by eigendecomposition with the tensor expansion of Delta(f) term by
    term.  The two summands of X~ anticommute, so X~^2 = X^2 (x) 1 +
    1 (x) X^2 and the Gaussian of the sum factorizes exactly; residuals are
    floating-point noise at every level.
    """
    if which not in ("u", "v"):
        raise ValueError(f"unknown generator {which!r}, expected 'u' or 'v'")
    if level < 4:
        raise ValueError("truncation level must be at least 4")
    from .oscillator import position_matrix  # lazy: oscillator imports this module

    x = position_matrix(level)
    par = (np.arange(level + 1) & 1).astype(np.uint8)
    xg = GradedMatrix(x, par)
    ig = identity_like(xg)
    xt = graded_tensor(xg, ig) + graded_tensor(ig, xg)

    target = gaussian() if which == "u" else x_gaussian()
    direct = matrix_function(target, xt)

    # each generator applied to X once, however many terms it appears in
    terms = delta_on_generators()[which]
    generators = {f.name: f for pair in terms for f in pair}
    on_x = {name: matrix_function(f, xg) for name, f in generators.items()}
    expansion = np.zeros((xt.dim, xt.dim))
    for f, g in terms:
        expansion += graded_tensor(on_x[f.name], on_x[g.name]).mat

    # the residual has the parity of the generator, so both norms take the block kernel
    diff = direct - GradedMatrix(expansion, xt.parity)
    residual_full = diff.norm()
    interior = np.arange(level + 1) <= level - 2
    mask = np.kron(interior, interior).astype(bool)
    residual_interior = GradedMatrix(diff.mat[np.ix_(mask, mask)], xt.parity[mask]).norm()
    radius = float(np.abs(np.linalg.eigvalsh(x)).max())
    return DeltaCheck(which, level, residual_full, residual_interior, radius)
