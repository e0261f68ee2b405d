"""Reference routes that the package does not need, kept as test oracles.

The package describes every symbol by its separable terms and builds every
multiplication operator from 1-D quadratures.  The routes here compute the
same objects another way:

- :func:`bott_map` is the radial Clifford extension of any scalar function,
  by functional calculus on the two eigenvalues of ``sum_i x_i e_i``; it is
  the oracle for the term-built generator symbols ``uP`` and ``vP``.
- :func:`grid_multiplication_operator` evaluates a coefficient function on
  the full ``q^dim`` Gauss-Hermite grid and assembles the dense operator; it
  is the oracle for the separable route.
- :func:`symbol_values` evaluates a term-built symbol pointwise.
- :func:`every_block_norm` eigensolves the Gram matrix of every block, where
  ``block_norm`` certifies most of them by a Cholesky factor instead.
- :func:`tensor_parity` reads the parity of the tensor basis off its labels.

The package builds every scalar function directly; the combinators
:func:`fsum`, :func:`fprod` and :func:`fmul` compose them here, keeping the
parity bookkeeping.
"""

import math

import numpy as np

from bottlab.clifford import MultiVector, left_mult_operator
from bottlab.funcalc import GradedFunction
from bottlab.graded import tensor_labels
from bottlab.oscillator import CliffFunction, HermiteBasis, hermite_rows


def fsum(f: GradedFunction, g: GradedFunction) -> GradedFunction:
    """x -> f(x) + g(x); of one parity only when both summands have it."""
    parity = f.parity if f.parity == g.parity else None
    return GradedFunction(lambda x: f.fn(x) + g.fn(x), parity, f"{f.name}+{g.name}")


def fprod(f: GradedFunction, g: GradedFunction) -> GradedFunction:
    """x -> f(x) g(x); parities add."""
    parity = None if f.parity is None or g.parity is None else f.parity ^ g.parity
    return GradedFunction(lambda x: f.fn(x) * g.fn(x), parity, f"{f.name}*{g.name}")


def fmul(c: float, f: GradedFunction) -> GradedFunction:
    """x -> c f(x)."""
    return GradedFunction(lambda x: float(c) * f.fn(x), f.parity, f"{c}*{f.name}")


def even_part(f: GradedFunction) -> GradedFunction:
    if f.parity == 0:
        return f
    return GradedFunction(lambda x: 0.5 * (f.fn(x) + f.fn(-x)), 0, f"even[{f.name}]")


def odd_part(f: GradedFunction) -> GradedFunction:
    if f.parity == 1:
        return f
    return GradedFunction(lambda x: 0.5 * (f.fn(x) - f.fn(-x)), 1, f"odd[{f.name}]")


def sup_norm(f: GradedFunction, radius: float = 10.0, samples: int = 2001) -> float:
    return float(np.abs(f(np.linspace(-radius, radius, samples))).max())


def bott_map(f: GradedFunction, dim: int):
    """Blade coefficients of the radial Clifford-valued extension of f.

    At a point v one applies f to the odd element sum_i v_i e_i, whose
    square is ||v||^2: functional calculus on the two eigenvalues +-||v||
    gives f_even(r) on the scalar blade plus (f_odd(r)/r) v_i on each e_i,
    smooth through r = 0 for the Gaussian generators.  Returns the map from
    an (m, dim) array of points to the (m, 2^dim) array of coefficients.
    """
    fe, fo = even_part(f), odd_part(f)

    def coeffs(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros((pts.shape[0], 1 << dim))
        r = np.linalg.norm(pts, axis=1)
        out[:, 0] = fe(r)
        safe = np.maximum(r, 1e-12)
        ratio = fo(safe) / safe
        for i in range(dim):
            out[:, 1 << i] = ratio * pts[:, i]
        return out

    return coeffs


def bump_coeffs(dim: int, center: float = 0.8, width: float = 1.0):
    """Blade coefficients of exp(-|x - c e_1|^2 / w) e_1, written as one formula."""

    def coeffs(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros((pts.shape[0], 1 << dim))
        shifted = pts.copy()
        shifted[:, 0] -= center
        out[:, 1] = np.exp(-(shifted ** 2).sum(axis=1) / width)
        return out

    return coeffs


def symbol_values(h: CliffFunction, pts) -> np.ndarray:
    """(m, 2^dim) blade coefficients of a term-built symbol at m points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros((pts.shape[0], 1 << h.dim))
    for blade, axis_fns in h.terms:
        out[:, blade] += np.prod([g(pts[:, i]) for i, g in enumerate(axis_fns)], axis=0)
    return out


def grid_multiplication_operator(coeffs, basis: HermiteBasis, nodes: int | None = None) -> np.ndarray:
    """Dense multiplication operator of a coefficient function, on the q^dim grid.

    Every spatial Gram matrix pairs the Hermite functions against one blade
    coefficient on the full tensor grid of Gauss-Hermite nodes, and the
    operator is ``sum_c kron(Gram_c, lambda(c))``.
    """
    q = nodes if nodes is not None else 2 * basis.level + 16
    x, w = np.polynomial.hermite.hermgauss(q)
    rows = hermite_rows(basis.level, x)
    idx_grids = np.meshgrid(*([np.arange(q)] * basis.dim), indexing="ij")
    node_idx = np.stack([g.ravel() for g in idx_grids], axis=-1)  # (points, dim)
    weights = w[node_idx].prod(axis=1)
    psi = np.ones((basis.spatial_size, len(node_idx)))
    for axis in range(basis.dim):
        k_of_m = np.array([m[axis] for m in basis.mindices])
        psi *= rows[k_of_m][:, node_idx[:, axis]]
    values = coeffs(x[node_idx])
    out = np.zeros((basis.size, basis.size))
    for c in range(basis.blade_count):
        gram = (psi * (weights * values[:, c])) @ psi.T
        out += np.kron(gram, left_mult_operator(MultiVector.blade(basis.sig, c)))
    return out


def every_block_norm(blocks) -> float:
    """The largest singular value over the blocks, from ``eigvalsh`` of every nonzero block's Gram
    matrix ``Y^T Y`` with ``Y = X / max |X|``; 0 for none."""
    out = 0.0
    for x in blocks:
        s = float(np.abs(x).max(initial=0.0))
        if s == 0.0:
            continue
        y = x / s
        gram = y.T @ y if y.shape[0] >= y.shape[1] else y @ y.T
        out = max(out, s * math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)))
    return out


def tensor_parity(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Parity vector of the tensor product space, in the order of ``tensor_pairs``."""
    return tensor_labels(la, lb) & 1
