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
- :func:`dense_flip` is the graded flip of a tensor space as a dense signed
  swap, each row looked up by its pair of factor indices; the package holds
  it as the permutation and signs of ``flip_unitary``, which
  :func:`signed_permutation` writes out as a matrix.
- :func:`clifford_product` multiplies two Clifford elements, given as
  coefficient arrays over the blades, by the dense Cayley-table contraction;
  the package multiplies only blades.
- :func:`dense_curve_norms` forms every curve matrix of the C/D curve suites
  on the whole space as a dense array, by ``eigh`` of the dense operators and
  the grid route, and takes its spectral norm, also for the curves of D that
  the suites read off those of C through the Fourier gauge; the suites norm
  label blocks, at dim >= 2 on the ``R_2 = +1`` half only.
- :func:`basis_parity` and :func:`interior_mask` read the parity and the
  window of every state off its multi-index and blade; the package holds
  them per label.

The package builds every scalar function directly; the combinators
:func:`fsum`, :func:`fprod` and :func:`fmul` compose them here, keeping the
parity bookkeeping.
"""

import math

import numpy as np

from bottlab import clifford
from bottlab.clifford import blade_parities, left_mult_operator
from bottlab.funcalc import GradedFunction, gaussian, scale, x_gaussian
from bottlab.graded import tensor_labels, tensor_pairs
from bottlab.oscillator import CliffFunction, HermiteBasis, hermite_rows, oscillator_rep, rescale


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
        out += np.kron(gram, left_mult_operator(basis.sig, c))
    return out


def every_block_norm(blocks) -> float:
    """The largest singular value over the blocks, from ``eigvalsh`` of every nonzero block's Gram
    matrix ``Y^T Y`` with ``Y = X / max |X|``; 0 for none, NaN when any block has a non-finite entry."""
    out = 0.0
    for x in blocks:
        s = float(np.abs(x).max(initial=0.0))
        if not math.isfinite(s):
            return math.nan
        if s == 0.0:
            continue
        y = x / s
        gram = y.T @ y if y.shape[0] >= y.shape[1] else y @ y.T
        out = max(out, s * math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)))
    return out


def tensor_parity(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Parity vector of the tensor product space, in the order of ``tensor_pairs``."""
    return tensor_labels(la, lb) & 1


def dense_flip(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """The matrix of ``xi_i (x) eta_j -> (-1)^{deg xi_i deg eta_j} eta_j (x) xi_i`` from the (a, b) to
    the (b, a) tensor space of factors with labels la and lb, each ordered as ``tensor_pairs``
    orders it: column p, the vector ``xi_i (x) eta_j``, has its one entry in the row of
    ``eta_j (x) xi_i``, found by its pair."""
    (i, j), (jb, ib) = tensor_pairs(la, lb), tensor_pairs(lb, la)
    rows = {(int(a), int(b)): r for r, (a, b) in enumerate(zip(ib, jb))}
    out = np.zeros((len(i), len(i)))
    for p, (a, b) in enumerate(zip(i, j)):
        out[rows[int(a), int(b)], p] = -1.0 if la[a] & lb[b] & 1 else 1.0
    return out


def signed_permutation(row: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The matrix whose column p holds ``sign[p]`` in row ``row[p]`` and is zero elsewhere."""
    out = np.zeros((len(row), len(row)))
    out[row, np.arange(len(row))] = sign
    return out


def dense_signed_map(labels: np.ndarray, index, signs, shift: int = 0) -> np.ndarray:
    """The dense matrix T that sends the k-th basis vector of label l to ``signs[l][k]`` times the
    k-th basis vector of label ``l ^ shift``."""
    out = np.zeros((len(labels), len(labels)))
    for r, i in enumerate(index):
        out[index[r ^ shift], i] = signs[r]
    return out


def clifford_product(sig, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Clifford product of the elements with blade coefficients a and b: every product of a
    coefficient of a with one of b, zeros included, summed onto its blade in row-major order."""
    sign, idx = clifford._tables(sig.p, sig.q)
    out = np.zeros(sig.blade_count)
    np.add.at(out, idx.ravel(), (np.multiply.outer(a, b) * sign).ravel())
    return out


def _dense_function(f, x: np.ndarray) -> np.ndarray:
    """f(X) of a dense symmetric matrix, from its eigh."""
    w, q = np.linalg.eigh(x)
    return (q * f(w)) @ q.T


def basis_parity(basis: HermiteBasis) -> np.ndarray:
    """Blade parity of every state of the basis."""
    return np.tile(blade_parities(basis.sig), basis.spatial_size)[basis.states()]


def interior_mask(basis: HermiteBasis, depth: int = 2) -> np.ndarray:
    """Boolean mask of the basis states with total level <= level - depth."""
    return np.repeat([sum(m) <= basis.level - depth for m in basis.mindices], basis.blade_count)[basis.states()]


def dense_curve_norms(suite: str, dim: int, level: int, xs) -> dict:
    """The curves of ``dirac-commutator``, ``cd-commutator``, ``s1s2-asymptotics`` or ``mehler`` at
    the grid points xs (the t-grid, or mehler's s-grid), each the spectral norm of its window of a
    dense matrix on the whole space."""
    from bottlab.verify import mehler_coefficients, named_symbols

    rep = oscillator_rep(dim, level)
    basis = rep.basis
    ops = {"C": rep.clifford.mat, "D": rep.dirac.mat}
    gens = {"u": gaussian(), "v": x_gaussian()}

    def norm(m: np.ndarray, depth: int) -> float:
        mask = interior_mask(basis, depth)
        return float(np.linalg.norm(m[np.ix_(mask, mask)], 2))

    def commutator(a, pa, b, pb):
        return a @ b - (-1.0) ** (pa * pb) * b @ a

    def matrices(x):
        if suite == "dirac-commutator":
            for h in named_symbols(dim):
                ht = rescale(h, x)
                mh = grid_multiplication_operator(lambda pts: symbol_values(ht, pts), basis)
                for a, f in gens.items():
                    fd = _dense_function(scale(f, x), ops["D"])
                    yield f"[{a}(D/t),M_{h.name}]", commutator(fd, f.parity, mh, h.parity), 2
        elif suite == "cd-commutator":
            for a, f in gens.items():
                for b, g in gens.items():
                    yield (f"[{a}(C/t),{b}(D/t)]", commutator(_dense_function(scale(f, x), ops["C"]), f.parity,
                                                              _dense_function(scale(g, x), ops["D"]), g.parity), 2)
        elif suite == "s1s2-asymptotics":
            for xname, op in ops.items():
                for cname, coef in zip(("s1", "s2"), mehler_coefficients(x ** -2)):
                    defect = lambda y, coef=coef: np.exp(-coef / 2.0 * y * y) - np.exp(-(x ** -2) / 2.0 * y * y)
                    yield f"{xname}:{cname}", _dense_function(defect, op), 2
                    yield f"{xname}:{cname}:weighted", _dense_function(lambda y: y / x * defect(y), op), 2
        elif suite == "mehler":
            s1, s2 = mehler_coefficients(x)
            direct = _dense_function(lambda y: np.exp(-x * y), ops["C"] @ ops["C"] + ops["D"] @ ops["D"])
            heat = {(a, n): _dense_function(lambda y, a=a: np.exp(-a * y * y), ops[n])
                    for a in (s1 / 2.0, s2) for n in ops}
            depth = level - max(2, level // 3)
            yield "c-outside", direct - heat[s1 / 2.0, "C"] @ heat[s2, "D"] @ heat[s1 / 2.0, "C"], depth
            yield "d-outside", direct - heat[s1 / 2.0, "D"] @ heat[s2, "C"] @ heat[s1 / 2.0, "D"], depth
        else:
            raise ValueError(f"{suite} is not a C/D curve suite")

    curves = {}
    for x in xs:
        for name, m, depth in matrices(x):
            curves.setdefault(name, []).append(norm(m, depth))
    return curves
