"""Tests for the cached operator context: immutability, spectral reuse, threads."""

import dataclasses
import json
import sys
import threading
import time

import numpy as np
import pytest

import bottlab.graded as graded
import bottlab.oscillator as oscillator
from bottlab.funcalc import GradedFunction, SpectralMatrix, gaussian, matrix_function, scale, x_gaussian
from bottlab.graded import WHOLE, GradedMatrix, regroup
from bottlab.oscillator import context_bytes, oscillator_rep
from bottlab.verify import MEMORY_BUDGET, SUITES, SweepConfig, mehler_coefficients, run_suite
from oracles import interior_mask


def _context_arrays(rep) -> dict:
    ops = {"C": rep.clifford, "D": rep.dirac, "B": rep.bott, "N": rep.number, "H": rep.harmonic}
    arrays = {}
    for name, op in ops.items():
        arrays.update({f"{name}.blocks{r}": b for r, b in enumerate(op.blocks)})
        arrays[f"{name}.labels"] = op.labels
        arrays[f"{name}.parity"] = op.parity
    # D has no eigensystem: its functions are those of C under the Fourier gauge
    assert not isinstance(rep.dirac, SpectralMatrix) and not hasattr(rep.dirac, "eig")
    for name in ("C", "B", "H"):
        eig = ops[name].eig  # (w, Q) per label when even, (U, s, V) per even label when odd
        arrays.update({f"eig{name}{i}": a for i, a in enumerate(a for part in eig for a in part)})
    return arrays


# the t-invariant plans of operator assembly, shared by every grid point
PLAN_CACHES = {"window": oscillator._window, "label layout": oscillator._label_layout,
               "Hermite rows": oscillator._gh_rows}


def _plan_arrays(rep) -> dict:
    """Every array of the cached plans a sweep on the context reads: the label layouts of its labels
    and of the coarser labels without ``R_1``, and the default Hermite rows."""
    def leaves(x, path):
        if isinstance(x, np.ndarray):
            yield path, x
        elif isinstance(x, tuple):
            for i, y in enumerate(x):
                yield from leaves(y, f"{path}[{i}]")

    basis, arrays = rep.basis, {}
    for count in (basis.label_count, basis.label_count >> 1):
        arrays.update(leaves(oscillator._label_layout(basis, count), f"layout{count}"))
    arrays["Hermite rows"] = oscillator._gh_rows(basis.level, 2 * basis.level + 16)
    return arrays


@pytest.fixture
def eigensolves(monkeypatch):
    """Fresh contexts, and (caller module, shape, id of the array, the array) of every numpy eigh,
    eigvalsh and svd call."""
    oscillator_rep.cache_clear()
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        real = getattr(np.linalg, name)

        def counting(a, *args, real=real, **kwargs):
            calls.append((sys._getframe(1).f_globals.get("__name__"), np.shape(a), id(a), a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    yield calls
    oscillator_rep.cache_clear()


# ---------------------------------------------------------------------------
# immutability
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,level", [(1, 6), (2, 5)])
def test_context_arrays_are_read_only(dim, level):
    rep = oscillator_rep(dim, level)
    assert (rep.half is None) == (dim == 1)
    for ctx in (rep, rep.half) if dim > 1 else (rep,):
        for name, a in {**_context_arrays(ctx), **_plan_arrays(ctx)}.items():
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1
            assert not a.flags.writeable, name
        window = ctx.window(2, 2)
        assert isinstance(window, tuple) and window is ctx.window(2, 2)


def test_each_assembly_plan_is_built_once_per_key():
    # from cold caches: the sweeps of two suites at (2,6) build every plan they read once per key (no
    # key is dropped and rebuilt), a second run builds none, and the reports of the cold run and the
    # warm one are byte-identical
    oscillator_rep.cache_clear()
    for cache in PLAN_CACHES.values():
        cache.cache_clear()
    cfg = SweepConfig(dim=2, level=6, t_grid=(1.0, 2.0, 4.0))
    suites = ("dirac-commutator", "flip-endpoints")
    cold = [run_suite(suite, cfg) for suite in suites]
    built = {name: cache.cache_info() for name, cache in PLAN_CACHES.items()}
    warm = [run_suite(suite, cfg) for suite in suites]
    for name, cache in PLAN_CACHES.items():
        info = cache.cache_info()
        assert info.misses == built[name].misses == info.currsize > 0, (name, info)
        assert info.hits > built[name].hits, name
    for a, b in zip(cold, warm):
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
        assert a.csv_rows() == b.csv_rows()


def test_context_fields_cannot_be_rebound():
    rep = oscillator_rep(1, 6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.clifford = rep.dirac
    # nor can the fields of an operator
    for field in ("degree", "labels", "parity", "index", "blocks", "transpose"):
        with pytest.raises(AttributeError, match="set once"):
            setattr(rep.clifford, field, getattr(rep.number, field))


def test_spectral_matrix_keeps_a_private_copy():
    x = np.array([[1.0]])
    alias = x[:]  # a view taken before the graded matrix freezes x
    op = SpectralMatrix(GradedMatrix.from_blocks(1, (x, x.T), [0, 1]))
    alias[0, 0] = 5.0
    assert op.mat[0, 1] == op.mat[1, 0] == 1.0
    assert op.degree == 1


def test_spectral_matrix_rejects_asymmetric_input():
    with pytest.raises(ValueError, match="symmetric"):
        SpectralMatrix(GradedMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), [0, 0]))
    with pytest.raises(ValueError, match="symmetric"):
        SpectralMatrix(GradedMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]), [0, 1]))


def test_spectral_matrix_rejects_mixed_input():
    # a matrix of both degrees is rejected before it reaches the calculus
    with pytest.raises(ValueError, match="both degrees"):
        SpectralMatrix(GradedMatrix(np.ones((2, 2)), [0, 1]))


@pytest.mark.parametrize("dim,level", [(1, 6), (2, 5), (1, 12), (2, 10), (3, 6)])
def test_window_is_a_leading_segment(dim, level):
    # the basis is sorted by total level, so the window is a leading slice of
    # the full matrix, and inside each label block it is the leading
    # window[l] states
    rep = oscillator_rep(dim, level)
    labels = rep.basis.labels()
    full = np.arange(rep.basis.size)
    m = np.add.outer(full, 1000 * full).astype(float)
    for depth in range(level + 1):
        mask = interior_mask(rep.basis, depth)
        window = rep.window(depth)
        size = sum(window)
        assert np.array_equal(m[:size, :size], m[np.ix_(mask, mask)])
        assert size == np.count_nonzero(mask)
        assert len(window) == 2 ** (dim + 1)
        for count in (None, 2, 2 ** dim):
            window = rep.window(depth, count)
            coarse = labels & (len(window) - 1)
            for p, count in enumerate(window):
                # each label holds one level parity: at depth K only level 0 is left
                in_window = np.flatnonzero(mask & (coarse == p))
                assert count == len(in_window) > 0 or depth == level
                assert np.array_equal(in_window, np.flatnonzero(coarse == p)[:count])


@pytest.mark.parametrize("dim,level", [(1, 8), (2, 6), (3, 4)])
def test_context_bytes_bounds_the_context_built(dim, level):
    # the memory budget reads context_bytes: every block of C, D, B, N and H and every array of their
    # eigensystems together take no more
    arrays = _context_arrays(oscillator_rep(dim, level))
    built = sum(a.nbytes for name, a in arrays.items() if not name.endswith(("labels", "parity")))
    assert built <= context_bytes(dim, level)


def test_the_context_refuses_a_configuration_over_the_memory_budget(monkeypatch):
    # the library entry point reads the budget too, not only SweepConfig, and refuses before the cache:
    # with the budget at the bytes of (3,6), (3,8) is refused whether or not its context was built
    oscillator_rep(3, 8)
    monkeypatch.setattr(oscillator, "MEMORY_BUDGET", context_bytes(3, 6))
    for build in (lambda: oscillator_rep(3, 8), lambda: SweepConfig(dim=3, level=8)):
        with pytest.raises(ValueError, match="dim 3, levels 8 needs .* the largest level that fits at dim 3 is 6$"):
            build()
    assert oscillator_rep(3, 6).basis.level == 6
    assert MEMORY_BUDGET == 1 << 30  # still importable from the suites' layer


def test_window_depth_is_range_checked():
    rep = oscillator_rep(1, 6)
    assert sum(rep.window(0)) == rep.basis.size and sum(rep.window(6)) > 0
    with pytest.raises(ValueError, match="depth"):
        rep.window(7)
    with pytest.raises(ValueError, match="depth"):
        rep.window(-1)


# ---------------------------------------------------------------------------
# spectral reuse
# ---------------------------------------------------------------------------

def _solves_of_d(eigensolves, rep) -> list:
    """The eigensolves and SVDs whose array holds a block of D, or a copy of one."""
    return [shape for _, shape, _, a in eigensolves
            if any(np.shape(a) == b.shape and np.array_equal(a, b) for b in rep.dirac.blocks)]


@pytest.mark.parametrize("suite,read", [("cd-commutator", 2), ("dirac-commutator", 1)])
def test_commutator_suites_diagonalise_each_operator_once(eigensolves, suite, read):
    # the suite reads functions of ``read`` odd operators, C and D, but diagonalises C alone: one SVD
    # per even label of the R_2 = +1 half, 2 of the 2^n = 4 even labels at n = 2, and f(D) is
    # S f(C) S; the whole operator then diagonalises only the other half's
    cfg = SweepConfig(dim=2, level=8, t_grid=tuple(np.geomspace(1.0, 16.0, 5)))

    def funcalc_solves():
        return [shape for caller, shape, *_ in eigensolves if caller == "bottlab.funcalc"]

    report = run_suite(suite, cfg)
    assert len(funcalc_solves()) == 2
    assert all(name.count("/t)") == read for name in report.curves), report.curves
    run_suite(suite, cfg)  # a second run reuses the context's spectra
    assert len(funcalc_solves()) == 2
    rep = oscillator_rep(2, 8)
    whole = rep.clifford.eig
    # the half's eigensystems are the whole operator's at the even labels 0 and 4
    assert [e[0] for e in rep.half.clifford.eig] == [whole[0][0], whole[2][0]]
    assert all(a is b for eh, ew in zip(rep.half.clifford.eig, whole[::2]) for a, b in zip(eh, ew))
    assert len(funcalc_solves()) == 4
    assert _solves_of_d(eigensolves, rep) == []


def test_suites_keep_the_context_on_parity_blocks(eigensolves):
    # no eigensolve or SVD sees a full-size matrix, nor a parity block; the context's see label
    # blocks of one level parity, 16 (levels 0, 2, 4, 6) and 12 of the S = C(K + n, n) = 28 rows,
    # and only the bump's compactness profile, which breaks R_1, sees blocks of S rows.  The half
    # holds the whole context's blocks at the labels with bit 1 clear, the very arrays, and no
    # block is diagonalised twice, whether the whole operator or its half asked first; no block of
    # D, nor a copy of one, is diagonalised at all
    cfg = SweepConfig(dim=2, level=6)
    for suite in SUITES:
        run_suite(suite, cfg)
    basis = oscillator_rep(2, 6).basis
    size, s = basis.size, basis.spatial_size
    assert [c[:3] for c in eigensolves if c[1][-2:] in ((size, size), (size // 2, size // 2))] == []
    rep = oscillator_rep(2, 6)
    ops = (rep.clifford, rep.dirac, rep.bott, rep.harmonic)
    context = {b.shape for op in ops for b in op.blocks}
    assert context == {(16, 12), (12, 16), (16, 16), (12, 12)}
    assert {(16, 12), (16, 16), (12, 12)} <= {shape for caller, shape, *_ in eigensolves if caller == "bottlab.funcalc"}
    bump = [shape for caller, shape, *_ in eigensolves if caller == "bottlab.oscillator" and shape == (s, s)]
    assert bump == [(s, s)] * 4
    halves = (rep.half.clifford, rep.half.dirac, rep.half.bott, rep.half.harmonic)
    for op, half in zip(ops, halves):
        assert [id(b) for b in half.blocks] == [id(op.blocks[r]) for r in (0, 1, 4, 5)]
    assert _solves_of_d(eigensolves, rep) == []
    blocks = {id(b) for op in ops for b in op.blocks}
    solved = [i for caller, _, i, _ in eigensolves if caller == "bottlab.funcalc" and i in blocks]
    # C and B: one SVD per even label, 4 each; H: one eigh per label of the half only, 4 of 8,
    # because mehler, its one user, norms there
    assert len(solved) == len(set(solved)) == 4 + 4 + 4
    assert {i for i in solved if i in {id(b) for b in rep.harmonic.blocks}} == {id(b) for b in halves[3].blocks}


def test_no_suite_assembles_a_matrix_of_the_oscillator_space(monkeypatch):
    # a graded matrix is its two parity blocks; only small inputs and oracles
    # assemble a dense matrix, and none of them is as large as the oscillator space
    shapes = []
    assemble = graded._assemble

    def recording(*args):
        out = assemble(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(graded, "_assemble", recording)
    cfg = SweepConfig(dim=2, level=6)
    for suite in SUITES:
        run_suite(suite, cfg)
    size = oscillator_rep(2, 6).basis.size
    assert shapes, "the small inputs assemble"
    assert [s for s in shapes if max(s) >= size] == []


@pytest.mark.parametrize("name", ["clifford", "dirac", "bott"])
def test_context_route_matches_plain_route(name):
    # the context's route to f(D) is S f(C) S, through the eigensystem of C
    rep = oscillator_rep(2, 6)
    op = getattr(rep, name)
    plain = GradedMatrix(op.mat.copy(), op.parity.copy())
    for f in (gaussian(), x_gaussian()):
        for t in (1.0, 2.5, 8.0, 32.0):
            if name == "dirac":
                cached = rep.gauge(matrix_function(scale(f, t), rep.clifford)).mat
            else:
                cached = matrix_function(scale(f, t), op).mat
            direct = matrix_function(scale(f, t), plain).mat
            assert np.abs(cached - direct).max() <= 1e-13, (name, f.name, t)


def _defects(t: float) -> tuple:
    """s1s2-asymptotics' defect at t, for its first coefficient, and its weighted defect."""
    s1 = mehler_coefficients(t ** -2)[0]
    defect = GradedFunction(lambda x: np.exp(-s1 / 2.0 * x * x) - np.exp(-(t ** -2) / 2.0 * x * x), 0, "defect")
    return defect, GradedFunction(lambda x: x / t * defect(x), 1, "weighted defect")


@pytest.mark.parametrize("dim,level", [(1, 8), (2, 6), (3, 4), (2, 16)])
def test_gauge_route_matches_the_eigen_route(dim, level):
    # f(D) as S f(C) S against f of a plain copy of D through its own eigensystem, on the whole
    # context and on its half, on the whole space, the interior window and mehler's deep window
    heat = GradedFunction(lambda x: np.exp(-0.3 * x * x), 0, "exp(-0.3 x^2)")
    whole = oscillator_rep(dim, level)
    for rep in (whole, whole.half) if dim > 1 else (whole,):
        assert not isinstance(rep.dirac, SpectralMatrix)
        d = GradedMatrix.from_blocks(1, [b.copy() for b in rep.dirac.blocks], rep.dirac.labels, rep.dirac.index)
        d = SpectralMatrix(d)  # its eigensystem, computed once for every function below
        windows = (WHOLE, rep.window(2), rep.window(level - max(2, level // 3)))
        for t in (1.0, 4.0, 32.0):
            for f in (*(scale(g, t) for g in (gaussian(), x_gaussian(), heat)), *_defects(t)):
                for w in windows:
                    got, want = rep.gauge(matrix_function(f, rep.clifford, w)), matrix_function(f, d, w)
                    assert (got.degree, got.transpose, want.transpose) == (want.degree, 1, 1)
                    assert np.array_equal(got.labels, want.labels)
                    for a, b in zip(got.blocks, want.blocks, strict=True):
                        assert a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= 1e-13, (f.name, t)
        # on the coarser labels without R_1, where the bump's operator lives, the gauge reads its own signs
        count = rep.basis.label_count >> 1
        for fc in (matrix_function(f, rep.clifford) for f in (gaussian(), x_gaussian())):
            assert np.array_equal(rep.gauge(regroup(fc, count)).mat, regroup(rep.gauge(fc), count).mat)


# ---------------------------------------------------------------------------
# thread safety
# ---------------------------------------------------------------------------

def _race(fn, count=8) -> list:
    """Call fn from ``count`` threads released together; return the results.

    More threads than cores and a short switch interval make an unguarded
    check-then-compute interleave.
    """
    barrier = threading.Barrier(count, timeout=30)
    out = [None] * count

    def worker(i):
        barrier.wait()
        out[i] = fn()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(count)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(th.is_alive() for th in threads)
    return out


def test_concurrent_spectrum_requests_share_one_eigensolve(monkeypatch):
    # an even matrix: one eigh per parity block, shared by every thread
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 40))
    par = np.arange(40) & 1
    op = SpectralMatrix(GradedMatrix((a + a.T) * (par[:, None] == par[None, :]), par))
    calls = []
    real = np.linalg.eigh

    def slow(m, *args, **kwargs):
        calls.append(1)
        time.sleep(0.05)  # hold the window open for the other threads
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", slow)
    results = _race(lambda: op.eig)
    assert len(calls) == 2
    assert all(r is results[0] for r in results)


def test_concurrent_first_calls_share_one_context(monkeypatch):
    oscillator_rep.cache_clear()
    real = oscillator.clifford_operator

    def slow(basis):
        time.sleep(0.05)
        return real(basis)

    monkeypatch.setattr(oscillator, "clifford_operator", slow)
    results = _race(lambda: oscillator_rep(2, 5))
    oscillator_rep.cache_clear()
    assert all(r is results[0] for r in results)
