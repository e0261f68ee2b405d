"""Tests for the cached operator context: immutability, spectral reuse, threads."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

import bottlab.oscillator as oscillator
from bottlab.funcalc import SpectralMatrix, gaussian, matrix_function, scale, x_gaussian
from bottlab.graded import GradedMatrix
from bottlab.oscillator import oscillator_rep
from bottlab.verify import SweepConfig, run_suite


def _context_arrays(rep) -> dict:
    ops = {"C": rep.clifford, "D": rep.dirac, "B": rep.bott, "N": rep.number, "H": rep.harmonic}
    arrays = {}
    for name, op in ops.items():
        arrays[name] = op.mat
        arrays[f"{name}.parity"] = op.parity
    for name in ("C", "D", "B", "H"):
        arrays[f"w{name}"], arrays[f"Q{name}"] = ops[name].eig
    return arrays


@pytest.fixture
def eigh_calls(monkeypatch):
    """Fresh contexts, and the shapes of every numpy.linalg.eigh call."""
    oscillator_rep.cache_clear()
    calls = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    yield calls
    oscillator_rep.cache_clear()


# ---------------------------------------------------------------------------
# immutability
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,level", [(1, 6), (2, 5)])
def test_context_arrays_are_read_only(dim, level):
    for name, a in _context_arrays(oscillator_rep(dim, level)).items():
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1
        assert not a.flags.writeable, name


def test_context_fields_cannot_be_rebound():
    rep = oscillator_rep(1, 6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.clifford = rep.dirac


def test_spectral_matrix_keeps_a_private_copy():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    op = SpectralMatrix(m, [0, 1])
    m[0, 1] = 5.0
    assert op.mat[0, 1] == 1.0
    assert op.op_parity == 1


def test_spectral_matrix_rejects_asymmetric_input():
    with pytest.raises(ValueError, match="symmetric"):
        SpectralMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), [0, 0])


@pytest.mark.parametrize("dim,level", [(1, 6), (2, 5), (1, 12), (2, 10), (3, 6)])
def test_window_is_a_leading_segment(dim, level):
    # the basis is sorted by total level, so slicing equals mask indexing, and
    # inside each parity block the window is the leading block_sizes[r] states
    rep = oscillator_rep(dim, level)
    par = rep.basis.parity()
    full = np.arange(rep.basis.size)
    m = np.add.outer(full, 1000 * full).astype(float)
    for depth in range(level + 1):
        mask = rep.basis.interior_mask(depth)
        window = rep.window(depth)
        assert np.array_equal(rep.restricted(m, depth), m[np.ix_(mask, mask)])
        assert window.size == np.count_nonzero(mask)
        for p, count in enumerate(window.block_sizes):
            in_window = np.flatnonzero(mask & (par == p))
            assert count == len(in_window) > 0
            assert np.array_equal(in_window, np.flatnonzero(par == p)[:count])


def test_window_depth_is_range_checked():
    rep = oscillator_rep(1, 6)
    m = np.zeros((rep.basis.size, rep.basis.size))
    with pytest.raises(ValueError, match="depth"):
        rep.restricted(m, depth=7)
    with pytest.raises(ValueError, match="depth"):
        rep.restricted(m, depth=-1)
    with pytest.raises(ValueError, match="depth"):
        rep.window(-1)


# ---------------------------------------------------------------------------
# spectral reuse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite,expected", [("cd-commutator", 2), ("dirac-commutator", 1)])
def test_commutator_suites_diagonalise_each_operator_once(eigh_calls, suite, expected):
    cfg = SweepConfig(dim=2, level=8, t_grid=tuple(np.geomspace(1.0, 16.0, 5)))
    run_suite(suite, cfg)
    assert len(eigh_calls) == expected
    run_suite(suite, cfg)  # a second run reuses the context's spectra
    assert len(eigh_calls) == expected


@pytest.mark.parametrize("name", ["clifford", "dirac", "bott"])
def test_context_route_matches_plain_route(name):
    op = getattr(oscillator_rep(2, 6), name)
    plain = GradedMatrix(op.mat.copy(), op.parity.copy())
    for f in (gaussian(), x_gaussian()):
        for t in (1.0, 2.5, 8.0, 32.0):
            cached = matrix_function(scale(f, t), op).mat
            direct = matrix_function(scale(f, t), plain).mat
            assert np.abs(cached - direct).max() <= 1e-13, (name, f.name, t)


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
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 40))
    op = SpectralMatrix(a + a.T, np.zeros(40))
    calls = []
    real = np.linalg.eigh

    def slow(m, *args, **kwargs):
        calls.append(1)
        time.sleep(0.05)  # hold the window open for the other threads
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", slow)
    results = _race(lambda: op.eig)
    assert len(calls) == 1
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
