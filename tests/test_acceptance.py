"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold (visible with
``pytest -s`` or on failure), pins the tolerances stated in the package
contract, and enforces its runtime budget.  Nothing here may be loosened:
if a criterion cannot be met the test must fail.
"""

import math
import time

import numpy as np

from bottlab import cli
from bottlab.clifford import Signature, blade_relation_residual, regular_representation
from bottlab.funcalc import delta_via_xr_check, gaussian, matrix_function
from bottlab.graded import tensor_product_witness
from bottlab.oscillator import (
    b_squared_identity_check,
    level_multiplicity,
    multiplication_operator,
    oscillator_rep,
    spectrum,
)
from bottlab.verify import EIGHT_IN_FOUR_FOUR, MEHLER_S, SweepConfig, _gaussian_bott_map, monotone_after, run_suite


def _report(line: str, elapsed: float, budget: float):
    print(f"{line}  [{elapsed:.1f}s < {budget:.0f}s]")
    assert elapsed < budget, f"runtime budget exceeded: {elapsed:.1f}s >= {budget:.0f}s"


def test_criterion_1_clifford_relations_and_witnesses():
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 6):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            gens = regular_representation(sig)
            eye = np.eye(sig.blade_count)
            for i, gi in enumerate(gens):
                for j, gj in enumerate(gens):
                    target = 2.0 * sig.square_sign(i + 1) * eye if i == j else 0.0 * eye
                    worst = max(worst, float(np.abs(gi @ gj + gj @ gi - target).max()))
    assert worst == 0.0, f"low-rank relations not exact: {worst:.3e}"

    res2, span2 = tensor_product_witness(Signature(1, 0), Signature(1, 0))
    assert res2 <= 1e-10, f"tensor-square witness residual {res2:.3e}"
    assert span2 == 4

    res8 = blade_relation_residual(EIGHT_IN_FOUR_FOUR, Signature(8, 0), Signature(4, 4))
    assert res8 <= 1e-10, f"rank-8 witness residual {res8:.3e}"

    _report("criterion 1 PASS: relations exact through rank 5; "
            f"witness residuals {res2:.1e} / {res8:.1e}",
            time.monotonic() - start, 10.0)


def test_criterion_2_squared_supercharge_identity():
    start = time.monotonic()
    residuals = {}
    for dim, level in ((1, 12), (2, 10), (3, 8)):
        r = b_squared_identity_check(oscillator_rep(dim, level))
        residuals[(dim, level)] = r
        assert r <= 1e-12, f"(n,K)=({dim},{level}): residual {r:.3e}"
    worst = max(residuals.values())
    _report(f"criterion 2 PASS: interior identity residual <= {worst:.1e} "
            "at (1,12), (2,10), (3,8)", time.monotonic() - start, 30.0)


def test_criterion_3_integer_spectrum_and_kernel():
    start = time.monotonic()
    for dim, level in ((1, 12), (2, 10), (3, 8)):
        res = spectrum(oscillator_rep(dim, level))
        for value, mult in res.clusters:
            nearest = 2.0 * round(value / 2.0)
            assert nearest >= -1e-8, f"negative eigenvalue {value}"
            assert abs(value - nearest) <= 1e-8, f"n={dim}: {value} not an even integer"
            expected = level_multiplicity(dim, int(round(value / 2.0)))
            assert mult == expected, (
                f"n={dim}, eigenvalue {value}: multiplicity {mult} != {expected}")
        assert res.clusters[0] == (0.0, 1), f"n={dim}: kernel not one-dimensional"
        assert res.kernel_overlap >= 1.0 - 1e-10, f"n={dim}: overlap {res.kernel_overlap}"
    _report("criterion 3 PASS: even-integer spectrum, simple Gaussian kernel, "
            "multiplicities match counting for n <= 3", time.monotonic() - start, 60.0)


def test_criterion_4_mehler_factorizations():
    start = time.monotonic()
    finals = {}
    for level in (12, 16, 20):
        rep = run_suite("mehler", SweepConfig(dim=1, level=level))
        worst = max(max(c) for c in rep.curves.values())
        finals[level] = worst
        if level == 20:
            assert rep.passed
            for name, curve in rep.curves.items():
                for s, val in zip(MEHLER_S, curve):
                    assert val <= 1e-6, f"{name} at s={s}: {val:.3e}"
    assert finals[12] > finals[16] > finals[20], f"no improvement with level: {finals}"
    _report(f"criterion 4 PASS: both factorizations <= 1e-6 at K=20 "
            f"(worst {finals[20]:.1e}); residual falls 12 -> 20 "
            f"({finals[12]:.1e} -> {finals[20]:.1e})",
            time.monotonic() - start, 120.0)


def test_criterion_5_commutator_decay():
    start = time.monotonic()
    cfg = SweepConfig(dim=1, level=16)
    worst_ratio = 0.0
    for suite in ("dirac-commutator", "cd-commutator"):
        rep = run_suite(suite, cfg)
        assert rep.passed, rep.notes
        ts = [t for t, _ in rep.datapoints]
        for name, curve in rep.curves.items():
            assert monotone_after(ts, curve), f"{suite} {name}: not non-increasing"
            ratio = curve[-1] / curve[0]
            worst_ratio = max(worst_ratio, ratio)
            assert ratio <= 0.25, f"{suite} {name}: final/initial {ratio:.3e}"
        assert rep.fit is not None and rep.fit[0] < 0, f"{suite}: exponent {rep.fit}"
    _report(f"criterion 5 PASS: every commutator curve decays at K=16 "
            f"(worst final/initial {worst_ratio:.1e})",
            time.monotonic() - start, 120.0)


def test_criterion_6_composition_against_morphism():
    start = time.monotonic()
    rep = run_suite("composition-gamma", SweepConfig(dim=1, level=20))
    assert rep.passed, rep.notes
    ts = [t for t, _ in rep.datapoints]
    ratios = {}
    for name, curve in rep.curves.items():
        ratios[name] = curve[-1] / curve[0]
        assert ratios[name] <= 1e-2, f"{name}: {ratios[name]:.3e}"

    osc = oscillator_rep(1, 20)
    direct = matrix_function(gaussian(), osc.clifford).mat
    quad = multiplication_operator(_gaussian_bott_map(1, odd=False), osc.basis, nodes=21).mat
    mdiff = float(np.linalg.norm(direct - quad, 2))
    assert mdiff <= 1e-6, f"position-calculus identity: {mdiff:.3e}"
    _report(f"criterion 6 PASS: composition residuals {ratios} at K=20; "
            f"multiplication vs position calculus {mdiff:.1e}",
            time.monotonic() - start, 120.0)


def test_criterion_7_homotopy_to_projection():
    start = time.monotonic()
    rep = run_suite("homotopy-projection", SweepConfig(dim=1, level=14))
    assert rep.passed, rep.notes
    svals = [t for t, _ in rep.datapoints]
    assert math.isclose(svals[-1], 0.05, rel_tol=1e-9)
    u_curve = rep.curves["u-to-projection"]
    v_curve = rep.curves["v-to-zero"]
    assert u_curve[-1] <= 1e-6, f"u distance to projection: {u_curve[-1]:.3e}"
    assert v_curve[-1] <= 1e-6, f"v norm: {v_curve[-1]:.3e}"
    assert monotone_after(range(len(u_curve)), u_curve, start=0.0)
    assert monotone_after(range(len(v_curve)), v_curve, start=0.0)
    _report(f"criterion 7 PASS: at s=0.05, K=14 the even generator reaches the "
            f"Gaussian projection ({u_curve[-1]:.1e}) and the odd one vanishes "
            f"({v_curve[-1]:.1e})", time.monotonic() - start, 60.0)


def test_criterion_8_comultiplication_consistency():
    start = time.monotonic()
    res = {}
    for level in (12, 18, 24):
        c = delta_via_xr_check(level)
        res[level] = (c.residual_u, c.residual_v)
    u24, v24 = res[24]
    assert u24 <= 1e-10, f"u residual at 24: {u24:.3e}"
    assert v24 <= 1e-8, f"v residual at 24: {v24:.3e}"
    # decreasing with truncation, within the floating-point noise floor
    for which in (0, 1):
        seq = [res[level][which] for level in (12, 18, 24)]
        assert monotone_after(range(3), seq, start=0.0), seq
    _report(f"criterion 8 PASS: expansion residuals at truncation 24: "
            f"u {u24:.1e}, v {v24:.1e}", time.monotonic() - start, 30.0)


def test_criterion_9_full_report_run(tmp_path, capsys):
    start = time.monotonic()
    code = cli.main(["report-all", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    assert code == 0, f"report-all exited {code}:\n{out}"
    assert "overall: PASS (11 suites" in out
    with capsys.disabled():
        _report("criterion 9 PASS: report-all exits 0 with all 11 suites "
                "(sign laws, flip endpoints, parity structure, calculus checks)",
                elapsed, 300.0)
