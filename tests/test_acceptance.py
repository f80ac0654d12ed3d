"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
budgets here are the full ones (1e6/1e7 samples where stated), so this
module takes a few minutes; criteria 3-8 share single full runs of the
verification suites via session fixtures.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from blas_core import golden_mismatch
from saflow.cli import main as cli_main
from saflow.distances import dist, success
from saflow.measurement import add_noise, gen_sensing, gen_signal, observe, trial_seed
from saflow.metrics import ExperimentSpec, run_iteration_table, run_success_sweep
from saflow.solvers import GdConfig, gd_saf, random_init
from saflow.verify import run_suite, write_report_csv

TOL_REL_ERR = 1e-5
GOLDEN = Path(__file__).parent / "golden"


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _rows_by_id(rows):
    out = {}
    for r in rows:
        out.setdefault(r.check_id, []).append(r)
    return out


@pytest.fixture(scope="session")
def calculus_report():
    return run_suite("calculus", quick=False, seed=0)


@pytest.fixture(scope="session")
def calculus_rows(calculus_report):
    return _rows_by_id(calculus_report)


@pytest.fixture(scope="session")
def expectation_report():
    return run_suite("expectations", quick=False, seed=0)


@pytest.fixture(scope="session")
def expectation_rows(expectation_report):
    return _rows_by_id(expectation_report)


@pytest.fixture(scope="session")
def landscape_report():
    return run_suite("landscape", quick=False, seed=0)


@pytest.fixture(scope="session")
def landscape_rows(landscape_report):
    return _rows_by_id(landscape_report)


@pytest.fixture(scope="session")
def appendix_report():
    return run_suite("appendix", quick=False, seed=0)


@pytest.fixture(scope="session")
def appendix_rows(appendix_report):
    return _rows_by_id(appendix_report)


def test_criterion_1_success_rates():
    config = GdConfig(mu=0.6, beta=0.5, max_iter=2000, err_tol=TOL_REL_ERR)
    real = run_success_sweep(ExperimentSpec(
        n=128, field="real", m_over_n=(1, 5, 8), trials=50, config=config,
        algorithms=("saf-random",), base_seed=0))
    comp = run_success_sweep(ExperimentSpec(
        n=128, field="complex", m_over_n=(6,), trials=50, config=config,
        algorithms=("saf-random",), base_seed=0))
    rate = {("real", r.m_over_n): r.success_rate for r in real}
    rate[("complex", 6.0)] = comp[0].success_rate
    ok = (rate[("real", 1.0)] <= 0.05
          and rate[("real", 5.0)] >= 0.95
          and rate[("real", 8.0)] >= 0.95
          and rate[("complex", 6.0)] >= 0.95)
    detail = (f"real m/n=1: {rate[('real', 1.0)]:.2f} (need <=0.05), "
              f"m/n=5: {rate[('real', 5.0)]:.2f} (need >=0.95), "
              f"m/n=8: {rate[('real', 8.0)]:.2f} (need >=0.95), "
              f"complex m/n=6: {rate[('complex', 6.0)]:.2f} (need >=0.95)")
    assert _report(1, "success-rate reproduction", ok, detail), detail


def test_criterion_2_iteration_ordering():
    spec = ExperimentSpec(
        n=200, field="real", m_over_n=(8,), trials=11,
        config=GdConfig(mu=0.8, beta=0.5, max_iter=3000),
        algorithms=("saf-spectral", "saf-random", "wf", "twf", "taf"),
        base_seed=0, power_iters=50, thresholds=(1e-5,))
    rows = run_iteration_table(spec)
    med = {(r.algorithm, r.init): r.median_iters for r in rows}
    saf_s = med[("saf", "spectral")]
    saf_r = med[("saf", "random")]
    wf, twf, taf = med[("wf", "spectral")], med[("twf", "spectral")], med[("taf", "spectral")]
    # "approximately equal" read as within a factor of two at desk scale
    ok = (wf > twf >= taf and taf <= 2 * saf_s and 25 <= saf_r <= 120)
    detail = (f"median iters to 1e-5: WF={wf:.0f} > TWF={twf:.0f} >= TAF={taf:.0f} "
              f"~ SAF-spectral={saf_s:.0f}; SAF-random={saf_r:.0f} in [25,120]")
    assert _report(2, "iteration ordering", ok, detail), detail


def test_criterion_3_saddle_curvature(landscape_rows):
    rows = (landscape_rows["saddle_curvature_negative"]
            + landscape_rows["saddle_curvature_at_half"]
            + landscape_rows["saddle_curvature_mc"])
    ok = all(r.passed for r in rows)
    detail = "; ".join(f"{r.check_id}: {r.actual}" for r in rows)
    assert _report(3, "saddle curvature closed form + MC", ok, detail), detail


def test_criterion_4_expectation_oracles(expectation_rows):
    rows = [r for cid, rs in expectation_rows.items()
            if cid.startswith("expected_") for r in rs]
    assert len(rows) == 10  # two statistics at five alignments
    ok = all(r.passed for r in rows)
    bad = [f"{r.check_id}[{r.input}]" for r in rows if not r.passed]
    detail = f"{len(rows)} MC-vs-closed-form checks within 3 std errors" \
        if ok else f"failed: {bad}"
    assert _report(4, "expectation oracles", ok, detail), detail


def test_criterion_5_derivative_under_indicator(expectation_rows):
    fd = [r for cid, rs in expectation_rows.items()
          if cid.startswith("rate_quad_vs_mc_fd") for r in rs]
    zero = [r for cid, rs in expectation_rows.items()
            if cid.startswith("rate_signed_zero") for r in rs]
    assert len(fd) == 24 and len(zero) == 6
    ok = all(r.passed for r in fd + zero)
    bad = [f"{r.check_id}[{r.input}]" for r in fd + zero if not r.passed]
    detail = ("quadrature vs MC finite differences at all (sigma, lam); "
              "signed cases exactly 0 at sigma=0") if ok else f"failed: {bad}"
    assert _report(5, "derivative under indicator", ok, detail), detail


def _assert_matches_golden(report, name, tmp_path):
    path = tmp_path / name
    write_report_csv(report, path)
    assert path.read_bytes() == (GOLDEN / name).read_bytes(), golden_mismatch(name)


def test_expectations_full_matches_golden(expectation_report, tmp_path):
    # the 62 full-budget rows, byte for byte (tests/golden/README.md)
    _assert_matches_golden(expectation_report, "expectations_full.csv", tmp_path)


@pytest.mark.parametrize("suite", ["calculus", "landscape", "appendix"])
def test_full_suite_matches_golden(suite, request, tmp_path):
    # the full-budget rows beyond their pass flags, byte for byte
    _assert_matches_golden(request.getfixturevalue(f"{suite}_report"), f"{suite}_full.csv",
                           tmp_path)


def test_full_goldens_make_up_the_full_verify_all_csv():
    # `saflow verify all --seed 0` writes the header and then each suite's
    # rows in this order, so the four goldens above pin every byte of it
    parts = [(GOLDEN / f"{suite}_full.csv").read_bytes().split(b"\n", 1)
             for suite in ("calculus", "expectations", "landscape", "appendix")]
    assert [len(rows.splitlines()) for _, rows in parts] == [9, 62, 15, 20]
    assert len({header for header, _ in parts}) == 1
    full = parts[0][0] + b"\n" + b"".join(rows for _, rows in parts)
    assert hashlib.sha256(full).hexdigest() == (
        "d2595ff35350d73cc9ed8af938a2690fdc6c1d27d23c5ed9a8da3730a3fe1576")


def test_criterion_6_integral_constants(appendix_rows):
    ids = ("weighted_kernel_integral", "alignment_prefactor_limit",
           "rational_integral_t_quarter", "rational_integral_t_third",
           "sqrt_gap_poly_at_two_thirds", "arcsin_combination_nonnegative",
           "ratio_deriv_nonnegative")
    rows = [r for cid in ids for r in appendix_rows[cid]]
    ok = all(r.passed for r in rows)
    detail = "; ".join(f"{r.check_id}={r.actual}" for r in rows[:4]) + "; ..." \
        if ok else "; ".join(f"{r.check_id}: {r.actual}" for r in rows if not r.passed)
    assert _report(6, "integral constants", ok, detail), detail


def test_criterion_7_calculus_properties(calculus_rows):
    ids = ("gradient_vs_central_fd", "psi_u_upper_bound", "psi_u_lower_bound",
           "psi_u_lipschitz", "curvature_cubic_nonnegative",
           "curvature_cubic_zero_at_beta")
    rows = [r for cid in ids for r in calculus_rows[cid]]
    ok = all(r.passed for r in rows)
    detail = ("gradient-FD rel err and 1e6-sample derivative bounds hold "
              "(u-Lipschitz constant max(1, 1/beta-1/2); the weaker "
              "max(1, |2-1/beta|) form is provably violated)") \
        if ok else "; ".join(f"{r.check_id}: {r.actual}" for r in rows if not r.passed)
    assert _report(7, "calculus properties", ok, detail), detail


def test_criterion_8_empirical_landscape(landscape_rows):
    ids = ("scan_radial_gradient_positive", "scan_curvature_x_negative",
           "scan_strong_convexity_near_truth")
    rows = [r for cid in ids for r in landscape_rows[cid]]
    ok = all(r.passed for r in rows)
    detail = "; ".join(f"{r.check_id}: worst={r.actual}" for r in rows)
    assert _report(8, "empirical landscape scan", ok, detail), detail


def test_criterion_9_noise_robustness():
    # Each noisy solve has a noiseless twin on the same x, A and random start.
    # At m = 5n about 7.6% of random starts miss x with or without noise,
    # nearly all in a spurious local minimizer, so the noise floor is
    # asserted only on starts whose twin recovers x.  The guard keeps that
    # assertion from being empty: it trips at 4+ failed twins in 10, which a
    # 7.6% miss rate gives about 0.5% of the time.
    config = GdConfig(mu=0.8, beta=0.5, max_iter=600)
    noisy_errs, recovered = [], []
    for k in range(10):
        seed = trial_seed(0, k)
        x = gen_signal(128, "real", seed)
        A = gen_sensing(640, 128, "real", seed)
        clean = observe(A, x)
        start = random_init(128, "real", seed)
        twin = gd_saf(A, clean, config, start, truth=x)
        noisy = gd_saf(A, add_noise(clean, 0.01, seed), config, start, truth=x)
        recovered.append(success(twin.final, x))
        noisy_errs.append(dist(noisy.final, x) / float(np.linalg.norm(x)))
    floor_ok = all(1e-4 <= e <= 1e-1
                   for e, rec in zip(noisy_errs, recovered) if rec)
    ok = floor_ok and sum(recovered) >= 7
    detail = (f"noisy rel errs: {['%.1e' % e for e in noisy_errs]}; "
              f"noiseless twins recovered x: {sum(recovered)}/10 (need >=7); "
              f"starts whose twin missed x: {[k for k, rec in enumerate(recovered) if not rec]}; "
              f"noisy errs of recovered starts in [1e-4, 1e-1]: {floor_ok}")
    assert _report(9, "noise robustness", ok, detail), detail


def test_criterion_10_determinism(tmp_path):
    def run_twice(args, outputs):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / f"{hash(tuple(args)) & 0xFFFF}_{sub}"
            code = cli_main(args + ["--out", str(out)])
            assert code == 0
            blobs.append(tuple((out / f).read_bytes() for f in outputs))
        return blobs[0] == blobs[1]

    cfg_sweep = tmp_path / "sweep.json"
    cfg_sweep.write_text(json.dumps({
        "mode": "success", "n": 16, "m_over_n": [2, 6], "trials": 4,
        "mu": 0.6, "max_iter": 600, "base_seed": 1}))
    cfg_bench = tmp_path / "bench.json"
    cfg_bench.write_text(json.dumps({
        "n": 16, "m_over_n": 8, "trials": 3, "mu": 0.8, "max_iter": 800,
        "algorithms": ["saf-random", "taf"]}))

    checks = {
        "solve": run_twice(["solve", "--n", "24", "--m", "144", "--seed", "5"],
                           ("trace.csv", "summary.json")),
        "sweep": run_twice(["sweep", str(cfg_sweep)], ("success.csv",)),
        "bench": run_twice(["bench", str(cfg_bench), "--no-timing"],
                           ("iterations.csv",)),
        "verify": run_twice(["verify", "appendix"], ("verify_appendix.csv",)),
    }
    ok = all(checks.values())
    detail = ", ".join(f"{k}: {'byte-identical' if v else 'MISMATCH'}"
                       for k, v in checks.items())
    assert _report(10, "determinism", ok, detail), detail
