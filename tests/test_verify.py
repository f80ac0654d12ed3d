import math

import numpy as np
import pytest

import saflow.landscape as ls
import saflow.parallel
from saflow.calculus import phi
from saflow.measurement import rng_for
from saflow.verify import (CheckResult, _bound, _close, _mc, g_saddle_weight, g_signed_abs_ts,
                           g_ssq, g_tsq, run_suite, suite_landscape, write_report_csv)


@pytest.mark.parametrize("name", ["calculus", "expectations", "landscape", "appendix"])
def test_suites_pass_quick(name):
    rows = run_suite(name, quick=True)
    failed = [r for r in rows if not r.passed]
    assert not failed, [f"{r.check_id}: expected {r.expected}, got {r.actual}" for r in failed]


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("topology")


def test_report_csv_format(tmp_path):
    rows = run_suite("appendix", quick=True)
    path = tmp_path / "report.csv"
    write_report_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "check_id,input,expected,actual,tolerance,pass"
    assert len(lines) == len(rows) + 1
    assert all(line.endswith(("true", "false")) for line in lines[1:])
    assert all(r.passed for r in rows)


def test_saddle_mc_bitwise_equal_to_its_own_loop():
    # the saddle check's statistic on the shared engine (sigma = 0, lam = inf)
    # against the loop it replaced, on each batch's draws rounded to float32,
    # weighted by 2/(V^2 + W^2) and with float32 values summed a leaf at a
    # time, as the engine scores: U = 0 V + 1 W differs from W at most in the
    # sign of a zero, which phi ignores
    samples = 2_000_001
    est = ls._mc_estimates([(g_saddle_weight, 0.0, np.inf, None)], samples, 0, 11)[0]
    rng = rng_for(0, 11)
    total = total_sq = 0.0
    done = 0
    while done < samples:
        k = min(2_000_000, samples - done)
        vv = rng.standard_normal(k).astype(np.float32)
        uu = rng.standard_normal(k).astype(np.float32)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(vv != 0, uu / np.where(vv != 0, vv, 1.0), np.inf)
        vals = (phi(t, 0.5) * vv * vv).astype(np.float32) * (2 / (vv * vv + uu * uu))
        for a in range(0, k, ls._MC_LEAF):
            leaf = vals[a:a + ls._MC_LEAF]
            total += float(leaf.sum())
            total_sq += float((leaf * leaf).sum())
        done += k
    mean = total / samples
    se = math.sqrt(max(total_sq / samples - mean * mean, 0.0) / samples)
    assert (est.mean, est.std_error) == (mean, se)


# values seed 0 never draws: +-0, subnormals, a normal minimum, products that
# underflow or overflow, and ratios exactly on phi's jump at |t/s| = 1/2
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-200, -1e-200,
          0.5, -0.5, 1.0, -1.0, 2.0, 3.0, 1e200, -1e200, 1.7976931348623157e308]
_T, _S = (a.ravel() for a in np.meshgrid(_EDGES, _EDGES))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_squared_statistics_keep_the_bits_of_the_zero_term_form():
    # t^2 + 0 s and s^2 + 0 t, the forms these replaced, add only a zero
    with np.errstate(over="ignore"):
        assert _bits(g_tsq(_T, _S)) == _bits(np.asarray(_T) ** 2 + 0.0 * np.asarray(_S))
        assert _bits(g_ssq(_T, _S)) == _bits(np.asarray(_S) ** 2 + 0.0 * np.asarray(_T))
        for t, s in zip(_T.tolist(), _S.tolist()):  # the quadrature passes floats
            assert _bits(g_tsq(t, s)) == _bits(np.asarray(t) ** 2 + 0.0 * np.asarray(s))
            assert _bits(g_ssq(t, s)) == _bits(np.asarray(s) ** 2 + 0.0 * np.asarray(t))


def test_signed_abs_statistic_is_sgn_times_abs_but_for_the_sign_of_zero():
    with np.errstate(over="ignore", under="ignore"):
        ts = _T * _S
        new = g_signed_abs_ts(_T, _S)
        old = np.sign(ts) * np.abs(ts)
        for k, (t, s) in enumerate(zip(_T.tolist(), _S.tolist())):
            assert g_signed_abs_ts(t, s) == old[k]
    zero = ts == 0
    assert zero.any() and np.signbit(new[zero]).any()  # -0 where old gives +0
    assert _bits(new[~zero]) == _bits(old[~zero])
    assert (new[zero] == 0).all() and (old[zero] == 0).all()


def test_saddle_weight_keeps_the_bits_of_the_signed_ratio_form():
    # phi(t/s) with the infinite ratio at s = 0 spelled out, as it was
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        ratio = np.where(_S != 0, _T / np.where(_S != 0, _S, 1.0), np.inf)
        old = phi(ratio, 0.5) * _S * _S
        new = g_saddle_weight(_T, _S)
    assert (np.abs(ratio) == 0.5).any() and (_S == 0).any()
    assert _bits(new) == _bits(old)


@pytest.mark.parametrize("op,at_limit", [("<", False), ("<=", True), (">", False), (">=", True)])
def test_bound_rule_prints_its_limit_text_and_is_strict_only_for_strict_ops(op, at_limit):
    assert _bound("c", "in", "e", 1e-9, op, "1e-09") == CheckResult(
        "c", "in", "e", "1e-09", "1e-09", at_limit)
    assert _bound("c", "in", "e", 0.5, op, "0.25").passed == (op in (">", ">="))
    assert not _bound("c", "in", "e", math.nan, op, "0.25").passed


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_bound_rule_judges_the_worst_value_and_fails_on_any_nan(op):
    values = np.array([0.5, -1.5, 2.5, 0.0])
    worst = -1.5 if op[0] == ">" else 2.5
    assert _bound("c", "in", "e", values, op, "0").actual == repr(worst)
    assert _bound("c", "in", "e", [values[:2], values[2:]], op, "0").actual == repr(worst)
    for i in range(len(values)):
        spoiled = values.copy()
        spoiled[i] = math.nan
        row = _bound("c", "in", "e", spoiled, op, "-10" if op[0] == ">" else "10")
        assert (row.actual, row.passed) == ("nan", False)
    assert _bound("c", "in", "e", 0.5, op, "0").actual == "0.5"
    with pytest.raises(ValueError):
        _bound("c", "in", "e", [], op, "0")


def test_close_rule_passes_at_exactly_its_tolerance():
    assert _close("c", "in", 1.0, 1.5, "0.5") == CheckResult("c", "in", "1.0", "1.5", "0.5", True)
    assert not _close("c", "in", 1.0, 1.5000000000000002, "0.5").passed
    assert not _close("c", "in", 1.0, math.nan, "0.5").passed
    assert not _close("c", "in", math.nan, 1.0, "0.5").passed


def test_mc_rule_prints_mean_and_standard_error():
    est = ls.MCEstimate(-0.125, 4.1e-05, 10)
    assert _mc("c", "in", "e", est, True) == CheckResult(
        "c", "in", "e", "-0.125 (se=4.10e-05)", "3 std errors", True)
    nan = ls.MCEstimate(math.nan, 1.0, 10)
    assert not _mc("c", "in", "e", nan, abs(nan.mean) <= 3 * nan.std_error).passed


def test_scan_row_fails_on_a_nan_probe_in_its_region(monkeypatch):
    # probes in each region: radial (|z| >= region radius + 0.1), curvature
    # along x (sigma <= 0.1, 0.05 <= |z| <= 1) and convexity (within 0.05 of
    # x); Python's min would skip the NaN after a finite probe
    probes = [ls.ScanPoint(1.2, 0.0, 1.6, 1.0, -1.0, -1.0),
              ls.ScanPoint(1.5, 0.0, 1.8, math.nan, -1.0, -1.0),
              ls.ScanPoint(0.5, 0.0, 1.1, -1.0, -0.2, -1.0),
              ls.ScanPoint(1.0, 1.0, 0.0, -1.0, 1.0, 0.5)]
    monkeypatch.setattr(ls, "landscape_scan", lambda *args, **kwargs: probes)
    rows = {r.check_id: r for r in suite_landscape(quick=True)}
    verdicts = {k: (rows[k].actual, rows[k].passed) for k in (
        "scan_radial_gradient_positive", "scan_curvature_x_negative",
        "scan_strong_convexity_near_truth")}
    assert verdicts == {"scan_radial_gradient_positive": ("nan", False),
                        "scan_curvature_x_negative": ("-0.2", True),
                        "scan_strong_convexity_near_truth": ("0.5", True)}


def test_scan_row_fails_when_the_scan_scores_a_narrower_radius_than_it_reads(monkeypatch):
    # the quick scan's cell |z| = 1, sigma = 0.99875 lies 0.05 - 5e-16 from x:
    # a scan that scores directions only within 0.04 leaves its minimum NaN,
    # and the row that reads within 0.05 fails instead of skipping it
    scan = ls.landscape_scan

    def narrow_scan(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(ls, "STRONG_CONVEXITY_RADIUS", 0.04)
            return scan(*args, **kwargs)

    monkeypatch.setattr(saflow.parallel, "available_cpus", lambda: 1)
    monkeypatch.setattr(ls, "landscape_scan", narrow_scan)
    rows = suite_landscape(quick=True)
    assert [(r.check_id, r.actual) for r in rows if not r.passed] == \
        [("scan_strong_convexity_near_truth", "nan")]
