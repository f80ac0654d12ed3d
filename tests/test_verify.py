import math

import numpy as np
import pytest

import saflow.landscape as ls
from saflow.calculus import phi
from saflow.measurement import rng_for
from saflow.verify import g_saddle_weight, run_suite, write_report_csv


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
    # against the loop it replaced: U = 0 V + 1 W differs from W at most in
    # the sign of a zero, which phi ignores
    samples = 2_000_001
    est = ls._mc_estimates([(g_saddle_weight, 0.0, np.inf, None)], samples, 0, 11)[0]
    rng = rng_for(0, 11)
    total = total_sq = 0.0
    done = 0
    while done < samples:
        k = min(2_000_000, samples - done)
        vv = rng.standard_normal(k)
        uu = rng.standard_normal(k)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(vv != 0, uu / np.where(vv != 0, vv, 1.0), np.inf)
        vals = phi(t, 0.5) * vv * vv
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += k
    mean = total / samples
    se = math.sqrt(max(total_sq / samples - mean * mean, 0.0) / samples)
    assert (est.mean, est.std_error) == (mean, se)
