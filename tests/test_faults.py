"""Fault table: each entry injects one fault into the code a `verify` suite
runs, at the quick budget and seed 0, and names every check id whose rows it
turns false; all other rows of that suite must stay true.  A row that no
plausible fault can turn false is not evidence, so every check id of
`verify all` is either turned false by some entry or listed in UNCOVERED
with the reason why not.

The NaN entries inject a NaN into one call's output inside a worst-case
fold; each passes only because `_bound` and the scan reduce with np.min and
np.max, which propagate NaN where Python's `max(x, nan)` returns x.  Suites
run in this process (one CPU), so no patched function is pickled.
"""

import csv
import itertools
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import saflow.calculus as calculus
import saflow.landscape as ls
import saflow.parallel
import saflow.verify as verify

GOLDEN = Path(__file__).parent / "golden" / "verify_all.csv"


def nth_call(k, spoil):
    """A patch whose k-th call (counting from 1) returns spoil(output)."""
    def make(fn):
        calls = itertools.count(1)

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            return spoil(out) if next(calls) == k else out
        return wrapped
    return make


def nan(_):
    return math.nan


def nan_at(index):
    def spoil(out):
        out = np.array(out, dtype=float)
        out[index] = math.nan
        return out
    return spoil


def shifted(offset):
    return lambda fn: lambda *args, **kwargs: fn(*args, **kwargs) + offset


def scaled(factor):
    return lambda fn: lambda *args, **kwargs: fn(*args, **kwargs) * factor


def quad_value(change):
    """A patch of quad that changes the integral it returns, not its error estimate."""
    def make(fn):
        def wrapped(*args):
            val, err = fn(*args)
            return change(val), err
        return wrapped
    return make


def psi_u_inner(change):
    """A patch of the loss kernel that replaces psi_u by change(psi_u, u) on
    the inner branch |u| <= beta |v|."""
    def make(fn):
        def wrapped(u, v, beta):
            value, du = fn(u, v, beta)
            return value, np.where(np.abs(u) <= beta * np.abs(v), change(du, u), du)
        return wrapped
    return make


def loss_scaled(fn):
    def wrapped(*args):
        f, g = fn(*args)
        return 1.001 * f, g
    return wrapped


def phi_raised(fn):
    return lambda t, beta=0.5: fn(t, beta) + 0.01 * (np.abs(np.asarray(t)) < beta)


def mc_means_raised(fn):
    return lambda *args: [e._replace(mean=e.mean + 4 * e.std_error) for e in fn(*args)]


def nan_in_second_probe_of_each_cell(fn):
    """A NaN in one direction's terms of the 2nd probe of every (|z|, sigma)
    cell whose directions the scan scores, those within
    STRONG_CONVEXITY_RADIUS of x.  The per-probe calls, through
    direction_curvatures, are the ones whose `wv` holds one column per
    direction, and a quick scan draws 4 probes per cell."""
    probes = itertools.count()

    def wrapped(weights, wz, wv, y, beta):
        out = fn(weights, wz, wv, y, beta)
        if wv.ndim == 2 and next(probes) % 4 == 1:
            out = out.copy()
            out[0, 0] = math.nan
        return out
    return wrapped


class Fault(NamedTuple):
    suite: str
    module: object
    name: str
    make: object  # the original function -> its faulty replacement
    turns_false: frozenset


def fault(suite, module, name, make, *check_ids):
    return Fault(suite, module, name, make, frozenset(check_ids))


FAULTS = {
    # a NaN inside a worst-case fold: the first ten left their rows true while
    # those folds used Python's max and min; the others guard folds that
    # always reduced with numpy
    "nan_psi_u_3rd_call": fault(
        "calculus", verify, "psi_u", nth_call(3, nan_at(0)),
        "psi_u_upper_bound", "psi_u_lower_bound", "psi_u_lipschitz"),
    "nan_gradient_5th_call": fault(
        "calculus", verify, "gradient", nth_call(5, nan_at(0)), "gradient_vs_central_fd"),
    "nan_dir_second_derivative_5th_call": fault(
        "calculus", verify, "dir_second_derivative", nth_call(5, nan),
        "dir_second_derivative_vs_fd"),
    "nan_curvature_lower_cubic_2nd_call_at_beta": fault(
        "calculus", ls, "curvature_lower_cubic", nth_call(2, nan_at(-1)),
        "curvature_cubic_nonnegative", "curvature_cubic_zero_at_beta"),
    "nan_signed_rate_kernel_7th_call": fault(
        "landscape", ls, "signed_rate_kernel", nth_call(7, nan), "kernel_identity"),
    "nan_expected_alignment_gradient_3rd_call": fault(
        "landscape", ls, "expected_alignment_gradient", nth_call(3, nan),
        "alignment_gradient_negative"),
    "nan_expected_alignment_gradient_25th_call": fault(
        "landscape", ls, "expected_alignment_gradient", nth_call(25, nan),
        "alignment_gradient_increasing_in_beta"),
    "nan_region_radius_500th_call": fault(
        "landscape", ls, "region_radius", nth_call(500, nan), "region_radius_max"),
    "nan_scan_probe": fault(
        "landscape", ls, "_curvature_terms", nan_in_second_probe_of_each_cell,
        "scan_strong_convexity_near_truth"),
    "nan_angle_family_2nd_call": fault(
        "appendix", ls, "angle_family", nth_call(2, nan_at(50)),
        "angle_family_increasing_in_theta"),
    "nan_orthogonal_curvature_5th_call": fault(
        "landscape", ls, "orthogonal_curvature", nth_call(5, nan),
        "orthogonal_curvature_decreasing"),
    "nan_alignment_prefactor_10th_call": fault(
        "appendix", ls, "alignment_prefactor", nth_call(10, nan),
        "alignment_prefactor_decreasing"),
    "nan_monotone_f0_halfpi_100th_call": fault(
        "appendix", ls, "monotone_f0_halfpi", nth_call(100, nan),
        "monotone_f0_halfpi_increasing"),
    "nan_monotone_f0_normalized_100th_call": fault(
        "appendix", ls, "monotone_f0_normalized", nth_call(100, nan),
        "monotone_f0_normalized_increasing"),
    "nan_increasing_ratio_deriv_100th_call": fault(
        "appendix", ls, "increasing_ratio_deriv", nth_call(100, nan), "ratio_deriv_nonnegative"),
    "nan_arcsin_in_the_arcsin_combination": fault(
        "appendix", np, "arcsin", nth_call(1, nan_at(50)), "arcsin_combination_nonnegative"),
    "nan_arcsin_ratio_lower": fault(
        "appendix", ls, "arcsin_ratio_lower", nth_call(1, nan_at(50)),
        "arcsin_ratio_lower_bound"),
    "nan_hull_poly": fault(
        "appendix", ls, "hull_poly", nth_call(1, nan_at(50)), "hull_poly_between_0_and_1_plus_s"),
    "nan_sqrt_gap_poly_grid": fault(
        "appendix", ls, "sqrt_gap_poly", nth_call(1, nan_at(50)),
        "sqrt_gap_poly_positive", "sqrt_gap_poly_decreasing"),
    "nan_sqrt_gap_poly_at_two_thirds": fault(
        "appendix", ls, "sqrt_gap_poly", nth_call(2, nan), "sqrt_gap_poly_at_two_thirds"),
    "nan_case_boundary_margin": fault(
        "appendix", ls, "case_boundary_margin", nth_call(1, nan_at(50)),
        "case_boundary_margin_nonnegative"),
    # a wrong value
    "psi_u_inner_branch_x1.01": fault(
        "calculus", calculus, "_psi_and_psi_u", psi_u_inner(lambda du, u: 1.01 * du),
        "gradient_vs_central_fd", "psi_u_lipschitz", "psi_u_lower_bound"),
    "psi_u_inner_slope_off_by_half": fault(
        "calculus", calculus, "_psi_and_psi_u", psi_u_inner(lambda du, u: du + 0.5 * u),
        "gradient_vs_central_fd", "psi_u_lipschitz", "psi_u_lipschitz_weak_constant_fails"),
    "loss_x1.001_gradient_unchanged": fault(
        "calculus", calculus, "loss_and_gradient", loss_scaled,
        "gradient_vs_central_fd", "dir_second_derivative_vs_fd"),
    "observations_rel_err_1e-9": fault(
        "calculus", verify, "observe", scaled(1 + 1e-9), "zero_gradient_at_truth"),
    "phi_+0.01_inside_beta": fault(
        "all", calculus, "phi", phi_raised, "dir_second_derivative_vs_fd", "saddle_curvature_mc"),
    "power_rate_closed_form_rel_err_1e-3": fault(
        "expectations", ls, "power_rate_closed_form", scaled(1 + 1e-3),
        *(f"rate_closed_form_{g}" for g in verify.NAMED_G)),
    "quad_rel_err_1e-6": fault(
        "all", ls, "quad", quad_value(lambda val: val * (1 + 1e-6)),
        *(f"rate_closed_form_{g}" for g in verify.NAMED_G), "alignment_prefactor_limit",
        "rational_integral_t0", "surd_form_pairing_t_quarter", "surd_form_pairing_t_third"),
    "quad_abs_err_1e-15": fault(
        "expectations", ls, "quad", quad_value(lambda val: val + 1e-15),
        "rate_signed_zero_signed_t_sq", "rate_signed_zero_signed_abs_ts"),
    "mc_means_+4se": fault(
        "all", ls, "_mc_estimates", mc_means_raised,
        "expected_abs_uv_mc", "expected_sgnuv_vsq_mc", "integrated_rate_vs_mc_signed_t_sq",
        "integrated_rate_vs_mc_t_sq",
        *(f"rate_quad_vs_mc_fd_{g}" for g in verify.NAMED_G), "saddle_curvature_mc"),
    "signed_abs_ts_sign_flipped": fault(
        "expectations", verify, "g_signed_abs_ts", scaled(-1), "signed_expectation_nonnegative"),
    "expected_abs_uv_+0.01": fault(
        "expectations", ls, "expected_abs_uv", shifted(0.01), "expected_abs_uv_mc"),
    "expected_abs_uv_+1e-3": fault(
        "landscape", ls, "expected_abs_uv", shifted(1e-3),
        "region_radius_orthogonal", "region_radius_aligned", "region_radius_max"),
    "saddle_curvature_+0.01": fault(
        "landscape", ls, "saddle_curvature", shifted(0.01),
        "saddle_curvature_negative", "saddle_curvature_at_half", "saddle_curvature_mc"),
    "curvature_at_origin_+1e-3": fault(
        "landscape", ls, "curvature_at_origin", shifted(1e-3), "curvature_origin_limit"),
    "convexity_radius_constant_+1e-9": fault(
        "landscape", ls, "convexity_radius_constant", shifted(1e-9), "convexity_radius_constant"),
    "scan_gradient_negated": fault(
        "landscape", ls, "_gradient", scaled(-1), "scan_radial_gradient_positive"),
    "scan_curvature_terms_absolute": fault(
        "landscape", ls, "_curvature_terms", lambda fn: lambda *args: np.abs(fn(*args)),
        "scan_curvature_x_negative"),
    "scaled_rate_kernel_x1.05": fault(
        "appendix", ls, "scaled_rate_kernel", scaled(1.05),
        "weighted_kernel_integral", "weighted_kernel_integral_below_bound"),
    "rational_integral_+1e-3": fault(
        "appendix", ls, "rational_integral", shifted(1e-3),
        "rational_integral_t0", "rational_integral_t_quarter", "rational_integral_t_third",
        "surd_form_pairing_t_quarter", "surd_form_pairing_t_third"),
}

# check id -> why no entry above turns it false
UNCOVERED: dict = {}


@pytest.mark.parametrize("name", FAULTS)
def test_fault_turns_exactly_its_rows_false(name, monkeypatch):
    f = FAULTS[name]
    monkeypatch.setattr(saflow.parallel, "available_cpus", lambda: 1)
    monkeypatch.setattr(f.module, f.name, f.make(getattr(f.module, f.name)))
    failed = [r for r in verify.run_suite(f.suite, quick=True, seed=0) if not r.passed]
    assert {r.check_id for r in failed} == f.turns_false
    if name.startswith("nan_"):
        assert all("nan" in r.actual for r in failed)


def test_every_check_id_is_covered_or_says_why_not():
    with GOLDEN.open() as fh:
        ids = {row["check_id"] for row in csv.DictReader(fh)}
    covered = frozenset().union(*(f.turns_false for f in FAULTS.values()))
    assert not covered & UNCOVERED.keys()
    assert covered | UNCOVERED.keys() == ids
