"""Verification suites: calculus identities, expectation oracles, landscape
region claims, and the scalar integral/inequality battery.

Each suite returns CheckResult rows, the check record that
write_report_csv writes as the report CSV; a suite passes when every row
passes.  `quick=True` shrinks sampling budgets for fast smoke runs; the
defaults match the tolerances the package is validated against.

Rows come from three rules: `_bound` judges the worst of the values its
caller computed, passing when `worst op limit`, and `_close` passes when
`|value - target| <= tol`, each parsing its threshold from the text the row
prints, so a NaN value fails both; `_mc` prints a Monte Carlo estimate beside
the verdict its caller scored in standard errors.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import astuple, dataclass
from functools import partial

import numpy as np

from . import landscape as ls
from .calculus import _phi_weights, dir_second_derivative, gradient, loss, psi_u
from .constants import SUITES
from .measurement import REAL, gen_sensing, gen_signal, observe, rng_for
from .parallel import ordered_map
from .reporting import write_csv


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    input: str
    expected: str
    actual: str
    tolerance: str
    passed: bool


def write_report_csv(rows: list[CheckResult], path) -> None:
    write_csv(path, "check_id,input,expected,actual,tolerance,pass", map(astuple, rows))


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _bound(check_id, inp, expected, values, op, limit) -> CheckResult:
    """Passes when the worst of `values` (a scalar, an array or a list of
    equal-length arrays) satisfies `worst op limit`; `limit` is the printed
    tolerance text.  The worst is np.min for `>`/`>=` and np.max for `<`/`<=`,
    which propagate NaN; an empty `values` raises ValueError."""
    worst = float((np.min if op[0] == ">" else np.max)(values))
    return CheckResult(check_id, inp, expected, repr(worst), limit,
                       bool(_OPS[op](worst, float(limit))))


def _close(check_id, inp, target, value, tol) -> CheckResult:
    """Passes when |value - target| <= tol; `tol` is the printed tolerance text."""
    return CheckResult(check_id, inp, repr(target), repr(value), tol,
                       bool(abs(value - target) <= float(tol)))


def _mc(check_id, inp, expected, est, passed) -> CheckResult:
    return CheckResult(check_id, inp, expected, f"{est.mean!r} (se={est.std_error:.2e})",
                       "3 std errors", bool(passed))


# --- representative integrand families (vectorized in both arguments) ------


def g_abs_ts(t, s):
    return np.abs(t * s)


def g_tsq(t, s):
    return np.asarray(t) ** 2


def g_ssq(t, s):
    return np.asarray(s) ** 2


def g_signed_tsq(t, s):
    return np.sign(t * s) * t * t


def g_signed_abs_ts(t, s):
    return t * s  # sgn(ts)|ts| = ts


NAMED_G = {
    "abs_ts": (g_abs_ts, dict(p=1, q=1, signed=False)),
    "t_sq": (g_tsq, dict(p=2, q=0, signed=False)),
    "s_sq": (g_ssq, dict(p=0, q=2, signed=False)),
    "signed_t_sq": (g_signed_tsq, dict(p=2, q=0, signed=True)),
    "signed_abs_ts": (g_signed_abs_ts, dict(p=1, q=1, signed=True)),
}


# --- calculus suite ---------------------------------------------------------


def _smooth_instance(rng, n, m, beta, margin):
    x = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    y = np.abs(A @ x)
    while True:
        z = rng.standard_normal(n)
        w = A @ z
        if np.min(np.abs(np.abs(w) - beta * y)) > margin:
            return A, y, z


def suite_calculus(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    rows: list[CheckResult] = []
    samples = 100_000 if quick else 1_000_000
    fd_points = 20 if quick else 100
    rng = rng_for(seed, 10)

    # inequality battery for the partial derivative, on random (u, v, beta)
    u = 5.0 * rng.standard_normal(samples)
    u2 = 5.0 * rng.standard_normal(samples)
    v = 5.0 * rng.standard_normal(samples)
    beta = rng.uniform(1e-3, 1.0 - 1e-9, samples)
    # scored a slice at a time to bound the temporaries; max over slices is exact
    excess = []
    for start in range(0, samples, ls._MC_LEAF):
        cut = slice(start, start + ls._MC_LEAF)
        uc, u2c, vc, bc = u[cut], u2[cut], v[cut], beta[cut]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # betas above 3/4 are intentional here
            val = psi_u(uc, vc, bc)
            val2 = psi_u(u2c, vc, bc)
        # the sharp u-Lipschitz constant is max(1, 1/beta - 1/2): the inner-branch
        # slope runs from 1/2 - 1/beta (at u=0) to 2 - 1/beta, the outer slope is 1
        lip = np.maximum(1.0, 1.0 / bc - 0.5)
        excess.append((np.max(np.abs(val) - (np.abs(uc) + np.abs(vc))),
                       np.max((uc * uc - np.abs(uc * vc)) - val * uc),
                       np.max(np.abs(val - val2) - lip * np.abs(uc - u2c))))
    upper, lower, lipschitz = np.transpose(excess)
    inp, tol = f"{samples} samples", "1e-09"
    rows.append(_bound("psi_u_upper_bound", inp, "|psi_u| <= |u|+|v|", upper, "<=", tol))
    rows.append(_bound("psi_u_lower_bound", inp, "psi_u*u >= u^2-|uv|", lower, "<=", tol))
    rows.append(_bound("psi_u_lipschitz", inp, "max(1,1/beta-1/2)-Lipschitz in u", lipschitz,
                       "<=", tol))
    # a weaker constant sometimes quoted for this derivative, max(1,|2-1/beta|),
    # is falsified at beta=1/2: |psi_u(0.1,1) - psi_u(0,1)| = 0.148 > 0.1
    gap = float(abs(psi_u(0.1, 1.0, 0.5)) - max(1.0, abs(2.0 - 1.0 / 0.5)) * 0.1)
    rows.append(_bound("psi_u_lipschitz_weak_constant_fails", "u1=0.1 u2=0 v=1 beta=0.5",
                       "violation > 0", gap, ">", "0"))

    # gradient against central finite differences at smooth points
    n, m, beta_fd, h = 8, 40, 0.5, 1e-6

    def gradient_rel_err():
        A, y, z = _smooth_instance(rng, n, m, beta_fd, margin=1e-3)
        fd = [(loss(z + e, A, y, beta_fd) - loss(z - e, A, y, beta_fd)) / (2 * h)
              for e in h * np.eye(n)]
        g = gradient(z, A, y, beta_fd)
        return np.linalg.norm(fd - g) / np.linalg.norm(g)

    rows.append(_bound("gradient_vs_central_fd", f"{fd_points} points n={n} m={m}",
                       "rel err <= 1e-5", [gradient_rel_err() for _ in range(fd_points)],
                       "<=", "1e-5"))

    # directional second derivative against second differences
    t = 1e-4

    def second_derivative_err():
        A, y, z = _smooth_instance(rng, n, m, beta_fd, margin=1e-2)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        sd = (loss(z + t * v, A, y, beta_fd) - 2 * loss(z, A, y, beta_fd)
              + loss(z - t * v, A, y, beta_fd)) / (t * t)
        return abs(dir_second_derivative(z, v, A, y, beta_fd) - sd)

    rows.append(_bound("dir_second_derivative_vs_fd", f"{fd_points} points", "abs err <= 1e-4",
                       [second_derivative_err() for _ in range(fd_points)], "<=", "1e-4"))

    # supporting cubic h(t) >= 0 on [0, beta], h(beta) = 0
    n_beta = 20 if quick else 100
    hv = [ls.curvature_lower_cubic(np.linspace(0.0, b, 200), float(b))
          for b in rng.uniform(1e-3, 1.0, n_beta)]
    rows.append(_bound("curvature_cubic_nonnegative", f"{n_beta} random beta",
                       ">= 0 on [0, beta]", hv, ">=", "-1e-12"))
    rows.append(_bound("curvature_cubic_zero_at_beta", f"{n_beta} random beta",
                       "h(beta) = 0", [abs(c[-1]) for c in hv], "<=", "1e-12"))

    # exact zero gradient at the truth
    x = gen_signal(64, REAL, seed)
    A = gen_sensing(384, 64, REAL, seed)
    gnorm = float(np.linalg.norm(gradient(x, A, observe(A, x), 0.5)))
    rows.append(_bound("zero_gradient_at_truth", "n=64 m=384", "norm <= 1e-12", gnorm,
                       "<=", "1e-12"))
    return rows


# --- expectations suite -----------------------------------------------------


def suite_expectations(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    samples = 1_000_000 if quick else ls.MC_DEFAULT_SAMPLES
    # a row is a CheckResult or, for Monte Carlo checks, a function that builds
    # it once every statistic of its stream is scored in one shared pass
    rows: list = []
    stats = {ls.MC_EXPECTATION_STREAM: [], ls.MC_RATE_STREAM: []}

    def mc_row(check_id, inp, expected, stream, stat, passes):
        stats[stream].append(stat)
        i = len(stats[stream]) - 1
        rows.append(lambda ests: _mc(check_id, inp, expected, ests[stream][i],
                                     passes(ests[stream][i])))

    def within(target, slack):
        return lambda est: abs(est.mean - target) <= 3.0 * est.std_error + slack

    # closed-form pair expectations against Monte Carlo (the indicator with
    # lam = inf reduces to the unrestricted expectation)
    for sigma in (0.0, 0.25, 0.5, 0.75, 1.0):
        for name, closed_fn, stat in (("abs_uv", ls.expected_abs_uv, g_abs_ts),
                                      ("sgnuv_vsq", ls.expected_sgnuv_vsq,
                                       g_sgnuv_vsq_stat)):
            target = closed_fn(sigma)
            mc_row(f"expected_{name}_mc", f"sigma={sigma}", repr(target),
                   ls.MC_EXPECTATION_STREAM, (stat, sigma, np.inf, None),
                   within(target, 1e-12))

    # rate closed form versus quadrature (power families, p+q = 2)
    for sigma, lam in ((0.25, 0.5), (0.5, 1.0)):
        for name in ("abs_ts", "t_sq", "s_sq", "signed_t_sq", "signed_abs_ts"):
            g, meta = NAMED_G[name]
            closed = ls.power_rate_closed_form(meta["p"], meta["q"], sigma, lam,
                                               signed=meta["signed"])
            quadv = ls.indicator_expectation_rate(g, sigma, lam)
            rows.append(_close(f"rate_closed_form_{name}", f"sigma={sigma} lam={lam}",
                               closed, quadv, "1e-8"))

    # quadrature rate versus Monte Carlo finite differences
    for sigma in (0.0, 0.5):
        for lam in (0.25, 0.5, 1.0):
            for name in ("abs_ts", "t_sq", "s_sq", "signed_t_sq", "signed_abs_ts"):
                g, meta = NAMED_G[name]
                quadv = ls.indicator_expectation_rate(g, sigma, lam)
                if sigma == 0.0 and meta["signed"]:
                    rows.append(CheckResult(
                        f"rate_signed_zero_{name}", f"sigma=0 lam={lam}",
                        "0.0", repr(quadv), "exact", quadv == 0.0))
                    continue
                mc_row(f"rate_quad_vs_mc_fd_{name}", f"sigma={sigma} lam={lam}",
                       repr(quadv), ls.MC_RATE_STREAM, (g, sigma, lam, min(0.02, lam / 4)),
                       within(quadv, 1e-6))

    # signed expectations stay nonnegative (their rate integrand is nonnegative)
    for sigma in (0.25, 0.5, 0.75):
        for lam in (0.25, 1.0):
            mc_row("signed_expectation_nonnegative", f"sigma={sigma} lam={lam}",
                   ">= 0", ls.MC_EXPECTATION_STREAM, (g_signed_abs_ts, sigma, lam, None),
                   lambda est: est.mean >= -3.0 * est.std_error)

    # antiderivative level: MC of the indicator expectation itself matches the
    # rate closed form integrated from 0 (the expectation vanishes at lam = 0)
    for sigma, lam in ((0.0, 0.5), (0.25, 0.5), (0.5, 1.0)):
        for name in ("t_sq", "signed_t_sq"):
            g, meta = NAMED_G[name]
            rate = lambda t, m=meta: 0.0 if t <= 0 else ls.power_rate_closed_form(
                m["p"], m["q"], sigma, t, signed=m["signed"])
            integrated, _ = ls.quad(rate, 0.0, lam)
            mc_row(f"integrated_rate_vs_mc_{name}", f"sigma={sigma} lam={lam}",
                   repr(integrated), ls.MC_EXPECTATION_STREAM, (g, sigma, lam, None),
                   within(integrated, 1e-9))

    # the two streams' passes are independent: a worker runs the second
    ests = dict(zip(stats, ordered_map(partial(ls._mc_estimates, st, samples, seed, stream)
                                       for stream, st in stats.items())))
    return [row(ests) if callable(row) else row for row in rows]


def g_sgnuv_vsq_stat(t, s):
    return np.sign(t * s) * s * s


def g_saddle_weight(t, s):
    """phi(t/s, 1/2) s^2, the curvature weight along x at sigma = 0 (s = 0 gives 0);
    phi reads only |t/s|, so the ratio may divide by |s|."""
    return _phi_weights(t, np.abs(s), 0.5) * s * s


# --- landscape suite --------------------------------------------------------


def suite_landscape(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    rows: list[CheckResult] = []
    samples = 1_000_000 if quick else ls.MC_DEFAULT_SAMPLES
    n, mult = 64, 6
    seeds = (seed,) if quick else tuple(seed + k for k in range(5))

    # the instance scans and the Monte Carlo pass below depend on nothing else,
    # so a worker runs the pass while this process scans; the scans stay here
    # because their BLAS calls would compete with this process's BLAS threads
    def scan_instances():
        return [ls.landscape_scan(n, mult * n, w_samples=4 if quick else 8,
                                  directions=16 if quick else 32, seed=s) for s in seeds]

    scans, (est,) = ordered_map([
        scan_instances,
        partial(ls._mc_estimates, [(g_saddle_weight, 0.0, np.inf, None)], samples, seed, 11)])

    # saddle curvature: negative over the whole admissible smoothing range
    betas = np.round(np.arange(0.01, 0.7501, 0.01), 4)
    g0_vals = np.array([ls.saddle_curvature(float(b)) for b in betas])
    rows.append(_bound("saddle_curvature_negative", "beta in {0.01..0.75}", "< -0.03",
                       g0_vals, "<", "-0.03"))

    target = ls.saddle_curvature(0.5)
    rows.append(_close("saddle_curvature_at_half", "beta=0.5", -0.1314, target, "1e-3"))

    # independent Monte Carlo of the same curvature expectation: sigma = 0
    # makes U = W independent of V, and lam = inf drops the indicator
    rows.append(_mc("saddle_curvature_mc", f"{samples} samples", repr(target), est,
                    abs(est.mean - target) <= 3 * est.std_error))

    # monotonicity in lam and the z -> 0 limit
    lams = np.linspace(0.05, 20.0, 400)
    gl = np.array([ls.orthogonal_curvature(float(l), 0.5) for l in lams])
    rows.append(_bound("orthogonal_curvature_decreasing", "lam grid", "diffs < 0",
                       np.diff(gl), "<", "0"))
    limit_err = abs(ls.orthogonal_curvature(1e8, 0.5) - ls.curvature_at_origin(0.5))
    rows.append(_bound("curvature_origin_limit", "lam=1e8 beta=0.5",
                       repr(ls.curvature_at_origin(0.5)), limit_err, "<=", "1e-6"))

    # kernel identity B = tau^3 sigma Q on a grid
    err = [abs(ls.signed_rate_kernel(t, s) - ls._tau(s) ** 3 * s * ls.scaled_rate_kernel(t, s))
           for t in np.linspace(0.01, 0.99, 25).tolist()
           for s in np.linspace(0.0, 0.95, 20).tolist()]
    rows.append(_bound("kernel_identity", "25x20 grid", "B = tau^3 sigma Q", err, "<=", "1e-10"))

    # non-vanishing-gradient radius values
    rows.append(_close("region_radius_orthogonal", "sigma=0", 2 / math.pi,
                       ls.region_radius(0.0), "1e-12"))
    rows.append(_close("region_radius_aligned", "sigma=1", 1.0, ls.region_radius(1.0), "1e-12"))
    rr = float(np.max([ls.region_radius(s) for s in np.linspace(0, 1, 1001).tolist()]))
    rows.append(CheckResult("region_radius_max", "sigma grid[1001]", "<= 1",
                            repr(rr), "1e-12", rr <= 1.0 + 1e-12))

    # alignment gradient: strictly negative normalized boundary values
    ag = [ls.expected_alignment_gradient(s, 0.5) / (s * ls._tau(s) ** 3)
          for s in np.round(np.arange(0.05, 0.951, 0.05), 3).tolist()]
    rows.append(_bound("alignment_gradient_negative", "sigma in {0.05..0.95}", "< -0.01",
                       ag, "<", "-0.01"))

    # increasing in beta (finite differences at 20 points)
    db = [ls.expected_alignment_gradient(s, 0.52) - ls.expected_alignment_gradient(s, 0.48)
          for s in np.linspace(0.1, 0.9, 20).tolist()]
    rows.append(_bound("alignment_gradient_increasing_in_beta", "20 sigma points", "> 0",
                       db, ">", "0"))

    # empirical scan over fresh instances: each row reads its region's worst probe
    pts = [p for instance in scans for p in instance]
    inp = f"n={n} m={mult}n seeds={len(seeds)}"
    radial = [p.radial_grad for p in pts if p.norm_z >= ls.region_radius(p.sigma) + 0.1]
    curv = [p.curv_x for p in pts if p.sigma <= 0.1 and 0.05 <= p.norm_z <= 1.0]
    convex = [p.min_dir_curv for p in pts if p.dist_to_x <= ls.STRONG_CONVEXITY_RADIUS]
    rows.append(_bound("scan_radial_gradient_positive", inp, "> 0 beyond radius+0.1",
                       radial, ">", "0"))
    rows.append(_bound("scan_curvature_x_negative", inp, "< 0 for sigma<=0.1, 0.05<=|z|<=1",
                       curv, "<", "0"))
    rows.append(_bound("scan_strong_convexity_near_truth", inp,
                       f">= 0.25 within {ls.STRONG_CONVEXITY_RADIUS} of x", convex, ">=", "0.25"))
    rows.append(_close("convexity_radius_constant", "beta=0.5", math.sqrt(5.0 / 12.0) - 0.5,
                       ls.convexity_radius_constant(0.5), "1e-12"))
    return rows


# --- appendix suite ---------------------------------------------------------


def rational_integral_report() -> list[CheckResult]:
    """Adjudicate reference values for the integral family by quadrature.

    The two surd forms (9/16)(8-3*sqrt(6))*pi and (8/9)(9-5*sqrt(3))*pi
    evaluate to about 1.15135 and 0.94875; quadrature pairs the first with
    t = 1/3 and the second with t = 1/4, so the decimal values 0.94875 and
    1.15135 belong to t = 1/4 and t = 1/3 respectively.  Each report row
    records the quadrature truth.
    """
    surd_6 = (9.0 / 16.0) * (8.0 - 3.0 * math.sqrt(6.0)) * math.pi
    surd_3 = (8.0 / 9.0) * (9.0 - 5.0 * math.sqrt(3.0)) * math.pi
    cases = [
        ("rational_integral_t0", 0.0, 3.0 * math.pi / 16.0, "1e-08"),
        ("rational_integral_t_quarter", 0.25, 0.94875, "0.0001"),
        ("rational_integral_t_third", 1.0 / 3.0, 1.15135, "0.0001"),
    ]
    vals = [ls.rational_integral(t) for _, t, _, _ in cases]
    rows = [_close(check_id, f"t={t:.6g}", target, val, tol)
            for (check_id, t, target, tol), val in zip(cases, vals)]
    # which surd form belongs to which t, judged by quadrature
    _, v_quarter, v_third = vals
    rows.append(_close("surd_form_pairing_t_quarter", "t=0.25", surd_3, v_quarter, "1e-08"))
    rows.append(_close("surd_form_pairing_t_third", "t=0.3333...", surd_6, v_third, "1e-08"))
    return rows


def inequality_report(grid_points: int = 1000) -> list[CheckResult]:
    """Dense-grid verification of the scalar inequalities behind the landscape
    bounds.  Returns one row per inequality."""
    rows: list[CheckResult] = []

    taus = np.linspace(1e-3, 1.0 - 1e-3, grid_points)
    for name, fn in (("monotone_f0_halfpi", ls.monotone_f0_halfpi),
                     ("monotone_f0_normalized", ls.monotone_f0_normalized)):
        vals = np.array([fn(t) for t in taus])
        rows.append(_bound(f"{name}_increasing", f"tau grid[{grid_points}]", "diffs > 0",
                           np.diff(vals), ">", "0"))

    xs = np.linspace(1e-3, math.pi / 2 - 1e-3, grid_points)
    f1p = np.array([ls.increasing_ratio_deriv(x) for x in xs])
    rows.append(_bound("ratio_deriv_nonnegative", f"x grid[{grid_points}]", ">= 0",
                       f1p, ">=", "0"))

    ss = np.linspace(1.0 / 3.0, 2.0 / 3.0, grid_points)
    hs = (3.0 * ss - 1.0) * np.arcsin(np.sqrt(ss)) / np.sqrt(ss) \
        + (1.0 + ss) * np.sqrt(1.0 - ss) - math.pi * ss
    rows.append(_bound("arcsin_combination_nonnegative", f"s grid[{grid_points}]", ">= 0",
                       hs, ">=", "0"))

    s_all = np.linspace(1e-9, 1.0 - 1e-9, grid_points)
    gap = ls.arcsin_ratio_lower(s_all)
    rows.append(_bound("arcsin_ratio_lower_bound", f"s grid[{grid_points}]", ">= 0",
                       gap, ">=", "0"))

    s01 = np.linspace(0.0, 1.0, grid_points)
    a = ls.hull_poly(s01)
    ok = bool(np.all(a > 0) and np.all(a < 1.0 + s01))
    rows.append(CheckResult(
        "hull_poly_between_0_and_1_plus_s", f"s grid[{grid_points}]",
        "0 < A(s) < 1+s",
        f"min={float(a.min())!r} gap={float((1 + s01 - a).min())!r}",
        "0", ok))

    g1 = ls.sqrt_gap_poly(ss)
    rows.append(_bound("sqrt_gap_poly_positive", f"s grid[{grid_points}]", "> 0",
                       g1, ">", "0"))
    rows.append(_bound("sqrt_gap_poly_decreasing", f"s grid[{grid_points}]", "diffs < 0",
                       np.diff(g1), "<", "0"))
    rows.append(_close("sqrt_gap_poly_at_two_thirds", "s=2/3", 0.035,
                       float(ls.sqrt_gap_poly(2.0 / 3.0)), "1e-3"))

    t23 = np.linspace(2.0 / 3.0, 1.0, grid_points)
    margin = ls.case_boundary_margin(t23)
    rows.append(_bound("case_boundary_margin_nonnegative", f"t grid[{grid_points}]", ">= 0",
                       margin, ">=", "0"))

    thetas = np.linspace(1e-3, math.pi / 2 - 1e-3, grid_points)
    diffs = [np.diff(ls.angle_family(t, thetas)) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    rows.append(_bound("angle_family_increasing_in_theta", "t in {0,...,1}", "diffs > 0",
                       diffs, ">", "0"))
    return rows


def suite_appendix(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    rows: list[CheckResult] = []
    grid = 200 if quick else 1000

    # weighted kernel integral at full misalignment
    target = (4.0 / math.pi) * (35.0 / 27.0 - math.log(3.0))
    val, _ = ls.quad(lambda t: (1 + 2 * t ** 3 - 2.5 * t) * ls.scaled_rate_kernel(t, 1.0),
                     0.0, 0.5)
    rows.append(_close("weighted_kernel_integral", "beta=1/2 sigma=1", target, val, "1e-6"))
    rows.append(_bound("weighted_kernel_integral_below_bound", "bound 0.26", "< 0.26", val,
                       "<", "0.26"))

    # prefactor limit
    rows.append(_close("alignment_prefactor_limit", "sigma=0", ls.ALIGNMENT_PREFACTOR_LIMIT,
                       ls.alignment_prefactor(0.0), "1e-10"))
    sigmas = np.linspace(0.0, 0.99, 50)
    pv = np.array([ls.alignment_prefactor(float(s)) for s in sigmas])
    rows.append(_bound("alignment_prefactor_decreasing", "sigma grid[50]", "diffs < 0",
                       np.diff(pv), "<", "0"))

    rows.extend(rational_integral_report())
    rows.extend(inequality_report(grid_points=grid))
    return rows


def run_suite(name: str, quick: bool = False, seed: int = 0) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    if name == "all":
        rows = []
        for sub in ("calculus", "expectations", "landscape", "appendix"):
            rows.extend(run_suite(sub, quick=quick, seed=seed))
        return rows
    return {
        "calculus": suite_calculus,
        "expectations": suite_expectations,
        "landscape": suite_landscape,
        "appendix": suite_appendix,
    }[name](quick=quick, seed=seed)
