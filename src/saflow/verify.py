"""Verification suites: calculus identities, expectation oracles, landscape
region claims, and the scalar integral/inequality battery.

Each suite returns CheckResult rows suitable for CSV reporting; a suite
passes when every row passes.  `quick=True` shrinks sampling budgets for
fast smoke runs; the defaults match the tolerances the package is
validated against.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import landscape as ls
from .calculus import dir_second_derivative, gradient, loss, psi_u
from .measurement import REAL, gen_sensing, gen_signal, observe, rng_for
from .reporting import CheckResult

SUITES = ("calculus", "expectations", "landscape", "appendix", "all")


# --- representative integrand families (vectorized in both arguments) ------


def g_abs_ts(t, s):
    return np.abs(t * s)


def g_tsq(t, s):
    return np.asarray(t) ** 2 + 0.0 * np.asarray(s)


def g_ssq(t, s):
    return np.asarray(s) ** 2 + 0.0 * np.asarray(t)


def g_signed_tsq(t, s):
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    return np.sign(t * s) * t * t


def g_signed_abs_ts(t, s):
    ts = np.asarray(t, dtype=float) * np.asarray(s, dtype=float)
    return np.sign(ts) * np.abs(ts)


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # betas above 3/4 are intentional here
        val = psi_u(u, v, beta)
        val2 = psi_u(u2, v, beta)
    # the sharp u-Lipschitz constant is max(1, 1/beta - 1/2): the inner-branch
    # slope runs from 1/2 - 1/beta (at u=0) to 2 - 1/beta, the outer slope is 1
    lip = np.maximum(1.0, 1.0 / beta - 0.5)
    worst_bound = float(np.max(np.abs(val) - (np.abs(u) + np.abs(v))))
    worst_lower = float(np.max((u * u - np.abs(u * v)) - val * u))
    worst_lip = float(np.max(np.abs(val - val2) - lip * np.abs(u - u2)))
    tol = 1e-9
    rows.append(CheckResult("psi_u_upper_bound", f"{samples} samples",
                            "|psi_u| <= |u|+|v|", repr(worst_bound), repr(tol),
                            worst_bound <= tol))
    rows.append(CheckResult("psi_u_lower_bound", f"{samples} samples",
                            "psi_u*u >= u^2-|uv|", repr(worst_lower), repr(tol),
                            worst_lower <= tol))
    rows.append(CheckResult("psi_u_lipschitz", f"{samples} samples",
                            "max(1,1/beta-1/2)-Lipschitz in u", repr(worst_lip),
                            repr(tol), worst_lip <= tol))
    # a weaker constant sometimes quoted for this derivative, max(1,|2-1/beta|),
    # is falsified at beta=1/2: |psi_u(0.1,1) - psi_u(0,1)| = 0.148 > 0.1
    gap = float(abs(psi_u(0.1, 1.0, 0.5)) - max(1.0, abs(2.0 - 1.0 / 0.5)) * 0.1)
    rows.append(CheckResult("psi_u_lipschitz_weak_constant_fails",
                            "u1=0.1 u2=0 v=1 beta=0.5",
                            "violation > 0", repr(gap), "0", gap > 0))

    # gradient against central finite differences at smooth points
    n, m, beta_fd, h = 8, 40, 0.5, 1e-6
    worst_rel = 0.0
    for _ in range(fd_points):
        A, y, z = _smooth_instance(rng, n, m, beta_fd, margin=1e-3)
        g = gradient(z, A, y, beta_fd)
        fd = np.empty(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd[j] = (loss(z + e, A, y, beta_fd) - loss(z - e, A, y, beta_fd)) / (2 * h)
        worst_rel = max(worst_rel, float(np.linalg.norm(fd - g) / np.linalg.norm(g)))
    rows.append(CheckResult("gradient_vs_central_fd", f"{fd_points} points n={n} m={m}",
                            "rel err <= 1e-5", repr(worst_rel), "1e-5",
                            worst_rel <= 1e-5))

    # directional second derivative against second differences
    t = 1e-4
    worst_d2 = 0.0
    for _ in range(fd_points):
        A, y, z = _smooth_instance(rng, n, m, beta_fd, margin=1e-2)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        d2 = dir_second_derivative(z, v, A, y, beta_fd)
        sd = (loss(z + t * v, A, y, beta_fd) - 2 * loss(z, A, y, beta_fd)
              + loss(z - t * v, A, y, beta_fd)) / (t * t)
        worst_d2 = max(worst_d2, abs(d2 - sd))
    rows.append(CheckResult("dir_second_derivative_vs_fd", f"{fd_points} points",
                            "abs err <= 1e-4", repr(worst_d2), "1e-4",
                            worst_d2 <= 1e-4))

    # supporting cubic h(t) >= 0 on [0, beta], h(beta) = 0
    n_beta = 20 if quick else 100
    worst_h = math.inf
    worst_end = 0.0
    for b in rng.uniform(1e-3, 1.0, n_beta):
        ts = np.linspace(0.0, b, 200)
        hv = ls.curvature_lower_cubic(ts, float(b))
        worst_h = min(worst_h, float(hv.min()))
        worst_end = max(worst_end, abs(float(hv[-1])))
    rows.append(CheckResult("curvature_cubic_nonnegative", f"{n_beta} random beta",
                            ">= 0 on [0, beta]", repr(worst_h), "-1e-12",
                            worst_h >= -1e-12))
    rows.append(CheckResult("curvature_cubic_zero_at_beta", f"{n_beta} random beta",
                            "h(beta) = 0", repr(worst_end), "1e-12",
                            worst_end <= 1e-12))

    # exact zero gradient at the truth
    x = gen_signal(64, REAL, seed)
    A = gen_sensing(384, 64, REAL, seed)
    gnorm = float(np.linalg.norm(gradient(x, A, observe(A, x), 0.5)))
    rows.append(CheckResult("zero_gradient_at_truth", "n=64 m=384",
                            "norm <= 1e-12", repr(gnorm), "1e-12", gnorm <= 1e-12))
    return rows


# --- expectations suite -----------------------------------------------------


def suite_expectations(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    samples = 1_000_000 if quick else ls.MC_DEFAULT_SAMPLES
    # a row is a CheckResult or, for Monte Carlo checks, a template completed
    # once every statistic of its stream is scored in one shared pass
    rows: list = []
    stats = {ls.MC_EXPECTATION_STREAM: [], ls.MC_RATE_STREAM: []}

    def mc_row(check_id, inp, expected, stream, stat, passes):
        stats[stream].append(stat)
        rows.append((check_id, inp, expected, stream, len(stats[stream]) - 1, passes))

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
            rows.append(CheckResult(
                f"rate_closed_form_{name}", f"sigma={sigma} lam={lam}",
                repr(closed), repr(quadv), "1e-8", abs(quadv - closed) <= 1e-8))

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
            integrated, _ = ls.quad(rate, 0.0, lam, **ls.QUAD_OPTS)
            mc_row(f"integrated_rate_vs_mc_{name}", f"sigma={sigma} lam={lam}",
                   repr(integrated), ls.MC_EXPECTATION_STREAM, (g, sigma, lam, None),
                   within(integrated, 1e-9))

    ests = {stream: ls._mc_estimates(st, samples, seed, stream)
            for stream, st in stats.items()}
    out = []
    for row in rows:
        if not isinstance(row, CheckResult):
            check_id, inp, expected, stream, i, passes = row
            est = ests[stream][i]
            row = CheckResult(check_id, inp, expected,
                              f"{est.mean!r} (se={est.std_error:.2e})",
                              "3 std errors", passes(est))
        out.append(row)
    return out


def g_sgnuv_vsq_stat(t, s):
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    return np.sign(t * s) * s * s


def g_saddle_weight(t, s):
    """phi(t/s, 1/2) s^2, the curvature weight along x at sigma = 0 (s = 0 gives 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(s != 0, t / np.where(s != 0, s, 1.0), np.inf)
    return ls.phi(ratio, 0.5) * s * s


# --- landscape suite --------------------------------------------------------


def suite_landscape(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    rows: list[CheckResult] = []
    samples = 1_000_000 if quick else ls.MC_DEFAULT_SAMPLES

    # saddle curvature: negative over the whole admissible smoothing range
    betas = np.round(np.arange(0.01, 0.7501, 0.01), 4)
    g0_vals = np.array([ls.saddle_curvature(float(b)) for b in betas])
    rows.append(CheckResult("saddle_curvature_negative", "beta in {0.01..0.75}",
                            "< -0.03", repr(float(g0_vals.max())), "-0.03",
                            bool(g0_vals.max() < -0.03)))

    target = ls.saddle_curvature(0.5)
    rows.append(CheckResult("saddle_curvature_at_half", "beta=0.5", "-0.1314",
                            repr(target), "1e-3", abs(target + 0.1314) <= 1e-3))

    # independent Monte Carlo of the same curvature expectation: sigma = 0
    # makes U = W independent of V, and lam = inf drops the indicator
    est = ls._mc_estimates([(g_saddle_weight, 0.0, np.inf, None)], samples, seed, 11)[0]
    rows.append(CheckResult("saddle_curvature_mc", f"{samples} samples",
                            repr(target), f"{est.mean!r} (se={est.std_error:.2e})",
                            "3 std errors", abs(est.mean - target) <= 3 * est.std_error))

    # monotonicity in lam and the z -> 0 limit
    lams = np.linspace(0.05, 20.0, 400)
    gl = np.array([ls.orthogonal_curvature(float(l), 0.5) for l in lams])
    rows.append(CheckResult("orthogonal_curvature_decreasing", "lam grid",
                            "diffs < 0", repr(float(np.max(np.diff(gl)))), "0",
                            bool(np.max(np.diff(gl)) < 0)))
    limit_err = abs(ls.orthogonal_curvature(1e8, 0.5) - ls.curvature_at_origin(0.5))
    rows.append(CheckResult("curvature_origin_limit", "lam=1e8 beta=0.5",
                            repr(ls.curvature_at_origin(0.5)), repr(limit_err),
                            "1e-6", limit_err <= 1e-6))

    # kernel identity B = tau^3 sigma Q on a grid
    worst = 0.0
    for t in np.linspace(0.01, 0.99, 25):
        for sigma in np.linspace(0.0, 0.95, 20):
            tau = math.sqrt(1 - sigma * sigma)
            b = ls.signed_rate_kernel(float(t), float(sigma))
            q = ls.scaled_rate_kernel(float(t), float(sigma))
            worst = max(worst, abs(b - tau ** 3 * sigma * q))
    rows.append(CheckResult("kernel_identity", "25x20 grid", "B = tau^3 sigma Q",
                            repr(worst), "1e-10", worst <= 1e-10))

    # non-vanishing-gradient radius values
    rows.append(CheckResult("region_radius_orthogonal", "sigma=0",
                            repr(2 / math.pi), repr(ls.region_radius(0.0)), "1e-12",
                            abs(ls.region_radius(0.0) - 2 / math.pi) <= 1e-12))
    rows.append(CheckResult("region_radius_aligned", "sigma=1", "1.0",
                            repr(ls.region_radius(1.0)), "1e-12",
                            abs(ls.region_radius(1.0) - 1.0) <= 1e-12))
    rr = max(ls.region_radius(float(s)) for s in np.linspace(0, 1, 1001))
    rows.append(CheckResult("region_radius_max", "sigma grid[1001]", "<= 1",
                            repr(rr), "1e-12", rr <= 1.0 + 1e-12))

    # alignment gradient: strictly negative normalized boundary values
    worst_ag = -math.inf
    for sigma in np.round(np.arange(0.05, 0.951, 0.05), 3):
        sigma = float(sigma)
        tau = math.sqrt(1 - sigma * sigma)
        worst_ag = max(worst_ag,
                       ls.expected_alignment_gradient(sigma, 0.5) / (sigma * tau ** 3))
    rows.append(CheckResult("alignment_gradient_negative", "sigma in {0.05..0.95}",
                            "< -0.01", repr(worst_ag), "-0.01", worst_ag < -0.01))

    # increasing in beta (finite differences at 20 points)
    worst_db = math.inf
    for sigma in np.linspace(0.1, 0.9, 20):
        d = (ls.expected_alignment_gradient(float(sigma), 0.52)
             - ls.expected_alignment_gradient(float(sigma), 0.48))
        worst_db = min(worst_db, d)
    rows.append(CheckResult("alignment_gradient_increasing_in_beta",
                            "20 sigma points", "> 0", repr(worst_db), "0",
                            worst_db > 0))

    # empirical scan over fresh instances
    n, mult = 64, 6
    seeds = (seed,) if quick else tuple(seed + k for k in range(5))
    radial_ok, curv_ok, convex_ok = True, True, True
    worst_radial, worst_curv, worst_convex = math.inf, -math.inf, math.inf
    for s in seeds:
        pts = ls.landscape_scan(
            n, mult * n, 0.5,
            norm_grid=(0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 1.0, 1.2, 1.5),
            sigma_grid=(0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99875, 0.9995),
            w_samples=4 if quick else 8,
            directions=16 if quick else 32,
            seed=s)
        for p in pts:
            if p.norm_z >= ls.region_radius(p.sigma) + 0.1:
                worst_radial = min(worst_radial, p.radial_grad)
                radial_ok &= p.radial_grad > 0
            if p.sigma <= 0.1 and 0.05 <= p.norm_z <= 1.0:
                worst_curv = max(worst_curv, p.curv_x)
                curv_ok &= p.curv_x < 0
            if p.dist_to_x <= 0.05:
                worst_convex = min(worst_convex, p.min_dir_curv)
                convex_ok &= p.min_dir_curv >= 0.25
    rows.append(CheckResult("scan_radial_gradient_positive",
                            f"n={n} m={mult}n seeds={len(seeds)}",
                            "> 0 beyond radius+0.1", repr(worst_radial), "0",
                            radial_ok))
    rows.append(CheckResult("scan_curvature_x_negative",
                            f"n={n} m={mult}n seeds={len(seeds)}",
                            "< 0 for sigma<=0.1, 0.05<=|z|<=1", repr(worst_curv),
                            "0", curv_ok))
    rows.append(CheckResult("scan_strong_convexity_near_truth",
                            f"n={n} m={mult}n seeds={len(seeds)}",
                            ">= 0.25 within 0.05 of x", repr(worst_convex),
                            "0.25", convex_ok))
    rows.append(CheckResult("convexity_radius_constant", "beta=0.5",
                            repr(math.sqrt(5.0 / 12.0) - 0.5),
                            repr(ls.convexity_radius_constant(0.5)), "1e-12",
                            abs(ls.convexity_radius_constant(0.5)
                                - (math.sqrt(5.0 / 12.0) - 0.5)) <= 1e-12))
    return rows


# --- appendix suite ---------------------------------------------------------


def suite_appendix(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    rows: list[CheckResult] = []
    grid = 200 if quick else 1000

    # weighted kernel integral at full misalignment
    target = (4.0 / math.pi) * (35.0 / 27.0 - math.log(3.0))
    val, _ = ls.quad(lambda t: (1 + 2 * t ** 3 - 2.5 * t) * ls.scaled_rate_kernel(t, 1.0),
                     0.0, 0.5, **ls.QUAD_OPTS)
    rows.append(CheckResult("weighted_kernel_integral", "beta=1/2 sigma=1",
                            repr(target), repr(val), "1e-6",
                            abs(val - target) <= 1e-6))
    rows.append(CheckResult("weighted_kernel_integral_below_bound", "bound 0.26",
                            "< 0.26", repr(val), "0.26", val < 0.26))

    # prefactor limit
    p0 = ls.alignment_prefactor(0.0)
    rows.append(CheckResult("alignment_prefactor_limit", "sigma=0",
                            repr(ls.ALIGNMENT_PREFACTOR_LIMIT), repr(p0), "1e-10",
                            abs(p0 - ls.ALIGNMENT_PREFACTOR_LIMIT) <= 1e-10))
    sigmas = np.linspace(0.0, 0.99, 50)
    pv = np.array([ls.alignment_prefactor(float(s)) for s in sigmas])
    rows.append(CheckResult("alignment_prefactor_decreasing", "sigma grid[50]",
                            "diffs < 0", repr(float(np.max(np.diff(pv)))), "0",
                            bool(np.max(np.diff(pv)) < 0)))

    rows.extend(ls.rational_integral_report())
    rows.extend(ls.inequality_report(grid_points=grid))
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
