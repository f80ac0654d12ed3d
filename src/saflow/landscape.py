"""Closed-form landscape quantities and their numerical verification tools.

Setup: for a unit ground truth x and an iterate z with alignment
sigma = <z, x>/||z|| (tau = sqrt(1 - sigma^2)) and scale lam = beta/||z||,
the projections U = <a, z>/||z|| and V = <a, x> of a standard Gaussian a
form a correlated standard-normal pair, U = sigma V + tau W with W
independent of V.  Every expectation that controls the loss landscape is a
function of (sigma, lam, beta) alone; this module provides those closed
forms, Monte Carlo and quadrature estimators for them, and an empirical
scan of finite-instance losses over the (||z||, sigma) plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import DEFAULT_BETA, _curvature_terms, _gradient, _phi_weights, check_beta, psi_u
from .measurement import REAL, gen_sensing, gen_signal, observe, rng_for
from .reporting import CheckResult

MC_DEFAULT_SAMPLES = 10_000_000
_MC_BATCH = 2_000_000
# Most draws a Monte Carlo piece scores at once: 512 KiB per float array, so
# the few arrays a piece holds stay in cache instead of streaming whole
# 16 MB batch arrays through memory.  At least 128 (numpy's pairwise
# block), so every piece is a leaf of numpy's summation tree.
_MC_LEAF = 65_536


def quad(func, a: float, b: float) -> tuple[float, float]:
    """saflow.quadpack.quad(func, a, b), with that module loaded on first use.

    The integral of func over [a, b], b <= inf, and its error estimate.
    solve, sweep and bench integrate nothing, so they never load (and, with
    no bytecode cache, never compile) the QUADPACK port.
    """
    from .quadpack import quad as quadpack_quad
    return quadpack_quad(func, a, b)


@dataclass(frozen=True)
class LandscapeCoords:
    """Alignment/scale coordinates (sigma, lam, beta) with derived quantities."""

    sigma: float
    lam: float
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError("sigma must lie in [0, 1]")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam!r}")
        check_beta(self.beta)

    @property
    def tau(self) -> float:
        return math.sqrt(max(1.0 - self.sigma * self.sigma, 0.0))

    def mu_sq(self) -> tuple[float, float]:
        """(mu_plus^2, mu_minus^2) = (1 + lam^2 +- 2 sigma lam)/tau^2."""
        t2 = self.tau * self.tau
        if t2 == 0:
            raise ValueError("singular coordinates: tau = 0")
        base = 1.0 + self.lam * self.lam
        cross = 2.0 * self.sigma * self.lam
        return (base + cross) / t2, (base - cross) / t2


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    samples: int


def expected_abs_uv(sigma: float) -> float:
    """E|UV| = (2/pi)(tau + sigma * arctan(sigma/tau)); equals 1 at sigma = 1."""
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("sigma must lie in [0, 1]")
    tau = math.sqrt(max(1.0 - sigma * sigma, 0.0))
    return (2.0 / math.pi) * (tau + sigma * math.atan2(sigma, tau))


def expected_sgnuv_vsq(sigma: float) -> float:
    """E[sgn(UV) V^2] = (2/pi)(tau*sigma + arctan(sigma/tau)); equals 1 at sigma = 1."""
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("sigma must lie in [0, 1]")
    tau = math.sqrt(max(1.0 - sigma * sigma, 0.0))
    return (2.0 / math.pi) * (tau * sigma + math.atan2(sigma, tau))


def region_radius(sigma: float) -> float:
    """Iterate norm beyond which the radial gradient component stays positive."""
    return expected_abs_uv(sigma)


MC_EXPECTATION_STREAM = 4  # draw stream of mc_indicator_expectation
MC_RATE_STREAM = 5         # draw stream of mc_indicator_rate_fd


def _pairwise_sum(leaf_sum, start: int, n: int):
    """The sum of n values from `start` on, added up as numpy's np.sum adds them.

    numpy's pairwise summation splits n > 128 values at n//2 rounded down to
    a multiple of 8, recursively.  This cuts the same tree until a piece
    holds at most _MC_LEAF values, takes leaf_sum(a, b), the np.sum of the
    values a..b-1, on each piece in order, and adds the pieces' sums back up
    the tree, so the result equals np.sum of all n values bit for bit.
    """
    if n <= _MC_LEAF:
        return leaf_sum(start, start + n)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(leaf_sum, start, half) + _pairwise_sum(leaf_sum, start + half, n - half)


def _mc_estimates(stats, samples: int, seed: int, stream: int) -> list[MCEstimate]:
    """Score every statistic in `stats` on one shared pass of draws.

    Each statistic is a tuple (g, sigma, lam, h).  With h None it estimates
    E[g(U, V) 1{|U| <= lam |V|}]; with a half-width h it estimates the
    central difference over lam of that expectation,
    E[g(U, V) (1{|U| <= (lam+h)|V|} - 1{|U| <= (lam-h)|V|})] / (2h).  The
    pairs (V, W) come from rng_for(seed, stream) in fixed-size batches, and
    U = sigma V + tau W.  Every statistic sees the same draws and sums its
    values batch by batch, so its estimate is bitwise equal to scoring it
    alone; statistics that share sigma share U, and those that also share g
    share its values.

    Each batch is scored piece by piece on the leaves of numpy's summation
    tree (_pairwise_sum), so a piece's arrays stay in cache and the batch
    sums keep their bits.  g must therefore act elementwise: g(U, V) on a
    piece of the draws must be that piece of g on the whole batch.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    groups: dict[float, dict] = {}
    for i, (g, sigma, lam, h) in enumerate(stats):
        if not 0.0 <= sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {sigma!r}")
        if not lam > 0.0:  # lam = inf is the unrestricted expectation
            raise ValueError(f"lam must be positive, got {lam!r}")
        if h is not None and not 0 < h < lam:
            raise ValueError("need 0 < h < lam")
        groups.setdefault(sigma, {}).setdefault(g, []).append(i)

    def score(a: int, b: int) -> np.ndarray:
        """Each statistic's sum (row 0) and sum of squares (row 1) over draws a..b-1."""
        sums = np.empty((2, len(stats)))
        v_ab = v[a:b]
        av = np.abs(v_ab)
        # |U| <= inf |V| fails only where V == 0, so without such a draw the
        # lam = inf mask is all true and gv * 1.0 == gv: it is not built
        v_nonzero = av.min() > 0
        for sigma, by_g in groups.items():
            tau = math.sqrt(max(1.0 - sigma * sigma, 0.0))
            u = sigma * v_ab
            u += tau * w[a:b]
            au = np.abs(u)
            masks = {}
            for lam, h in {stats[i][2:] for idx in by_g.values() for i in idx}:
                if h is not None:
                    masks[lam, h] = np.subtract(au <= (lam + h) * av, au <= (lam - h) * av,
                                                dtype=float)
                elif lam != math.inf or not v_nonzero:
                    masks[lam, h] = au <= lam * av
            for g, idx in by_g.items():
                gv = np.asarray(g(u, v_ab), dtype=float)
                for i in idx:
                    _, _, lam, h = stats[i]
                    mask = masks.get((lam, h))
                    if mask is None:
                        sums[0, i] = gv.sum()
                        sums[1, i] = (gv * gv).sum()
                        continue
                    vals = gv * mask
                    if h is not None:
                        np.divide(vals, 2.0 * h, out=vals)
                    sums[0, i] = vals.sum()
                    np.multiply(vals, vals, out=vals)
                    sums[1, i] = vals.sum()
        return sums

    totals = np.zeros((2, len(stats)))
    rng = rng_for(seed, stream)
    done = 0
    while done < samples:
        k = min(_MC_BATCH, samples - done)
        v = rng.standard_normal(k)
        w = rng.standard_normal(k)
        totals += _pairwise_sum(score, 0, k)
        done += k
    out = []
    for total, total_sq in totals.T.tolist():
        mean = total / samples
        var = max(total_sq / samples - mean * mean, 0.0)
        out.append(MCEstimate(mean=mean, std_error=math.sqrt(var / samples),
                              samples=samples))
    return out


def mc_indicator_expectation(
    g, sigma: float, lam: float, samples: int = MC_DEFAULT_SAMPLES, seed: int = 0
) -> MCEstimate:
    """Monte Carlo estimate of E[g(U, V) 1{|U| <= lam |V|}].

    g must accept numpy arrays.  Sampling runs in fixed-size batches so the
    result is deterministic for a given (samples, seed).
    """
    return _mc_estimates([(g, sigma, lam, None)], samples, seed, MC_EXPECTATION_STREAM)[0]


def mc_indicator_rate_fd(
    g, sigma: float, lam: float, h: float = 0.02,
    samples: int = MC_DEFAULT_SAMPLES, seed: int = 0,
) -> MCEstimate:
    """Central finite difference of the indicator expectation over lam.

    Uses common random numbers: the same (U, V) draws evaluate both
    indicator thresholds, so only samples near the moving boundary
    contribute and the difference estimator has far smaller variance than
    two independent estimates.
    """
    return _mc_estimates([(g, sigma, lam, h)], samples, seed, MC_RATE_STREAM)[0]


def indicator_expectation_rate(g, sigma: float, lam: float) -> float:
    """d/d lam of E[g(U, V) 1{|U| <= lam |V|}], by adaptive quadrature.

    Evaluates (1/(2 pi tau)) * integral over v in (0, inf) of

        [g(-lam v, v) + g(lam v, -v)] v exp(-mu_+^2 v^2 / 2)
      + [g(lam v, v) + g(-lam v, -v)] v exp(-mu_-^2 v^2 / 2).

    The two pieces are summed inside one integrand, so sign-odd g at
    sigma = 0 cancels pointwise and the result is exactly zero.
    """
    coords = LandscapeCoords(sigma=sigma, lam=lam)
    mu_p_sq, mu_m_sq = coords.mu_sq()
    tau = coords.tau

    def integrand(v):
        plus = (g(-lam * v, v) + g(lam * v, -v)) * v * math.exp(-0.5 * mu_p_sq * v * v)
        minus = (g(lam * v, v) + g(-lam * v, -v)) * v * math.exp(-0.5 * mu_m_sq * v * v)
        return plus + minus

    val, _ = quad(integrand, 0.0, np.inf)
    return val / (2.0 * math.pi * tau)


def power_rate_closed_form(p: float, q: float, sigma: float, lam: float,
                           signed: bool = False) -> float:
    """Closed form of the rate for g = |t|^p |s|^q (optionally sgn(ts)-weighted).

    Equals (lam^p / (pi tau)) (mu_-^{-(p+q+2)} +- mu_+^{-(p+q+2)}) times the
    half-line Gaussian moment integral; for p + q = 2 the moment equals 2.
    """
    coords = LandscapeCoords(sigma=sigma, lam=lam)
    mu_p_sq, mu_m_sq = coords.mu_sq()
    k = p + q + 2.0
    moment = 2.0 ** ((k - 2.0) / 2.0) * math.gamma(k / 2.0)  # int_0^inf t^{k-1} e^{-t^2/2}
    sign = -1.0 if signed else 1.0
    return (lam ** p / (math.pi * coords.tau)) * (
        mu_m_sq ** (-k / 2.0) + sign * mu_p_sq ** (-k / 2.0)
    ) * moment


def signed_rate_kernel(t: float, sigma: float) -> float:
    """B(t, sigma) = (2/(pi tau)) (mu_-^{-4} - mu_+^{-4}) at lam = t."""
    if not 0.0 <= sigma < 1.0:
        raise ValueError("need 0 <= sigma < 1 (tau > 0)")
    tau_sq = 1.0 - sigma * sigma
    tau = math.sqrt(tau_sq)
    base = 1.0 + t * t
    cross = 2.0 * sigma * t
    mu_p_sq = (base + cross) / tau_sq
    mu_m_sq = (base - cross) / tau_sq
    return (2.0 / (math.pi * tau)) * (mu_m_sq ** -2 - mu_p_sq ** -2)


def scaled_rate_kernel(t: float, sigma: float) -> float:
    """Q(t, sigma) = 16 t (1+t^2) / (pi ((1+t^2)^2 - 4 sigma^2 t^2)^2).

    Satisfies B(t, sigma) = tau^3 sigma Q(t, sigma) identically.
    """
    denom = (1.0 + t * t) ** 2 - 4.0 * sigma * sigma * t * t
    if denom == 0:
        raise ValueError("pole at sigma = 1, t = 1")
    return 16.0 * t * (1.0 + t * t) / (math.pi * denom * denom)


def alignment_prefactor(sigma: float) -> float:
    """P(sigma) = -(16/pi) int_0^1 (1-t)^2 (1+t^2) t / ((1+t^2)^2 - 4 t^2 sigma^2)^2 dt.

    Decreasing in sigma; its supremum is the sigma -> 0 limit 1 - 4/pi.  At
    sigma = 1 the integrand has a non-integrable pole at t = 1 (the value
    diverges to -infinity), so that endpoint is rejected.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError("need 0 <= sigma < 1 (pole at sigma = 1, t = 1)")
    s2 = sigma * sigma

    def integrand(t):
        denom = (1.0 + t * t) ** 2 - 4.0 * t * t * s2
        return t * (1.0 - t) ** 2 * (1.0 + t * t) / (denom * denom)

    val, _ = quad(integrand, 0.0, 1.0)
    return -(16.0 / math.pi) * val


ALIGNMENT_PREFACTOR_LIMIT = 1.0 - 4.0 / math.pi


def expected_alignment_gradient(sigma: float, beta: float = DEFAULT_BETA) -> float:
    """Expected alignment component of the gradient at unit iterate norm.

    Evaluates, for ||z|| = 1 (lam = beta),

        sigma - (2/pi)(tau sigma + arctan(sigma/tau))
          + int_0^beta (1 + t^3/(2 beta^2) - (1/2 + 1/beta) t) B(t, sigma) dt.

    Strictly negative for 0 < sigma < 1 and beta <= 1/2; zero in the limits
    sigma = 0 and sigma = 1, which are returned directly.
    """
    check_beta(beta)
    if sigma in (0.0, 1.0):
        return 0.0
    lead = sigma - expected_sgnuv_vsq(sigma)

    def integrand(t):
        weight = 1.0 + t ** 3 / (2.0 * beta * beta) - (0.5 + 1.0 / beta) * t
        return weight * signed_rate_kernel(t, sigma)

    val, _ = quad(integrand, 0.0, beta)
    return lead + val


def orthogonal_curvature(lam: float, beta: float = DEFAULT_BETA) -> float:
    """Expected curvature along x at alignment sigma = 0, as a function of lam.

    g(lam) = 1 + (3/(pi lam^2))(arctan lam - lam/(1+lam^2))
               - ((beta+2)/(pi beta))(arctan lam + lam/(1+lam^2)).

    Decreasing in lam; its lam -> infinity (z -> 0) limit is 1/2 - 1/beta.
    """
    check_beta(beta)
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
    at = math.atan(lam)
    frac = lam / (1.0 + lam * lam)
    return (1.0 + (3.0 / (math.pi * lam * lam)) * (at - frac)
            - ((beta + 2.0) / (math.pi * beta)) * (at + frac))


def saddle_curvature(beta: float = DEFAULT_BETA) -> float:
    """Expected curvature along x at sigma = 0, ||z|| = 1 (lam = beta).

    g0(beta) = 1 - (3 + beta^2 + 2 beta)/(pi (1+beta^2) beta)
                 + ((3 - beta^2 - 2 beta)/(pi beta^2)) arctan(beta).

    Negative (below -0.03) for all beta in (0, 3/4]: the orthogonal ring is
    a saddle, not a minimum.
    """
    check_beta(beta)
    b2 = beta * beta
    return (1.0 - (3.0 + b2 + 2.0 * beta) / (math.pi * (1.0 + b2) * beta)
            + ((3.0 - b2 - 2.0 * beta) / (math.pi * b2)) * math.atan(beta))


def curvature_at_origin(beta: float) -> float:
    """z -> 0 limit of the expected curvature: 1/2 - 1/beta (negative)."""
    check_beta(beta)
    return 0.5 - 1.0 / beta


def convexity_radius_constant(beta: float) -> float:
    """Reference constant sqrt((2 beta + beta^2)/3) - beta for the strongly
    convex neighborhood of the truth."""
    check_beta(beta)
    return math.sqrt((2.0 * beta + beta * beta) / 3.0) - beta


# ---------------------------------------------------------------------------
# Rational-integral family int_0^inf ds / ((1+s^2)(1+s^2-t)^2)


def rational_integral(t: float) -> float:
    """Quadrature of int_0^inf ds / ((1+s^2)(1+s^2-t)^2) for t < 1."""
    if t >= 1.0:
        raise ValueError("need t < 1")

    def integrand(s):
        base = 1.0 + s * s
        return 1.0 / (base * (base - t) ** 2)

    val, _ = quad(integrand, 0.0, np.inf)
    return val


def rational_integral_closed_form(t: float) -> float:
    """Exact value (pi/4)(1 + 2 sqrt(a)) / (a^{3/2} (1 + sqrt(a))^2), a = 1 - t."""
    a = 1.0 - t
    if a <= 0:
        raise ValueError("need t < 1")
    ra = math.sqrt(a)
    return (math.pi / 4.0) * (1.0 + 2.0 * ra) / (a * ra * (1.0 + ra) ** 2)


def rational_integral_report() -> list[CheckResult]:
    """Adjudicate reference values for the integral family by quadrature.

    The two surd forms (9/16)(8-3*sqrt(6))*pi and (8/9)(9-5*sqrt(3))*pi
    evaluate to about 1.15135 and 0.94875; quadrature pairs the first with
    t = 1/3 and the second with t = 1/4, so the decimal values 0.94875 and
    1.15135 belong to t = 1/4 and t = 1/3 respectively.  Each report row
    records the quadrature truth.
    """
    rows: list[CheckResult] = []
    surd_6 = (9.0 / 16.0) * (8.0 - 3.0 * math.sqrt(6.0)) * math.pi
    surd_3 = (8.0 / 9.0) * (9.0 - 5.0 * math.sqrt(3.0)) * math.pi
    cases = [
        ("rational_integral_t0", 0.0, 3.0 * math.pi / 16.0, 1e-8),
        ("rational_integral_t_quarter", 0.25, 0.94875, 1e-4),
        ("rational_integral_t_third", 1.0 / 3.0, 1.15135, 1e-4),
    ]
    for check_id, t, target, tol in cases:
        val = rational_integral(t)
        rows.append(CheckResult(check_id, f"t={t:.6g}", repr(target), repr(val),
                                repr(tol), abs(val - target) <= tol))
    # which surd form belongs to which t, judged by quadrature
    v_quarter = rational_integral(0.25)
    v_third = rational_integral(1.0 / 3.0)
    rows.append(CheckResult(
        "surd_form_pairing_t_quarter", "t=0.25", repr(surd_3), repr(v_quarter),
        repr(1e-8), abs(v_quarter - surd_3) <= 1e-8))
    rows.append(CheckResult(
        "surd_form_pairing_t_third", "t=0.3333...", repr(surd_6), repr(v_third),
        repr(1e-8), abs(v_third - surd_6) <= 1e-8))
    return rows


# ---------------------------------------------------------------------------
# Scalar inequality battery


def monotone_f0_halfpi(tau: float) -> float:
    """tau^{-2} (pi/2 - tau - arctan(sigma/tau)/sigma), sigma = sqrt(1-tau^2)."""
    sigma = math.sqrt(max(1.0 - tau * tau, 0.0))
    if sigma == 0:
        raise ValueError("sigma = 0")
    return (math.pi / 2.0 - tau - math.atan2(sigma, tau) / sigma) / (tau * tau)


def monotone_f0_normalized(tau: float) -> float:
    """tau^{-2} (1 - (2/pi)(tau + arctan(sigma/tau)/sigma)); equals the
    half-pi variant times 2/pi, and alignment_prefactor(sigma) times tau."""
    sigma = math.sqrt(max(1.0 - tau * tau, 0.0))
    if sigma == 0:
        raise ValueError("sigma = 0")
    return (1.0 - (2.0 / math.pi) * (tau + math.atan2(sigma, tau) / sigma)) / (tau * tau)


def increasing_ratio_deriv(x: float) -> float:
    """f1'(x) = sec x (-x csc^2 x + 2x sec^2 x + csc x sec x + tan x - pi sec x tan x)."""
    sec = 1.0 / math.cos(x)
    csc = 1.0 / math.sin(x)
    tan = math.tan(x)
    return sec * (-x * csc * csc + 2.0 * x * sec * sec + csc * sec + tan - math.pi * sec * tan)


def arcsin_ratio_lower(s):
    """arcsin(sqrt(s))/sqrt(s) minus its cubic lower bound 1 + s/6 + 3 s^2/40."""
    s = np.asarray(s, dtype=float)
    rs = np.sqrt(s)
    ratio = np.where(s > 0, np.arcsin(np.minimum(rs, 1.0)) / np.where(s > 0, rs, 1.0), 1.0)
    return ratio - (1.0 + s / 6.0 + 0.075 * s * s)


def hull_poly(s):
    """A(s) = (460 - 120 pi + 51 s + 27 s^2)/120."""
    s = np.asarray(s, dtype=float)
    return (460.0 - 120.0 * math.pi + 51.0 * s + 27.0 * s * s) / 120.0


def sqrt_gap_poly(s):
    """g1(s) = A(s)^2 (1 - s) - (1 + s - A(s))^2; positive on [1/3, 2/3]."""
    s = np.asarray(s, dtype=float)
    a = hull_poly(s)
    return a * a * (1.0 - s) - (1.0 + s - a) ** 2


def case_boundary_margin(t):
    """2 + sqrt(t) + sqrt(t)/(1 + sqrt(t)) - pi; nonnegative for t >= 2/3."""
    t = np.asarray(t, dtype=float)
    rt = np.sqrt(t)
    return 2.0 + rt + rt / (1.0 + rt) - math.pi


def angle_family(t: float, theta):
    """f(t, theta) = (t (1 - (pi/2) sinc) + cos(theta) sinc) / cos^2(theta),
    sinc = sin(theta)/theta; increasing in theta for 0 <= t <= 1."""
    theta = np.asarray(theta, dtype=float)
    sinc = np.sin(theta) / theta
    return (t * (1.0 - (math.pi / 2.0) * sinc) + np.cos(theta) * sinc) / np.cos(theta) ** 2


def curvature_lower_cubic(t, beta: float):
    """h(t) = t^3 - (beta^2 + 2 beta) t + 2 beta^2; nonnegative on [0, beta],
    zero at t = beta."""
    t = np.asarray(t, dtype=float)
    return t ** 3 - (beta * beta + 2.0 * beta) * t + 2.0 * beta * beta


def inequality_report(grid_points: int = 1000) -> list[CheckResult]:
    """Dense-grid verification of the scalar inequalities behind the landscape
    bounds.  Returns one row per inequality."""
    rows: list[CheckResult] = []

    taus = np.linspace(1e-3, 1.0 - 1e-3, grid_points)
    for name, fn in (("monotone_f0_halfpi", monotone_f0_halfpi),
                     ("monotone_f0_normalized", monotone_f0_normalized)):
        vals = np.array([fn(t) for t in taus])
        min_diff = float(np.min(np.diff(vals)))
        rows.append(CheckResult(f"{name}_increasing", f"tau grid[{grid_points}]",
                                "diffs > 0", repr(min_diff), "0", min_diff > 0))

    xs = np.linspace(1e-3, math.pi / 2 - 1e-3, grid_points)
    f1p = np.array([increasing_ratio_deriv(x) for x in xs])
    rows.append(CheckResult("ratio_deriv_nonnegative", f"x grid[{grid_points}]",
                            ">= 0", repr(float(f1p.min())), "0", bool(f1p.min() >= 0)))

    ss = np.linspace(1.0 / 3.0, 2.0 / 3.0, grid_points)
    hs = (3.0 * ss - 1.0) * np.arcsin(np.sqrt(ss)) / np.sqrt(ss) \
        + (1.0 + ss) * np.sqrt(1.0 - ss) - math.pi * ss
    rows.append(CheckResult("arcsin_combination_nonnegative", f"s grid[{grid_points}]",
                            ">= 0", repr(float(hs.min())), "0", bool(hs.min() >= 0)))

    s_all = np.linspace(1e-9, 1.0 - 1e-9, grid_points)
    gap = arcsin_ratio_lower(s_all)
    rows.append(CheckResult("arcsin_ratio_lower_bound", f"s grid[{grid_points}]",
                            ">= 0", repr(float(gap.min())), "0", bool(gap.min() >= 0)))

    s01 = np.linspace(0.0, 1.0, grid_points)
    a = hull_poly(s01)
    ok = bool(np.all(a > 0) and np.all(a < 1.0 + s01))
    rows.append(CheckResult(
        "hull_poly_between_0_and_1_plus_s", f"s grid[{grid_points}]",
        "0 < A(s) < 1+s",
        f"min={float(a.min())!r} gap={float((1 + s01 - a).min())!r}",
        "0", ok))

    g1 = sqrt_gap_poly(ss)
    rows.append(CheckResult("sqrt_gap_poly_positive", f"s grid[{grid_points}]",
                            "> 0", repr(float(g1.min())), "0", bool(g1.min() > 0)))
    g1_diff = float(np.max(np.diff(g1)))
    rows.append(CheckResult("sqrt_gap_poly_decreasing", f"s grid[{grid_points}]",
                            "diffs < 0", repr(g1_diff), "0", g1_diff < 0))
    val = float(sqrt_gap_poly(2.0 / 3.0))
    rows.append(CheckResult("sqrt_gap_poly_at_two_thirds", "s=2/3", "0.035",
                            repr(val), "1e-3", abs(val - 0.035) <= 1e-3))

    t23 = np.linspace(2.0 / 3.0, 1.0, grid_points)
    margin = case_boundary_margin(t23)
    rows.append(CheckResult("case_boundary_margin_nonnegative", f"t grid[{grid_points}]",
                            ">= 0", repr(float(margin.min())), "0", bool(margin.min() >= 0)))

    thetas = np.linspace(1e-3, math.pi / 2 - 1e-3, grid_points)
    worst = math.inf
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        vals = angle_family(t, thetas)
        worst = min(worst, float(np.min(np.diff(vals))))
    rows.append(CheckResult("angle_family_increasing_in_theta", "t in {0,...,1}",
                            "diffs > 0", repr(worst), "0", worst > 0))
    return rows


# ---------------------------------------------------------------------------
# Empirical landscape scan


def direction_curvatures(A, y, z, dirs, beta: float) -> np.ndarray:
    """dir_second_derivative along each row of dirs, in one matmul A @ dirs.T."""
    wz = A @ z
    return _curvature_terms(_phi_weights(wz, y, beta)[:, None], wz[:, None], A @ dirs.T,
                            y[:, None], beta).mean(axis=0)


@dataclass(frozen=True)
class ScanPoint:
    norm_z: float
    sigma: float
    dist_to_x: float
    radial_grad: float      # mean over w of <grad F, z>/||z||^2
    radial_grad_min: float
    align_grad: float       # mean over w of <grad F, x>
    curv_x: float           # mean over w of the second derivative along x
    curv_x_max: float
    min_dir_curv: float     # min over w and sampled unit directions


def landscape_scan(
    n: int,
    m: int,
    beta: float = DEFAULT_BETA,
    norm_grid=(0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 1.0, 1.2, 1.5),
    sigma_grid=(0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99),
    w_samples: int = 8,
    directions: int = 32,
    seed: int = 0,
) -> list[ScanPoint]:
    """Probe a fresh real instance over the (||z||, sigma) plane.

    The ground truth is normalized to ||x|| = 1 so the closed-form region
    boundaries apply directly.  Each grid point is probed with w_samples
    random unit w orthogonal to x, z = ||z|| (sigma x + tau w); gradient
    diagnostics are averaged over the probes (per-probe extremes are kept),
    and the curvature minimum is over all probes and `directions` random
    unit directions.  At a fixed number of measurements per dimension the
    per-probe values fluctuate around their expectations, so the averaged
    diagnostics are the stable quantities to test.
    """
    check_beta(beta)
    for name, count in (("w_samples", w_samples), ("directions", directions)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count!r}")
    x = gen_signal(n, REAL, seed)
    x /= np.linalg.norm(x)
    A = gen_sensing(m, n, REAL, seed)
    y = observe(A, x)
    ax = A @ x
    rng = rng_for(seed, 6)
    points = []
    for nz in norm_grid:
        for sigma in sigma_grid:
            tau = math.sqrt(max(1.0 - sigma * sigma, 0.0))
            radials, aligns, curvs = [], [], []
            min_dir = math.inf
            for _ in range(w_samples):
                w = rng.standard_normal(n)
                w -= (w @ x) * x
                w /= np.linalg.norm(w)
                z = nz * (sigma * x + tau * w)
                # gradient, dir_second_derivative along x and
                # direction_curvatures, sharing A @ z and the weights
                wz = A @ z
                weights = _phi_weights(wz, y, beta)
                g = _gradient(A, y, wz, wz, psi_u(wz, y, beta))
                radials.append(float(g @ z) / (nz * nz))
                aligns.append(float(g @ x))
                curvs.append(float(np.mean(_curvature_terms(weights, wz, ax, y, beta))))
                dirs = rng.standard_normal((directions, n))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                curv = _curvature_terms(weights[:, None], wz[:, None], A @ dirs.T, y[:, None], beta)
                min_dir = min(min_dir, float(curv.mean(axis=0).min()))
            points.append(ScanPoint(
                norm_z=float(nz),
                sigma=float(sigma),
                dist_to_x=math.sqrt(max(nz * nz + 1.0 - 2.0 * nz * sigma, 0.0)),
                radial_grad=float(np.mean(radials)),
                radial_grad_min=float(np.min(radials)),
                align_grad=float(np.mean(aligns)),
                curv_x=float(np.mean(curvs)),
                curv_x_max=float(np.max(curvs)),
                min_dir_curv=float(min_dir),
            ))
    return points
