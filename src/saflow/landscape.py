"""Closed-form landscape quantities and the estimators that check them.

Setup: for a unit ground truth x and an iterate z with alignment
sigma = <z, x>/||z|| (tau = sqrt(1 - sigma^2)) and scale lam = beta/||z||,
the projections U = <a, z>/||z|| and V = <a, x> of a standard Gaussian a
form a correlated standard-normal pair, U = sigma V + tau W with W
independent of V.  Every expectation that controls the loss landscape is a
function of (sigma, lam, beta) alone; this module provides those closed
forms, Monte Carlo and quadrature estimators for them, the scalar
integrals and inequalities behind the landscape bounds, and an empirical
scan of finite-instance losses over the (||z||, sigma) plane.  It returns
numbers, not check rows: saflow.verify turns them into its report.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .calculus import DEFAULT_BETA, _curvature_terms, _gradient, _phi_weights, check_beta, psi_u
from .measurement import REAL, gen_sensing, gen_signal, observe, rng_for
from .quadpack import quad

MC_DEFAULT_SAMPLES = 5_000_000
_MC_BATCH = 2_000_000
# Most draws a Monte Carlo leaf scores at once: 256 KiB per float32 array,
# so the few arrays a leaf holds stay in cache instead of streaming whole
# 8 MB batch arrays through memory.  Like _MC_BATCH, part of the output.
_MC_LEAF = 65_536


def _tau(sigma: float) -> float:
    """tau = sqrt(1 - sigma^2), the weight of W in U = sigma V + tau W."""
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0, 1], got {sigma!r}")
    return math.sqrt(max(1.0 - sigma * sigma, 0.0))


def _mu_sq(sigma: float, lam: float) -> tuple[float, float, float]:
    """(mu_plus^2, mu_minus^2, tau), mu_+-^2 = (1 + lam^2 +- 2 sigma lam)/tau^2."""
    tau = _tau(sigma)
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
    t2 = tau * tau
    if t2 == 0:
        raise ValueError("singular coordinates: tau = 0")
    base = 1.0 + lam * lam
    cross = 2.0 * sigma * lam
    return (base + cross) / t2, (base - cross) / t2, tau


class MCEstimate(NamedTuple):
    mean: float
    std_error: float
    samples: int


def expected_abs_uv(sigma: float) -> float:
    """E|UV| = (2/pi)(tau + sigma * arctan(sigma/tau)); equals 1 at sigma = 1."""
    tau = _tau(sigma)
    return (2.0 / math.pi) * (tau + sigma * math.atan2(sigma, tau))


def expected_sgnuv_vsq(sigma: float) -> float:
    """E[sgn(UV) V^2] = (2/pi)(tau*sigma + arctan(sigma/tau)); equals 1 at sigma = 1."""
    tau = _tau(sigma)
    return (2.0 / math.pi) * (tau * sigma + math.atan2(sigma, tau))


def region_radius(sigma: float) -> float:
    """Iterate norm beyond which the radial gradient component stays positive."""
    return expected_abs_uv(sigma)


MC_EXPECTATION_STREAM = 4  # draw stream of mc_indicator_expectation
MC_RATE_STREAM = 5         # draw stream of mc_indicator_rate_fd

# (u, v) points on which _mc_estimates checks that g(2u, 2v) == 4 g(u, v):
# ratios u/v inside, between and beyond the masks' thresholds, of both signs
_PROBE_U = np.array([0.3, -1.25, 0.75, -0.6, 2.5, 1.0], dtype=np.float32)
_PROBE_V = np.array([-1.7, 0.5, 1.0, -0.75, 0.25, 1.0], dtype=np.float32)


def _check_degree_two(g) -> None:
    """Raise ValueError unless g(2u, 2v) == 4 g(u, v) bitwise on the probe points;
    doubling is exact in float32, so a g homogeneous of degree 2 passes."""
    doubled = np.asarray(g(2 * _PROBE_U, 2 * _PROBE_V), dtype=np.float32)
    if not np.array_equal(doubled, 4 * np.asarray(g(_PROBE_U, _PROBE_V), dtype=np.float32)):
        name = getattr(g, "__qualname__", repr(g))
        raise ValueError(f"statistic {name} is not homogeneous of degree 2: "
                         "g(2u, 2v) != 4 g(u, v)")


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

    g must be homogeneous of degree 2, g(cU, cV) = c^2 g(U, V), and is
    checked to be (ValueError otherwise).  Then, with R^2 = V^2 + W^2, which
    is independent of the angle of (V, W) and has mean 2, E[g mask] =
    E[(2/R^2) g mask] for every mask, which reads only U/V; each draw's value
    is weighted by 2/R^2, which removes the radius's variance from the
    estimate (a 1.4-2.5x smaller standard error on the same draws).  Draws
    with R^2 zero or overflowing have probability zero and weight 0.

    Each batch's float64 draws are rounded to float32 and scored leaf by
    leaf, _MC_LEAF draws at a time, so a leaf's arrays stay in cache.  Every
    statistic is scored in float32: U, the weight, the masks' thresholds,
    g's weighted values and their sums over a leaf; the leaves' sums are
    added, in draw order, to float64 totals.  A 5*10^6-draw estimate's
    standard error is about 1e-4 relative, three orders of magnitude above
    float32 rounding.  g must act elementwise: g(U, V) on a leaf of the
    draws must be that leaf of g on the whole batch.
    """
    f32 = np.float32
    if samples < 1:
        raise ValueError("samples must be >= 1")
    groups: dict[tuple[float, float], dict] = {}
    for i, (g, sigma, lam, h) in enumerate(stats):
        tau = _tau(sigma)
        if not lam > 0.0:  # lam = inf is the unrestricted expectation
            raise ValueError(f"lam must be positive, got {lam!r}")
        if h is not None and not 0 < h < lam < math.inf:
            raise ValueError("need 0 < h < lam < inf")
        groups.setdefault((sigma, tau), {}).setdefault(g, []).append(i)
    for g in {g for by_g in groups.values() for g in by_g}:
        _check_degree_two(g)

    def score(a: int, b: int) -> np.ndarray:
        """Each statistic's sum (row 0) and sum of squares (row 1) over draws a..b-1."""
        sums = np.empty((2, len(stats)), dtype=f32)
        v_ab = v[a:b]
        av = np.abs(v_ab)
        r2 = v_ab * v_ab
        r2 += w[a:b] * w[a:b]
        with np.errstate(divide="ignore"):
            weight = f32(2.0) / r2
        # R^2 = 0 (weight inf) or R^2 overflowing (weight 0) never happens on a
        # leaf of normal draws; where it does, the draw scores 0 whatever g gives
        dead = (None if 0 < weight.min() and weight.max() < math.inf
                else ~((0 < weight) & (weight < math.inf)))
        # |U| <= inf |V| fails only where V == 0, so without such a draw the
        # lam = inf mask is all true and gv * 1.0 == gv: it is not built
        v_nonzero = av.min() > 0
        for (sigma, tau), by_g in groups.items():
            u = f32(sigma) * v_ab
            u += f32(tau) * w[a:b]
            au = np.abs(u)
            masks = {}
            for lam, h in {stats[i][2:] for idx in by_g.values() for i in idx}:
                if h is not None:  # the two indicators are nested: a 0/1 shell
                    masks[lam, h] = (au <= f32(lam + h) * av) & ~(au <= f32(lam - h) * av)
                elif lam != math.inf or not v_nonzero:
                    masks[lam, h] = au <= f32(lam) * av
            for g, idx in by_g.items():
                gv = np.asarray(g(u, v_ab), dtype=f32) * weight
                if dead is not None:
                    gv[dead] = 0
                for i in idx:
                    _, _, lam, h = stats[i]
                    mask = masks.get((lam, h))
                    if mask is None:
                        sums[0, i] = gv.sum()
                        sums[1, i] = (gv * gv).sum()
                        continue
                    vals = gv * mask
                    if h is not None:
                        np.divide(vals, f32(2.0 * h), out=vals)
                    sums[0, i] = vals.sum()
                    np.multiply(vals, vals, out=vals)
                    sums[1, i] = vals.sum()
        return sums

    totals = np.zeros((2, len(stats)))
    rng = rng_for(seed, stream)
    done = 0
    while done < samples:
        k = min(_MC_BATCH, samples - done)
        v = rng.standard_normal(k).astype(f32)
        w = rng.standard_normal(k).astype(f32)
        for a in range(0, k, _MC_LEAF):
            totals += score(a, min(a + _MC_LEAF, k))
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

    g must accept numpy arrays and be homogeneous of degree 2 in (U, V)
    (see _mc_estimates; ValueError otherwise).  Sampling runs in fixed-size
    batches so the result is deterministic for a given (samples, seed).
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
    two independent estimates.  g must be homogeneous of degree 2 in (U, V),
    as for mc_indicator_expectation.
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
    mu_p_sq, mu_m_sq, tau = _mu_sq(sigma, lam)

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
    mu_p_sq, mu_m_sq, tau = _mu_sq(sigma, lam)
    k = p + q + 2.0
    moment = 2.0 ** ((k - 2.0) / 2.0) * math.gamma(k / 2.0)  # int_0^inf t^{k-1} e^{-t^2/2}
    sign = -1.0 if signed else 1.0
    return (lam ** p / (math.pi * tau)) * (
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
    _tau(sigma)  # sigma in [0, 1]; Q reads only sigma^2
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


# ---------------------------------------------------------------------------
# Empirical landscape scan


def direction_curvatures(A, y, z, dirs, beta: float) -> np.ndarray:
    """dir_second_derivative along each row of dirs, in one matmul A @ dirs.T."""
    wz = A @ z
    return _curvature_terms(_phi_weights(wz, y, beta)[:, None], wz[:, None], A @ dirs.T,
                            y[:, None], beta).mean(axis=0)


class ScanPoint(NamedTuple):
    norm_z: float
    sigma: float
    dist_to_x: float
    radial_grad: float      # mean over w of <grad F, z>/||z||^2
    curv_x: float           # mean over w of the second derivative along x
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
    random unit w orthogonal to x, z = ||z|| (sigma x + tau w); the radial
    gradient and the curvature along x are averaged over the probes, and the
    curvature minimum is over all probes and `directions` random unit
    directions.  At a fixed number of measurements per dimension the
    per-probe values fluctuate around their expectations, so the averaged
    diagnostics are the stable quantities to test.
    """
    check_beta(beta)
    if n < 2:  # no unit w orthogonal to x
        raise ValueError(f"n must be >= 2, got {n!r}")
    for nz in norm_grid:  # a negative norm would flip the alignment it records
        if not 0.0 < nz < math.inf:
            raise ValueError(f"norm_grid values must be positive and finite, got {nz!r}")
    taus = [_tau(sigma) for sigma in sigma_grid]
    for name, count in (("w_samples", w_samples), ("directions", directions)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count!r}")
    x = gen_signal(n, REAL, seed)
    x /= np.linalg.norm(x)
    A = gen_sensing(m, n, REAL, seed)
    y = observe(A, x)
    ax = A @ x
    rng = rng_for(seed, 6)
    # one norm row of probes (sigma-major, w_samples each) is one block: the
    # elementwise kernels run once on its (probes, m) arrays, while every
    # matvec and dot stays one BLAS call per probe, since a batched GEMM
    # sums in another order than the GEMVs and would change bits
    sigma_col = np.repeat(np.asarray(sigma_grid, dtype=float), w_samples)[:, None]
    tau_col = np.repeat(np.asarray(taus), w_samples)[:, None]
    points = []
    for nz in norm_grid:
        # each probe's w, then its directions, in the stream order of a
        # probe-at-a-time scan
        draws = rng.standard_normal((len(sigma_col), 1 + directions, n))
        w = draws[:, 0]
        w -= np.array([wk @ x for wk in w])[:, None] * x
        w /= np.array([np.linalg.norm(wk) for wk in w])[:, None]
        z = nz * (sigma_col * x + tau_col * w)
        # gradient, dir_second_derivative along x and direction_curvatures,
        # sharing A @ z and the weights
        wz = np.array([A @ zk for zk in z])
        weights = _phi_weights(wz, y, beta)
        grads = [_gradient(A, y, wzk, wzk, ck) for wzk, ck in zip(wz, psi_u(wz, y, beta))]
        radials = [float(g @ zk) / (nz * nz) for g, zk in zip(grads, z)]
        curvs = _curvature_terms(weights, wz, ax, y, beta).mean(axis=1)
        dirs = draws[:, 1:]
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        min_dirs = [float(_curvature_terms(wk[:, None], wzk[:, None], A @ dk.T, y[:, None], beta)
                          .mean(axis=0).min()) for wk, wzk, dk in zip(weights, wz, dirs)]
        for i, sigma in enumerate(sigma_grid):
            probe = slice(i * w_samples, (i + 1) * w_samples)
            points.append(ScanPoint(
                norm_z=float(nz),
                sigma=float(sigma),
                dist_to_x=math.sqrt(max(nz * nz + 1.0 - 2.0 * nz * sigma, 0.0)),
                radial_grad=float(np.mean(radials[probe])),
                curv_x=float(np.mean(curvs[probe])),
                min_dir_curv=float(np.min(min_dirs[probe])),
            ))
    return points
