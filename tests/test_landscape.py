import math
import tracemalloc

import numpy as np
import pytest

import saflow.landscape as ls
import saflow.verify as verify
from saflow.calculus import DEFAULT_BETA, dir_second_derivative, gradient, phi
from saflow.measurement import REAL, gen_sensing, gen_signal, observe, rng_for
from saflow.verify import inequality_report, rational_integral_report


def test_coords_mu_sq():
    assert ls._mu_sq(0.0, 1.0) == (2.0, 2.0, 1.0)
    mp, mm, tau = ls._mu_sq(0.6, 1.0)
    assert mp == pytest.approx(5.0)
    assert mm == pytest.approx(1.25)
    assert mp >= mm
    assert tau == ls._tau(0.6) == pytest.approx(0.8)
    with pytest.raises(ValueError, match="singular"):
        ls._mu_sq(1.0, 1.0)
    with pytest.raises(ValueError, match="lam must be positive"):
        ls._mu_sq(0.5, 0.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_landscape_functions_reject_a_bad_lam(lam):
    g_tsq = lambda t, s: t * t
    for call in (lambda: ls._mu_sq(0.5, lam),
                 lambda: ls.indicator_expectation_rate(g_tsq, 0.5, lam),
                 lambda: ls.power_rate_closed_form(2, 0, 0.5, lam),
                 lambda: ls.orthogonal_curvature(lam, 0.5)):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            call()


def test_expected_abs_uv_values():
    assert ls.expected_abs_uv(0.0) == pytest.approx(2 / math.pi, abs=1e-15)
    assert ls.expected_abs_uv(1.0) == pytest.approx(1.0, abs=1e-15)
    # frozen closed-form value at sigma = 1/sqrt(2)
    assert ls.expected_abs_uv(1 / math.sqrt(2)) == pytest.approx(0.8037115486718268, abs=1e-15)
    with pytest.raises(ValueError):
        ls.expected_abs_uv(1.5)


def test_expected_sgnuv_vsq_values():
    assert ls.expected_sgnuv_vsq(0.0) == 0.0
    assert ls.expected_sgnuv_vsq(1.0) == pytest.approx(1.0, abs=1e-15)


def test_expected_abs_uv_against_mc():
    rng = rng_for(30)
    v = rng.standard_normal(1_000_000)
    w = rng.standard_normal(1_000_000)
    for sigma in (0.3, 1 / math.sqrt(2)):
        tau = math.sqrt(1 - sigma**2)
        u = sigma * v + tau * w
        est = np.abs(u * v)
        se = est.std() / 1000
        assert abs(est.mean() - ls.expected_abs_uv(sigma)) <= 3 * se


def test_mc_indicator_expectation_examples():
    # indicator always on: recovers E[V^2] = 1
    est = ls.mc_indicator_expectation(lambda t, s: s * s, 0.7, lam=np.inf,
                                      samples=500_000, seed=1)
    assert abs(est.mean - 1.0) <= 3 * est.std_error
    # sigma=0, lam=1: in polar coordinates |W| <= |V| is the half of the
    # circle within pi/4 of the V axis, so E[V^2 1{|W| <= |V|}] = 1/2 + 1/pi
    est = ls.mc_indicator_expectation(lambda t, s: s * s, 0.0, 1.0,
                                      samples=500_000, seed=2)
    assert abs(est.mean - (0.5 + 1 / math.pi)) <= 3 * est.std_error
    assert est.std_error > 0
    # and E[W^2 1{|W| <= |V|}] = 1/2 - 1/pi, the other half of E[W^2] = 1
    est = ls.mc_indicator_expectation(lambda t, s: t * t, 0.0, 1.0,
                                      samples=500_000, seed=2)
    assert abs(est.mean - (0.5 - 1 / math.pi)) <= 3 * est.std_error
    with pytest.raises(ValueError, match="samples"):
        ls.mc_indicator_expectation(lambda t, s: t * t, 0.5, 1.0, samples=0)


def _loop_estimates(stats, samples, seed, stream, dtype=np.float32, weighted=True):
    """Each statistic scored alone, with the batched loop the engine replaced,
    in `dtype` on each batch's float64 draws rounded to it, its values summed
    with np.sum a leaf at a time and the leaf sums added up in float64.
    weighted=True weights each value by 2/(V^2 + W^2) as the engine does (0
    where that is not finite and positive); in float64 it is the reference
    that float32 scoring is measured against.  weighted=False is the plain
    estimator of E[g mask], the reference for what the weighting estimates."""
    rng = rng_for(seed, stream)
    totals = np.zeros((len(stats), 2))
    done = 0
    while done < samples:
        k = min(2_000_000, samples - done)
        v = rng.standard_normal(k).astype(dtype)
        w = rng.standard_normal(k).astype(dtype)
        with np.errstate(divide="ignore"):
            weight = 2 / (v * v + w * w)
        dead = ~((0 < weight) & (weight < np.inf))
        av = np.abs(v)
        for j, (g, sigma, lam, h) in enumerate(stats):
            tau = math.sqrt(max(1.0 - sigma * sigma, 0.0))
            u = sigma * v + tau * w
            au = np.abs(u)
            vals = np.asarray(g(u, v), dtype=dtype)
            if weighted:
                vals = vals * weight
                vals[dead] = 0
            if h is None:
                vals = vals * (au <= lam * av)
            else:
                diff = (au <= (lam + h) * av).astype(dtype) - (au <= (lam - h) * av)
                vals = vals * diff / (2.0 * h)
            for a in range(0, k, ls._MC_LEAF):
                leaf = vals[a:a + ls._MC_LEAF]
                totals[j] += float(leaf.sum()), float((leaf * leaf).sum())
        done += k
    out = []
    for total, total_sq in totals.tolist():
        mean = total / samples
        out.append((mean, math.sqrt(max(total_sq / samples - mean * mean, 0.0) / samples)))
    return out


def test_mc_engine_one_pass_is_bitwise_one_at_a_time(monkeypatch):
    g_abs = lambda t, s: np.abs(t * s)
    g_tsq = lambda t, s: t * t
    g_signed = lambda t, s: np.sign(t * s) * t * t
    stats = [
        (g_abs, 0.0, np.inf, None),
        (g_abs, 1.0, np.inf, None),
        (g_tsq, 0.5, 0.25, None),      # one g at several lam
        (g_tsq, 0.5, 1.0, None),
        (g_tsq, 0.5, np.inf, None),
        (g_signed, 0.5, 1.0, None),    # same sigma and lam, other g
        (g_abs, 0.5, 0.5, 0.02),       # central differences
        (g_tsq, 0.5, 0.5, 0.02),
        (g_signed, 0.0, 0.25, 0.0625),
        (g_tsq, 1.0, 0.5, 0.1),
    ]
    samples = 2_000_001  # leaves a 1-sample last batch
    # 65 536 leaves a partial leaf in each full batch; 1000 many whole leaves
    for leaf in (ls._MC_LEAF, 1000):
        monkeypatch.setattr(ls, "_MC_LEAF", leaf)
        together = ls._mc_estimates(stats, samples, seed=3, stream=7)
        assert [est.samples for est in together] == [samples] * len(stats)
        assert [(est.mean, est.std_error) for est in together] == _loop_estimates(
            stats, samples, 3, 7)
    monkeypatch.undo()
    # the public estimators are the engine's one-statistic case on their streams
    g, sigma, lam, _ = stats[2]
    alone = ls.mc_indicator_expectation(g, sigma, lam, samples=samples, seed=3)
    assert [(alone.mean, alone.std_error)] == _loop_estimates(
        [(g, sigma, lam, None)], samples, 3, ls.MC_EXPECTATION_STREAM)
    g, sigma, lam, h = stats[6]
    alone = ls.mc_indicator_rate_fd(g, sigma, lam, h=h, samples=samples, seed=3)
    assert [(alone.mean, alone.std_error)] == _loop_estimates(
        [(g, sigma, lam, h)], samples, 3, ls.MC_RATE_STREAM)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0
def test_mc_engine_masks_lam_inf_where_v_is_zero(monkeypatch):
    # |U| <= inf |V| fails where V == 0; the engine skips that mask only on a
    # leaf without such a draw, so zeroed draws must still be dropped
    real_rng_for = rng_for

    def zeroed_rng_for(*key):
        rng = real_rng_for(*key)

        class Draws:
            calls = 0

            def standard_normal(self, k):
                draws = rng.standard_normal(k)
                if self.calls % 2 == 0:  # v, not w, so U is nonzero there
                    draws[::100_003] = 0.0  # leaves with and without a zero
                self.calls += 1
                return draws
        return Draws()

    g_tsq = lambda t, s: t * t  # nonzero at V == 0, so a dropped mask shows
    g_abs = lambda t, s: np.abs(t * s)
    stats = [(g_tsq, 0.5, np.inf, None), (g_abs, 0.0, np.inf, None),
             (g_tsq, 0.5, 1.0, None), (g_tsq, 0.5, 0.5, 0.02)]
    samples = 400_000
    monkeypatch.setattr(ls, "rng_for", zeroed_rng_for)
    together = ls._mc_estimates(stats, samples, seed=5, stream=9)
    monkeypatch.setitem(globals(), "rng_for", zeroed_rng_for)
    assert [(est.mean, est.std_error) for est in together] == _loop_estimates(
        stats, samples, 5, 9)


# t * s overflows where |V| is near overflow, where the draw's weight is 0
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0
@pytest.mark.parametrize("lam, h", [(0.5, 0.02), (1.0, 0.02), (0.25, 0.0625)])
def test_mc_engine_shell_mask_on_its_edges(monkeypatch, lam, h):
    # the central-difference mask is the bool shell 1{|U| <= (lam+h)|V|} and
    # not 1{|U| <= (lam-h)|V|}; scored against the float difference of the two
    # indicators on draws with |U| exactly on (lam +- h)|V| in float32, where
    # the engine scores, or one float32 ulp off it.  At +-0, subnormal and
    # near-overflow |V|, V^2 + W^2 is 0 or overflows and the draw scores 0
    # whatever g gives; at |V| = 1e-19 and 1e18 its weight is still finite
    f32 = np.finfo(np.float32)
    rng = rng_for(43)
    v = np.concatenate([rng.standard_normal(4000).astype(np.float32),
                        np.array([0.0, -0.0, f32.smallest_subnormal, -f32.smallest_subnormal,
                                  f32.smallest_normal, 1e-37, 1e37, -f32.max / 1.05,
                                  1e-19, -1e18],
                                 dtype=np.float32)])
    edges = [np.float32(lam + h) * v, np.float32(lam - h) * v]
    inf = np.float32(np.inf)
    w = np.concatenate([edges[0], edges[1], -edges[0], -edges[1],
                        np.nextafter(edges[0], inf), np.nextafter(edges[0], -inf),
                        np.nextafter(edges[1], inf), np.nextafter(edges[1], -inf)])
    v = np.tile(v, 8)

    def edge_rng_for(*key):
        class Draws:
            calls = 0

            def standard_normal(self, k):
                assert k == len(v)
                self.calls += 1
                # V, then W, as float64 draws that round to themselves
                return (v if self.calls % 2 else w).astype(float)
        return Draws()

    stats = [(lambda t, s: t * s, 0.0, lam, h), (lambda t, s: s * s, 0.0, lam, h)]
    monkeypatch.setattr(ls, "rng_for", edge_rng_for)
    together = ls._mc_estimates(stats, len(v), seed=0, stream=0)
    monkeypatch.setitem(globals(), "rng_for", edge_rng_for)
    expected = _loop_estimates(stats, len(v), 0, 0)
    assert [(est.mean, est.std_error) for est in together] == expected
    assert all(math.isfinite(mean) and se > 0 for mean, se in expected)


@pytest.fixture(scope="module")
def verify_passes():
    """Every Monte Carlo pass `verify` makes at its quick budget and seed 0,
    as {stream: (stats, samples, seed)}, captured in place of the engine."""
    passes = {}

    def capture(stats, samples, seed, stream):
        passes[stream] = (list(stats), samples, seed)
        return [ls.MCEstimate(0.0, 1.0, samples)] * len(stats)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ls, "_mc_estimates", capture)
        mp.setattr(verify, "ordered_map", lambda calls: [call() for call in calls])
        for suite in ("expectations", "landscape"):
            verify.run_suite(suite, quick=True, seed=0)
    assert sorted(passes) == [ls.MC_EXPECTATION_STREAM, ls.MC_RATE_STREAM, 11]
    assert sum(len(stats) for stats, _, _ in passes.values()) == 47
    assert {(samples, seed) for _, samples, seed in passes.values()} == {(1_000_000, 0)}
    return passes


def test_float32_scoring_moves_no_verify_estimate_by_a_hundredth_of_its_error(verify_passes):
    # verify's own Monte Carlo statistics at its quick budget, scored by the
    # float32 engine and in float64 on the same draws: every estimate agrees
    # within 0.01 standard errors, so float32 arithmetic sways no verdict
    for stream, (stats, samples, seed) in verify_passes.items():
        reference = _loop_estimates(stats, samples, seed, stream, dtype=np.float64)
        for stat, est, (mean, se) in zip(
                stats, ls._mc_estimates(stats, samples, seed, stream), reference):
            assert abs(est.mean - mean) <= 0.01 * se, stat
            assert est.std_error == pytest.approx(se, rel=1e-4), stat


def test_weighted_engine_estimates_what_the_plain_estimator_does(verify_passes):
    # the 2/R^2 weight changes the estimator, not what it estimates: on
    # verify's own statistics the engine at N draws agrees with the plain
    # float64 estimator of E[g mask] at 2N within 3 combined standard errors,
    # and its standard error is no larger; 1.05 allows for the noise of an
    # estimated standard error, as the two are equal at best
    for stream, (stats, samples, seed) in verify_passes.items():
        plain = _loop_estimates(stats, 2 * samples, seed, stream, dtype=np.float64,
                                weighted=False)
        for stat, est, (mean, se) in zip(
                stats, ls._mc_estimates(stats, samples, seed, stream), plain):
            assert abs(est.mean - mean) <= 3 * math.hypot(est.std_error, se), stat
            assert est.std_error <= 1.05 * se, stat


def test_verify_statistics_are_homogeneous_of_degree_two(verify_passes):
    # the weight's precondition, on every statistic verify scores: doubling
    # (u, v) is exact, so g(2u, 2v) must be 4 g(u, v) bitwise, in the float32
    # the engine scores in and in float64; tripling rounds, so g(3u, 3v) is
    # 9 g(u, v) to rounding.  That is checked in float64: the saddle weight
    # phi(u/v) v^2 has a zero at |u/v| -> 1/2, where a float32 ratio's
    # rounding moves it by up to 0.7% relative
    gs = {stat[0] for stats, _, _ in verify_passes.values() for stat in stats}
    assert len(gs) == 7
    u, v = rng_for(44).standard_normal((2, 100_000))
    for g in gs:
        for dtype in (np.float32, np.float64):
            du, dv = u.astype(dtype), v.astype(dtype)
            base = np.asarray(g(du, dv), dtype=dtype)
            assert np.array_equal(np.asarray(g(2 * du, 2 * dv), dtype=dtype), 4 * base), g
        np.testing.assert_allclose(g(3 * u, 3 * v), 9 * g(u, v), rtol=1e-6, err_msg=repr(g))


def test_mc_engine_rejects_a_statistic_not_homogeneous_of_degree_two(monkeypatch):
    def g_ones(t, s):
        return np.ones_like(t)

    def g_linear(t, s):
        return t

    def no_draws(*key):
        raise AssertionError("drew before checking the statistics")

    monkeypatch.setattr(ls, "rng_for", no_draws)
    for g in (g_ones, g_linear):
        message = f"statistic .*{g.__name__} is not homogeneous of degree 2"
        with pytest.raises(ValueError, match=message):
            ls._mc_estimates([(lambda t, s: t * t, 0.5, 1.0, None), (g, 0.5, 1.0, None)],
                             10, 0, 4)
        with pytest.raises(ValueError, match=message):
            ls.mc_indicator_expectation(g, 0.5, np.inf, samples=10)
        with pytest.raises(ValueError, match=message):
            ls.mc_indicator_rate_fd(g, 0.5, 1.0, samples=10)


def test_mc_engine_peak_memory_stays_near_the_draws():
    # a 2M-sample batch's two draw arrays take 30.5 MiB; the bound leaves
    # room for one leaf's temporaries, not for one 15 MiB batch-sized array
    g_tsq = lambda t, s: t * t
    g_abs = lambda t, s: np.abs(t * s)
    stats = [(g_tsq, 0.25, 1.0, None), (g_abs, 0.75, np.inf, None),
             (g_tsq, 0.25, 0.5, 0.02), (g_abs, 0.75, 1.0, 0.1)]
    tracemalloc.start()
    try:
        ls._mc_estimates(stats, 2_000_000, seed=0, stream=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_mc_estimators_reject_bad_budget_and_width():
    g = lambda t, s: t * t
    for samples in (0, -1):
        with pytest.raises(ValueError):
            ls.mc_indicator_expectation(g, 0.5, 1.0, samples=samples)
        with pytest.raises(ValueError):
            ls.mc_indicator_rate_fd(g, 0.5, 1.0, samples=samples)
    for h in (0.0, -0.01, 0.5, 0.6):
        with pytest.raises(ValueError):
            ls.mc_indicator_rate_fd(g, 0.5, 0.5, h=h, samples=10)
    # a finite difference at lam = inf has no boundary to difference across
    with pytest.raises(ValueError, match="lam < inf"):
        ls.mc_indicator_rate_fd(g, 0.5, math.inf, h=0.02, samples=10)
    with pytest.raises(ValueError):
        ls._mc_estimates([(g, 0.5, 1.0, None), (g, 0.5, 0.5, 0.5)], 10, 0, 4)


def test_mc_estimators_reject_bad_sigma_and_lam():
    g = lambda t, s: t * t
    for sigma in (-0.1, 1.5, 2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must lie in"):
            ls.mc_indicator_expectation(g, sigma, 1.0, samples=10)
        with pytest.raises(ValueError, match="sigma must lie in"):
            ls.mc_indicator_rate_fd(g, sigma, 1.0, samples=10)
    for lam in (math.nan, 0.0, -1.0, -math.inf):
        with pytest.raises(ValueError, match="lam must be positive"):
            ls.mc_indicator_expectation(g, 0.5, lam, samples=10)
        with pytest.raises(ValueError, match="lam must be positive"):
            ls.mc_indicator_rate_fd(g, 0.5, lam, samples=10)
    # one bad statistic rejects the whole pass, before any draw
    with pytest.raises(ValueError, match="sigma"):
        ls._mc_estimates([(g, 0.5, 1.0, None), (g, math.nan, 1.0, None)], 10, 0, 4)
    # lam = inf is the unrestricted expectation, and sigma may sit at either end
    for sigma in (0.0, 1.0):
        assert ls.mc_indicator_expectation(g, sigma, math.inf, samples=10).samples == 10


def test_rate_closed_forms():
    # quadratic families: rate = 2 lam^p/(pi tau) (mu_-^{-4} +- mu_+^{-4})
    for sigma, lam in ((0.25, 0.5), (0.5, 1.0), (0.0, 0.25)):
        mp, mm, tau = ls._mu_sq(sigma, lam)
        for p, g, signed in (
            (2, lambda t, s: t * t, False),
            (0, lambda t, s: s * s, False),
            (1, lambda t, s: abs(t * s), False),
        ):
            expect = (2 * lam**p / (math.pi * tau)) * (mm**-2 + mp**-2)
            assert ls.indicator_expectation_rate(g, sigma, lam) == pytest.approx(
                expect, abs=1e-9)
            assert ls.power_rate_closed_form(p, 2 - p, sigma, lam, signed) == \
                pytest.approx(expect, rel=1e-12)


def test_rate_signed_zero_at_orthogonal():
    for lam in (0.25, 0.5, 1.0):
        val = ls.indicator_expectation_rate(
            lambda t, s: np.sign(t * s) * t * t, 0.0, lam)
        assert val == 0.0


def test_rate_rejects_singular_coords():
    with pytest.raises(ValueError):
        ls.indicator_expectation_rate(lambda t, s: t * t, 1.0, 0.5)


def test_rate_matches_mc_finite_difference():
    g = lambda t, s: np.abs(t * s)
    quadv = ls.indicator_expectation_rate(g, 0.5, 0.5)
    est = ls.mc_indicator_rate_fd(g, 0.5, 0.5, h=0.02, samples=2_000_000, seed=3)
    assert abs(est.mean - quadv) <= 3 * est.std_error


def test_region_radius():
    assert ls.region_radius(0.0) == pytest.approx(2 / math.pi)
    assert ls.region_radius(1.0) == pytest.approx(1.0)
    vals = [ls.region_radius(s) for s in np.linspace(0, 1, 501)]
    assert max(vals) <= 1.0 + 1e-12


def test_kernel_identity_and_edge_cases():
    assert ls.signed_rate_kernel(0.7, 0.0) == 0.0
    for t in np.linspace(0.05, 0.95, 10):
        for sigma in np.linspace(0.0, 0.9, 10):
            tau = math.sqrt(1 - sigma**2)
            assert ls.signed_rate_kernel(float(t), float(sigma)) == pytest.approx(
                tau**3 * sigma * ls.scaled_rate_kernel(float(t), float(sigma)),
                abs=1e-12)
    with pytest.raises(ValueError):
        ls.scaled_rate_kernel(1.0, 1.0)
    with pytest.raises(ValueError):
        ls.signed_rate_kernel(0.5, 1.0)
    # Q takes sigma in [0, 1], sigma = 1 included (the appendix integrates Q(t, 1))
    assert ls.scaled_rate_kernel(0.5, 1.0) == 16 * 0.5 * 1.25 / (math.pi * 0.5625 * 0.5625)
    for sigma in (-0.1, 1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            ls.scaled_rate_kernel(0.5, sigma)


def test_alignment_prefactor():
    assert ls.alignment_prefactor(0.0) == pytest.approx(1 - 4 / math.pi, abs=1e-10)
    assert ls.alignment_prefactor(0.9) < ls.alignment_prefactor(0.1)
    with pytest.raises(ValueError):
        ls.alignment_prefactor(1.0)


def test_mc_matches_integrated_rate():
    # E[U^2 1{|U| <= lam|V|}] at sigma=0 has the antiderivative
    # (2/pi)(arctan(lam) - lam/(1+lam^2)); MC should land within 3 std errors
    lam = 0.5
    target = (2 / math.pi) * (math.atan(lam) - lam / (1 + lam**2))
    est = ls.mc_indicator_expectation(lambda t, s: t * t, 0.0, lam,
                                      samples=2_000_000, seed=9)
    assert abs(est.mean - target) <= 3 * est.std_error


def test_expected_alignment_gradient():
    assert ls.expected_alignment_gradient(0.0, 0.5) == 0.0
    assert ls.expected_alignment_gradient(1.0, 0.5) == 0.0
    for sigma in (0.05, 0.5, 0.95):
        tau = math.sqrt(1 - sigma**2)
        assert ls.expected_alignment_gradient(sigma, 0.5) / (sigma * tau**3) < -0.01
    # increasing in the smoothing parameter
    assert ls.expected_alignment_gradient(0.5, 0.55) > ls.expected_alignment_gradient(0.5, 0.45)


def test_weighted_kernel_integral_frozen_value():
    quad = pytest.importorskip("scipy.integrate").quad  # an independent quadrature
    target = (4 / math.pi) * (35 / 27 - math.log(3))
    val, _ = quad(lambda t: (1 + 2 * t**3 - 2.5 * t) * ls.scaled_rate_kernel(t, 1.0),
                  0, 0.5, epsabs=1e-12)
    assert val == pytest.approx(target, abs=1e-9)
    assert val == pytest.approx(0.25170, abs=1e-5)
    assert val < 0.26


def test_orthogonal_curvature_and_saddle_value():
    assert ls.saddle_curvature(0.5) == pytest.approx(-0.13142190249674357, abs=1e-15)
    assert ls.saddle_curvature(0.5) == pytest.approx(ls.orthogonal_curvature(0.5, 0.5))
    for b in np.arange(0.01, 0.7501, 0.01):
        assert ls.saddle_curvature(float(b)) < -0.03
    lams = np.linspace(0.05, 10, 200)
    vals = [ls.orthogonal_curvature(float(l), 0.5) for l in lams]
    assert all(np.diff(vals) < 0)
    assert ls.orthogonal_curvature(1e9, 0.5) == pytest.approx(
        ls.curvature_at_origin(0.5), abs=1e-8)
    with pytest.raises(ValueError):
        ls.orthogonal_curvature(0.0, 0.5)
    with pytest.raises(ValueError):
        ls.orthogonal_curvature(1.0, 0.0)


def test_saddle_curvature_against_mc():
    rng = rng_for(31)
    v = rng.standard_normal(2_000_000)
    u = rng.standard_normal(2_000_000)
    vals = phi(u / v, 0.5) * v * v
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - ls.saddle_curvature(0.5)) <= 3 * se


def test_rational_integrals():
    assert ls.rational_integral(0.0) == pytest.approx(3 * math.pi / 16, abs=1e-10)
    # closed form matches quadrature across the range
    for t in (0.0, 0.25, 1 / 3, 0.7):
        assert ls.rational_integral(t) == pytest.approx(
            ls.rational_integral_closed_form(t), abs=1e-9)
    # the printed numerics pair with t = 1/4 and t = 1/3 in that order
    assert ls.rational_integral(0.25) == pytest.approx(0.94875, abs=1e-4)
    assert ls.rational_integral(1 / 3) == pytest.approx(1.15135, abs=1e-4)
    rows = rational_integral_report()
    assert all(r.passed for r in rows)


def test_inequality_report_all_pass():
    rows = inequality_report(grid_points=400)
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]
    assert float(ls.sqrt_gap_poly(2 / 3)) == pytest.approx(0.035, abs=1e-3)
    # frozen value of the closing polynomial check
    assert float(ls.sqrt_gap_poly(2 / 3)) == pytest.approx(0.03527951008299246, abs=1e-14)


def test_convexity_radius_constant():
    assert ls.convexity_radius_constant(0.5) == pytest.approx(
        math.sqrt((2 * 0.5 + 0.25) / 3) - 0.5, abs=1e-15)


def test_direction_curvatures_matches_reference():
    x = gen_signal(16, REAL, seed=7)
    x /= np.linalg.norm(x)
    A = gen_sensing(96, 16, REAL, seed=7)
    y = observe(A, x)
    rng = rng_for(8)
    z = 0.8 * x + 0.3 * rng.standard_normal(16)
    dirs = rng.standard_normal((5, 16))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    batch = ls.direction_curvatures(A, y, z, dirs, 0.5)
    for k in range(5):
        assert batch[k] == pytest.approx(
            dir_second_derivative(z, dirs[k], A, y, 0.5), rel=1e-12)


def test_direction_curvatures_on_branch_boundary():
    # |<a,z>| = beta*y exactly: the one-sided values of dir_second_derivative
    A = np.array([[1.0]])
    dirs = np.array([[1.0], [-1.0]])
    assert ls.direction_curvatures(A, np.array([2.0]), np.array([1.0]), dirs, 0.5).tolist() \
        == [1.0, 0.0]


def _reference_scan(n, m, w_samples, directions, seed):
    """landscape_scan with each probe computed by the public gradient,
    dir_second_derivative and direction_curvatures, each forming its own A @ z."""
    beta = DEFAULT_BETA
    x = gen_signal(n, REAL, seed)
    x /= np.linalg.norm(x)
    A = gen_sensing(m, n, REAL, seed)
    y = observe(A, x)
    rng = rng_for(seed, 6)
    points = []
    for nz in ls.SCAN_NORMS:
        for sigma in ls.SCAN_SIGMAS:
            tau = math.sqrt(max(1.0 - sigma * sigma, 0.0))
            radials, curvs = [], []
            min_dir = math.inf
            for _ in range(w_samples):
                w = rng.standard_normal(n)
                w -= (w @ x) * x
                w /= np.linalg.norm(w)
                z = nz * (sigma * x + tau * w)
                g = gradient(z, A, y, beta)
                radials.append(float(g @ z) / (nz * nz))
                curvs.append(dir_second_derivative(z, x, A, y, beta))
                dirs = rng.standard_normal((directions, n))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                min_dir = min(min_dir, float(ls.direction_curvatures(A, y, z, dirs, beta).min()))
            points.append(ls.ScanPoint(
                norm_z=float(nz), sigma=float(sigma),
                dist_to_x=math.sqrt(max(nz * nz + 1.0 - 2.0 * nz * sigma, 0.0)),
                radial_grad=float(np.mean(radials)), curv_x=float(np.mean(curvs)),
                min_dir_curv=float(min_dir)))
    return points


# one probe per cell and one direction per probe
_THIN_SCAN = (16, 96, 1, 1)


@pytest.mark.parametrize("args, seed, grid", [
    pytest.param(_THIN_SCAN, 0, None, id="0"),
    pytest.param(_THIN_SCAN, 3, None, id="3"),
    # verify's scan of one seed at its full and its quick budget: norm rows
    # of 9 x 8 and of 9 x 4 probes
    pytest.param((64, 384, 8, 32), 1, None, id="verify-full-budget"),
    pytest.param((64, 384, 4, 16), 0, None, id="verify-quick-budget"),
    # a one-cell grid: a norm row of a single probe with a single direction
    pytest.param(_THIN_SCAN, 5, ((0.7,), (0.3,)), id="one-probe-block"),
])
def test_landscape_scan_probe_is_bitwise_the_public_functions(args, seed, grid, monkeypatch):
    # a norm row of probes is scanned as one block; each probe must still
    # give the bits of the public functions called on it alone, and a cell
    # scores its directions only within STRONG_CONVEXITY_RADIUS of x (|z| = 1
    # at sigma = 0.99875 and 0.9995), reporting NaN beyond
    if grid is not None:
        monkeypatch.setattr(ls, "SCAN_NORMS", grid[0])
        monkeypatch.setattr(ls, "SCAN_SIGMAS", grid[1])
    got = ls.landscape_scan(*args, seed=seed)
    want = _reference_scan(*args, seed)
    assert [p._replace(min_dir_curv=0.0) for p in got] == \
        [p._replace(min_dir_curv=0.0) for p in want]
    for p, q in zip(got, want):
        if q.dist_to_x <= ls.STRONG_CONVEXITY_RADIUS:
            assert p.min_dir_curv == q.min_dir_curv
        else:
            assert math.isnan(p.min_dir_curv)


def test_landscape_scan_region_includes_its_boundary(monkeypatch):
    # z = x lies at distance exactly 0, so a radius of 0 scores it and nothing else
    monkeypatch.setattr(ls, "STRONG_CONVEXITY_RADIUS", 0.0)
    monkeypatch.setattr(ls, "SCAN_NORMS", (1.0, 0.5))
    monkeypatch.setattr(ls, "SCAN_SIGMAS", (1.0,))
    pts = ls.landscape_scan(12, 60, w_samples=1, directions=2, seed=0)
    assert [p.dist_to_x for p in pts] == [0.0, 0.5]
    assert math.isfinite(pts[0].min_dir_curv) and math.isnan(pts[1].min_dir_curv)


def test_landscape_scan_smoke():
    pts = ls.landscape_scan(24, 144, w_samples=2, directions=4, seed=0)
    assert [(p.norm_z, p.sigma) for p in pts] == \
        [(nz, sigma) for nz in ls.SCAN_NORMS for sigma in ls.SCAN_SIGMAS]
    # deterministic given the seed
    assert pts == ls.landscape_scan(24, 144, w_samples=2, directions=4, seed=0)
    near = [p for p in pts if p.norm_z == 1.0 and p.sigma == 0.9995]
    assert near[0].dist_to_x == pytest.approx(math.sqrt(2 - 2 * 0.9995), rel=1e-9)
    assert near[0].min_dir_curv <= near[0].curv_x + 5  # sanity: fields populated


@pytest.mark.parametrize("field", ["w_samples", "directions"])
@pytest.mark.parametrize("count", [0, -1])
def test_landscape_scan_rejects_an_empty_scan(field, count):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        ls.landscape_scan(12, 60, seed=0, **{"w_samples": 1, "directions": 2, field: count})


@pytest.mark.parametrize("n", [1, 0])
def test_landscape_scan_rejects_a_signal_without_an_orthogonal_direction(n):
    # with n = 1 no unit w is orthogonal to x, and the gradients come out NaN
    with pytest.raises(ValueError, match="n must be >= 2"):
        ls.landscape_scan(n, 60, w_samples=1, directions=2, seed=0)
