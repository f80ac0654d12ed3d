"""landscape.quad and the adaptive Gauss-Kronrod quadrature behind it
(saflow.quadpack): its contract, and its agreement with scipy.integrate.quad
(whose QAGS/QAGI add epsilon-algorithm extrapolation) and with closed forms."""

import math
import sys
import warnings

import pytest

import saflow.landscape as ls
import saflow.quadpack as qp
import saflow.verify as vf

RELATIVE_GAP = 1e-15  # largest |quad - scipy| / |scipy| on saflow's own integrands


@pytest.fixture
def scipy_quad():
    """scipy.integrate.quad at saflow's tolerances: (value, error, warning or None)."""
    integrate = pytest.importorskip("scipy.integrate")

    def oracle(func, a, b):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            val, err = integrate.quad(func, a, b, epsabs=qp.EPSABS,
                                      epsrel=qp.EPSREL, limit=qp.LIMIT)
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, integrate.IntegrationWarning)]
        return val, err, messages[0] if messages else None
    return oracle


QUAD = ls.quad  # the quadrature itself, while a test patches ls.quad to check each call


def _quad_and_warning(func, a, b):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val, err = QUAD(func, a, b)
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(messages) <= 1
    return val, err, messages[0] if messages else None


def _check_each_call(monkeypatch, scipy_quad) -> list:
    """Make ls.quad also run scipy's quad on each call; returns the (mine, scipy) list.

    Each call is checked where it is made, since some integrands close over
    loop variables of their caller.
    """
    pairs = []

    def checked(func, a, b):
        mine = _quad_and_warning(func, a, b)
        pairs.append((mine, scipy_quad(func, a, b)))
        return mine[:2]

    monkeypatch.setattr(ls, "quad", checked)
    return pairs


def _assert_agrees(pairs):
    for (val, _, warning), (sval, _, swarning) in pairs:
        assert abs(val - sval) <= RELATIVE_GAP * abs(sval)
        assert warning is None and swarning is None


def test_quad_equals_scipy_on_every_quadrature_of_verify(monkeypatch, scipy_quad):
    # equal to within RELATIVE_GAP: the values differ by at most an ulp or two
    pairs = _check_each_call(monkeypatch, scipy_quad)
    for suite in ("calculus", "expectations", "landscape", "appendix"):
        vf.run_suite(suite, quick=True, seed=0)
    assert len(pairs) == 160  # rational_integral_report integrates each t once
    _assert_agrees(pairs)


@pytest.mark.parametrize("sigma", [0.0, 0.25, 0.5, 0.75, 0.95])
def test_quad_equals_scipy_on_the_landscape_integrands(monkeypatch, scipy_quad, sigma):
    # every family landscape integrates, over and beyond the parameters verify uses
    pairs = _check_each_call(monkeypatch, scipy_quad)
    for lam in (0.05, 0.25, 0.5, 1.0, 4.0):
        for g, _ in vf.NAMED_G.values():
            ls.indicator_expectation_rate(g, sigma, lam)
    ls.alignment_prefactor(sigma)
    for beta in (0.1, 0.5, 0.75):
        ls.expected_alignment_gradient(sigma, beta)
    ls.rational_integral(2.0 * sigma - 1.0)
    assert len(pairs) >= 27
    _assert_agrees(pairs)


def test_quad_agrees_with_every_closed_form_of_verify():
    gaps = []
    for sigma in (0.0, 0.25, 0.5, 0.75, 0.95):
        for lam in (0.05, 0.25, 0.5, 1.0, 4.0):
            for g, meta in vf.NAMED_G.values():
                closed = ls.power_rate_closed_form(meta["p"], meta["q"], sigma, lam,
                                                   signed=meta["signed"])
                gaps.append((ls.indicator_expectation_rate(g, sigma, lam), closed))
    for t in (-0.9, 0.0, 0.25, 1.0 / 3.0, 0.5, 0.9):
        gaps.append((ls.rational_integral(t), ls.rational_integral_closed_form(t)))
    # the surd forms and the sigma -> 0 limit that rational_integral_report
    # and the appendix suite check
    gaps.append((ls.rational_integral(0.25), (8.0 / 9.0) * (9.0 - 5.0 * math.sqrt(3.0)) * math.pi))
    gaps.append((ls.rational_integral(1.0 / 3.0),
                 (9.0 / 16.0) * (8.0 - 3.0 * math.sqrt(6.0)) * math.pi))
    gaps.append((ls.alignment_prefactor(0.0), ls.ALIGNMENT_PREFACTOR_LIMIT))
    for val, closed in gaps:
        assert abs(val - closed) <= 1e-11 * abs(closed)


# integrands on which scipy's QAGS/QAGI extrapolate, and their exact integrals
EXTRAPOLATED = {
    "x^-1/2 log x on [0, 1]": (lambda x: math.log(x) / math.sqrt(x) if x > 0 else 0.0,
                               0.0, 1.0, -4.0),
    "log x on [0, 1]": (lambda x: math.log(x) if x > 0 else 0.0, 0.0, 1.0, -1.0),
    "e^-x / sqrt x on [0, inf)": (lambda x: math.exp(-x) / math.sqrt(x) if x > 0 else 0.0,
                                  0.0, math.inf, math.sqrt(math.pi)),
    "log x e^-x on [0, inf)": (lambda x: math.log(x) * math.exp(-x) if x > 0 else 0.0,
                               0.0, math.inf, -0.57721566490153286),  # -Euler's gamma
}


@pytest.mark.parametrize("name", EXTRAPOLATED)
def test_quad_converges_where_scipy_extrapolates(name):
    func, a, b, exact = EXTRAPOLATED[name]
    val, err, warning = _quad_and_warning(func, a, b)
    assert abs(val - exact) <= err
    if name == "e^-x / sqrt x on [0, inf)":  # bisection alone cannot reach 1e-10 here
        assert "ier=3" in warning
    else:
        assert warning is None and err <= 1e-9


# integrands on which quad stops short of the tolerance (as scipy's QAGS/QAGI
# do), with quad's ier
STOPPED = {
    "sin(1/x) on [0, 1]": (lambda x: math.sin(1.0 / x) if x > 0 else 0.0, 0.0, 1.0, 1),
    "1/(1+x) on [0, inf)": (lambda x: 1.0 / (1.0 + x), 0.0, math.inf, 1),
    "|x - 1.23|^-0.65 on [-0.56, 3.5]": (
        lambda x: abs(x - 1.23) ** -0.65 if x != 1.23 else 0.0, -0.56, 3.5, 3),
    "|x - pi/4|^-0.65 on [0, 1]": (
        lambda x: abs(x - math.pi / 4) ** -0.65 if x != math.pi / 4 else 0.0, 0.0, 1.0, 3),
    "x^-0.9 on (0, 0.5], 0 below": (lambda x: x ** -0.9 if x > 0 else 0.0, -0.24, 0.5, 1),
    "cos x on [0, inf)": (math.cos, 0.0, math.inf, 1),
    "(x - 1/2)^-2 on [0, 1]": (
        lambda x: (x - 0.5) ** -2 if x != 0.5 else 0.0, 0.0, 1.0, 3),
    "sin(x)/x on [0, inf)": (lambda x: math.sin(x) / x if x > 0 else 1.0, 0.0, math.inf, 1),
}


@pytest.mark.parametrize("name", STOPPED)
def test_quad_equals_scipy_where_limit_or_roundoff_stops_it(scipy_quad, name):
    # the same verdict as scipy: both warn; quad's warning names its reason
    func, a, b, ier = STOPPED[name]
    val, err, warning = _quad_and_warning(func, a, b)
    assert scipy_quad(func, a, b)[2] is not None
    assert f"QUADPACK ier={ier}" in warning
    assert qp._FAILURES[ier] in warning and f"error estimate {err:.3g}" in warning


def test_quad_warns_naming_the_reason_without_scipy():
    with pytest.warns(RuntimeWarning, match=r"maximum number of subintervals \(200\).*ier=1"):
        ls.quad(lambda x: math.sin(1.0 / x) if x > 0 else 0.0, 0.0, 1.0)
    with pytest.warns(RuntimeWarning, match=r"extremely badly.*ier=3"):
        ls.quad(lambda x: (x - 0.5) ** -2 if x != 0.5 else 0.0, 0.0, 1.0)


@pytest.mark.parametrize("func, a, b", [
    (lambda x: math.inf if x == 0.5 else 1.0, 0.0, 1.0),
    (lambda x: math.nan, 0.0, 1.0),
    (lambda x: math.nan if x > 3.0 else math.exp(-x), 0.0, math.inf),
], ids=["inf at the midpoint", "nan everywhere", "nan beyond 3 on [0, inf)"])
def test_quad_raises_on_a_non_finite_integrand(func, a, b):
    calls = []

    def counted(x):
        calls.append(x)
        return func(x)

    with pytest.raises(ValueError, match=rf"not finite on \[{a!r}, {b!r}\]"):
        ls.quad(counted, a, b)
    assert len(calls) <= 21  # the first rule already gives it away


def test_quad_converges_quietly_on_smooth_integrands():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, err = ls.quad(math.exp, 0.0, 1.0)
        assert abs(val - (math.e - 1.0)) <= err <= 1e-10
        val, err = ls.quad(lambda x: math.exp(-x * x), 0.0, math.inf)
        assert abs(val - math.sqrt(math.pi) / 2) <= 1e-12 and err <= 1e-10
        assert ls.quad(lambda x: 0.0, -1.0, 2.0) == (0.0, 0.0)
        assert ls.quad(lambda x: 3, 0, 2)[0] == 6.0  # int limits and values


@pytest.mark.parametrize("rule, kronrod_degree, gauss_degree", [
    (qp._GK21, 31, 19), (qp._GK15, 23, 13),
], ids=["21-point", "15-point"])
def test_each_rule_table_is_exact_to_its_degree(rule, kronrod_degree, gauss_degree):
    # x^k over [-1, 1]: the Kronrod result is exact to its degree, and the
    # error estimate sits on the roundoff floor exactly while the Gauss result
    # is exact too, which pins every weight's place, the zero ones included
    def on_monomial(k):
        result, abserr, resabs, _ = qp._qk(lambda x: x ** k, -1.0, 1.0, rule)
        return abs(result - 2.0 / (k + 1)), abserr / ((50.0 * sys.float_info.epsilon) * resabs)

    for k in range(0, kronrod_degree + 1, 2):
        gap, over_floor = on_monomial(k)
        assert gap <= 1e-15
        assert (over_floor == 1.0) == (k <= gauss_degree)
        if k == gauss_degree + 1:
            assert over_floor > 1e6
    assert on_monomial(kronrod_degree + 1)[0] > 1e-13


@pytest.mark.parametrize("a, b", [
    (math.nan, 1.0), (math.inf, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
    (0.0, math.nan), (0.0, -math.inf), (0.0, 0.0), (1.0, 0.0), (2.0, 1.0),
])
def test_quad_rejects_bad_intervals(a, b):
    def never(x):
        raise AssertionError("the integrand was evaluated")

    with pytest.raises(ValueError, match="quad needs"):
        ls.quad(never, a, b)
