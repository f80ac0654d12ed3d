"""landscape.quad and the QUADPACK QAGS/QAGI port behind it (saflow.quadpack):
its contract, and equality with scipy.integrate.quad (value and error
estimate, compared with ==)."""

import math
import warnings

import pytest

import saflow.landscape as ls
import saflow.quadpack as qp
import saflow.verify as vf

# the start of scipy's IntegrationWarning message for each QUADPACK ier
SCIPY_REASONS = {1: "The maximum number of subdivisions", 2: "The occurrence of roundoff error",
                 3: "Extremely bad integrand behavior", 4: "The algorithm does not converge",
                 5: "The integral is probably divergent"}


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


QUAD = ls.quad  # the port itself, while a test patches ls.quad to check each call


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


def test_quad_equals_scipy_on_every_quadrature_of_verify(monkeypatch, scipy_quad):
    pairs = _check_each_call(monkeypatch, scipy_quad)
    for suite in ("calculus", "expectations", "landscape", "appendix"):
        vf.run_suite(suite, quick=True, seed=0)
    assert len(pairs) == 160  # rational_integral_report integrates each t once
    for mine, oracle in pairs:
        assert mine == oracle  # value, error estimate and no warning


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
    for mine, oracle in pairs:
        assert mine == oracle


EXTRAPOLATED = {
    "x^-1/2 log x on [0, 1]": (lambda x: math.log(x) / math.sqrt(x) if x > 0 else 0.0, 0.0, 1.0),
    "log x on [0, 1]": (lambda x: math.log(x) if x > 0 else 0.0, 0.0, 1.0),
    "e^-x / sqrt x on [0, inf)": (lambda x: math.exp(-x) / math.sqrt(x) if x > 0 else 0.0,
                                  0.0, math.inf),
    "log x e^-x on [0, inf)": (lambda x: math.log(x) * math.exp(-x) if x > 0 else 0.0,
                               0.0, math.inf),
}


@pytest.mark.parametrize("name", EXTRAPOLATED)
def test_quad_equals_scipy_where_extrapolation_fires(monkeypatch, scipy_quad, name):
    func, a, b = EXTRAPOLATED[name]
    calls = []
    real_qelg = qp._qelg

    def counted(*args):
        calls.append(args[0])
        return real_qelg(*args)

    monkeypatch.setattr(qp, "_qelg", counted)
    mine = _quad_and_warning(func, a, b)
    assert calls, "the epsilon algorithm never ran"
    assert mine == scipy_quad(func, a, b)
    assert mine[2] is None


# integrands on which QUADPACK stops short of the tolerance, with its ier
STOPPED = {
    "sin(1/x) on [0, 1]": (lambda x: math.sin(1.0 / x) if x > 0 else 0.0, 0.0, 1.0, 1),
    "1/(1+x) on [0, inf)": (lambda x: 1.0 / (1.0 + x), 0.0, math.inf, 1),
    "|x - 1.23|^-0.65 on [-0.56, 3.5]": (
        lambda x: abs(x - 1.23) ** -0.65 if x != 1.23 else 0.0, -0.56, 3.5, 2),
    "|x - pi/4|^-0.65 on [0, 1]": (
        lambda x: abs(x - math.pi / 4) ** -0.65 if x != math.pi / 4 else 0.0, 0.0, 1.0, 3),
    "x^-0.9 on (0, 0.5], 0 below": (lambda x: x ** -0.9 if x > 0 else 0.0, -0.24, 0.5, 4),
    "cos x on [0, inf)": (math.cos, 0.0, math.inf, 4),
    "(x - 1/2)^-2 on [0, 1]": (
        lambda x: (x - 0.5) ** -2 if x != 0.5 else 0.0, 0.0, 1.0, 5),
    "sin(x)/x on [0, inf)": (lambda x: math.sin(x) / x if x > 0 else 1.0, 0.0, math.inf, 5),
}


@pytest.mark.parametrize("name", STOPPED)
def test_quad_equals_scipy_where_limit_or_roundoff_stops_it(scipy_quad, name):
    func, a, b, ier = STOPPED[name]
    val, err, warning = _quad_and_warning(func, a, b)
    sval, serr, swarning = scipy_quad(func, a, b)
    assert (val, err) == (sval, serr)
    assert swarning.startswith(SCIPY_REASONS[ier])
    assert f"QUADPACK ier={ier}" in warning
    assert qp._FAILURES[ier] in warning and f"error estimate {err:.3g}" in warning


def test_quad_warns_naming_the_reason_without_scipy():
    with pytest.warns(RuntimeWarning, match=r"maximum number of subintervals \(200\).*ier=1"):
        ls.quad(lambda x: math.sin(1.0 / x) if x > 0 else 0.0, 0.0, 1.0)
    with pytest.warns(RuntimeWarning, match=r"divergent.*ier=5"):
        ls.quad(lambda x: (x - 0.5) ** -2 if x != 0.5 else 0.0, 0.0, 1.0)


def test_quad_converges_quietly_on_smooth_integrands():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, err = ls.quad(math.exp, 0.0, 1.0)
        assert abs(val - (math.e - 1.0)) <= err <= 1e-10
        val, err = ls.quad(lambda x: math.exp(-x * x), 0.0, math.inf)
        assert abs(val - math.sqrt(math.pi) / 2) <= 1e-12 and err <= 1e-10
        assert ls.quad(lambda x: 0.0, -1.0, 2.0) == (0.0, 0.0)
        assert ls.quad(lambda x: 3, 0, 2)[0] == 6.0  # int limits and values


@pytest.mark.parametrize("a, b", [
    (math.nan, 1.0), (math.inf, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
    (0.0, math.nan), (0.0, -math.inf), (0.0, 0.0), (1.0, 0.0), (2.0, 1.0),
])
def test_quad_rejects_bad_intervals(a, b):
    def never(x):
        raise AssertionError("the integrand was evaluated")

    with pytest.raises(ValueError, match="quad needs"):
        ls.quad(never, a, b)
