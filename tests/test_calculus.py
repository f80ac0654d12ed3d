import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import saflow.calculus as calculus
from saflow.calculus import (
    _products,
    check_beta,
    dir_second_derivative,
    gradient,
    loss,
    loss_and_gradient,
    phi,
    psi,
    psi_u,
)
from saflow.measurement import COMPLEX, REAL, gen_sensing, gen_signal, observe, rng_for

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
betas = st.floats(min_value=0.01, max_value=0.75)


def test_check_beta_errors_and_warning():
    for bad in (0, -1, 1.5, float("nan"), 0.0, np.float64(1.5)):
        with pytest.raises(ValueError):
            check_beta(bad)
    with pytest.warns(UserWarning, match="beta > 0.75"):
        assert check_beta(0.8) == 0.8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ok in (0.5, 0.75, 1e-3, np.float64(0.5)):
            assert check_beta(ok) is ok
    betas_ok = np.array([0.25, 0.5])
    assert check_beta(betas_ok) is betas_ok
    with pytest.raises(ValueError):
        check_beta(np.array([0.5, 0.0]))
    with pytest.warns(UserWarning, match="beta > 0.75"):
        check_beta(np.array([0.5, 0.9]))


def test_psi_values():
    assert psi(3.0, 3.0, 0.5) == 0.0  # gamma(1) = 1
    assert psi(2.0, 0.0, 0.5) == 2.0
    assert psi(0.0, 1.0, 0.5) == 0.28125


@given(finite, betas)
def test_psi_even_in_both_arguments(u, beta):
    assert psi(u, 1.7, beta) == psi(-u, 1.7, beta)
    assert psi(u, 1.7, beta) == psi(u, -1.7, beta)


def test_psi_u_values():
    assert psi_u(1.0, 0.5, 0.5) == 0.5
    assert psi_u(0.0, 2.0, 0.5) == 0.0
    assert psi_u(0.1, 1.0, 0.5) == pytest.approx(-0.148, abs=1e-15)
    assert psi_u(3.0, 0.0, 0.5) == 3.0  # v = 0 convention


@given(st.floats(min_value=-3, max_value=3), betas)
def test_psi_u_matches_psi_derivative(u, beta):
    v, h = 1.3, 1e-6
    fd = (psi(u + h, v, beta) - psi(u - h, v, beta)) / (2 * h)
    # skip the kink itself; the derivative is only one-sided there
    if abs(abs(u) - beta * v) > 1e-4:
        assert fd == pytest.approx(float(psi_u(u, v, beta)), abs=1e-6)


def test_phi_values():
    assert phi(0.8, 0.5) == 1.0
    assert phi(-0.5, 0.5) == 1.0  # indicator is strict
    assert phi(0.0, 0.5) == -1.5
    jump = phi(0.5 * (1 - 1e-12), 0.5) - phi(0.5 * (1 + 1e-12), 0.5)
    assert jump == pytest.approx(1 - 1 / 0.5, abs=1e-9)
    assert phi(np.inf, 0.5) == 1.0  # y = 0 convention uses an infinite ratio


@pytest.fixture
def real_instance():
    x = gen_signal(8, REAL, seed=11)
    A = gen_sensing(40, 8, REAL, seed=11)
    return x, A, observe(A, x)


def test_loss_zero_at_truth_and_even(real_instance):
    x, A, y = real_instance
    assert loss(x, A, y, 0.5) == 0.0
    assert loss(-x, A, y, 0.5) == 0.0
    z = gen_signal(8, REAL, seed=12)
    assert loss(z, A, y, 0.5) == loss(-z, A, y, 0.5)


def test_loss_at_origin(real_instance):
    x, A, y = real_instance
    expected = 0.28125 * np.mean(y**2)
    assert loss(np.zeros(8), A, y, 0.5) == pytest.approx(expected, rel=1e-14)


def test_loss_dim_mismatch(real_instance):
    x, A, y = real_instance
    with pytest.raises(ValueError):
        loss(np.ones(9), A, y)
    with pytest.raises(ValueError):
        loss(x, A, y[:-1])


def test_zero_observation_convention():
    # row orthogonal to x gives y = 0; that term contributes w^2/2 to the loss
    A = np.array([[0.0, 1.0]])
    x = np.array([1.0, 0.0])
    y = observe(A, x)
    assert y[0] == 0.0
    z = np.array([0.3, 0.7])
    assert loss(z, A, y, 0.5) == pytest.approx(0.7**2 / 2)
    assert gradient(z, A, y, 0.5) == pytest.approx([0.0, 0.7])


def test_gradient_zero_at_truth(real_instance):
    x, A, y = real_instance
    assert np.linalg.norm(gradient(x, A, y, 0.5)) == 0.0


def test_gradient_scalar_case():
    A = np.array([[1.0]])
    y = observe(A, np.array([1.0]))
    g = gradient(np.array([2.0]), A, y, 0.5)
    assert g == pytest.approx([1.0])


def test_gradient_matches_finite_differences():
    rng = rng_for(13)
    x = rng.standard_normal(8)
    A = rng.standard_normal((40, 8))
    y = observe(A, x)
    h = 1e-6
    checked = 0
    while checked < 20:
        z = rng.standard_normal(8)
        w = A @ z
        if np.min(np.abs(np.abs(w) - 0.5 * y)) < 1e-3:
            continue
        g = gradient(z, A, y, 0.5)
        fd = np.empty(8)
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            fd[j] = (loss(z + e, A, y, 0.5) - loss(z - e, A, y, 0.5)) / (2 * h)
        assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-5
        checked += 1


def test_complex_gradient_reduces_to_real():
    x = gen_signal(6, REAL, seed=14)
    A = gen_sensing(30, 6, REAL, seed=14)
    y = observe(A, x)
    z = gen_signal(6, REAL, seed=15)
    g_real = gradient(z, A, y, 0.5)
    g_complex = gradient(z.astype(complex), A.astype(complex), y, 0.5)
    assert np.allclose(g_complex.imag, 0.0, atol=1e-15)
    assert np.allclose(g_complex.real, g_real, atol=1e-14)


def test_complex_gradient_matches_coordinate_derivatives():
    # with the doubled-Wirtinger convention, g_j = dF/d(Re z_j) + i dF/d(Im z_j)
    x = gen_signal(5, COMPLEX, seed=16)
    A = gen_sensing(25, 5, COMPLEX, seed=16)
    y = observe(A, x)
    z = gen_signal(5, COMPLEX, seed=17)
    g = gradient(z, A, y, 0.5)
    h = 1e-6
    for j in range(5):
        e = np.zeros(5, dtype=complex)
        e[j] = h
        d_re = (loss(z + e, A, y) - loss(z - e, A, y)) / (2 * h)
        d_im = (loss(z + 1j * e, A, y) - loss(z - 1j * e, A, y)) / (2 * h)
        assert d_re + 1j * d_im == pytest.approx(g[j], abs=1e-6)


def test_loss_and_gradient_consistent(real_instance):
    x, A, y = real_instance
    z = gen_signal(8, REAL, seed=18)
    f, g = loss_and_gradient(z, A, y, 0.5)
    assert f == loss(z, A, y, 0.5)
    assert np.array_equal(g, gradient(z, A, y, 0.5))


def test_dir_second_derivative_at_truth(real_instance):
    x, A, y = real_instance
    v = gen_signal(8, REAL, seed=19)
    # at the truth every ratio is 1 > beta, so the weight is identically 1
    assert dir_second_derivative(x, v, A, y, 0.5) == pytest.approx(
        float(np.mean((A @ v) ** 2)), rel=1e-14)


def test_dir_second_derivative_homogeneity(real_instance):
    x, A, y = real_instance
    z = gen_signal(8, REAL, seed=20)
    v = gen_signal(8, REAL, seed=21)
    d1 = dir_second_derivative(z, v, A, y, 0.5)
    d2 = dir_second_derivative(z, 3.0 * v, A, y, 0.5)
    assert d2 == pytest.approx(9.0 * d1, rel=1e-12)


def test_dir_second_derivative_matches_second_differences():
    rng = rng_for(22)
    x = rng.standard_normal(8)
    A = rng.standard_normal((40, 8))
    y = observe(A, x)
    t = 1e-4
    checked = 0
    while checked < 20:
        z = rng.standard_normal(8)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        if np.min(np.abs(np.abs(A @ z) - 0.5 * y)) < 1e-2:
            continue
        d2 = dir_second_derivative(z, v, A, y, 0.5)
        sd = (loss(z + t * v, A, y) - 2 * loss(z, A, y) + loss(z - t * v, A, y)) / t**2
        assert d2 == pytest.approx(sd, abs=1e-4)
        checked += 1


def test_dir_second_derivative_on_branch_boundary():
    # |<a,z>| = beta*y exactly: the correction is 0 along the branch staying
    # outer and (1 - 1/beta) * <a,v>^2 along the branch entering the cap
    A = np.array([[1.0]])
    y = observe(A, np.array([2.0]))  # y = 2, so the boundary is at wz = 1
    z = np.array([1.0])
    assert dir_second_derivative(z, np.array([1.0]), A, y, 0.5) == 1.0
    assert dir_second_derivative(z, np.array([-1.0]), A, y, 0.5) == 0.0


def test_dir_second_derivative_zero_observation_no_correction():
    # y = 0 with <a,z> = 0 must not trigger the boundary correction: that
    # term is u^2/2, whose curvature along any v is exactly <a,v>^2
    A = np.array([[0.0, 1.0]])
    y = observe(A, np.array([1.0, 0.0]))
    z = np.array([0.7, 0.0])
    assert dir_second_derivative(z, np.array([0.0, 1.0]), A, y, 0.5) == 1.0


def test_dir_second_derivative_rejects_complex_and_zero_direction(real_instance):
    x, A, y = real_instance
    with pytest.raises(NotImplementedError):
        dir_second_derivative(x.astype(complex), x.astype(complex), A.astype(complex), y)
    with pytest.raises(ValueError):
        dir_second_derivative(x, np.zeros(8), A, y)


wide = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False,
                 allow_subnormal=True)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(max_examples=300)
@given(wide, wide, betas)
def test_psi_u_bounds_property(u, v, beta):
    val = float(psi_u(u, v, beta))
    assert not np.isnan(val)
    slack = 1e-12 * (abs(u) + abs(v)) + 1e-12
    assert abs(val) <= abs(u) + abs(v) + slack


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(max_examples=300)
@given(wide, wide, betas)
def test_psi_finite_and_nonnegative(u, v, beta):
    # values saturate to +inf at the extremes of float range, never NaN
    val = float(psi(u, v, beta))
    assert not np.isnan(val)
    assert val >= 0.0


def test_psi_u_bounds_bulk():
    rng = rng_for(23)
    u = 5 * rng.standard_normal(100_000)
    v = 5 * rng.standard_normal(100_000)
    b = rng.uniform(0.01, 0.75, 100_000)
    val = psi_u(u, v, b)
    assert np.all(np.abs(val) <= np.abs(u) + np.abs(v) + 1e-12)
    assert np.all(val * u >= u * u - np.abs(u * v) - 1e-9)
    # sharp Lipschitz constant in u is max(1, 1/beta - 1/2)
    u2 = 5 * rng.standard_normal(100_000)
    val2 = psi_u(u2, v, b)
    lip = np.maximum(1.0, 1.0 / b - 0.5)
    assert np.all(np.abs(val - val2) <= lip * np.abs(u - u2) + 1e-9)


def test_complex_loss_and_gradient_copies_no_sensing_matrix():
    # the pairing conjugates the n-vector, never the m x n matrix
    x = gen_signal(128, COMPLEX, seed=2)
    A = gen_sensing(1024, 128, COMPLEX, seed=2)
    y = observe(A, x)
    z = gen_signal(128, COMPLEX, seed=3)
    tracemalloc.start()
    try:
        loss_and_gradient(z, A, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < A.nbytes / 2


# psi and psi_u as each was written on its own before they shared one branch
# selection, kept verbatim: the shared kernel must give their bits exactly.
def _reference_psi(u, v, beta):
    check_beta(beta)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    au = np.abs(u)
    av = np.abs(v)
    outer = 0.5 * (au - av) ** 2
    vsq = v * v
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = u / np.where(av > 0, v, 1.0)  # bounded by beta where selected
        dev = t * t / (2.0 * beta) + beta / 2.0 - 1.0
        inner = 0.5 * dev * dev * vsq
    use_inner = (au <= beta * av) & (av > 0)
    return np.where(use_inner, inner, np.where(av > 0, outer, 0.5 * u * u))


def _reference_psi_u(u, v, beta):
    check_beta(beta)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    au = np.abs(u)
    av = np.abs(v)
    outer = np.sign(u) * (au - av)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = u / np.where(av > 0, v, 1.0)
        inner = t * t * u / (2.0 * beta * beta) + (0.5 - 1.0 / beta) * u
    use_inner = (au <= beta * av) & (av > 0)
    return np.where(use_inner, inner, np.where(av > 0, outer, u))


def _reference_loss_and_gradient(z, A, y, beta):
    y, w, u = _products(z, A, y)
    c = _reference_psi_u(u, y, beta)
    if np.iscomplexobj(w):
        c = c * np.where(u > 0, w / np.where(u > 0, u, 1.0), 0.0)
    return float(np.mean(_reference_psi(u, y, beta))), (A.T @ c) / y.shape[0]


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()  # signed zeros and NaN payloads included


# signed zeros, the smallest subnormal, the branch boundary |u| = beta |v|
# (u = 1, v = 2 at beta = 1/2) and +-1e300, where the outer branch overflows
EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.25, -0.5, 1.0, -1.0, 2.0,
                  -2.0, 4.0, 3.7, 1e150, 1e300, -1e300])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("beta", [0.5, 0.25, 0.75, 1e-3])
def test_psi_and_psi_u_keep_their_bits_on_every_branch(beta):
    u, v = np.meshgrid(EDGES, EDGES)
    cases = [(u, v), (0.0, -0.0), (-0.0, 0.0), (1.0, 2.0), (-1.0, -2.0),
             (0.3, EDGES), (EDGES, 1.5), (EDGES[:, None], EDGES[None, ::-1])]
    for a, b in cases:
        assert_same_bits(psi(a, b, beta), _reference_psi(a, b, beta))
        assert_same_bits(psi_u(a, b, beta), _reference_psi_u(a, b, beta))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_psi_and_psi_u_keep_their_bits_with_an_array_beta():
    # the form suite_calculus passes: u, v and beta drawn together
    rng = rng_for(31)
    u = np.concatenate([5.0 * rng.standard_normal(2000), EDGES, 0.5 * EDGES])
    v = np.concatenate([5.0 * rng.standard_normal(2000), EDGES[::-1], EDGES])
    b = np.concatenate([rng.uniform(1e-3, 0.75, 2000), np.full(2 * EDGES.size, 0.5)])
    assert_same_bits(psi(u, v, b), _reference_psi(u, v, b))
    assert_same_bits(psi_u(u, v, b), _reference_psi_u(u, v, b))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_loss_and_gradient_keeps_the_bits_of_the_separate_kernels(field):
    x = gen_signal(16, field, seed=32)
    A = gen_sensing(80, 16, field, seed=32)
    y = observe(A, x)
    y[::7] = 0.0  # magnitudes with zeros take psi's v = 0 branch
    starts = [x, -x, 0.5 * x, np.zeros_like(x)] + [gen_signal(16, field, seed=s)
                                                   for s in (33, 34, 35)]
    for z in starts:
        f, g = loss_and_gradient(z, A, y, 0.5)
        f_ref, g_ref = _reference_loss_and_gradient(z, A, y, 0.5)
        assert_same_bits(f, f_ref)
        assert_same_bits(g, g_ref)
        assert_same_bits(gradient(z, A, y, 0.5), g_ref)


def test_loss_and_gradient_checks_beta_once(monkeypatch, real_instance):
    # one branch selection per SAF iterate: beta is validated once, not per kernel
    x, A, y = real_instance
    calls = []
    check = calculus.check_beta
    monkeypatch.setattr(calculus, "check_beta", lambda beta: calls.append(beta) or check(beta))
    loss_and_gradient(gen_signal(8, REAL, seed=36), A, y, 0.5)
    assert calls == [0.5]


def test_psi_and_psi_u_peak_stays_below_psi_alone():
    # psi alone held about 9.3 m-vectors at its peak; a kernel that keeps
    # every temporary to the end holds 13, and at m = 8000 page-faults on
    # every SAF iterate
    rng = rng_for(37)
    u, v = rng.standard_normal(8000), np.abs(rng.standard_normal(8000))
    tracemalloc.start()
    try:
        calculus._psi_and_psi_u(u, v, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.3 * u.nbytes
