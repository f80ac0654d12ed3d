import numpy as np
import pytest

from saflow.measurement import (
    COMPLEX,
    REAL,
    add_noise,
    checked_magnitudes,
    gen_sensing,
    gen_signal,
    observe,
    pair,
    trial_seed,
)

# (m, n) of every golden file and acceptance criterion that draws an instance
SHAPES = [(144, 24), (512, 64), (96, 32), (192, 32), (32, 16), (40, 16), (64, 16), (96, 16),
          (128, 16), (384, 64), (128, 128), (640, 128), (768, 128), (1024, 128), (1600, 200)]


def test_gen_signal_deterministic():
    a = gen_signal(3, REAL, seed=7)
    b = gen_signal(3, REAL, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gen_signal(3, REAL, seed=8))


def test_gen_signal_real_moments():
    x = gen_signal(100_000, REAL, seed=1)
    assert abs(x.mean()) < 0.02  # 3 sigma for 1e5 standard normals
    assert abs((x * x).mean() - 1.0) < 0.05


def test_gen_signal_complex_moments():
    x = gen_signal(100_000, COMPLEX, seed=2)
    assert x.dtype == np.complex128
    assert abs(np.mean(np.abs(x) ** 2) - 2.0) < 0.05


def test_gen_sensing_deterministic_and_moments():
    A = gen_sensing(2, 2, REAL, seed=3)
    assert np.array_equal(A, gen_sensing(2, 2, REAL, seed=3))
    e = np.zeros(50)
    e[0] = 1.0
    Ar = gen_sensing(100_000, 50, REAL, seed=4)
    assert abs(np.mean((Ar @ e) ** 2) - 1.0) < 0.02
    Ac = gen_sensing(100_000, 50, COMPLEX, seed=5)
    assert abs(np.mean(np.abs(Ac.conj() @ e) ** 2) - 1.0) < 0.02


@pytest.mark.parametrize("bad", [(0, 4), (4, 0)])
def test_gen_sensing_rejects_zero_dims(bad):
    with pytest.raises(ValueError):
        gen_sensing(bad[0], bad[1], REAL, seed=0)


def test_gen_signal_rejects_zero_dim():
    with pytest.raises(ValueError):
        gen_signal(0, REAL, seed=0)


def test_observe_identity_rows():
    A = np.eye(2)
    y = observe(A, np.array([1.0, -2.0]))
    assert np.array_equal(y, [1.0, 2.0])


def test_observe_zero_signal():
    A = gen_sensing(5, 3, REAL, seed=0)
    assert np.array_equal(observe(A, np.zeros(3)), np.zeros(5))


def test_observe_sign_and_scale_invariance():
    A = gen_sensing(20, 6, REAL, seed=1)
    x = gen_signal(6, REAL, seed=1)
    assert np.array_equal(observe(A, x), observe(A, -x))
    # power-of-two scales commute with rounding, so equality is exact there
    assert np.array_equal(observe(A, 2.0 * x), 2.0 * observe(A, x))
    assert np.allclose(observe(A, 3.0 * x), 3.0 * observe(A, x), rtol=1e-15)


def test_observe_complex_phase_invariance():
    A = gen_sensing(20, 6, COMPLEX, seed=2)
    x = gen_signal(6, COMPLEX, seed=2)
    c = np.exp(1j * 0.7)
    assert np.allclose(observe(A, c * x), observe(A, x), rtol=0, atol=1e-12)


def test_observe_dim_mismatch():
    with pytest.raises(ValueError):
        observe(np.eye(2), np.ones(3))


def test_add_noise_level_zero_is_identity():
    y = np.array([1.0, 2.0])
    assert add_noise(y, 0.0, seed=1) is y


def test_add_noise_zero_mean():
    noisy = add_noise(np.ones(100_000), 0.01, seed=3)
    assert abs(noisy.mean() - 1.0) < 0.001


def test_add_noise_clamps_at_zero():
    noisy = add_noise(np.full(1000, 0.005), 10.0, seed=4)
    assert noisy.min() == 0.0


def test_add_noise_rejects_negative_level():
    with pytest.raises(ValueError):
        add_noise(np.ones(2), -1.0)


@pytest.mark.parametrize("level", [float("nan"), float("inf")])
def test_add_noise_rejects_non_finite_level(level):
    with pytest.raises(ValueError, match="noise level must be finite and nonnegative"):
        add_noise(np.ones(2), level)


def test_trial_seed_stable_and_distinct():
    assert trial_seed(0, 1, 2) == trial_seed(0, 1, 2)
    assert trial_seed(0, 1, 2) != trial_seed(0, 2, 1)
    assert trial_seed(0, 1) != trial_seed(1, 1)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("m,n", SHAPES)
def test_pair_is_the_conjugated_matvec_bit_for_bit(field, m, n):
    A = gen_sensing(m, n, field, seed=m + n)
    z = gen_signal(n, field, seed=m)
    assert pair(A, z).tobytes() == (A.conj() @ z).tobytes()


def test_pair_pairs_complex_rows_with_real_and_complex_vectors():
    A = np.array([[1 + 2j, 3 - 1j], [0.5j, -2.0]])
    for z in (np.array([2.0, -1.0]), np.array([1j, 1 - 1j])):
        assert np.allclose(pair(A, z), [np.vdot(a, z) for a in A], rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_observations_reject_a_non_finite_magnitude(bad):
    with pytest.raises(ValueError, match=r"magnitudes must be finite, got y\[1\]"):
        checked_magnitudes([1.0, bad, 2.0])
    with pytest.raises(ValueError, match=r"y\[1\]"):
        checked_magnitudes(np.array([1.0, bad, 2.0]))


def test_observations_reject_a_negative_magnitude():
    with pytest.raises(ValueError, match=r"magnitudes must be nonnegative, got y\[2\] = -0.5"):
        checked_magnitudes([1.0, 0.0, -0.5, -2.0])
    # a non-finite entry is named first, wherever it sits
    with pytest.raises(ValueError, match=r"magnitudes must be finite, got y\[3\]"):
        checked_magnitudes(np.array([1.0, -0.5, 2.0, np.nan]))
    # -0.0 is a zero magnitude, not a negative one
    assert checked_magnitudes([0.0, -0.0, 1.0]).tolist() == [0.0, 0.0, 1.0]
