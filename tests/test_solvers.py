import numpy as np
import pytest

from saflow.calculus import dir_second_derivative, gradient, loss, loss_and_gradient
from saflow.distances import dist
from saflow.measurement import COMPLEX, REAL, gen_sensing, gen_signal, observe
from saflow.solvers import (
    ALGORITHMS,
    GdConfig,
    SolveTrace,
    baseline_solve,
    gd_saf,
    make_init,
    parse_algorithm,
    random_init,
    solve,
    spectral_init,
)


@pytest.fixture
def instance():
    x = gen_signal(32, REAL, seed=5)
    A = gen_sensing(160, 32, REAL, seed=5)
    return x, A, observe(A, x)


def test_gd_terminates_at_truth(instance):
    x, A, y = instance
    config = GdConfig(mu=0.6, grad_tol=1e-12, max_iter=100)
    trace = gd_saf(A, y, config, x.copy(), truth=x)
    assert trace.reason == "grad_tol"
    assert trace.iterations == 0
    assert trace.records[0].grad_norm <= 1e-12


def test_gd_converges_and_traces(instance):
    x, A, y = instance
    config = GdConfig(mu=0.6, err_tol=1e-5, max_iter=2000)
    trace = gd_saf(A, y, config, random_init(32, REAL, seed=2), truth=x)
    assert trace.reason == "err_tol"
    assert trace.records[-1].rel_err <= 1e-5
    iters = [r.iter for r in trace.records]
    assert iters == sorted(iters) and len(set(iters)) == len(iters)
    assert len(trace.records) <= config.max_iter + 1


def test_gd_deterministic(instance):
    x, A, y = instance
    config = GdConfig(mu=0.6, err_tol=1e-5, max_iter=2000)
    t1 = gd_saf(A, y, config, random_init(32, REAL, seed=3), truth=x)
    t2 = gd_saf(A, y, config, random_init(32, REAL, seed=3), truth=x)
    assert np.array_equal(t1.final, t2.final)
    assert [r.grad_norm for r in t1.records] == [r.grad_norm for r in t2.records]


def test_gd_sign_consistency(instance):
    # the loss is even, so mirrored starts give identical error sequences
    x, A, y = instance
    config = GdConfig(mu=0.6, err_tol=1e-5, max_iter=2000)
    z0 = random_init(32, REAL, seed=4)
    t_plus = gd_saf(A, y, config, z0, truth=x)
    t_minus = gd_saf(A, y, config, -z0, truth=x)
    assert [r.rel_err for r in t_plus.records] == [r.rel_err for r in t_minus.records]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_divergence_returns_its_trace(instance, algorithm):
    x, A, y = instance
    if algorithm == "saf":
        trace = gd_saf(A, y, GdConfig(mu=50.0, max_iter=500), random_init(32, REAL, seed=5),
                       truth=x)
    else:  # the baselines fix their own steps: start where the loss overflows
        z0 = 1e200 * random_init(32, REAL, seed=5)
        trace = baseline_solve(algorithm, A, y, GdConfig(), z0, truth=x)
        assert trace.iterations == 0 and not np.isfinite(trace.records[0].loss)
    assert isinstance(trace, SolveTrace)
    assert trace.reason == "diverged"
    assert len(trace.records) >= 1


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_non_finite_start_diverges_with_no_record(instance, algorithm):
    x, A, y = instance
    z0 = random_init(32, REAL, seed=6)
    z0[3] = np.nan
    trace = solve(algorithm, A, y, GdConfig(), z0, truth=x)
    assert trace.reason == "diverged"
    assert trace.records == []
    assert trace.final is z0


def test_random_init_matches_signal_distribution():
    a = random_init(4, REAL, seed=6)
    assert np.array_equal(a, random_init(4, REAL, seed=6))
    z = random_init(200_000, REAL, seed=7)
    assert abs(z.mean()) < 0.01
    assert abs((z * z).mean() - 1) < 0.02
    zc = random_init(100_000, COMPLEX, seed=8)
    assert abs(np.mean(np.abs(zc) ** 2) - 2) < 0.05


def test_spectral_init_norm_and_alignment():
    aligns = []
    for seed in range(20):
        x = gen_signal(64, REAL, seed=seed)
        A = gen_sensing(640, 64, REAL, seed=seed)
        y = observe(A, x)
        z0 = spectral_init(A, y, power_iters=50, seed=seed)
        assert np.linalg.norm(z0) == pytest.approx(np.sqrt(np.mean(y**2)), rel=1e-12)
        aligns.append(abs(z0 @ x) / (np.linalg.norm(z0) * np.linalg.norm(x)))
    assert np.mean(aligns) >= 0.8


def test_spectral_init_against_dense_eigensolver():
    x = gen_signal(24, REAL, seed=9)
    A = gen_sensing(240, 24, REAL, seed=9)
    y = observe(A, x)
    Y = (A.T * y**2) @ A / 240
    evals, evecs = np.linalg.eigh(Y)
    top = evecs[:, -1]
    z50 = spectral_init(A, y, power_iters=50, seed=0)
    z1 = spectral_init(A, y, power_iters=1, seed=0)
    cos50 = abs(z50 @ top) / np.linalg.norm(z50)
    cos1 = abs(z1 @ top) / np.linalg.norm(z1)
    assert cos50 > cos1
    assert cos50 >= 1 - 1e-8


def test_spectral_init_rejects_zero_observations():
    A = gen_sensing(10, 4, REAL, seed=0)
    with pytest.raises(ValueError):
        spectral_init(A, np.zeros(10))


@pytest.mark.parametrize("build", [
    lambda A, y: make_init(A, y, "gaussian", 0),
    lambda A, y: spectral_init(A, y, power_iters=0),
], ids=["unknown-kind", "zero-power-iters"])
def test_start_checks_raise(instance, build):
    x, A, y = instance
    with pytest.raises(ValueError):
        build(A, y)


@pytest.mark.parametrize("label", ["saf-", "wf-", "taf-", "-", "saf--random"])
def test_parse_algorithm_rejects_a_bare_dash(label):
    # a dash promises an init kind; a label that stops at it is a typo
    with pytest.raises(ValueError, match=f"unknown algorithm {label!r}"):
        parse_algorithm(label)


def test_spectral_init_complex():
    x = gen_signal(32, COMPLEX, seed=10)
    A = gen_sensing(320, 32, COMPLEX, seed=10)
    y = observe(A, x)
    z0 = spectral_init(A, y, power_iters=50, seed=0)
    assert np.linalg.norm(z0) == pytest.approx(np.sqrt(np.mean(y**2)), rel=1e-12)
    align = abs(np.vdot(x, z0)) / (np.linalg.norm(z0) * np.linalg.norm(x))
    assert align >= 0.7


def test_wf_stays_at_truth(instance):
    x, A, y = instance
    config = GdConfig(mu=0.8, grad_tol=1e-12, max_iter=50)
    trace = baseline_solve("wf", A, y, config, x.copy(), truth=x)
    assert trace.iterations == 0
    assert trace.records[0].grad_norm <= 1e-12


@pytest.mark.parametrize("kind", ["wf", "twf", "taf"])
def test_baselines_converge_with_spectral_init(kind):
    x = gen_signal(64, REAL, seed=12)
    A = gen_sensing(512, 64, REAL, seed=12)
    y = observe(A, x)
    config = GdConfig(mu=0.8, err_tol=1e-5, max_iter=3000)
    trace = baseline_solve(kind, A, y, config, spectral_init(A, y, seed=12), truth=x)
    assert trace.reason == "err_tol"


def test_taf_success_rate_at_8n():
    hits = 0
    for seed in range(20):
        x = gen_signal(64, REAL, seed=200 + seed)
        A = gen_sensing(512, 64, REAL, seed=200 + seed)
        y = observe(A, x)
        config = GdConfig(mu=0.8, err_tol=1e-5, max_iter=2000)
        trace = baseline_solve("taf", A, y, config, spectral_init(A, y, seed=200 + seed),
                               truth=x)
        hits += trace.reason == "err_tol"
    assert hits >= 18  # >= 90% of 20 trials


def test_saf_random_iteration_band_large():
    # full-size anchor: median iterations to 1e-5 at n=1000, m=8n, mu=0.8
    iters = []
    for seed in range(5):
        x = gen_signal(1000, REAL, seed=300 + seed)
        A = gen_sensing(8000, 1000, REAL, seed=300 + seed)
        y = observe(A, x)
        config = GdConfig(mu=0.8, err_tol=1e-5, max_iter=2000)
        trace = gd_saf(A, y, config, random_init(1000, REAL, seed=300 + seed), truth=x)
        iters.append(trace.iters_to(1e-5))
    assert 25 <= float(np.median(iters)) <= 90


def test_baseline_unknown_kind(instance):
    x, A, y = instance
    with pytest.raises(ValueError):
        baseline_solve("gauss-newton", A, y, GdConfig(), x.copy())


def test_trace_csv_roundtrip(tmp_path, instance):
    x, A, y = instance
    config = GdConfig(mu=0.6, err_tol=1e-5, max_iter=2000)
    trace = gd_saf(A, y, config, random_init(32, REAL, seed=13), truth=x)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,grad_norm,rel_err"
    assert len(lines) == len(trace.records) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == trace.records[0].grad_norm


def test_iters_to_nested_thresholds():
    x = gen_signal(32, REAL, seed=40)
    A = gen_sensing(256, 32, REAL, seed=40)  # 8n: comfortably convergent
    y = observe(A, x)
    config = GdConfig(mu=0.6, err_tol=1e-10, max_iter=3000)
    trace = gd_saf(A, y, config, random_init(32, REAL, seed=14), truth=x)
    assert trace.iters_to(1e-10) >= trace.iters_to(1e-5)
    assert np.isfinite(trace.iters_to(1e-10))


def test_monotone_descent_fraction():
    # fixed-step descent may rarely overshoot; track the aggregate rate
    good = total = 0
    for seed in range(20):
        x = gen_signal(64, REAL, seed=100 + seed)
        A = gen_sensing(320, 64, REAL, seed=100 + seed)
        y = observe(A, x)
        config = GdConfig(mu=0.6, err_tol=1e-5, max_iter=2000)
        trace = gd_saf(A, y, config, random_init(64, REAL, seed=100 + seed), truth=x)
        losses = [r.loss for r in trace.records]
        steps = np.diff(losses)
        good += int(np.sum(steps <= 1e-12))
        total += len(steps)
    assert good / total >= 0.99


def test_complex_solve_converges():
    x = gen_signal(48, COMPLEX, seed=15)
    A = gen_sensing(48 * 8, 48, COMPLEX, seed=15)
    y = observe(A, x)
    config = GdConfig(mu=0.6, err_tol=1e-5, max_iter=2000)
    trace = gd_saf(A, y, config, random_init(48, COMPLEX, seed=15), truth=x)
    assert trace.reason == "err_tol"
    assert dist(trace.final, x) / np.linalg.norm(x) <= 1e-5


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_solvers_reject_non_finite_bare_magnitudes(instance, bad):
    x, A, y = instance
    y = y.copy()
    y[3] = bad
    config = GdConfig(max_iter=5)
    for run in (lambda: gd_saf(A, y, config, x.copy()),
                lambda: baseline_solve("taf", A, y, config, x.copy()),
                lambda: solve("wf", A, y, config, x.copy()),
                lambda: spectral_init(A, y)):
        with pytest.raises(ValueError, match=r"magnitudes must be finite, got y\[3\]"):
            run()


def test_a_list_of_magnitudes_gives_the_bits_of_an_array(instance):
    x, A, y = instance
    z = gen_signal(32, REAL, seed=6)
    v = gen_signal(32, REAL, seed=7)
    config = GdConfig(max_iter=20)

    def bits(y):
        out = [loss(z, A, y), gradient(z, A, y), *loss_and_gradient(z, A, y),
               dir_second_derivative(z, v, A, y), spectral_init(A, y, seed=8)]
        for name in ALGORITHMS:
            trace = solve(name, A, y, config, make_init(A, y, ALGORITHMS[name].init, 9),
                          truth=x)
            out += [trace.final, [(r.loss, r.grad_norm, r.rel_err) for r in trace.records]]
        return [np.asarray(o).tobytes() for o in out]

    assert bits(y.tolist()) == bits(y)


def test_solvers_reject_a_negative_magnitude(instance):
    # TAF's truncation and loss read y's sign, so a negative y would stop it
    # at max_iter far from x; every entry point that takes y rejects it
    x, A, y = instance
    y = y.copy()
    y[3] = -y[3]
    config = GdConfig(max_iter=5)
    v = gen_signal(32, REAL, seed=7)
    runs = [lambda name=name: solve(name, A, y, config, x.copy()) for name in ALGORITHMS]
    runs += [lambda: spectral_init(A, y), lambda: dir_second_derivative(x, v, A, y)]
    for run in runs:
        with pytest.raises(ValueError, match=r"magnitudes must be nonnegative, got y\[3\]"):
            run()
