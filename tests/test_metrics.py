from collections import Counter

import numpy as np
import pytest

import saflow.metrics
import saflow.solvers
from saflow.distances import dist, success
from saflow.measurement import COMPLEX, REAL, gen_sensing, gen_signal, observe, rng_for
from saflow.metrics import (
    BetaRow,
    ExperimentSpec,
    IterationRow,
    SuccessRow,
    run_beta_sweep,
    run_iteration_table,
    run_success_sweep,
    write_beta_csv,
    write_iteration_csv,
    write_success_csv,
)
from saflow.reporting import write_csv
from saflow.solvers import GdConfig, make_init, parse_algorithm, solve

FIVE = ("saf-random", "saf-spectral", "wf", "twf", "taf")


def test_dist_phase_ambiguity():
    x = gen_signal(6, REAL, seed=0)
    assert dist(x, x) == 0.0
    assert dist(-x, x) == 0.0
    xc = gen_signal(6, COMPLEX, seed=0)
    assert dist(1j * xc, xc) == pytest.approx(0.0, abs=1e-12)
    assert dist(np.exp(0.3j) * xc, xc) == pytest.approx(0.0, abs=1e-12)


def test_dist_upper_bounded_by_plain_distance():
    rng = rng_for(1)
    for _ in range(50):
        z = rng.standard_normal(5)
        x = rng.standard_normal(5)
        d = dist(z, x)
        assert d <= np.linalg.norm(z - x) + 1e-15
        if z @ x >= 0:
            assert d == pytest.approx(np.linalg.norm(z - x), abs=0)


def test_dist_pseudometric_properties():
    rng = rng_for(2)
    for _ in range(10_000):
        a, b, c = rng.standard_normal((3, 4))
        assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-12)
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


def test_dist_shape_mismatch():
    with pytest.raises(ValueError):
        dist(np.ones(3), np.ones(4))


def test_success_examples():
    x = gen_signal(8, REAL, seed=3)
    x /= np.linalg.norm(x)
    assert success(x, x)
    assert not success(1.1 * x, x)
    u = gen_signal(8, REAL, seed=4)
    u -= (u @ x) * x
    u /= np.linalg.norm(u)
    assert success(x + 1e-6 * u, x)
    with pytest.raises(ValueError):
        success(x, np.zeros(8))


def test_success_scale_consistent():
    x = gen_signal(8, REAL, seed=5)
    z = x + 1e-6 * gen_signal(8, REAL, seed=6)
    for c in (2.0, -3.0, 0.001):
        assert success(c * z, c * x) == success(z, x)


def test_parse_algorithm():
    assert parse_algorithm("saf") == ("saf", "random")
    assert parse_algorithm("saf-spectral") == ("saf", "spectral")
    assert parse_algorithm("wf") == ("wf", "spectral")
    assert parse_algorithm("taf-random") == ("taf", "random")
    with pytest.raises(ValueError):
        parse_algorithm("phaselift")
    with pytest.raises(ValueError):
        parse_algorithm("saf-warm")


@pytest.fixture(scope="module")
def small_sweep():
    spec = ExperimentSpec(
        n=16, field=REAL, m_over_n=(2, 6), trials=8,
        config=GdConfig(mu=0.6, err_tol=1e-5, max_iter=1500),
        algorithms=("saf-random",), base_seed=0)
    return spec, run_success_sweep(spec)


def test_success_sweep_shape_and_trend(small_sweep):
    spec, rows = small_sweep
    assert len(rows) == 2
    assert all(isinstance(r, SuccessRow) and 0 <= r.success_rate <= 1 for r in rows)
    by_mn = {r.m_over_n: r.success_rate for r in rows}
    assert by_mn[6.0] >= by_mn[2.0]


def test_success_sweep_reproducible(small_sweep):
    spec, rows = small_sweep
    assert run_success_sweep(spec) == rows


def test_iteration_table_nested_thresholds():
    spec = ExperimentSpec(
        n=24, field=REAL, m_over_n=(8,), trials=5,
        config=GdConfig(mu=0.8, max_iter=2000),
        algorithms=("saf-random", "saf-spectral"), base_seed=1)
    rows = run_iteration_table(spec)
    assert len(rows) == 4
    med = {(r.algorithm, r.init, r.threshold): r.median_iters for r in rows}
    assert med[("saf", "random", 1e-10)] >= med[("saf", "random", 1e-5)]
    assert med[("saf", "spectral", 1e-5)] <= med[("saf", "random", 1e-5)]


def test_beta_sweep_rows():
    spec = ExperimentSpec(
        n=16, field=REAL, trials=4,
        config=GdConfig(mu=0.6, err_tol=1e-5, max_iter=1000),
        beta_grid=(0.5, 0.9), base_seed=2,
        m_over_n_random=6.0, m_over_n_spectral=4.0)
    rows = run_beta_sweep(spec)
    assert len(rows) == 4
    assert {(r.beta, r.init) for r in rows} == {
        (0.5, "random"), (0.5, "spectral"), (0.9, "random"), (0.9, "spectral")}
    assert all(0 <= r.success_rate <= 1 for r in rows)


def test_beta_sweep_trend_more_smoothing_helps():
    # at a sampling ratio where beta=0.3 struggles, beta=0.9 should not do worse
    spec = ExperimentSpec(
        n=64, field=REAL, trials=10,
        config=GdConfig(mu=0.6, err_tol=1e-5, max_iter=2000),
        beta_grid=(0.3, 0.9), base_seed=7,
        m_over_n_random=4.0, m_over_n_spectral=2.5)
    rows = run_beta_sweep(spec)
    rate = {(r.beta, r.init): r.success_rate for r in rows}
    assert rate[(0.9, "random")] >= rate[(0.3, "random")]


def test_csv_writers(tmp_path):
    srows = [SuccessRow(5.0, "saf-random", 0.9, 10)]
    write_success_csv(srows, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == \
        "m_over_n,algorithm,success_rate,trials"
    brows = [BetaRow(0.5, "random", 1.0)]
    write_beta_csv(brows, tmp_path / "b.csv")
    assert (tmp_path / "b.csv").read_text().splitlines()[1] == "0.5,random,1.0"
    irows = [IterationRow("saf", "random", 1e-5, 44.0, 0.123)]
    write_iteration_csv(irows, tmp_path / "i.csv", timing=False)
    line = (tmp_path / "i.csv").read_text().splitlines()[1]
    assert line == "saf,random,1e-05,44.0,0.0"
    write_csv(tmp_path / "c.csv", "a,b,c,d,e", [(np.float64(0.1), np.True_, False, None, 3)])
    assert (tmp_path / "c.csv").read_text() == "a,b,c,d,e\n0.1,true,false,,3\n"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_diverging_trials_score_as_failures():
    spec = ExperimentSpec(n=8, m_over_n=(6,), trials=3, config=GdConfig(mu=50.0, max_iter=200))
    assert [r.success_rate for r in run_success_sweep(spec)] == [0.0]
    assert [r.median_iters for r in run_iteration_table(spec)] == [np.inf, np.inf]


def test_sweep_parallel_matches_serial():
    spec = ExperimentSpec(
        n=12, field=REAL, m_over_n=(6,), trials=6,
        config=GdConfig(mu=0.6, err_tol=1e-5, max_iter=800),
        algorithms=("saf-random",), base_seed=4)
    assert run_success_sweep(spec, threads=2) == run_success_sweep(spec, threads=1)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_shared_start_gives_each_algorithm_its_own_trace(field):
    x = gen_signal(24, field, seed=9)
    A = gen_sensing(192, 24, field, seed=9)
    y = observe(A, x)
    config = GdConfig(mu=0.8, max_iter=600, err_tol=1e-10)
    starts = {kind: make_init(A, y, kind, 9) for kind in ("random", "spectral")}
    before = {kind: z0.copy() for kind, z0 in starts.items()}
    for algorithm in FIVE:
        base, kind = parse_algorithm(algorithm)
        own = solve(base, A, y, config, make_init(A, y, kind, 9), truth=x)
        shared = solve(base, A, y, config, starts[kind], truth=x)
        assert shared.reason == own.reason
        assert shared.records == own.records  # iteration counts, losses, errors with ==
        assert np.all(shared.final == own.final)
    for kind, z0 in starts.items():
        assert z0.tobytes() == before[kind].tobytes()


def test_trial_draws_instance_and_each_start_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(saflow.metrics, "gen_sensing",
                        counted("gen_sensing", saflow.metrics.gen_sensing))
    monkeypatch.setattr(saflow.solvers, "spectral_init",
                        counted("spectral_init", saflow.solvers.spectral_init))
    monkeypatch.setattr(saflow.metrics, "solve", counted("solve", saflow.metrics.solve))
    spec = ExperimentSpec(n=16, m_over_n=(8,), trials=3,
                          config=GdConfig(mu=0.8, max_iter=300), algorithms=FIVE)
    run_iteration_table(spec)
    assert calls == {"gen_sensing": 3, "spectral_init": 3, "solve": 15}


def test_multi_algorithm_table_parallel_matches_serial():
    spec = ExperimentSpec(n=16, m_over_n=(8,), trials=5,
                          config=GdConfig(mu=0.8, max_iter=1000), algorithms=FIVE, base_seed=6)

    def untimed(rows):
        return [r._replace(mean_seconds=0.0) for r in rows]
    serial = run_iteration_table(spec, threads=1)
    assert untimed(run_iteration_table(spec, threads=2)) == untimed(serial)
    assert all(r.mean_seconds > 0 for r in serial)


@pytest.mark.parametrize("changes,named", [
    ({"n": 0}, "n"), ({"trials": 0}, "trials"), ({"power_iters": 0}, "power_iters"),
    ({"base_seed": -1}, "base_seed"), ({"field": "quaternion"}, "field"),
    ({"noise_level": -0.1}, "noise_level"), ({"noise_level": float("nan")}, "noise_level"),
    ({"m_over_n": ()}, "m_over_n"), ({"m_over_n": (4, float("inf"))}, "m_over_n"),
    ({"m_over_n_random": float("nan")}, "m_over_n_random"),
    ({"m_over_n_spectral": 0.0}, "m_over_n_spectral"),
    ({"beta_grid": (0.5, 0.0)}, "beta_grid"), ({"beta_grid": (1.5,)}, "beta_grid"),
    ({"algorithms": ()}, "algorithms"), ({"algorithms": ("saf", "newton")}, "algorithms"),
    ({"n": 1, "m_over_n": (0.4,)}, "m_over_n"), ({"n": 2, "m_over_n_random": 0.2}, "m_over_n_random"),
    ({"n": 1, "m_over_n_spectral": 0.5}, "m_over_n_spectral"),
    ({"n": 8, "m_over_n": (4, 1e308)}, "m_over_n"),
])
def test_experiment_spec_rejects_out_of_range_fields(changes, named):
    with pytest.raises(ValueError, match=named):
        ExperimentSpec(**changes)


def test_iteration_table_takes_one_m_over_n():
    spec = ExperimentSpec(n=8, m_over_n=(6, 2), trials=2, config=GdConfig(max_iter=200))
    with pytest.raises(ValueError, match="m_over_n"):
        run_iteration_table(spec)


def test_iteration_table_rejects_bad_thresholds():
    for thresholds in ((), (1e-5, float("nan")), (0.0,)):
        with pytest.raises(ValueError, match="thresholds"):
            ExperimentSpec(n=8, m_over_n=(6,), trials=1, thresholds=thresholds)
