"""The one pool helper: ordered results, a pool no larger than its work, and
worker errors that reach the caller."""

import concurrent.futures
import os
import time
from concurrent.futures import Future
from functools import partial

import pytest

import saflow.landscape as ls
import saflow.parallel
import saflow.verify
from saflow.cli import main
from saflow.metrics import ExperimentSpec, run_iteration_table, run_success_sweep
from saflow.parallel import ordered_map
from saflow.solvers import GdConfig


class FakePool:
    """Stands in for ProcessPoolExecutor and starts no process: records
    max_workers and models its call queue.  Like the real pool it queues
    the first max_workers + 1 calls submitted, plus `refills` more as if
    its workers had taken some; a queued call runs at submit and can no
    longer be cancelled, and the others stay pending."""

    sizes: list = []
    refills = 0

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)
        self.queued = max_workers + 1 + FakePool.refills
        self.submitted = 0

    def submit(self, fn):
        future = Future()
        if self.submitted < self.queued:
            future.set_running_or_notify_cancel()
            future.set_result(fn())
        self.submitted += 1
        return future

    def shutdown(self, cancel_futures=False):
        pass


@pytest.fixture
def fake_pool(monkeypatch):
    FakePool.sizes, FakePool.refills = [], 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return FakePool


def _logged(log, k):
    log.append(k)
    return k * k


@pytest.mark.parametrize("refills", [0, 2, 4])
def test_results_keep_the_call_order_wherever_the_calls_run(fake_pool, refills):
    fake_pool.refills = refills
    log = []
    calls = [partial(_logged, log, k) for k in range(7)]
    assert ordered_map(calls, 3) == [k * k for k in range(7)]
    assert fake_pool.sizes == [2]  # three processes: this one and two workers
    # the pool queues calls 1..3 (two workers + 1) and `refills` more; this
    # process runs call 0, then the calls the pool has not queued, last first
    queued = min(3 + refills, 6)
    assert log == list(range(1, queued + 1)) + [0] + list(range(6, queued, -1))


def test_pool_is_no_larger_than_its_work(fake_pool):
    calls = [partial(pow, 2, k) for k in range(3)]
    assert ordered_map(calls, 16) == [1, 2, 4]
    assert ordered_map(calls[:1], 16) == [1]  # one call runs here, with no pool
    assert ordered_map([], 16) == []
    assert ordered_map(calls, 1) == [1, 2, 4]
    assert fake_pool.sizes == [2]


def test_pool_size_defaults_to_the_available_cpus(fake_pool, monkeypatch):
    calls = [partial(pow, 2, k) for k in range(5)]
    monkeypatch.setattr(saflow.parallel, "available_cpus", lambda: 3)
    assert ordered_map(calls) == [1, 2, 4, 8, 16]
    monkeypatch.setattr(saflow.parallel, "available_cpus", lambda: 1)
    assert ordered_map(calls) == [1, 2, 4, 8, 16]
    assert fake_pool.sizes == [2]


def test_available_cpus_is_positive():
    assert saflow.parallel.available_cpus() >= 1


def test_threads_above_the_trial_count_fork_one_worker_per_trial(fake_pool, tmp_path):
    spec = ExperimentSpec(n=8, m_over_n=(6,), trials=1, config=GdConfig(max_iter=200))
    assert run_success_sweep(spec, threads=16) == run_success_sweep(spec, threads=1)
    cfg = tmp_path / "bench.json"
    cfg.write_text('{"n": 8, "m_over_n": 6, "trials": 1, "max_iter": 200}')
    assert main(["bench", str(cfg), "--threads", "16", "--out", str(tmp_path)]) == 0
    assert fake_pool.sizes == []  # one trial: no pool at all
    run_iteration_table(ExperimentSpec(n=8, m_over_n=(6,), trials=3,
                                       config=GdConfig(max_iter=200)), threads=16)
    assert fake_pool.sizes == [2]  # three trials: this process and two workers


def _fail_in(pid):
    raise ValueError(f"failed in {'this process' if os.getpid() == pid else 'a worker'}")


def test_a_worker_error_reaches_the_caller():
    # this process sleeps through its own call, so a worker has taken the other
    with pytest.raises(ValueError, match="failed in a worker"):
        ordered_map([partial(time.sleep, 0.2), partial(_fail_in, os.getpid())], 2)


def _bad_mc(*args, **kwargs):
    raise ValueError("Monte Carlo pass failed")


def test_a_verify_worker_error_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(saflow.parallel, "available_cpus", lambda: 2)
    monkeypatch.setattr(ls, "_mc_estimates", _bad_mc)
    assert main(["verify", "landscape", "--quick", "--out", str(tmp_path)]) == 2
    assert "Monte Carlo pass failed" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def _bad_calculus(quick, seed):
    raise ValueError("calculus suite failed")


def test_a_calculus_failure_under_verify_all_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(saflow.parallel, "available_cpus", lambda: 2)
    monkeypatch.setattr(saflow.verify, "suite_calculus", _bad_calculus)
    assert main(["verify", "all", "--quick", "--out", str(tmp_path)]) == 2
    assert "calculus suite failed" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))
