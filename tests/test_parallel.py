"""The one pool helper: ordered results, a pool no larger than its work, and
worker errors that reach the caller.  The split matrix-vector product: the
bytes of the whole product, and no thread or CPU pinning left behind."""

import concurrent.futures
import os
import threading
import time
from concurrent.futures import Future
from functools import partial

import numpy as np
import pytest

import saflow.landscape as ls
import saflow.parallel
import saflow.verify
import test_cli
from saflow.cli import main
from saflow.metrics import ExperimentSpec, run_iteration_table, run_success_sweep
from saflow.parallel import matvec, ordered_map
from saflow.solvers import GdConfig


class FakePool:
    """Stands in for ProcessPoolExecutor and starts no process: records
    max_workers and models its call queue.  Like the real pool it queues
    the first max_workers + 1 calls submitted, plus `refills` more as if
    its workers had taken some; a queued call runs at submit and can no
    longer be cancelled, and the others stay pending."""

    sizes: list = []
    refills = 0

    def __init__(self, max_workers, initializer=None):
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


@pytest.fixture
def split_always(monkeypatch):
    """Every product of more than one part splits, as one above the threshold
    does; returns the (first row, CPU mask) of each part run."""
    if saflow.parallel.available_cpus() < 2 or saflow.parallel._blas_threads() != 1:
        pytest.skip("a product splits only on 2 or more CPUs with one-thread OpenBLAS")
    monkeypatch.setattr(saflow.parallel, "_SPLIT_BYTES", 0)
    parts, product = [], saflow.parallel._product

    def recorded(M, v, out, a, b, cpu):
        product(M, v, out, a, b, cpu)
        parts.append((a, os.sched_getaffinity(0)))

    monkeypatch.setattr(saflow.parallel, "_product", recorded)
    return parts


def _layouts(shape, field, seed):
    """A matrix of `shape` C- and F-ordered, their transposes, and a vector
    for each, all of `field`."""
    rng = np.random.default_rng(seed)
    draw = (lambda *s: rng.standard_normal(s)) if field == "real" else \
        (lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s))
    A = draw(*shape)
    for M in (A, np.asfortranarray(A), A.T, np.asfortranarray(A).T):
        yield M, draw(M.shape[1])


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("shape", [(2000, 250), (1999, 251), (300, 1024), (10, 7)],
                         ids=["even", "odd", "1024-columns", "under-one-part"])
def test_split_product_is_bitwise_the_whole_product(split_always, field, shape):
    for M, v in _layouts(shape, field, 7):
        split_always.clear()
        assert matvec(M, v).tobytes() == (M @ v).tobytes()
        assert len(split_always) > 1 if M.shape[0] >= 64 else not split_always


def test_parts_are_cut_at_multiples_of_16_rows_off_4_kib_offsets():
    A = np.empty((8000, 1000))
    assert saflow.parallel._cuts(A, 2) == [0, 4000, 8000]
    assert saflow.parallel._cuts(A.T, 2) == [0, 496, 1000]  # 504 is no multiple of 16
    assert saflow.parallel._cuts(np.empty((300, 1024)).T, 2) == [0, 496, 1024]  # not 512
    assert saflow.parallel._cuts(A.T, 3) == [0, 320, 656, 1000]
    assert saflow.parallel._cuts(np.empty((40, 3)), 4) == [0, 16, 40]  # no empty part
    assert saflow.parallel._cuts(np.empty((31, 3)), 2) == [0, 31]


@pytest.mark.parametrize("golden", ["test_bench_five_solvers_matches_golden",
                                    "test_solve_defaults_match_golden",
                                    "test_complex_solve_matches_golden"])
def test_split_solves_match_golden(split_always, golden, tmp_path):
    getattr(test_cli, golden)(tmp_path)
    assert split_always


def test_each_part_runs_on_its_own_cpu_and_no_thread_outlives_the_call(split_always,
                                                                        monkeypatch):
    product = saflow.parallel._product

    def slow_helper(M, v, out, a, b, cpu):
        if a:  # the helper's part ends well after this thread's
            time.sleep(0.05)
        product(M, v, out, a, b, cpu)

    monkeypatch.setattr(saflow.parallel, "_product", slow_helper)
    M, v = next(_layouts((400, 30), "real", 1))
    cpus, count = os.sched_getaffinity(0), threading.active_count()
    assert matvec(M, v).tobytes() == (M @ v).tobytes()
    assert len(split_always) > 1
    assert sorted(tuple(mask) for _, mask in split_always) == \
        [(c,) for c in sorted(cpus)[:len(split_always)]]
    assert os.sched_getaffinity(0) == cpus
    assert threading.active_count() == count


@pytest.mark.parametrize("failing", ["this thread", "a helper"])
def test_the_callers_affinity_is_restored_when_a_part_raises(split_always, monkeypatch,
                                                             failing):
    product = saflow.parallel._product

    def fails(M, v, out, a, b, cpu):
        product(M, v, out, a, b, cpu)
        if (a == 0) == (failing == "this thread"):
            raise FloatingPointError(f"part at row {a} failed")

    monkeypatch.setattr(saflow.parallel, "_product", fails)
    M, v = next(_layouts((400, 30), "real", 1))
    cpus, count = os.sched_getaffinity(0), threading.active_count()
    with pytest.raises(FloatingPointError, match="part at row"):
        matvec(M, v)
    assert os.sched_getaffinity(0) == cpus
    assert threading.active_count() == count


def test_no_part_runs_on_one_cpu(split_always):
    M, v = next(_layouts((400, 30), "real", 1))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # as under taskset -c
    try:
        assert matvec(M, v).tobytes() == (M @ v).tobytes()
    finally:
        os.sched_setaffinity(0, cpus)
    assert not split_always


@pytest.mark.parametrize("threads", [2, None], ids=["two-threads", "unknown"])
def test_no_part_runs_beside_multithreaded_or_unknown_blas(split_always, monkeypatch,
                                                           threads):
    monkeypatch.setattr(saflow.parallel, "_blas_threads", lambda: threads)
    M, v = next(_layouts((400, 30), "real", 1))
    assert matvec(M, v).tobytes() == (M @ v).tobytes()
    assert not split_always


def _parts_run(M, v):
    """How many parts matvec(M, v) runs in, with every product split that
    can be, in whichever process runs this call."""
    module, parts = saflow.parallel, []
    product, threshold = module._product, module._SPLIT_BYTES
    module._product = lambda *part: (parts.append(part[4]), product(*part))
    module._SPLIT_BYTES = 0
    try:
        matvec(M, v)
    finally:
        module._product, module._SPLIT_BYTES = product, threshold
    return len(parts)


def test_no_part_runs_in_a_pool_or_beside_one(split_always):
    M, v = next(_layouts((400, 30), "real", 1))
    parts = _parts_run(M, v)
    assert parts > 1
    # this process runs the first call beside the pool, a worker the second
    assert ordered_map([partial(_parts_run, M, v)] * 2, 2) == [0, 0]
    assert _parts_run(M, v) == parts
