"""The one pool helper: ordered results, a pool no larger than its work, and
worker errors that reach the caller.  The split matrix-vector product: the
bytes of the whole product, one reused helper thread per extra CPU, no
matrix, error or CPU pinning left behind.  Side-by-side calls: ordered
results, one thread per CPU, products whole, the first failing call's error."""

import concurrent.futures
import ctypes
import os
import pickle
import sys
import threading
import time
import weakref
from concurrent.futures import Future
from functools import partial

import numpy as np
import pytest

import saflow.landscape as ls
import saflow.metrics
import saflow.parallel
import saflow.verify
import test_cli
from saflow.cli import main
from saflow.measurement import trial_seed
from saflow.metrics import ExperimentSpec, _run_trial, run_iteration_table, run_success_sweep
from saflow.parallel import matvec, ordered_map, side_by_side
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
def one_blas_thread():
    """numpy's OpenBLAS runs each call on one thread, as a product splits
    only then; its thread count is restored afterwards."""
    threads = saflow.parallel._blas_threads()
    set_threads = saflow.parallel._openblas("scipy_openblas_set_num_threads64_",
                                            (ctypes.c_int,), None)
    if threads is None or set_threads is None:
        pytest.skip("a product splits only beside numpy's bundled OpenBLAS, absent here")
    set_threads(1)
    yield
    set_threads(threads)


@pytest.fixture
def split_always(monkeypatch, one_blas_thread):
    """Every product of more than one part splits, as one above the threshold
    does, however few rows each part holds; returns the (first row, CPU
    mask) of each part run."""
    if saflow.parallel.available_cpus() < 2:
        pytest.skip("a product splits only on 2 or more CPUs")
    monkeypatch.setattr(saflow.parallel, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(saflow.parallel, "_GIL_ROWS", 0)
    parts, product = [], saflow.parallel._product

    def recorded(M, v, out, a, b):
        product(M, v, out, a, b)
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


def _helper_threads():
    return {t.ident for t in threading.enumerate() if t.name.startswith("saflow-cpu")}


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("shape", [(2000, 250), (1999, 251), (300, 1024), (10, 7)],
                         ids=["even", "odd", "1024-columns", "under-one-part"])
def test_split_product_is_bitwise_the_whole_product(split_always, field, shape):
    for M, v in _layouts(shape, field, 7):
        split_always.clear()
        assert matvec(M, v).tobytes() == (M @ v).tobytes()
        assert len(split_always) > 1 if M.shape[0] >= 64 else not split_always


def test_parts_are_cut_at_multiples_of_16_rows_off_4_kib_offsets(monkeypatch):
    A = np.empty((8000, 1000))
    assert saflow.parallel._cuts(A, 2) == [0, 4000, 8000]
    assert saflow.parallel._cuts(A.T, 2) == [0, 496, 1000]  # 504 is no multiple of 16
    assert saflow.parallel._cuts(np.empty((300, 1024)).T, 2) == [0, 496, 1024]  # not 512
    monkeypatch.setattr(saflow.parallel, "_GIL_ROWS", 0)  # parts of any size
    assert saflow.parallel._cuts(A.T, 3) == [0, 320, 656, 1000]
    assert saflow.parallel._cuts(np.empty((40, 3)), 4) == [0, 16, 40]  # no empty part
    assert saflow.parallel._cuts(np.empty((31, 3)), 2) == [0, 31]


@pytest.mark.parametrize("cpus, rows, cuts", [
    (3, 1000, [0, 496, 1000]),
    (4, 1000, [0, 496, 1000]),
    (8, 1000, [0, 496, 1000]),
    (3, 8000, [0, 2656, 5328, 8000]),
    (4, 8000, [0, 2000, 4000, 6000, 8000]),
    (8, 8000, [0, 992, 2000, 2992, 4000, 4976, 6000, 6992, 8000]),  # 4992 is 4 KiB off
    (16, 8000, [0, 528, 1056, 1584, 2128, 2656, 3184, 3728, 4256, 4784, 5328, 5856, 6384,
                6928, 7456, 8000]),  # 16 parts would hold 496 rows or fewer: 15 parts
])
def test_no_helper_part_holds_500_rows_or_fewer(cpus, rows, cuts):
    # the m = 8n matrix of the paper's table, n = 1000: A.T has 1000 rows, A 8000
    A = np.empty((8000, 1000))
    M = A if rows == 8000 else A.T
    assert saflow.parallel._cuts(M, cpus) == cuts
    assert all(b - a > saflow.parallel._GIL_ROWS for a, b in zip(cuts[1:], cuts[2:]))


@pytest.mark.parametrize("golden", ["test_bench_five_solvers_matches_golden",
                                    "test_solve_defaults_match_golden",
                                    "test_complex_solve_matches_golden"])
def test_split_solves_match_golden(split_always, monkeypatch, golden, tmp_path):
    monkeypatch.setattr(saflow.metrics, "splits", lambda M: False)  # solves one by one
    getattr(test_cli, golden)(tmp_path)
    assert split_always


def _instances():
    """(spec, m, seed) of each trial of the five-solver bench golden, and of
    the instances of both solve goldens with all five solvers."""
    five = ("saf-random", "saf-spectral", "wf", "twf", "taf")
    bench = ExperimentSpec(n=64, m_over_n=(8,), trials=3, algorithms=five,
                           config=GdConfig(mu=0.8, max_iter=2000, err_tol=1e-10))
    yield from ((bench, 512, trial_seed(0, 0, ti)) for ti in range(3))
    for field in ("real", "complex"):
        yield ExperimentSpec(n=24, field=field, algorithms=five), 144, 5


def test_side_by_side_trials_match_serial_ones(split_always, monkeypatch):
    solves, solve = [], saflow.metrics.solve

    def recorded(base, A, y, config, z0, truth):
        trace = solve(base, A, y, config, z0, truth)
        time.sleep(0.01)  # a solve that ends at once could leave the other threads none
        solves.append((base, z0.tobytes(), pickle.dumps((trace.records, trace.final.tobytes(),
                                                         trace.reason)),
                       threading.get_ident()))
        return trace

    monkeypatch.setattr(saflow.metrics, "solve", recorded)

    def run(spec, m, seed, together):
        monkeypatch.setattr(saflow.metrics, "splits", lambda M: together)
        solves.clear()
        results = _run_trial(spec, m, seed, (1e-5, 1e-10))
        for r in results:
            del r["seconds"]
        return results, sorted(s[:3] for s in solves), {s[3] for s in solves}

    for spec, m, seed in _instances():
        serial, serial_traces, serial_threads = run(spec, m, seed, False)
        both, traces, threads = run(spec, m, seed, True)
        assert both == serial and traces == serial_traces
        assert len(serial_threads) == 1 and len(threads) > 1
    assert split_always  # the serial solves split their products


def test_each_part_runs_on_its_own_cpu_and_the_call_waits_for_every_part(split_always,
                                                                         monkeypatch):
    product = saflow.parallel._product

    def slow_helper(M, v, out, a, b):
        if a:  # the helper's part ends well after this thread's
            time.sleep(0.05)
        product(M, v, out, a, b)

    monkeypatch.setattr(saflow.parallel, "_product", slow_helper)
    M, v = next(_layouts((400, 30), "real", 1))
    cpus = os.sched_getaffinity(0)
    assert matvec(M, v).tobytes() == (M @ v).tobytes()
    assert len(split_always) > 1
    assert sorted(tuple(mask) for _, mask in split_always) == \
        [(c,) for c in sorted(cpus)[:len(split_always)]]
    assert os.sched_getaffinity(0) == cpus


def test_one_helper_per_extra_cpu_is_reused_across_calls(split_always):
    M, v = next(_layouts((400, 30), "real", 1))
    matvec(M, v)
    helpers, count = _helper_threads(), threading.active_count()
    assert len(helpers) == len(saflow.parallel._helpers) <= len(os.sched_getaffinity(0)) - 1
    assert len(helpers) >= len(split_always) - 1
    for _ in range(3):
        assert matvec(M, v).tobytes() == (M @ v).tobytes()
        assert side_by_side([partial(matvec, M, v)] * 3)
    assert _helper_threads() == helpers and threading.active_count() == count


def test_a_split_product_keeps_no_reference_to_its_matrix(split_always):
    M, v = next(_layouts((400, 30), "real", 1))
    M = M.copy()  # no longer held by the generator's matrix
    matrix = weakref.ref(M)
    matvec(M, v)
    side_by_side([partial(matvec, M, v)] * 3)
    assert split_always
    del M
    assert matrix() is None


@pytest.mark.parametrize("failing", ["this thread", "a helper", "both"])
def test_a_parts_error_is_raised_by_its_own_call_and_never_by_the_next(split_always,
                                                                       monkeypatch, failing):
    product = saflow.parallel._product

    def fails(M, v, out, a, b):
        product(M, v, out, a, b)
        if failing == "both" or (a == 0) == (failing == "this thread"):
            raise FloatingPointError(f"part at row {a} failed")

    M, v = next(_layouts((400, 30), "real", 1))
    matvec(M, v)  # the helpers have started
    cpus, count = os.sched_getaffinity(0), threading.active_count()
    monkeypatch.setattr(saflow.parallel, "_product", fails)
    with pytest.raises(FloatingPointError, match="part at row"):
        matvec(M, v)
    assert os.sched_getaffinity(0) == cpus
    assert threading.active_count() == count
    monkeypatch.setattr(saflow.parallel, "_product", product)
    assert matvec(M, v).tobytes() == (M @ v).tobytes()
    assert side_by_side([partial(pow, 2, k) for k in range(4)]) == [1, 2, 4, 8]


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
    product, threshold, gil_rows = module._product, module._SPLIT_BYTES, module._GIL_ROWS
    module._product = lambda *part: (parts.append(part[3]), product(*part))
    module._SPLIT_BYTES = module._GIL_ROWS = 0
    try:
        matvec(M, v)
    finally:
        module._product, module._SPLIT_BYTES, module._GIL_ROWS = product, threshold, gil_rows
    return len(parts)


def test_no_part_runs_in_a_pool_or_beside_one(split_always):
    M, v = next(_layouts((400, 30), "real", 1))
    parts = _parts_run(M, v)
    assert parts > 1
    # this process runs the first call beside the pool, a worker the second
    assert ordered_map([partial(_parts_run, M, v)] * 2, 2) == [0, 0]
    assert _parts_run(M, v) == parts


def test_no_part_runs_side_by_side(split_always):
    M, v = next(_layouts((400, 30), "real", 1))
    assert saflow.parallel.splits(M)
    assert side_by_side([partial(saflow.parallel.splits, M)] * 2) == [False, False]
    whole = (M @ v).tobytes()
    assert [r.tobytes() for r in side_by_side([partial(matvec, M, v)] * 4)] == [whole] * 4
    assert not split_always


def _record(log, k, delay=0.0):
    time.sleep(delay)
    log.append((k, threading.get_ident(), os.sched_getaffinity(0)))
    return k * k


def test_side_by_side_keeps_the_call_order_and_runs_one_call_per_cpu():
    log, cpus = [], os.sched_getaffinity(0)
    calls = [partial(_record, log, k, 0.03 + 0.02 * (k % 3)) for k in range(7)]
    assert side_by_side(calls) == [k * k for k in range(7)]
    assert sorted(k for k, _, _ in log) == list(range(7))
    masks = {ident: mask for _, ident, mask in log}
    assert all(len(mask) == 1 for mask in masks.values())
    assert len(set(map(frozenset, masks.values()))) == len(masks)  # a CPU each
    assert len(masks) == min(len(cpus), 7)
    assert os.sched_getaffinity(0) == cpus
    assert side_by_side([]) == []


def _fails(log, k, delay):
    time.sleep(delay)
    log.append(k)
    raise ValueError(f"call {k} failed")


def test_side_by_side_raises_the_lowest_failing_call_after_every_started_call_ends():
    # call 0 fails last; call 1 fails at once, so only the calls that started
    # beside them, one per other thread, run
    log, cpus = [], os.sched_getaffinity(0)
    calls = [partial(_fails, log, 0, 0.1), partial(_fails, log, 1, 0.0)]
    calls += [partial(_record, log, k, 0.05) for k in range(2, 6)]
    with pytest.raises(ValueError, match="call 0 failed"):
        side_by_side(calls)
    assert sorted(k if isinstance(k, int) else k[0] for k in log) == \
        list(range(min(len(cpus), len(calls))))
    assert os.sched_getaffinity(0) == cpus


def test_side_by_side_inside_side_by_side_runs_one_call_after_another():
    inner = partial(side_by_side, [threading.get_ident] * 3)
    assert all(len(set(threads)) == 1 for threads in side_by_side([inner, inner]))


def test_each_call_runs_once_under_frequent_thread_switches(split_always):
    M, v = next(_layouts((400, 30), "real", 1))
    whole, log, got = (M @ v).tobytes(), [], []

    def run():
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got.extend(matvec(M, v).tobytes() for _ in range(50))
            got.append(side_by_side([partial(_record, log, k) for k in range(300)]))
        finally:
            sys.setswitchinterval(interval)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert got[:-1] == [whole] * 50 and got[-1] == [k * k for k in range(300)]
    assert sorted(k for k, _, _ in log) == list(range(300))
