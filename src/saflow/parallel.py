"""An ordered map over this process and a pool of worker processes, and
matrix-vector products cut across this process's CPUs.

`ordered_map` runs zero-argument calls (module-level functions bound to
picklable arguments with functools.partial) and returns their results in
the order of the calls, so a caller's output does not depend on how many
processes ran them or which of them ran where.  This process runs the first
call itself and never pickles it, so work that must stay here goes first:
a closure, or BLAS-bound work, since a forked worker keeps this process's
BLAS thread count and BLAS work in workers would compete for the CPUs.  At
one process no pool is started and its module is never imported.

Call it from the main thread while no other thread runs: under the fork
start method the pool forks its workers at the first submit.

`matvec` returns the bytes of ``M @ v`` but runs a large product on every
available CPU, each part one GEMV over a block of M's rows.  With
OpenBLAS's SkylakeX, Haswell and Prescott kernels, a cut at a multiple of 4
rows gave the bytes of the whole call and a cut at row 3999 of 7999 did
not; parts are cut at multiples of 16.
"""

from __future__ import annotations

import functools
import os
import threading

import numpy as np

# a product whose matrix holds fewer bytes stays whole.  On the 2-CPU
# machine of bench/README.md, a loop of A @ z and A.T @ c at n = 1000 took
# the same time split and whole at 16 MiB; split it won by 15-25% at 31-47
# MiB and by 35-50% at 61 MiB, the m = 8n sensing matrix of the paper's
# table.  Another run tied at 32 MiB, so the threshold sits above that.
_SPLIT_BYTES = 48 << 20
_CUT_ROWS = 16  # parts start at multiples of this many rows
_pooled = False  # this process runs an ordered_map pool or works in one


def available_cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask, e.g. under taskset)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ordered_map(calls, workers: int | None = None) -> list:
    """[call() for call in calls], on min(workers, len(calls)) processes, this one included.

    workers None means one per available CPU.  This process runs the first
    call while a pool of the other processes starts on the rest; then it
    runs, last first, each call the pool has not queued.  A pool of k
    workers queues k + 1 calls at submit (CPython's EXTRA_QUEUED_CALLS) and
    one more each time a worker takes one, and a queued call can no longer
    be cancelled: a worker runs it even while this process waits idle.  A
    call that raises raises here, and no worker outlives the map.
    """
    global _pooled
    calls = list(calls)
    workers = min(available_cpus() if workers is None else workers, len(calls))
    if workers <= 1:
        return [call() for call in calls]
    from concurrent.futures import ProcessPoolExecutor  # not loaded by serial runs
    pooled, _pooled = _pooled, True  # the pool's processes fill the CPUs
    pool = ProcessPoolExecutor(max_workers=workers - 1, initializer=_enter_pool)
    try:
        futures = [pool.submit(call) for call in calls[1:]]
        results = [calls[0]()] + [None] * len(futures)
        for i in reversed(range(len(futures))):
            results[i + 1] = calls[i + 1]() if futures[i].cancel() else futures[i].result()
        return results
    finally:
        pool.shutdown(cancel_futures=True)
        _pooled = pooled


def _enter_pool():
    global _pooled
    _pooled = True


@functools.cache
def _openblas_threads():
    """numpy's bundled OpenBLAS's scipy_openblas_get_num_threads64_, or None
    when numpy has no such library."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    return get


def _blas_threads() -> int | None:
    """The number of threads numpy's OpenBLAS runs a call on; None if unknown."""
    get = _openblas_threads()
    return None if get is None else get()


def _cuts(M, parts: int) -> list[int]:
    """Row bounds of up to `parts` parts of M, cut at multiples of _CUT_ROWS.

    A cut whose offset into M's memory is a multiple of 4096 bytes moves
    down one step: its parts read addresses a multiple of 4 KiB apart at
    the same time, and A.T @ c with A 8000 x 1000 took 2.8-3.1 ms cut at
    row 512 against 1.4-1.6 ms cut at row 496 (quartiles of 200 calls)."""
    rows = M.shape[0]
    cuts = [0]
    for k in range(1, parts):
        cut = rows * k // parts // _CUT_ROWS * _CUT_ROWS
        if cut * M.strides[0] % 4096 == 0:
            cut -= _CUT_ROWS
        if cut > cuts[-1]:
            cuts.append(cut)
    return cuts + [rows]


def _product(M, v, out, a: int, b: int, cpu: int) -> None:
    """Rows a:b of M @ v into out[a:b], run by this thread on CPU `cpu` only."""
    os.sched_setaffinity(0, (cpu,))
    np.matmul(M[a:b], v, out=out[a:b])


def _helper(errors: list, *part) -> None:
    try:
        _product(*part)
    except Exception as exc:  # raised again by the caller
        errors.append(exc)


def matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v for a matrix M and a vector v, byte for byte.

    When M holds at least _SPLIT_BYTES and both are float64 or both
    complex128, its rows are cut into one part per available CPU, and each
    part is one GEMV on a thread pinned to its own CPU (this thread runs the
    first), joined before the return; this thread's CPU affinity is then
    restored.  The product stays whole on one available CPU, when OpenBLAS
    runs a call on more than one thread or its thread count is unknown
    (parts would compete with BLAS's own threads), and in a process that
    runs an ordered_map pool or works in one.
    """
    if (M.nbytes < _SPLIT_BYTES or _pooled or M.ndim != 2 or v.ndim != 1
            or M.shape[1] != v.shape[0] or M.dtype.char not in "dD" or v.dtype != M.dtype
            or _blas_threads() != 1):  # a count is read only on Linux, which has os.sched_*
        return M @ v
    cpus = sorted(os.sched_getaffinity(0))
    cuts = _cuts(M, len(cpus))
    if len(cuts) < 3:
        return M @ v
    out = np.empty(M.shape[0], M.dtype)
    errors, threads = [], []
    try:
        for a, b, cpu in zip(cuts[1:-1], cuts[2:], cpus[1:]):
            thread = threading.Thread(target=_helper, args=(errors, M, v, out, a, b, cpu))
            thread.start()
            threads.append(thread)
        _product(M, v, out, 0, cuts[1], cpus[0])
    finally:
        for thread in threads:
            thread.join()
        os.sched_setaffinity(0, cpus)
    if errors:
        raise errors[0]
    return out
