"""An ordered map over this process and a pool of worker processes, and
work shared among this process's CPUs by one pinned helper thread per CPU.

`ordered_map` runs zero-argument calls (module-level functions bound to
picklable arguments with functools.partial) and returns their results in
the order of the calls, so a caller's output does not depend on how many
processes ran them or which of them ran where.  This process runs the first
call itself and never pickles it, so work that must stay here goes first:
a closure, or BLAS-bound work, since a forked worker keeps this process's
BLAS thread count and BLAS work in workers would compete for the CPUs.  At
one process no pool is started and its module is never imported.

Call it from the main thread while no other thread runs Python code: under
the fork start method the pool forks its workers at the first submit.

`matvec` returns the bytes of ``M @ v`` but runs a large product on every
available CPU, each part one GEMV over a block of M's rows.  With
OpenBLAS's SkylakeX, Haswell and Prescott kernels, a cut at a multiple of 4
rows gave the bytes of the whole call and a cut at row 3999 of 7999 did
not; parts are cut at multiples of 16.  `side_by_side` runs independent
calls on the same CPUs instead, one call per CPU at a time, each with its
products whole.  Both hand work to the same helpers: a daemon thread per
available CPU but the first, pinned to its CPU and started by the first
call that needs it, never at import.
"""

from __future__ import annotations

import ctypes
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
# numpy 2.4.6's matmul holds the GIL through a GEMV of this many output rows
# or fewer (496 and 500 rows held it, 501, 504 and 512 released it, in C and
# F layout), so two such parts run one after another: every part but this
# thread's gets more rows
_GIL_ROWS = 500
_pooled = False  # this process runs an ordered_map pool or works in one
_helpers: dict = {}  # CPU -> the _Helper pinned to it
_in_use = threading.Lock()  # held while a split product or side_by_side uses the helpers
if hasattr(os, "register_at_fork"):  # a forked child has none of the threads
    os.register_at_fork(after_in_child=_helpers.clear)


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
def _openblas(name: str, argtypes: tuple, restype):
    """The function `name` of numpy's bundled OpenBLAS, with these ctypes
    argument and result types, or None when numpy has no such library."""
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        function = getattr(ctypes.CDLL(libs[0]), name)
    except (IndexError, OSError, AttributeError):
        return None
    function.argtypes, function.restype = argtypes, restype
    return function


def _blas_threads() -> int | None:
    """The number of threads numpy's OpenBLAS runs a call on; None if unknown."""
    get = _openblas("scipy_openblas_get_num_threads64_", (), ctypes.c_int)
    return None if get is None else get()


class _Helper:
    """A daemon thread pinned to one CPU that runs the calls handed to it, one at a time."""

    def __init__(self, cpu: int):
        self.call = self.error = None
        self.given, self.taken, self.ended = threading.Lock(), threading.Lock(), threading.Lock()
        for lock in (self.given, self.taken, self.ended):
            lock.acquire()  # each is released once per call, by one side, for the other
        threading.Thread(target=self._serve, args=(cpu,), name=f"saflow-cpu{cpu}",
                         daemon=True).start()

    def _serve(self, cpu: int) -> None:
        try:
            os.sched_setaffinity(0, (cpu,))
        except OSError:  # the CPU left the mask since it was read: run unpinned, not die
            pass
        while True:
            self.given.acquire()
            call, self.call = self.call, None
            self.taken.release()
            try:
                call()
            except BaseException as exc:  # returned by join, to the call's own caller
                self.error = exc
            call = None  # a call kept here would keep its matrix alive into the next
            self.ended.release()

    def start(self, call) -> None:
        """Hand call to this helper; return once it has taken it."""
        self.call = call
        self.given.release()
        self.taken.acquire()

    def join(self) -> BaseException | None:
        """Wait for the call to end; return what it raised, or None."""
        self.ended.acquire()
        error, self.error = self.error, None
        return error


def _helper(cpu: int) -> _Helper:
    """The helper pinned to `cpu`, started on first use; called holding _in_use."""
    if cpu not in _helpers:
        _helpers[cpu] = _Helper(cpu)
    return _helpers[cpu]


def _cuts(M, parts: int) -> list[int]:
    """Row bounds of up to `parts` parts of M, cut at multiples of _CUT_ROWS,
    every part but the first holding more than _GIL_ROWS rows.

    A cut whose offset into M's memory is a multiple of 4096 bytes moves
    down one step: its parts read addresses a multiple of 4 KiB apart at
    the same time, and A.T @ c with A 8000 x 1000 took 2.8-3.1 ms cut at
    row 512 against 1.4-1.6 ms cut at row 496 (quartiles of 200 calls)."""
    rows = M.shape[0]
    # parts after the first hold fewer than `rows` rows between them
    for count in range(min(parts, (rows - 1) // (_GIL_ROWS + 1) + 1), 0, -1):
        cuts = [0]
        for k in range(1, count):
            cut = rows * k // count // _CUT_ROWS * _CUT_ROWS
            if cut * M.strides[0] % 4096 == 0:
                cut -= _CUT_ROWS
            if cut > cuts[-1]:
                cuts.append(cut)
        cuts.append(rows)
        if all(b - a > _GIL_ROWS for a, b in zip(cuts[1:], cuts[2:])):
            return cuts
    return [0, rows]  # no rows at all


def _split(M):
    """(available CPUs, row cuts) of a split product with M, or None when
    a product with M stays whole."""
    if (M.nbytes < _SPLIT_BYTES or _pooled or _in_use.locked() or M.ndim != 2
            or M.dtype.char not in "dD"
            or _blas_threads() != 1):  # a count is read only on Linux, which has os.sched_*
        return None
    cpus = sorted(os.sched_getaffinity(0))
    cuts = _cuts(M, len(cpus))
    return (cpus, cuts) if len(cuts) > 2 else None


def splits(M: np.ndarray) -> bool:
    """Whether matvec(M, v) runs on more than one CPU, for a vector v of M's dtype."""
    return _split(M) is not None


def _product(M, v, out, a: int, b: int) -> None:
    """Rows a:b of M @ v into out[a:b]."""
    np.matmul(M[a:b], v, out=out[a:b])


def matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v for a matrix M and a vector v, byte for byte.

    When M holds at least _SPLIT_BYTES and both are float64 or both
    complex128, its rows are cut into one part per available CPU (fewer
    where a helper's part would hold _GIL_ROWS rows or fewer), and each
    part is one GEMV: this thread runs the first pinned to the first CPU,
    each helper one of the others, and this thread waits until every helper
    has taken its part before running its own, and until every part has
    ended before it returns; its CPU affinity is then restored.  A helper's
    error is raised here, by this call.  The product stays whole on one
    available CPU, when OpenBLAS runs a call on more than one thread or its
    thread count is unknown (parts would compete with BLAS's own threads),
    in a process that runs an ordered_map pool or works in one, and while
    the helpers are in use (inside side_by_side, or by another thread).
    """
    split = _split(M) if M.shape[1:] == v.shape and v.dtype == M.dtype else None
    if split is None or not _in_use.acquire(blocking=False):
        return M @ v
    cpus, cuts = split
    out = np.empty(M.shape[0], M.dtype)
    helpers = []
    try:
        for cpu, a, b in zip(cpus[1:], cuts[1:-1], cuts[2:]):
            helpers.append(_helper(cpu))
            helpers[-1].start(functools.partial(_product, M, v, out, a, b))
        os.sched_setaffinity(0, cpus[:1])
        _product(M, v, out, 0, cuts[1])
    finally:
        errors = [helper.join() for helper in helpers]
        os.sched_setaffinity(0, cpus)
        _in_use.release()
    for error in errors:
        if error is not None:
            raise error
    return out


def side_by_side(calls) -> list:
    """[call() for call in calls], on this thread and a helper per other
    available CPU, up to one thread per call.

    Each thread takes the next call when it is free, and results keep the
    order of the calls.  Every product inside stays whole, as in the
    processes of an ordered_map pool.  This thread runs pinned to the first
    available CPU and its affinity is restored.  When a call raises, no
    call starts after it, and once every started call has ended the error
    of the lowest-indexed failing call is raised here.  Where the helpers
    are already in use the calls run here, one after another.
    """
    calls = list(calls)
    if not _in_use.acquire(blocking=False):
        return [call() for call in calls]
    results, errors = [None] * len(calls), {}
    order, taking = iter(range(len(calls))), threading.Lock()

    def work():
        while True:
            with taking:
                i = None if errors else next(order, None)
            if i is None:
                return
            try:
                results[i] = calls[i]()
            except BaseException as exc:  # raised below, once every started call ends
                with taking:
                    errors[i] = exc

    cpus = sorted(os.sched_getaffinity(0))
    helpers = []
    try:
        for cpu in cpus[1:len(calls)]:
            helpers.append(_helper(cpu))
            helpers[-1].start(work)
        os.sched_setaffinity(0, cpus[:1])
        work()
    finally:
        for helper in helpers:
            helper.join()  # work raises nothing
        os.sched_setaffinity(0, cpus)
        _in_use.release()
    if errors:
        raise errors[min(errors)]
    return results
