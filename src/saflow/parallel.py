"""An ordered map over this process and a pool of worker processes.

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
"""

from __future__ import annotations

import os


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
    calls = list(calls)
    workers = min(available_cpus() if workers is None else workers, len(calls))
    if workers <= 1:
        return [call() for call in calls]
    from concurrent.futures import ProcessPoolExecutor  # not loaded by serial runs
    pool = ProcessPoolExecutor(max_workers=workers - 1)
    try:
        futures = [pool.submit(call) for call in calls[1:]]
        results = [calls[0]()] + [None] * len(futures)
        for i in reversed(range(len(futures))):
            results[i + 1] = calls[i + 1]() if futures[i].cancel() else futures[i].result()
        return results
    finally:
        pool.shutdown(cancel_futures=True)
