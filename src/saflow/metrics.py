"""Experiment drivers: success-rate sweeps, beta sweeps, iteration tables.

Every driver is a deterministic function of its spec: trial seeds derive
from the base seed via the splittable scheme in saflow.measurement, fresh
ground truth and sensing matrices are drawn per trial, and results are
aggregated by trial index, so outputs do not depend on scheduling.

Drivers are trial-major: a trial draws its instance once, builds each init
kind's start once, and solves that instance with every algorithm of the
spec, so each solve sees the same A, y and start as a solve of its own.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .distances import SUCCESS_THRESHOLD, success
from .measurement import (
    COMPLEX, REAL, add_noise, check_field, gen_sensing, gen_signal, observe, trial_seed,
)
from .parallel import ordered_map
from .reporting import write_csv
from .solvers import POWER_ITERS, GdConfig, make_init, parse_algorithm, solve


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: the defaults and bounds of the sweep and bench config keys.

    An out-of-range field raises ValueError naming it.
    """

    n: int = 128
    field: str = REAL
    m_over_n: tuple = (1, 2, 3, 4, 5, 6, 7, 8)
    trials: int = 50
    config: GdConfig = GdConfig(err_tol=SUCCESS_THRESHOLD)
    algorithms: tuple = ("saf-random",)
    noise_level: float = 0.0
    base_seed: int = 0
    power_iters: int = POWER_ITERS
    beta_grid: tuple = tuple(np.round(np.arange(0.1, 1.01, 0.1), 2))
    m_over_n_random: float = 4.0
    m_over_n_spectral: float = 2.5
    thresholds: tuple = (1e-5, 1e-10)

    def __post_init__(self):
        check_field(self.field)
        for key in ("n", "trials", "power_iters"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if not (np.isfinite(self.noise_level) and self.noise_level >= 0):
            raise ValueError(f"noise_level must be finite and nonnegative, got {self.noise_level}")
        ratios = {"m_over_n": self.m_over_n, "m_over_n_random": (self.m_over_n_random,),
                  "m_over_n_spectral": (self.m_over_n_spectral,)}
        memory = _physical_memory()
        for key, values in ratios.items():
            if not (values and all(0 < v and v * self.n < np.inf for v in values)):
                raise ValueError(f"{key} must be positive with {key} * n finite, "
                                 f"got {getattr(self, key)} at n={self.n}")
            for v in values:
                m = int(round(v * self.n))
                if m < 1:
                    raise ValueError(f"{key} must give m = round({key} * n) >= 1 at n={self.n}, "
                                     f"got {getattr(self, key)}")
                # a trial holds its m x n sensing matrix: one no machine can
                # hold fails here, not as a MemoryError traceback mid-run
                size = m * self.n * (16 if self.field == COMPLEX else 8)
                if memory is not None and size > memory:
                    raise ValueError(f"{key} = {v} gives m = {m} at n={self.n}: a {self.field} "
                                     f"sensing matrix of {size} bytes, beyond the {memory} "
                                     "bytes of physical memory")
        if not (self.thresholds and all(0 < t < np.inf for t in self.thresholds)):
            raise ValueError(f"thresholds must be finite and positive, got {self.thresholds}")
        if not (self.beta_grid and all(0 < b <= 1 for b in self.beta_grid)):
            raise ValueError(f"beta_grid values must lie in (0, 1], got {self.beta_grid}")
        if not self.algorithms:
            raise ValueError("algorithms must name at least one algorithm")
        for name in self.algorithms:
            parse_algorithm(name)


class SuccessRow(NamedTuple):
    m_over_n: float
    algorithm: str
    success_rate: float
    trials: int


class IterationRow(NamedTuple):
    algorithm: str
    init: str
    threshold: float
    median_iters: float
    mean_seconds: float


def _run_trial(spec: ExperimentSpec, m: int, seed: int, thresholds: tuple) -> list[dict]:
    """Draw the instance of trial seed `seed` once, solve it with every
    algorithm of the spec, and summarize each solve with the first-hit
    iteration of each relative error in thresholds; used directly and by the pool.

    Each init kind's start is built once, timed, and handed to every
    algorithm that starts from it; a solve's seconds are its own time plus
    the time of its start.
    """
    x = gen_signal(spec.n, spec.field, seed)
    A = gen_sensing(m, spec.n, spec.field, seed)
    y = add_noise(observe(A, x), spec.noise_level, seed)
    starts = {}
    results = []
    for algorithm in spec.algorithms:
        base, init_kind = parse_algorithm(algorithm)
        if init_kind not in starts:
            t0 = time.perf_counter()
            z0 = make_init(A, y, init_kind, seed, spec.power_iters)
            z0.flags.writeable = False  # shared: a solver that wrote to it would raise
            starts[init_kind] = (z0, time.perf_counter() - t0)
        z0, init_seconds = starts[init_kind]
        t0 = time.perf_counter()
        trace = solve(base, A, y, spec.config, z0, truth=x)
        seconds = init_seconds + time.perf_counter() - t0
        results.append({
            "success": (trace.reason != "diverged"
                        and bool(success(trace.final, x, SUCCESS_THRESHOLD))),
            "iters_to": {thr: trace.iters_to(thr) for thr in thresholds},
            "seconds": seconds,
        })
    return results


def _map_trials(spec: ExperimentSpec, m: int, seeds: list, threads: int,
                thresholds: tuple = ()) -> list[list[dict]]:
    """_run_trial(spec, m, seed, thresholds) per seed, on up to `threads`
    processes, gathered in seed order."""
    return ordered_map([partial(_run_trial, spec, m, seed, thresholds) for seed in seeds],
                       threads)


def run_success_sweep(spec: ExperimentSpec, threads: int = 1) -> list[SuccessRow]:
    """Empirical success rate per (m/n, algorithm) over seeded fresh trials.

    Trial seeds are hash(base_seed, grid_index, trial_index), so every
    algorithm sees the same instances at a given grid point; each instance
    is drawn once and solved by all of them.
    """
    rows = []
    for gi, mn in enumerate(spec.m_over_n):
        m = int(round(mn * spec.n))
        seeds = [trial_seed(spec.base_seed, gi, ti) for ti in range(spec.trials)]
        results = _map_trials(spec, m, seeds, threads)
        for ai, algorithm in enumerate(spec.algorithms):
            rate = sum(r[ai]["success"] for r in results) / spec.trials
            rows.append(SuccessRow(float(mn), algorithm, rate, spec.trials))
    return rows


def run_iteration_table(spec: ExperimentSpec, threads: int = 1) -> list[IterationRow]:
    """Median iterations to each relative-error threshold of the spec, per algorithm.

    All algorithms solve the same per-trial instances, each drawn once.
    Wall time is reported for context only; it is hardware-dependent.
    """
    if len(spec.m_over_n) != 1:
        raise ValueError(f"an iteration table takes one m_over_n, got {spec.m_over_n}")
    m = int(round(spec.m_over_n[0] * spec.n))
    trial_spec = replace(spec, config=replace(spec.config, err_tol=min(spec.thresholds)))
    seeds = [trial_seed(spec.base_seed, 0, ti) for ti in range(spec.trials)]
    results = _map_trials(trial_spec, m, seeds, threads, spec.thresholds)
    rows = []
    for ai, algorithm in enumerate(spec.algorithms):
        base, init_kind = parse_algorithm(algorithm)
        mean_seconds = float(np.mean([r[ai]["seconds"] for r in results]))
        for thr in spec.thresholds:
            iters = [r[ai]["iters_to"][thr] for r in results]
            rows.append(IterationRow(
                algorithm=base,
                init=init_kind,
                threshold=float(thr),
                median_iters=float(np.median(iters)),
                mean_seconds=mean_seconds,
            ))
    return rows


class BetaRow(NamedTuple):
    beta: float
    init: str
    success_rate: float


def run_beta_sweep(spec: ExperimentSpec, threads: int = 1) -> list[BetaRow]:
    """Success rate versus smoothing parameter, for random and spectral starts.

    Random initialization runs at m = m_over_n_random * n, spectral at
    m = m_over_n_spectral * n.
    """
    rows = []
    for bi, beta in enumerate(spec.beta_grid):
        for init_kind, mn in (("random", spec.m_over_n_random),
                              ("spectral", spec.m_over_n_spectral)):
            m = int(round(mn * spec.n))
            seeds = [trial_seed(spec.base_seed, bi, ti) for ti in range(spec.trials)]
            trial_spec = replace(spec, algorithms=(f"saf-{init_kind}",),
                                 config=replace(spec.config, beta=float(beta)))
            results = _map_trials(trial_spec, m, seeds, threads)
            rate = sum(r[0]["success"] for r in results) / spec.trials
            rows.append(BetaRow(float(beta), init_kind, rate))
    return rows


# the writers below take a row's fields, in order, as its CSV columns
def write_success_csv(rows: list[SuccessRow], path) -> None:
    write_csv(path, "m_over_n,algorithm,success_rate,trials", rows)


def write_beta_csv(rows: list[BetaRow], path) -> None:
    write_csv(path, "beta,init,success_rate", rows)


def write_iteration_csv(rows: list[IterationRow], path, timing: bool = True) -> None:
    """Iteration table CSV; timing=False zeroes the wall-clock column so the
    file is byte-reproducible across runs."""
    rows = rows if timing else [r._replace(mean_seconds=0.0) for r in rows]
    write_csv(path, "algorithm,init,threshold,median_iters,mean_seconds", rows)
