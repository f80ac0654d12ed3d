"""Experiment drivers: success-rate sweeps, convergence traces, iteration tables.

Every driver is a deterministic function of its spec: trial seeds derive
from the base seed via the splittable scheme in saflow.measurement, fresh
ground truth and sensing matrices are drawn per trial, and results are
aggregated by trial index, so outputs do not depend on scheduling.

Drivers are trial-major: a trial draws its instance once, builds each init
kind's start once, and solves that instance with every algorithm of the
spec, so each solve sees the same A, y, start and seed as a solve of its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .distances import SUCCESS_THRESHOLD, dist, success
from .measurement import (
    REAL, add_noise, check_field, gen_sensing, gen_signal, magnitudes, observe, trial_seed,
)
from .solvers import DivergedError, GdConfig, InitStrategy, SolveTrace, make_init, solve

ALGORITHMS = ("saf", "wf", "twf", "taf")


def parse_algorithm(name: str) -> tuple[str, str]:
    """Split an algorithm label into (solver, init).

    'saf-random', 'saf-spectral', 'wf', 'twf-spectral', ... Baselines
    default to spectral initialization, the smoothed solver to random.
    """
    base, _, init = name.partition("-")
    if not init and base in ALGORITHMS:
        init = "random" if base == "saf" else "spectral"
    if base not in ALGORITHMS or init not in ("random", "spectral"):
        raise ValueError(f"unknown algorithm {name!r}; algorithms are saf, wf, twf and taf, "
                         f"each with an optional -random or -spectral")
    return base, init


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
    power_iters: int = InitStrategy.power_iters
    beta_grid: tuple = tuple(np.round(np.arange(0.1, 1.01, 0.1), 2))
    m_over_n_random: float = 4.0
    m_over_n_spectral: float = 2.5

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
        for key, values in ratios.items():
            if not (values and all(0 < v < np.inf for v in values)):
                raise ValueError(f"{key} must be finite and positive, got {getattr(self, key)}")
            if any(int(round(v * self.n)) < 1 for v in values):
                raise ValueError(f"{key} must give m = round({key} * n) >= 1 at n={self.n}, "
                                 f"got {getattr(self, key)}")
        if not (self.beta_grid and all(0 < b <= 1 for b in self.beta_grid)):
            raise ValueError(f"beta_grid values must lie in (0, 1], got {self.beta_grid}")
        if not self.algorithms:
            raise ValueError("algorithms must name at least one algorithm")
        for name in self.algorithms:
            parse_algorithm(name)


@dataclass(frozen=True)
class SuccessRow:
    m_over_n: float
    algorithm: str
    success_rate: float
    trials: int


@dataclass(frozen=True)
class IterationRow:
    algorithm: str
    init: str
    threshold: float
    median_iters: float
    mean_seconds: float


class Trial(NamedTuple):
    """One seeded instance and the algorithms that all solve it."""
    n: int
    m: int
    field: str
    algorithms: tuple
    config: GdConfig
    noise_level: float
    power_iters: int
    seed: int
    thresholds: tuple = ()  # relative errors whose first-hit iterations are reported


def _trials(spec: ExperimentSpec, m: int, seeds, **changes) -> list[Trial]:
    """The trial payloads of one driver step, a trial per seed, from the spec."""
    return [Trial(spec.n, m, spec.field, spec.algorithms, spec.config, spec.noise_level,
                  spec.power_iters, seed)._replace(**changes) for seed in seeds]


def _solve_trial(trial: Trial):
    """Draw the trial's instance once and solve it with every algorithm.

    Each init kind's start is built once, timed, and handed to every
    algorithm that starts from it.  Yields (x, trace, diverged, seconds) per
    algorithm, where seconds is the solve time plus the time of its start.
    """
    x = gen_signal(trial.n, trial.field, trial.seed)
    A = gen_sensing(trial.m, trial.n, trial.field, trial.seed)
    obs = add_noise(observe(A, x), trial.noise_level, trial.seed)
    starts = {}
    for algorithm in trial.algorithms:
        base, init_kind = parse_algorithm(algorithm)
        init = InitStrategy(kind=init_kind, power_iters=trial.power_iters)
        if init_kind not in starts:
            t0 = time.perf_counter()
            z0 = make_init(A, magnitudes(obs), init, trial.seed)
            z0.flags.writeable = False  # shared: a solver that wrote to it would raise
            starts[init_kind] = (z0, time.perf_counter() - t0)
        z0, init_seconds = starts[init_kind]
        t0 = time.perf_counter()
        try:
            trace = solve(base, A, obs, trial.config, init, trial.seed, truth=x, z0=z0)
            diverged = False
        except DivergedError as exc:
            trace = exc.trace
            diverged = True
        yield x, trace, diverged, init_seconds + time.perf_counter() - t0


def _run_trial(trial: Trial) -> list[dict]:
    """Summaries of one trial's solves, one per algorithm; used directly and by the pool."""
    results = []
    for x, trace, diverged, seconds in _solve_trial(trial):
        final_err = dist(trace.final, x) / np.linalg.norm(x) if trace.final is not None else np.inf
        results.append({
            "success": (not diverged) and bool(success(trace.final, x, SUCCESS_THRESHOLD)),
            "final_rel_err": float(final_err),
            "iters_to": {thr: trace.iters_to(thr) for thr in trial.thresholds},
            "seconds": seconds,
            "diverged": diverged,
        })
    return results


def _map_trials(trials: list[Trial], threads: int) -> list[list[dict]]:
    """_run_trial over the trials, gathered in trial order."""
    if threads <= 1:
        return [_run_trial(t) for t in trials]
    from concurrent.futures import ProcessPoolExecutor  # not loaded by serial runs
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_run_trial, trials, chunksize=4))


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
        results = _map_trials(_trials(spec, m, seeds), threads)
        for ai, algorithm in enumerate(spec.algorithms):
            rate = sum(r[ai]["success"] for r in results) / spec.trials
            rows.append(SuccessRow(float(mn), algorithm, rate, spec.trials))
    return rows


def run_convergence(spec: ExperimentSpec, noisy_level: float = 0.01) -> dict:
    """Representative traces per algorithm, noiseless and noisy, one instance.

    All algorithms solve the same seeded instance (the canonical comparison
    setup is n=128, m=5n, mu=0.8).  Returns
    {"noiseless": {algorithm: SolveTrace}, "noisy": {...}}.
    """
    m = int(round(spec.m_over_n[0] * spec.n))
    (trial,) = _trials(spec, m, [trial_seed(spec.base_seed, 0)])
    out: dict = {}
    for label, level in (("noiseless", 0.0), ("noisy", noisy_level)):
        traces = _solve_trial(trial._replace(noise_level=level))
        out[label] = {alg: trace for alg, (_, trace, _, _) in zip(spec.algorithms, traces)}
    return out


def run_iteration_table(
    spec: ExperimentSpec, thresholds=(1e-5, 1e-10), threads: int = 1
) -> list[IterationRow]:
    """Median iterations to each relative-error threshold, per algorithm.

    All algorithms solve the same per-trial instances, each drawn once.
    Wall time is reported for context only; it is hardware-dependent.
    """
    thresholds = tuple(thresholds)
    if not (thresholds and all(0 < t < np.inf for t in thresholds)):
        raise ValueError(f"thresholds must be finite and positive, got {thresholds}")
    m = int(round(spec.m_over_n[0] * spec.n))
    stop = replace(spec.config, err_tol=min(thresholds))
    seeds = [trial_seed(spec.base_seed, 0, ti) for ti in range(spec.trials)]
    results = _map_trials(_trials(spec, m, seeds, config=stop, thresholds=thresholds), threads)
    rows = []
    for ai, algorithm in enumerate(spec.algorithms):
        base, init_kind = parse_algorithm(algorithm)
        mean_seconds = float(np.mean([r[ai]["seconds"] for r in results]))
        for thr in thresholds:
            iters = [r[ai]["iters_to"][thr] for r in results]
            rows.append(IterationRow(
                algorithm=base,
                init=init_kind,
                threshold=thr,
                median_iters=float(np.median(iters)),
                mean_seconds=mean_seconds,
            ))
    return rows


@dataclass(frozen=True)
class BetaRow:
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
            trials = _trials(spec, m, seeds, algorithms=(f"saf-{init_kind}",),
                             config=replace(spec.config, beta=float(beta)))
            results = _map_trials(trials, threads)
            rate = sum(r[0]["success"] for r in results) / spec.trials
            rows.append(BetaRow(float(beta), init_kind, rate))
    return rows


def _fmt(x) -> str:
    return repr(float(x))


def write_success_csv(rows: list[SuccessRow], path) -> None:
    with open(path, "w") as fh:
        fh.write("m_over_n,algorithm,success_rate,trials\n")
        for r in rows:
            fh.write(f"{_fmt(r.m_over_n)},{r.algorithm},{_fmt(r.success_rate)},{r.trials}\n")


def write_beta_csv(rows: list[BetaRow], path) -> None:
    with open(path, "w") as fh:
        fh.write("beta,init,success_rate\n")
        for r in rows:
            fh.write(f"{_fmt(r.beta)},{r.init},{_fmt(r.success_rate)}\n")


def write_iteration_csv(rows: list[IterationRow], path, timing: bool = True) -> None:
    """Iteration table CSV; timing=False zeroes the wall-clock column so the
    file is byte-reproducible across runs."""
    with open(path, "w") as fh:
        fh.write("algorithm,init,threshold,median_iters,mean_seconds\n")
        for r in rows:
            secs = r.mean_seconds if timing else 0.0
            fh.write(
                f"{r.algorithm},{r.init},{_fmt(r.threshold)},"
                f"{_fmt(r.median_iters)},{_fmt(secs)}\n"
            )
