"""Fixed-step gradient descent solvers: smoothed amplitude flow and baselines.

Each algorithm is one entry of ALGORITHMS (its value and gradient, its step
rule and its default init), and every solve runs `solve` on that entry from
a start that `make_init` builds.

All solvers share the trace contract: every solve returns a SolveTrace that
records one entry per visited finite iterate (including the initial guess),
the final iterate, and the stop reason; divergence (an iterate, its loss or
its gradient not finite) is the reason "diverged", not an exception.
Stopping tests are evaluated at each iterate before updating, so a start at
the global minimizer terminates at iteration 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import constants as C
from .calculus import DEFAULT_BETA, loss_and_gradient
from .distances import dist
from .measurement import REAL, _gaussian, checked_magnitudes, field_of, pair, rng_for
from .parallel import matvec
from .reporting import write_csv

POWER_ITERS = 50  # the default number of spectral-init power iterations


@dataclass(frozen=True)
class GdConfig:
    """Hyperparameters for a gradient-descent solve.

    err_tol stops on relative error and is only meaningful when the ground
    truth is supplied (experiment runs); grad_tol defaults to a value small
    enough to be inert, so experiment stops are error-driven.
    """

    mu: float = 0.6
    beta: float = DEFAULT_BETA
    max_iter: int = 2000
    grad_tol: float = 1e-14
    err_tol: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"step size mu must be finite and positive, got {self.mu}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.grad_tol >= 0:  # NaN fails this too
            raise ValueError(f"grad_tol must be nonnegative, got {self.grad_tol}")
        if self.err_tol is not None and not (np.isfinite(self.err_tol) and self.err_tol > 0):
            raise ValueError(f"err_tol must be finite and positive, got {self.err_tol}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")


class IterRecord(NamedTuple):
    iter: int
    loss: float
    grad_norm: float
    rel_err: float | None = None


@dataclass
class SolveTrace:
    algorithm: str
    records: list[IterRecord] = field(default_factory=list)
    final: np.ndarray | None = None
    reason: str = ""  # "grad_tol" | "err_tol" | "max_iter" | "diverged"

    @property
    def iterations(self) -> int:
        return self.records[-1].iter if self.records else 0

    def iters_to(self, threshold: float) -> float:
        """First iteration whose relative error is <= threshold (inf if never)."""
        for rec in self.records:
            if rec.rel_err is not None and rec.rel_err <= threshold:
                return rec.iter
        return float("inf")

    def write_csv(self, path) -> None:
        write_csv(path, "iter,grad_norm,rel_err",
                  ((r.iter, r.grad_norm, r.rel_err) for r in self.records))


def random_init(n: int, field_tag: str = REAL, seed: int = 0) -> np.ndarray:
    """Standard Gaussian initial guess, independent of the data."""
    return _gaussian(n, field_tag, rng_for(seed, 3))


def spectral_init(A: np.ndarray, y, power_iters: int = POWER_ITERS,
                  seed: int = 0) -> np.ndarray:
    """Leading-eigenvector initial guess of Y = mean_i y_i^2 a_i a_i^H.

    Estimated with power iterations from a seeded Gaussian start, then
    scaled to norm sqrt(mean y^2), which matches ||x|| in expectation under
    both field conventions.
    """
    y = checked_magnitudes(y)
    if power_iters < 1:
        raise ValueError("power_iters must be >= 1")
    if not np.any(y > 0):
        raise ValueError("degenerate input: all magnitudes are zero")
    m, n = A.shape
    y2 = y * y
    v = random_init(n, field_of(A), seed)
    v /= np.linalg.norm(v)
    for _ in range(power_iters):
        v = matvec(A.T, y2 * pair(A, v)) / m
        v /= np.linalg.norm(v)
    return float(np.sqrt(np.mean(y2))) * v


def make_init(A, y, kind: str, seed: int, power_iters: int = POWER_ITERS) -> np.ndarray:
    """The start of init kind 'random' or 'spectral' on the instance (A, y)."""
    if kind == "random":
        return random_init(A.shape[1], field_of(A), seed)
    if kind == "spectral":
        return spectral_init(A, y, power_iters, seed)
    raise ValueError(f"unknown init kind {kind!r}; init kinds are random, spectral")


def _descend(algorithm, A, y, z, config, truth, value_grad, step_of):
    """Shared fixed-step descent loop with trace recording.

    value_grad(z) -> (loss, grad); step_of(k) -> step size for update k.
    """
    trace = SolveTrace(algorithm=algorithm)
    norm_truth = np.linalg.norm(truth) if truth is not None else None
    for k in range(config.max_iter + 1):
        if not np.all(np.isfinite(z)):  # no record: its loss and error are not numbers
            trace.reason = "diverged"
            break
        f, g = value_grad(z)
        gnorm = float(np.linalg.norm(g))
        rel = float(dist(z, truth) / norm_truth) if truth is not None else None
        trace.records.append(IterRecord(iter=k, loss=f, grad_norm=gnorm, rel_err=rel))
        if not np.isfinite(f) or not np.isfinite(gnorm):
            trace.reason = "diverged"
            break
        if gnorm < config.grad_tol:
            trace.reason = "grad_tol"
            break
        if rel is not None and config.err_tol is not None and rel <= config.err_tol:
            trace.reason = "err_tol"
            break
        if k == config.max_iter:
            trace.reason = "max_iter"
            break
        z = z - step_of(k) * g
    trace.final = z
    return trace


def _wf(A, w, y, z):
    r = np.abs(w) ** 2 - y * y
    return float(np.mean(r * r) / 2.0), matvec(A.T, r * w) / y.shape[0]


def _taf(A, w, y, z):
    aw = np.abs(w)
    keep = aw >= y / (1.0 + C.TAF_GAMMA)
    f = float(np.mean((aw - y) ** 2) / 2.0)
    ph = np.where(aw > 0, w / np.where(aw > 0, aw, 1.0), 0.0)
    return f, matvec(A.T, np.where(keep, w - y * ph, 0.0)) / y.shape[0]


def _twf(A, w, y, z):
    aw = np.abs(w)
    r = aw * aw - y * y
    f = float(np.mean(r * r) / 2.0)
    nz = np.linalg.norm(z)
    K = np.mean(np.abs(r))
    keep = (aw >= C.TWF_ALPHA_LB * nz) & (aw <= C.TWF_ALPHA_UB * nz)
    keep &= np.abs(r) <= C.TWF_ALPHA_H * K * aw / nz
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff = np.where(keep & (aw > 0), r * w / np.where(aw > 0, aw * aw, 1.0), 0.0)
    return f, (2.0 / y.shape[0]) * matvec(A.T, coeff)


def _baseline(rule):
    """The value-and-gradient builder of a comparison solver whose
    rule(A, w, y, z) gives the loss and gradient at z from the products
    w = <a_i, z>."""
    return lambda A, y, config: lambda z: rule(A, pair(A, z), y, z)


def _wf_step(config, z0):
    nz0sq = float(np.linalg.norm(z0) ** 2)
    return lambda k: min(1.0 - np.exp(-(k + 1) / C.WF_K0), C.WF_MU_MAX) / nz0sq


class Algorithm(NamedTuple):
    value_grad: Callable  # (A, y, config) -> value_grad(z) -> (loss, gradient)
    step: Callable  # (config, z0) -> step_of(k), the step size of update k
    init: str  # the init kind of a label without one


# SAF takes its step size from the config; the baselines take theirs and
# their truncation thresholds from the published defaults in saflow.constants
ALGORITHMS = {
    "saf": Algorithm(lambda A, y, config: lambda z: loss_and_gradient(z, A, y, config.beta),
                     lambda config, z0: lambda k: config.mu, "random"),
    "wf": Algorithm(_baseline(_wf), _wf_step, "spectral"),
    "twf": Algorithm(_baseline(_twf), lambda config, z0: lambda k: C.TWF_MU, "spectral"),
    "taf": Algorithm(_baseline(_taf), lambda config, z0: lambda k: C.TAF_MU, "spectral"),
}


def parse_algorithm(label: str) -> tuple[str, str]:
    """Split an algorithm label ('saf-random', 'wf', 'twf-spectral', ...) into
    (algorithm, init kind); a bare name gets the algorithm's default init."""
    name, dash, init = label.partition("-")
    if name in ALGORITHMS and dash + init in ("", "-random", "-spectral"):
        return name, init or ALGORITHMS[name].init
    raise ValueError(f"unknown algorithm {label!r}; algorithms are {', '.join(ALGORITHMS)}, "
                     f"each with an optional -random or -spectral")


def solve(algorithm: str, A: np.ndarray, y, config: GdConfig, z0: np.ndarray,
          truth: np.ndarray | None = None) -> SolveTrace:
    """Run the ALGORITHMS entry `algorithm` from the start z0, which no
    solver writes to.

    config supplies max_iter and the stopping tolerances, and SAF's step
    size and beta.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; algorithms are {', '.join(ALGORITHMS)}")
    entry = ALGORITHMS[algorithm]
    y = checked_magnitudes(y)
    return _descend(algorithm, A, y, z0, config, truth, entry.value_grad(A, y, config),
                    entry.step(config, z0))


def gd_saf(A: np.ndarray, y, config: GdConfig, z0: np.ndarray,
           truth: np.ndarray | None = None) -> SolveTrace:
    """Fixed-step gradient descent z <- z - mu * grad F(z) on the smoothed loss."""
    return solve("saf", A, y, config, z0, truth)


def baseline_solve(kind: str, A: np.ndarray, y, config: GdConfig, z0: np.ndarray,
                   truth: np.ndarray | None = None) -> SolveTrace:
    """Run one of the comparison solvers, 'wf', 'twf' or 'taf', by name."""
    return solve(kind, A, y, config, z0, truth)
