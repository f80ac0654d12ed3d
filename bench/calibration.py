"""Machine-speed calibration: fixed kernels timed in the worker, so that
times taken on a busy shared host can be given at a reference speed.

The host's speed swings with other tenants' load, by up to twofold within
minutes and alike for every kind of work (README, *Steadiness*).  A kernel
of the same kind of work as the timed part, timed in the same process next
to it, slows by the same factor; dividing by its time removes the host's
speed and keeps the program's.  Neither kernel calls saflow, so a change to
the program moves the timed part and not the kernel.

- `Calibration` times one of two run kernels before and after every timed
  call, CAL_SAMPLES runs in all: matvecs on the table's 64 MB matrix size
  (`"matvec"`, the work of table-n1000) or batched Monte Carlo draws
  (`"draws"`, the work of verify-all; sweep-n128, run by hand, uses it
  too, untested); `scale` turns the run's wall seconds into reference
  seconds.
- `setup_kernel_s` times interpreter work like an import's (compiling,
  unmarshalling and executing module code), once per worker after its
  set-up.
"""

from __future__ import annotations

import marshal
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

CAL_SHAPE = (8000, 1000)
CAL_MV_PAIRS = 8          # A.T @ (A @ x) products per run of the matvec kernel
CAL_DRAWS = 2_000_000     # normal pairs per run of the draws kernel, one saflow MC batch
CAL_SAMPLES = 24          # kernel runs per run, shared out over the gaps around the timed calls
# each kernel's median time on the quiet reference machine (README)
CAL_REF_S = {"matvec": 0.080, "draws": 0.130}

SETUP_ROUNDS = 5          # the set-up kernel's time is the median of these
SETUP_REF_S = 0.035       # its median time on the quiet reference machine

# module source the set-up kernel compiles and runs: functions, classes and
# dataclasses, as a package's import does
_MODULE_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'k{i}')):\n    return [a * k for k in b]\n\n"
    f"class C{i}:\n    x = {i}\n    def m(self, y):\n        return self.x + y\n\n"
    f"@dataclass(frozen=True)\nclass D{i}:\n    a: int = {i}\n    b: str = 'k{i}'\n"
    for i in range(12))


class Calibration:
    """Times a run kernel; its median over a run is the machine's speed
    during that run."""

    def __init__(self, kind: str, calls: int):
        self.kind = kind
        self.per_gap = math.ceil(CAL_SAMPLES / (calls + 1))
        self._kernel = {"matvec": self._matvec, "draws": self._draws}[kind]
        if kind == "matvec":
            rng = np.random.default_rng(0)
            self.A = rng.standard_normal(CAL_SHAPE)
            self.x = rng.standard_normal(CAL_SHAPE[1])
        self.samples: list[float] = []

    def _matvec(self) -> None:
        for _ in range(CAL_MV_PAIRS):
            self.A.T @ (self.A @ self.x)

    def _draws(self) -> float:
        rng = np.random.default_rng(1)
        v = rng.standard_normal(CAL_DRAWS)
        u = 0.5 * v + 0.8 * rng.standard_normal(CAL_DRAWS)
        vals = np.abs(u * v) * (np.abs(u) <= 0.7 * np.abs(v))
        return float(vals.sum() + (vals * vals).sum())

    def sample(self) -> None:
        for _ in range(self.per_gap):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)

    @property
    def seconds(self) -> float:
        return statistics.median(self.samples)

    @property
    def scale(self) -> float:
        """Reference seconds per wall second of this run."""
        return CAL_REF_S[self.kind] / self.seconds


def setup_kernel_s() -> float:
    """Median time of SETUP_ROUNDS runs of the set-up kernel."""
    times = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        code = compile(_MODULE_SOURCE, "<setup-kernel>", "exec")
        for _ in range(3):
            exec(marshal.loads(marshal.dumps(code)), {"dataclass": dataclass})
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
