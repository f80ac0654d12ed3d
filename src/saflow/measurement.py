"""Gaussian phase-retrieval instances: signals, sensing matrices, magnitude data.

Conventions
-----------
Field tags are the strings ``"real"`` / ``"complex"``.  Real instances use
float64 arrays with i.i.d. N(0,1) entries for both signals and sensing rows.
Complex instances use complex128; signals have N(0,1) real and imaginary
parts (per-entry second moment 2), sensing rows have N(0, 1/2) parts
(per-entry second moment 1), so that E|<a, x>|^2 = ||x||^2 in both fields.

The measurement pairing is ``<a, z> = conj(a) . z``.  `pair` computes it
for every row of A as ``conj(A @ conj(z))``, which conjugates only the
n-vector and the m-vector: real arrays are their own conjugates, so on real
data it is the plain matvec ``A @ z``, and no copy of A is ever made.

Seeding: a single 64-bit base seed is split into independent streams with
numpy's SeedSequence, ``stream_seed = SeedSequence(base_seed, spawn_key)``.
Identical seeds give bit-identical outputs.
"""

from __future__ import annotations

import numpy as np

REAL = "real"
COMPLEX = "complex"


def check_field(field: str) -> str:
    if field not in (REAL, COMPLEX):
        raise ValueError(f"field must be '{REAL}' or '{COMPLEX}', got {field!r}")
    return field


def field_of(arr: np.ndarray) -> str:
    return COMPLEX if np.iscomplexobj(arr) else REAL


def rng_for(seed: int, *spawn_key: int) -> np.random.Generator:
    """Generator for the stream (seed, spawn_key), independent across keys."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def trial_seed(base_seed: int, *key: int) -> int:
    """Derived 64-bit seed for the stream (base_seed, key).

    Distinct keys give independent streams; the same (base_seed, key) always
    maps to the same seed, which keeps experiment sweeps reproducible and
    schedule independent.
    """
    ss = np.random.SeedSequence(base_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def checked_magnitudes(y) -> np.ndarray:
    """y as a float array, raising ValueError at the first non-finite magnitude,
    or else at the first negative one.

    Each solve, spectral initialization and dir_second_derivative check y
    once; the loss, called on every iterate and even in y, only converts it.
    """
    y = np.asarray(y, dtype=float)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"magnitudes must be finite, got y[{bad[0]}] = {y[bad[0]]}")
    bad = np.flatnonzero(y < 0)
    if bad.size:
        raise ValueError(f"magnitudes must be nonnegative, got y[{bad[0]}] = {y[bad[0]]}")
    return y


def pair(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The products <a_i, z> = conj(a_i) . z of every row a_i of A."""
    return (A @ z.conj()).conj()


def _gaussian(shape, field: str, rng: np.random.Generator) -> np.ndarray:
    """Standard Gaussian draws from rng (complex: N(0,1)+iN(0,1) parts)."""
    check_field(field)
    if field == REAL:
        return rng.standard_normal(shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gen_signal(n: int, field: str = REAL, seed: int = 0) -> np.ndarray:
    """Draw a length-n standard Gaussian signal (complex: N(0,1)+iN(0,1) parts)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _gaussian(n, field, rng_for(seed, 0))


def gen_sensing(m: int, n: int, field: str = REAL, seed: int = 0) -> np.ndarray:
    """Draw an m x n sensing matrix; rows are i.i.d. Gaussian vectors.

    Real rows ~ N(0, I_n); complex rows ~ N(0, I_n/2) + i N(0, I_n/2).
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    A = _gaussian((m, n), field, rng_for(seed, 1))
    return A if field == REAL else A / np.sqrt(2.0)


def observe(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Noiseless magnitudes y_i = |<a_i, x>|."""
    if A.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: A is {A.shape}, x has length {x.shape[0]}")
    return np.abs(pair(A, x))


def add_noise(y: np.ndarray, level: float, seed: int = 0) -> np.ndarray:
    """Additive Gaussian noise y_i <- max(y_i + level*g_i, 0).

    The clamp keeps magnitudes nonnegative; at small levels it is almost
    never active.  level = 0 returns y itself.
    """
    if not (np.isfinite(level) and level >= 0):
        raise ValueError(f"noise level must be finite and nonnegative, got {level}")
    if level == 0:
        return y
    g = rng_for(seed, 2).standard_normal(y.shape[0])
    return np.maximum(y + level * g, 0.0)

