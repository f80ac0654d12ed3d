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

import struct
from dataclasses import dataclass

import numpy as np

REAL = "real"
COMPLEX = "complex"

_DUMP_MAGIC = b"SAFD"


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


@dataclass(frozen=True)
class Observations:
    """Nonnegative magnitude data y_i = |<a_i, x>|, plus noise metadata."""

    y: np.ndarray
    noise_level: float = 0.0

    def __post_init__(self):
        y = checked_magnitudes(self.y)
        object.__setattr__(self, "y", y)
        if self.noise_level < 0:
            raise ValueError("noise_level must be nonnegative")
        if self.noise_level == 0 and y.size and y.min() < 0:
            raise ValueError("noiseless magnitudes must be nonnegative")

    @property
    def m(self) -> int:
        return self.y.shape[0]


def magnitudes(y) -> np.ndarray:
    """Accept either an Observations or a bare array of magnitudes.

    Unchecked, as the loss calls it on every iterate; an Observations, each
    solve and each spectral initialization use `checked_magnitudes` once.
    """
    return y.y if isinstance(y, Observations) else np.asarray(y, dtype=float)


def checked_magnitudes(y) -> np.ndarray:
    """magnitudes(y), raising ValueError at the first non-finite one."""
    y = magnitudes(y)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"magnitudes must be finite, got y[{bad[0]}] = {y[bad[0]]}")
    return y


def pair(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The products <a_i, z> = conj(a_i) . z of every row a_i of A."""
    return (A @ z.conj()).conj()


def gen_signal(n: int, field: str = REAL, seed: int = 0) -> np.ndarray:
    """Draw a length-n standard Gaussian signal (complex: N(0,1)+iN(0,1) parts)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_field(field)
    rng = rng_for(seed, 0)
    if field == REAL:
        return rng.standard_normal(n)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def gen_sensing(m: int, n: int, field: str = REAL, seed: int = 0) -> np.ndarray:
    """Draw an m x n sensing matrix; rows are i.i.d. Gaussian vectors.

    Real rows ~ N(0, I_n); complex rows ~ N(0, I_n/2) + i N(0, I_n/2).
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    check_field(field)
    rng = rng_for(seed, 1)
    if field == REAL:
        return rng.standard_normal((m, n))
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def observe(A: np.ndarray, x: np.ndarray) -> Observations:
    """Noiseless magnitudes y_i = |<a_i, x>|."""
    if A.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: A is {A.shape}, x has length {x.shape[0]}")
    return Observations(y=np.abs(pair(A, x)), noise_level=0.0)


def add_noise(obs: Observations, level: float, seed: int = 0) -> Observations:
    """Additive Gaussian noise y_i <- max(y_i + level*g_i, 0).

    The clamp keeps magnitudes nonnegative; at small levels it is almost
    never active.  level = 0 returns the input unchanged.
    """
    if not (np.isfinite(level) and level >= 0):
        raise ValueError(f"noise level must be finite and nonnegative, got {level}")
    if level == 0:
        return obs
    g = rng_for(seed, 2).standard_normal(obs.m)
    return Observations(y=np.maximum(obs.y + level * g, 0.0), noise_level=level)


def dump_trial(path, x: np.ndarray, A: np.ndarray, y) -> None:
    """Binary dump of one instance (x, A, y), replayable via load_trial.

    Layout: 16-byte header {magic b"SAFD", u32 m, u32 n, u8 field, 3 pad}
    then little-endian float64 arrays x, A (row-major), y.  Complex scalars
    are stored as interleaved (re, im) pairs.
    """
    y = magnitudes(y)
    m, n = A.shape
    field = field_of(A)
    header = struct.pack("<4sIIB3x", _DUMP_MAGIC, m, n, 1 if field == COMPLEX else 0)
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (x, A, y):
            if np.iscomplexobj(arr):
                fh.write(np.ascontiguousarray(arr, dtype="<c16").tobytes())
            else:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_trial(path):
    """Read back a dump_trial file; returns (x, A, Observations).

    Raises ValueError unless the file holds exactly the header and the
    payload its header describes.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the 16-byte header")
    magic, m, n, fcode = struct.unpack_from("<4sIIB3x", raw)
    if magic != _DUMP_MAGIC:
        raise ValueError(f"bad magic {magic!r} in {path}")
    dt = np.dtype("<c16") if fcode else np.dtype("<f8")
    expected = 16 + (n + m * n) * dt.itemsize + m * 8
    if len(raw) != expected:
        raise ValueError(f"{path}: header gives m={m} n={n}, so {expected} bytes "
                         f"are expected, but the file has {len(raw)}")
    out = np.complex128 if fcode else np.float64
    x = np.frombuffer(raw, dtype=dt, count=n, offset=16).astype(out)
    A = np.frombuffer(raw, dtype=dt, count=m * n, offset=16 + n * dt.itemsize)
    A = A.reshape(m, n).astype(out)
    y = np.frombuffer(raw, dtype="<f8", count=m, offset=expected - m * 8).astype(np.float64)
    return x, A, Observations(y=y, noise_level=0.0)
