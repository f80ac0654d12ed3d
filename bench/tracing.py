"""Span tracing of saflow's layers, installed from outside the package.

`Tracer` wraps the public functions listed in `TARGETS` in every saflow
namespace that holds them (a function imported with ``from .x import f``
lives in several module dicts), records one span per call and puts the
original functions back on exit.  A span is (name, parent, start, end) in
nanoseconds of ``time.perf_counter_ns``; spans are kept in flat arrays in
memory and written out once, at the end, by `Tracer.save`.  A target the
package no longer has is listed in `Tracer.absent` and the run goes on.

`layer_metrics` turns the spans into the per-layer figures of the
benchmark.  A layer's self time is its span's duration minus the durations
of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# layer -> public functions whose calls are recorded
TARGETS = {
    "cli": ("main",),
    "metrics": ("run_success_sweep", "run_iteration_table"),
    "measurement": ("gen_signal", "gen_sensing", "observe", "trial_seed"),
    "solvers": ("solve", "gd_saf", "baseline_solve", "spectral_init", "random_init"),
    "calculus": ("loss_and_gradient", "loss", "gradient", "psi", "psi_u", "check_beta",
                 "phi", "dir_second_derivative"),
    "distances": ("dist", "success"),
    "landscape": ("mc_indicator_expectation", "mc_indicator_rate_fd",
                  "indicator_expectation_rate", "alignment_prefactor",
                  "expected_alignment_gradient", "rational_integral", "landscape_scan"),
    "verify": ("run_suite", "suite_calculus", "suite_expectations", "suite_landscape",
               "suite_appendix"),
}

MC = ("landscape.mc_indicator_expectation", "landscape.mc_indicator_rate_fd")
QUAD = ("landscape.indicator_expectation_rate", "landscape.alignment_prefactor",
        "landscape.expected_alignment_gradient", "landscape.rational_integral")
SUITES = ("calculus", "expectations", "landscape", "appendix")
SOLVE = "solvers.solve"
INITS = ("solvers.spectral_init", "solvers.random_init")
LG = "calculus.loss_and_gradient"
RECOVERY_THRESHOLD = 1e-5  # relative phase-aligned error that counts as recovered

# (name, unit) of every per-layer metric, in the order they are reported
PER_LAYER = (
    ("calculus.lg.calls", "count"),
    ("calculus.lg.us", "us"),
    ("calculus.matvec.us", "us"),
    ("calculus.elementwise.us", "us"),
    ("calculus.check_beta.us", "us"),
    ("distances.dist.us", "us"),
    ("solvers.self.us", "us"),
    ("solvers.baseline.iter.us", "us"),
    ("solvers.spectral_init.ms", "ms"),
    ("solvers.solves", "count"),
    ("solvers.iterations", "count"),
    ("solvers.solve.ms.p50", "ms"),
    ("solvers.solve.ms.p90", "ms"),
    ("solvers.recovered_iter_fraction", "ratio"),
    ("measurement.ms", "ms"),
    ("measurement.calls", "count"),
    ("metrics.self.ms", "ms"),
    ("cli.self.ms", "ms"),
    ("landscape.mc.samples", "count"),
    ("landscape.mc.samples_per_s", "1/s"),
    ("landscape.quad.ms", "ms"),
    ("landscape.scan.ms", "ms"),
    ("verify.calculus.ms", "ms"),
    ("verify.expectations.ms", "ms"),
    ("verify.landscape.ms", "ms"),
    ("verify.appendix.ms", "ms"),
    ("verify.self.ms", "ms"),
    ("trace.overhead_s", "s"),
    ("run.wall_s", "s"),
    ("calib.ms", "ms"),
)


def phase_aligned_error(z, x) -> float:
    """min over unit scalars c of ||z - c x|| / ||x||, computed apart from saflow."""
    z = np.asarray(z)
    x = np.asarray(x)
    ip = np.vdot(x, z)
    c = ip / abs(ip) if abs(ip) > 0 else 1.0  # a sign on real data
    return float(np.linalg.norm(z - c * x) / np.linalg.norm(x))


def _solve_note(sig):
    def note(args, kwargs, result, exc):
        bound = sig.bind(*args, **kwargs)
        trace = result if exc is None else getattr(exc, "trace", None)
        done = trace is not None
        return {
            "algorithm": bound.arguments["algorithm"],
            "iterations": trace.iterations if done else 0,
            "records": len(trace.records) if done else 0,
            "final": trace.final if done else None,
            "truth": bound.arguments.get("truth"),
            "raised": exc is not None,
        }
    return note


def _samples_note(sig):
    def note(args, kwargs, result, exc):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"samples": int(bound.arguments["samples"])}
    return note


NOTES = {SOLVE: _solve_note, **{name: _samples_note for name in MC}}


class Tracer:
    """Context manager that records spans of saflow's public functions."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.notes: dict[int, dict] = {}
        self.absent: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "saflow" or key.startswith("saflow."))]
        for layer, funcs in TARGETS.items():
            home = sys.modules.get(f"saflow.{layer}")
            for func in funcs:
                name = f"{layer}.{func}"
                fn = getattr(home, func, None) if home is not None else None
                if not callable(fn):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, fn = self._patches.pop()
            setattr(mod, attr, fn)

    def _wrap(self, name: str, fn):
        sid = len(self.names)
        self.names.append(name)
        make_note = NOTES.get(name)
        note = make_note(inspect.signature(fn)) if make_note else None
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, notes, clock = self._stack, self.notes, time.perf_counter_ns

        def span(*args, **kwargs):
            idx = len(name_of)
            name_of.append(sid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        if note is None:
            return functools.wraps(fn)(span)

        def noted(*args, **kwargs):  # the note is taken outside the span
            idx = len(name_of)
            result = exc = None
            try:
                result = span(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                notes[idx] = note(args, kwargs, result, exc)

        return functools.wraps(fn)(noted)

    def arrays(self):
        """Spans as numpy arrays: name index, parent index (-1 at the root), start, end."""
        return (np.frombuffer(self.name_of, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.int64).copy(),
                np.frombuffer(self.end, dtype=np.int64).copy())

    def save(self, path) -> None:
        name_of, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name_of, parent=parent,
                            start_ns=start, end_ns=end, absent=np.array(self.absent, dtype=str))


def _propagate(parent: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """For each span, the value of `seed` at its nearest ancestor-or-self where
    seed >= 0 (else -1).  Parents precede children, so a few passes settle it."""
    out = seed.copy()
    has_parent = parent >= 0
    while True:
        inherit = (out < 0) & has_parent
        if not inherit.any():
            return out
        new = np.where(inherit, out[np.where(has_parent, parent, 0)], out)
        if np.array_equal(new, out):
            return out
        out = new


def layer_metrics(tracer: Tracer, run_figures: dict) -> dict:
    """Per-layer figures from the recorded spans, a layer with no spans
    reading 0, and `run_figures` (the trace.overhead_s, run.wall_s and
    calib.ms of the run, which come from outside the spans)."""
    name_of, parent, start, end = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    dur = (end - start).astype(float)
    has_parent = parent >= 0
    parent_or_0 = np.where(has_parent, parent, 0)
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=dur.size)
    layer_of = np.array([name.split(".", 1)[0] for name in tracer.names] + [""])
    layer = layer_of[name_of]
    parent_name = np.where(has_parent, name_of[parent_or_0], -1)

    def where(*wanted):
        return np.isin(name_of, [ids[name] for name in wanted if name in ids])

    def total(mask, arr=dur):
        return float(arr[mask].sum())

    def top_level(mask):
        """Spans of `mask` not nested in another span of `mask`."""
        inside = _propagate(parent, np.where(mask, np.arange(dur.size), -1))
        return mask & (np.where(has_parent, inside[parent_or_0], -1) < 0)

    out = {name: 0.0 for name, _ in PER_LAYER}
    us, ms = 1e-3, 1e-6

    lg = where(LG)
    n_lg = int(lg.sum())
    if n_lg:
        under_lg = _propagate(parent, np.where(lg, np.arange(dur.size), -1)) >= 0
        out["calculus.lg.calls"] = n_lg
        out["calculus.lg.us"] = total(lg) * us / n_lg
        out["calculus.matvec.us"] = total(lg, self_time) * us / n_lg
        elem = where("calculus.psi", "calculus.psi_u") & (parent_name == ids[LG])
        out["calculus.elementwise.us"] = total(elem, self_time) * us / n_lg
        out["calculus.check_beta.us"] = total(
            where("calculus.check_beta") & under_lg) * us / n_lg

    dist = where("distances.dist")
    if dist.any():
        out["distances.dist.us"] = total(dist) * us / int(dist.sum())

    solve_idx = np.flatnonzero(where(SOLVE))
    if solve_idx.size:
        notes = [tracer.notes[int(i)] for i in solve_idx]
        root = _propagate(parent, np.where(where(SOLVE), np.arange(dur.size), -1))
        loop = (layer == "solvers") & ~where(*INITS) & (root >= 0)
        saf = np.array([n["algorithm"] == "saf" for n in notes])
        records = np.array([n["records"] for n in notes], dtype=float)
        iters = np.array([n["iterations"] for n in notes], dtype=float)
        for metric, kind in (("solvers.self.us", saf), ("solvers.baseline.iter.us", ~saf)):
            if records[kind].sum() > 0:
                in_kind = loop & np.isin(root, solve_idx[kind])
                out[metric] = total(in_kind, self_time) * us / records[kind].sum()
        solve_ms = dur[solve_idx] * ms
        out["solvers.solves"] = int(solve_idx.size)
        out["solvers.iterations"] = int(iters.sum())
        out["solvers.solve.ms.p50"] = float(np.median(solve_ms))
        if solve_idx.size >= 100:  # ten solves beyond the 90th percentile
            out["solvers.solve.ms.p90"] = float(np.percentile(solve_ms, 90))
        recovered = np.array([
            not n["raised"] and n["truth"] is not None and n["final"] is not None
            and phase_aligned_error(n["final"], n["truth"]) <= RECOVERY_THRESHOLD
            for n in notes])
        if iters.sum() > 0:
            out["solvers.recovered_iter_fraction"] = float(iters[recovered].sum() / iters.sum())

    spectral = where("solvers.spectral_init")
    if spectral.any():
        out["solvers.spectral_init.ms"] = total(spectral) * ms / int(spectral.sum())

    measurement = layer == "measurement"
    out["measurement.calls"] = int(measurement.sum())
    out["measurement.ms"] = total(top_level(measurement)) * ms
    out["metrics.self.ms"] = total(layer == "metrics", self_time) * ms
    out["cli.self.ms"] = total(layer == "cli", self_time) * ms

    mc = top_level(where(*MC))
    samples = sum(tracer.notes[int(i)]["samples"] for i in np.flatnonzero(mc))
    out["landscape.mc.samples"] = int(samples)
    if samples:
        out["landscape.mc.samples_per_s"] = samples / (total(mc) * 1e-9)
    out["landscape.quad.ms"] = total(top_level(where(*QUAD))) * ms
    out["landscape.scan.ms"] = total(where("landscape.landscape_scan")) * ms
    for suite in SUITES:
        out[f"verify.{suite}.ms"] = total(where(f"verify.suite_{suite}")) * ms
    out["verify.self.ms"] = total(layer == "verify", self_time) * ms

    out.update((name, float(value)) for name, value in run_figures.items())
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}
