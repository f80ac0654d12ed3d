"""Tests of the benchmark itself: the tracer leaves saflow as it found it,
tracing changes no result, and each workload's checks reject wrong output.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import saflow.calculus
import saflow.solvers
import saflow.verify
import run
import tracing
import workloads as wl
from saflow.solvers import GdConfig, IterRecord, SolveTrace


def _saflow_functions():
    return {(key, attr): value for key, mod in list(sys.modules.items())
            if key == "saflow" or key.startswith("saflow.")
            for attr, value in vars(mod).items() if callable(value)}


def _execute(workload, tmp_path, trace=False):
    return wl.execute(workload, workload.calls(tmp_path / "untraced"), tmp_path, trace)


def _small_solve():
    x = np.arange(1.0, 9.0)
    A = np.random.default_rng(0).standard_normal((48, 8))
    return saflow.solvers.gd_saf(A, np.abs(A @ x), GdConfig(max_iter=5), z0=x + 0.1)


def test_tracer_restores_functions_even_when_the_traced_code_raises():
    before = _saflow_functions()
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert saflow.solvers.loss_and_gradient is not before[("saflow.solvers",
                                                                   "loss_and_gradient")]
            _small_solve()
            raise RuntimeError("boom")
    assert _saflow_functions() == before
    assert not tracer.absent
    assert tracer.names[tracer.name_of[0]] == "solvers.gd_saf"


def test_tracer_reports_a_removed_function_as_absent(monkeypatch):
    # a refactor that takes loss_and_gradient out of the loop and the package
    monkeypatch.delattr(saflow.calculus, "loss_and_gradient")
    with tracing.Tracer() as tracer:
        _small_solve()
    assert tracer.absent == ["calculus.loss_and_gradient"]
    metrics = tracing.layer_metrics(tracer, {"trace.overhead_s": 0.0})
    assert metrics["calculus.lg.calls"]["value"] == 0
    assert metrics["distances.dist.us"]["value"] == 0  # gd_saf without truth calls no dist
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}


@pytest.mark.parametrize("make", [lambda: wl.SweepN128(3, 3), lambda: wl.TableN1000(3, 1)])
def test_traced_run_gives_the_same_outputs_as_untraced(make, tmp_path):
    workload = make()
    result = _execute(workload, tmp_path, trace=True)
    assert result["problems"] == []
    for call in workload.calls(tmp_path / "untraced"):
        traced = tmp_path / "traced" / call.output.relative_to(tmp_path / "untraced")
        plain_rows, traced_rows = wl._rows(call.output), wl._rows(traced)
        assert plain_rows == traced_rows  # success rates, median iteration counts
    per_layer = {k: v["value"] for k, v in result["per_layer"].items()}
    assert per_layer["solvers.solves"] == (result["attempted"] - workload.spot_ops) // 2


def _descend_returns_start(algorithm, A, y, z, config, truth, value_grad, step_of):
    """A solver that returns its start (the fault the checks must catch)."""
    trace = SolveTrace(algorithm=algorithm, final=z, reason="max_iter")
    rel = None if truth is None else tracing.phase_aligned_error(z, truth)
    trace.records.append(IterRecord(iter=0, loss=0.0, grad_norm=1.0, rel_err=rel))
    return trace


def test_sweep_rejects_a_solver_that_returns_its_start(monkeypatch, tmp_path):
    monkeypatch.setattr(saflow.solvers, "_descend", _descend_returns_start)
    workload = wl.SweepN128(5, 30)
    result = _execute(workload, tmp_path)
    problems = result["problems"]
    assert any("recovered at m/n=8, floor" in p for p in problems)
    assert any(p.startswith("spot solve real") for p in problems)
    assert any(p.startswith("spot solve complex") for p in problems)
    # the top real and complex points fail all their trials, and both spot solves
    assert result["failed"] == 2 * workload.trials + 2
    assert result["attempted"] == 13 * workload.trials + 2


def test_table_rejects_a_solver_that_returns_its_start(monkeypatch, tmp_path):
    monkeypatch.setattr(saflow.solvers, "_descend", _descend_returns_start)
    result = _execute(wl.TableN1000(5, 20), tmp_path)
    ops = 2 * 5 + wl.SAF_RANDOM_EXTRA  # two five-solver trials and the SAF-random starts
    assert result["attempted"] == ops
    assert result["failed"] == ops
    assert sum("reached 1e-05 after inf and 1e-10 after inf" in p
               for p in result["problems"]) == ops


def test_table_fails_the_trials_of_one_algorithm_that_returns_its_start(monkeypatch,
                                                                          tmp_path):
    descend = saflow.solvers._descend

    def twf_returns_start(algorithm, *args):
        return (_descend_returns_start if algorithm == "twf" else descend)(algorithm, *args)
    monkeypatch.setattr(saflow.solvers, "_descend", twf_returns_start)
    result = _execute(wl.TableN1000(5, 1), tmp_path)
    assert (result["attempted"], result["failed"]) == (5 + wl.SAF_RANDOM_EXTRA, 1)
    assert [p.split(":")[1].split()[0] for p in result["problems"]] == ["twf-spectral"]


def _quick_suites(monkeypatch, force_false=None):
    for name in wl.VERIFY_ROWS:
        suite = getattr(saflow.verify, f"suite_{name}")

        def quick(quick=False, seed=0, suite=suite, name=name):
            rows = suite(quick=True, seed=seed)
            if name == force_false:
                rows[0] = replace(rows[0], passed=False)
            return rows
        monkeypatch.setattr(saflow.verify, f"suite_{name}", quick)


def test_verify_passes_on_good_rows_and_rejects_a_row_forced_false(monkeypatch, tmp_path):
    _quick_suites(monkeypatch)
    good = _execute(wl.VerifyAll(0, 30), tmp_path / "good")
    assert good["problems"] == [] and good["failed"] == 0 and good["attempted"] == 106

    _quick_suites(monkeypatch, force_false="landscape")
    bad = _execute(wl.VerifyAll(0, 30), tmp_path / "bad")
    assert bad["failed"] == 1
    assert bad["problems"] == ["verify row saddle_curvature_negative failed"]


def test_binomial_floor():
    # P(Bin(11, 0.95) <= 5) ~ 5.6e-6 <= 1e-5 < P(Bin(11, 0.95) <= 6) ~ 1.1e-4
    assert wl.binomial_floor(11, 0.95, 1e-5) == 6
    assert wl.binomial_floor(1, 0.95, 1e-5) == 0


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert list(run.WORKLOADS) == list(wl.WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
