import argparse
import csv
import json
from pathlib import Path

import pytest

import saflow.verify as vf
from blas_core import golden_mismatch
from saflow.cli import build_parser, main
from saflow.constants import SUITES

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse/config errors surface as SystemExit
        return exc.code


def test_solve_writes_trace_and_summary(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["solve", "--n", "32", "--m", "192", "--field", "real",
                    "--beta", "0.5", "--mu", "0.6", "--max-iter", "2000",
                    "--algorithm", "saf-random", "--seed", "7", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["success"] is True
    assert summary["final_rel_err"] <= 1e-5
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iter,grad_norm,rel_err"
    assert summary["iters"] == int(lines[-1].split(",")[0])


def test_solve_deterministic_outputs(tmp_path):
    args = ["solve", "--n", "24", "--m", "144", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_solve_defaults_match_golden(tmp_path):
    # every flag but --n, --m and --seed at its default (tests/golden/README.md)
    assert run_cli(["solve", "--n", "24", "--m", "144", "--seed", "5",
                    "--out", str(tmp_path)]) == 0
    for name in ("trace.csv", "summary.json"):
        got = (tmp_path / name).read_bytes()
        assert got == (GOLDEN / f"solve_{name}").read_bytes(), golden_mismatch(f"solve_{name}")


def test_complex_solve_matches_golden(tmp_path):
    # written before the pairing conjugated the vector rather than the matrix
    assert run_cli(["solve", "--field", "complex", "--n", "24", "--m", "144", "--seed", "5",
                    "--out", str(tmp_path)]) == 0
    for name in ("trace.csv", "summary.json"):
        got = (tmp_path / name).read_bytes()
        assert got == (GOLDEN / f"solve_complex_{name}").read_bytes(), \
            golden_mismatch(f"solve_complex_{name}")


def test_solve_rejects_zero_m(tmp_path):
    code = run_cli(["solve", "--n", "16", "--m", "0", "--out", str(tmp_path)])
    assert code == 2


def test_solve_unknown_algorithm(tmp_path):
    code = run_cli(["solve", "--n", "16", "--m", "64", "--algorithm", "lift",
                    "--out", str(tmp_path)])
    assert code == 2


def test_solve_rejects_a_label_that_ends_in_a_dash(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["solve", "--n", "8", "--m", "48", "--algorithm", "wf-", "--out", str(out)])
    assert code == 2
    assert "'wf-'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_solve_divergence_exits_1_with_trace(tmp_path):
    code = run_cli(["solve", "--n", "16", "--m", "80", "--mu", "50", "--seed", "1",
                    "--out", str(tmp_path)])
    assert code == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["reason"] == "diverged"
    assert summary["success"] is False
    assert (tmp_path / "trace.csv").exists()


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_solve_non_finite_error_writes_strict_json(tmp_path, capsys):
    # at mu=1e300 the first step overflows: the final iterate is not finite
    code = run_cli(["solve", "--n", "8", "--m", "40", "--mu", "1e300", "--seed", "1",
                    "--out", str(tmp_path)])
    assert code == 1
    for text in ((tmp_path / "summary.json").read_text(), capsys.readouterr().out):
        summary = json.loads(text, parse_constant=_no_constant)
        assert summary["reason"] == "diverged"
        assert summary["final_rel_err"] is None


def test_sweep_success_mode(tmp_path):
    cfg = {
        "mode": "success", "n": 16, "m_over_n": [2, 6], "trials": 4,
        "mu": 0.6, "beta": 0.5, "max_iter": 800, "base_seed": 0,
        "algorithms": ["saf-random"],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["sweep", str(path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "success.csv").read_text().splitlines()
    assert lines[0] == "m_over_n,algorithm,success_rate,trials"
    assert len(lines) == 3


def test_sweep_beta_mode(tmp_path):
    cfg = {
        "mode": "beta", "n": 12, "trials": 2, "mu": 0.6, "max_iter": 500,
        "beta_grid": [0.5], "m_over_n_random": 6, "m_over_n_spectral": 4,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["sweep", str(path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "beta.csv").read_text().splitlines()
    assert lines[0] == "beta,init,success_rate"
    assert len(lines) == 3


def test_sweep_schema_violation_reports_path(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "success", "n": 16, "m_over_n": []}))
    assert run_cli(["sweep", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "m_over_n" in err


def test_sweep_missing_required_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "success"}))
    assert run_cli(["sweep", str(path), "--out", str(tmp_path)]) == 2


def test_sweep_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "success", "n": 16, "stepsize": 0.6}))
    assert run_cli(["sweep", str(path), "--out", str(tmp_path)]) == 2


def test_bench_deterministic_without_timing(tmp_path):
    cfg = {"n": 16, "m_over_n": 8, "trials": 3, "mu": 0.8, "max_iter": 1000,
           "algorithms": ["saf-random", "taf"]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["bench", str(path), "--out", str(a), "--no-timing"]) == 0
    assert run_cli(["bench", str(path), "--out", str(b), "--no-timing"]) == 0
    assert (a / "iterations.csv").read_bytes() == (b / "iterations.csv").read_bytes()
    header = (a / "iterations.csv").read_text().splitlines()[0]
    assert header == "algorithm,init,threshold,median_iters,mean_seconds"


def _write_json(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def test_bench_five_solvers_matches_golden(tmp_path):
    # written before the drivers became trial-major (tests/golden/README.md)
    cfg = {"n": 64, "m_over_n": 8, "trials": 3, "mu": 0.8, "max_iter": 2000,
           "algorithms": ["saf-random", "saf-spectral", "wf", "twf", "taf"]}
    path = _write_json(tmp_path / "cfg.json", cfg)
    assert run_cli(["bench", path, "--out", str(tmp_path), "--no-timing"]) == 0
    got = (tmp_path / "iterations.csv").read_bytes()
    assert got == (GOLDEN / "bench_five_solvers.csv").read_bytes(), \
        golden_mismatch("bench_five_solvers.csv")


def test_sweep_two_algorithms_matches_golden(tmp_path):
    cfg = {"mode": "success", "n": 32, "m_over_n": [3, 6], "trials": 4, "mu": 0.6,
           "max_iter": 1000, "algorithms": ["saf-random", "taf-spectral"]}
    path = _write_json(tmp_path / "cfg.json", cfg)
    assert run_cli(["sweep", path, "--out", str(tmp_path)]) == 0
    got = (tmp_path / "success.csv").read_bytes()
    assert got == (GOLDEN / "sweep_two_algorithms.csv").read_bytes(), \
        golden_mismatch("sweep_two_algorithms.csv")


def test_complex_sweep_four_algorithms_matches_golden(tmp_path):
    cfg = {"mode": "success", "field": "complex", "n": 16, "m_over_n": [4, 8], "trials": 4,
           "algorithms": ["saf-random", "wf", "twf", "taf-spectral"]}
    path = _write_json(tmp_path / "cfg.json", cfg)
    assert run_cli(["sweep", path, "--out", str(tmp_path)]) == 0
    got = (tmp_path / "success.csv").read_bytes()
    assert got == (GOLDEN / "sweep_complex.csv").read_bytes(), golden_mismatch("sweep_complex.csv")


def test_complex_bench_four_algorithms_matches_golden(tmp_path):
    cfg = {"n": 16, "field": "complex", "m_over_n": 8, "trials": 3, "mu": 0.8,
           "algorithms": ["saf-random", "wf", "twf", "taf"]}
    path = _write_json(tmp_path / "cfg.json", cfg)
    assert run_cli(["bench", path, "--out", str(tmp_path), "--no-timing"]) == 0
    got = (tmp_path / "iterations.csv").read_bytes()
    assert got == (GOLDEN / "bench_complex.csv").read_bytes(), golden_mismatch("bench_complex.csv")


def test_sweep_beta_mode_matches_golden(tmp_path):
    # every key but n, trials and beta_grid at its default (tests/golden/README.md)
    cfg = {"mode": "beta", "n": 16, "trials": 4, "beta_grid": [0.2, 0.4, 0.6]}
    path = _write_json(tmp_path / "cfg.json", cfg)
    assert run_cli(["sweep", path, "--out", str(tmp_path)]) == 0
    got = (tmp_path / "beta.csv").read_bytes()
    assert got == (GOLDEN / "sweep_beta.csv").read_bytes(), golden_mismatch("sweep_beta.csv")


def test_bench_custom_thresholds(tmp_path):
    cfg = {"n": 16, "m_over_n": 8, "trials": 3, "mu": 0.8, "max_iter": 1000,
           "thresholds": [1e-3, 1e-8], "algorithms": ["saf-random", "taf"]}
    path = _write_json(tmp_path / "cfg.json", cfg)
    assert run_cli(["bench", path, "--out", str(tmp_path), "--no-timing"]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "iterations.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[2]) for r in rows] == [
        ("saf", "0.001"), ("saf", "1e-08"), ("taf", "0.001"), ("taf", "1e-08")]
    for loose, tight in (rows[0:2], rows[2:4]):
        assert 0 < float(loose[3]) <= float(tight[3]) < float("inf")


@pytest.mark.parametrize("flag,value,name", [
    ("--mu", "nan", "mu"), ("--mu", "inf", "mu"), ("--grad-tol", "nan", "grad_tol"),
    ("--err-tol", "-1", "err_tol"), ("--err-tol", "0", "err_tol"),
    ("--err-tol", "inf", "err_tol"), ("--err-tol", "nan", "err_tol"),
    ("--noise", "-1", "noise level"), ("--noise", "nan", "noise level"),
    ("--noise", "inf", "noise level"),
])
def test_solve_rejects_bad_solver_settings(tmp_path, capsys, flag, value, name):
    out = tmp_path / "run"
    code = run_cli(["solve", "--n", "8", "--m", "48", flag, value, "--out", str(out)])
    assert code == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "4", "--m", "8", "--seed", "-1"],
    ["verify", "calculus", "--quick", "--seed", "-1"],
])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_nan_step_in_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"mode": "success", "n": 8, "m_over_n": [6], "trials": 1, "mu": NaN}')
    assert run_cli(["sweep", str(path), "--out", str(tmp_path)]) == 2
    assert "mu" in capsys.readouterr().err
    assert not (tmp_path / "success.csv").exists()


def test_bench_unknown_algorithm(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 16, "m_over_n": 8, "algorithms": ["newton"]}))
    assert run_cli(["bench", str(path), "--out", str(tmp_path)]) == 2


SUCCESS = '"mode": "success", "n": 8, '
BETA = '"mode": "beta", "n": 8, '
BENCH = '"n": 8, "m_over_n": 6, '


@pytest.mark.parametrize("command,text,named", [
    ("sweep", '{' + SUCCESS + '"stepsize": 0.6}', "'stepsize'"),
    ("sweep", '{"n": 8}', "mode"),
    ("sweep", '{"mode": "grid", "n": 8}', "mode"),
    ("bench", '{"n": 8}', "m_over_n"),
    ("sweep", '{"mode": "success", "n": "8"}', "n"),
    ("sweep", '{"mode": "success", "n": true}', "n"),
    ("sweep", '{"mode": "success", "n": 16.0}', "n"),
    ("sweep", '{' + SUCCESS + '"trials": 2.0}', "trials"),
    ("bench", '{' + BENCH + '"max_iter": 5.0}', "max_iter"),
    ("sweep", '{' + SUCCESS + '"base_seed": -1}', "base_seed"),
    ("sweep", '{' + SUCCESS + '"power_iters": 0}', "power_iters"),
    ("sweep", '{' + SUCCESS + '"noise_level": NaN}', "noise_level"),
    ("sweep", '{' + SUCCESS + '"noise_level": Infinity}', "noise_level"),
    ("bench", '{' + BENCH + '"noise_level": -0.1}', "noise_level"),
    ("sweep", '{' + SUCCESS + '"m_over_n": [NaN]}', "m_over_n"),
    ("sweep", '{' + SUCCESS + '"m_over_n": [6, Infinity]}', "m_over_n"),
    ("bench", '{"n": 8, "m_over_n": Infinity}', "m_over_n"),
    ("sweep", '{' + BETA + '"m_over_n_random": NaN}', "m_over_n_random"),
    ("sweep", '{' + BETA + '"m_over_n_random": Infinity}', "m_over_n_random"),
    ("sweep", '{' + BETA + '"m_over_n_spectral": 0}', "m_over_n_spectral"),
    ("sweep", '{' + BETA + '"beta_grid": [0.5, 1.5]}', "beta_grid"),
    ("bench", '{' + BENCH + '"algorithms": []}', "algorithms"),
    ("bench", '{' + BENCH + '"algorithms": ["newton"]}', "algorithms"),
    ("sweep", '{' + SUCCESS + '"algorithms": ["saf-warm"]}', "algorithms"),
    ("sweep", '{' + SUCCESS + '"algorithms": ["saf-"]}', "'saf-'"),
    ("bench", '{' + BENCH + '"algorithms": ["saf", "wf-"]}', "'wf-'"),
    ("bench", '{' + BENCH + '"thresholds": [1e-5, NaN]}', "thresholds"),
    ("sweep", '[{"mode": "success", "n": 8}]', "JSON object"),
    # ratios that give m = round(ratio * n) = 0 measurements
    ("sweep", '{"mode": "success", "n": 1, "m_over_n": [0.4]}', "m_over_n"),
    ("sweep", '{' + SUCCESS + '"m_over_n": [4, 0.05]}', "m_over_n"),
    ("bench", '{"n": 8, "m_over_n": 0.0625}', "m_over_n"),
    ("sweep", '{"mode": "beta", "n": 2, "m_over_n_random": 0.2}', "m_over_n_random"),
    ("sweep", '{"mode": "beta", "n": 1, "m_over_n_spectral": 0.5}', "m_over_n_spectral"),
    # ratios whose m = ratio * n overflows to inf
    ("sweep", '{"mode": "success", "n": 8, "m_over_n": [1e308]}', "m_over_n"),
    ("bench", '{"n": 8, "m_over_n": 1e308}', "m_over_n"),
    ("sweep", '{' + BETA + '"m_over_n_random": 1e308}', "m_over_n_random"),
    # keys the command would ignore
    ("bench", '{' + BENCH + '"err_tol": 1e-3}', "'err_tol'"),
    ("sweep", '{' + BETA + '"algorithms": ["saf-random"]}', "'algorithms'"),
    ("sweep", '{' + BETA + '"m_over_n": [4]}', "'m_over_n'"),
    ("sweep", '{' + BETA + '"beta": 0.5}', "'beta'"),
    ("sweep", '{' + SUCCESS + '"beta_grid": [0.5]}', "'beta_grid'"),
    ("sweep", '{' + SUCCESS + '"m_over_n_random": 4}', "'m_over_n_random'"),
    ("sweep", '{' + SUCCESS + '"m_over_n_spectral": 2.5}', "'m_over_n_spectral'"),
])
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, command, text, named):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert run_cli([command, str(path), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command", ["sweep", "bench"])
@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", ""])
def test_bad_saf_threads_exits_2_naming_it(tmp_path, capsys, command, value):
    path = tmp_path / "cfg.json"
    path.write_text('{' + (SUCCESS if command == "sweep" else BENCH) + '"trials": 1}')
    out = tmp_path / "out"
    assert run_cli([command, str(path), "--out", str(out), f"--threads={value}"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_saf_threads_sets_the_pool_size(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{' + SUCCESS + '"m_over_n": [4], "trials": 4}')
    assert run_cli(["sweep", str(path), "--out", str(tmp_path / "one"), "--threads", "1"]) == 0
    assert run_cli(["sweep", str(path), "--out", str(tmp_path / "two"), "--threads", "2"]) == 0
    assert ((tmp_path / "two" / "success.csv").read_bytes()
            == (tmp_path / "one" / "success.csv").read_bytes())


def test_verify_appendix(tmp_path):
    assert run_cli(["verify", "appendix", "--quick", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "verify_appendix.csv").read_text().splitlines()
    assert lines[0] == "check_id,input,expected,actual,tolerance,pass"
    assert any("sqrt_gap_poly_at_two_thirds" in line for line in lines)


def test_verify_unknown_suite(tmp_path, capsys):
    for suite in ("poset", "nosuch"):
        assert run_cli(["verify", suite, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert all(f"'{name}'" in err for name in SUITES), err
    assert list(tmp_path.iterdir()) == []


def test_verify_offers_the_suites_run_suite_accepts(monkeypatch):
    # the parser reads its choices without loading saflow.verify; each one
    # must reach a suite, and "all" must reach every suite
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    (choices,) = [a.choices for a in sub.choices["verify"]._actions if a.dest == "suite"]
    ran = []
    for name in ("calculus", "expectations", "landscape", "appendix"):
        monkeypatch.setattr(vf, f"suite_{name}",
                            lambda quick, seed, name=name: ran.append(name) or [])
    for name in choices:
        assert vf.run_suite(name) == []
    assert ran == ["calculus", "expectations", "landscape", "appendix"] * 2
    assert tuple(choices) == SUITES


def test_verify_calculus_quick(tmp_path):
    assert run_cli(["verify", "calculus", "--quick", "--out", str(tmp_path)]) == 0


def test_verify_all_quick_matches_golden(tmp_path):
    # pins every row of the quick run byte for byte (tests/golden/README.md)
    assert run_cli(["verify", "all", "--quick", "--seed", "0", "--out", str(tmp_path)]) == 0
    got = (tmp_path / "verify_all.csv").read_bytes()
    assert got == (GOLDEN / "verify_all.csv").read_bytes(), golden_mismatch("verify_all.csv")


def test_verify_all_writes_plain_numbers(tmp_path):
    # a numpy scalar's repr would write e.g. np.float64(5e-15) into a cell,
    # and a cell with a comma in it, unquoted, would shift the cells after it
    assert run_cli(["verify", "all", "--quick", "--seed", "1", "--out", str(tmp_path)]) == 0
    rows = list(csv.reader((tmp_path / "verify_all.csv").open(newline="")))
    assert [cell for row in rows for cell in row if "np." in cell] == []
    assert [row[0] for row in rows if len(row) != 6] == []
