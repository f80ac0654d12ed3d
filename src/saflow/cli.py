"""Command-line interface.

Subcommands
-----------
solve   one seeded instance -> trace CSV + JSON summary
sweep   success-rate or beta sweep from a JSON config -> table CSV
bench   iteration-count table from a JSON config -> table CSV
verify  numerical verification suites -> report CSV

Exit codes: 0 success, 1 numerical failure (divergence / failed checks),
2 usage or config error.  All outputs are deterministic functions of
(flags, config, base seed); rerunning with --threads 1 reproduces files
byte for byte (bench timing excepted unless --no-timing is given).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .distances import SUCCESS_THRESHOLD, dist, success
from .measurement import add_noise, gen_sensing, gen_signal, observe
from .metrics import (
    ExperimentSpec,
    parse_algorithm,
    run_beta_sweep,
    run_iteration_table,
    run_success_sweep,
    write_beta_csv,
    write_iteration_csv,
    write_success_csv,
)
from .reporting import all_passed, write_report_csv
from .solvers import DivergedError, GdConfig, InitStrategy, solve as run_solver
from .verify import SUITES, run_suite

_COMMON_KEYS = {
    "n": {"type": "integer", "minimum": 1},
    "field": {"enum": ["real", "complex"]},
    "trials": {"type": "integer", "minimum": 1},
    "beta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
    "mu": {"type": "number", "exclusiveMinimum": 0},
    "max_iter": {"type": "integer", "minimum": 1},
    "err_tol": {"type": "number", "exclusiveMinimum": 0},
    "noise_level": {"type": "number", "minimum": 0},
    "base_seed": {"type": "integer", "minimum": 0},
    "power_iters": {"type": "integer", "minimum": 1},
    "algorithms": {
        "type": "array",
        "minItems": 1,
        "items": {"type": "string"},
    },
}

SWEEP_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["mode", "n"],
    "properties": {
        **_COMMON_KEYS,
        "mode": {"enum": ["success", "beta"]},
        "m_over_n": {
            "type": "array", "minItems": 1,
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "beta_grid": {
            "type": "array", "minItems": 1,
            "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        },
        "m_over_n_random": {"type": "number", "exclusiveMinimum": 0},
        "m_over_n_spectral": {"type": "number", "exclusiveMinimum": 0},
    },
}

BENCH_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["n", "m_over_n"],
    "properties": {
        **_COMMON_KEYS,
        "m_over_n": {"type": "number", "exclusiveMinimum": 0},
        "thresholds": {
            "type": "array", "minItems": 1,
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
    },
}


def _load_config(path: str, schema: dict) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    try:
        jsonschema.validate(cfg, schema)
    except jsonschema.ValidationError as exc:
        print(f"error: config {path}: {exc.json_path}: {exc.message}", file=sys.stderr)
        raise SystemExit(2) from exc
    return cfg


def _spec_from_config(cfg: dict) -> ExperimentSpec:
    config = GdConfig(
        mu=cfg.get("mu", 0.6),
        beta=cfg.get("beta", 0.5),
        max_iter=cfg.get("max_iter", 2000),
        err_tol=cfg.get("err_tol", SUCCESS_THRESHOLD),
    )
    kwargs = dict(
        n=cfg["n"],
        field=cfg.get("field", "real"),
        trials=cfg.get("trials", 50),
        config=config,
        algorithms=tuple(cfg.get("algorithms", ["saf-random"])),
        noise_level=cfg.get("noise_level", 0.0),
        base_seed=cfg.get("base_seed", 0),
        power_iters=cfg.get("power_iters", 50),
    )
    if "m_over_n" in cfg:
        mn = cfg["m_over_n"]
        kwargs["m_over_n"] = tuple(mn) if isinstance(mn, list) else (mn,)
    if "beta_grid" in cfg:
        kwargs["beta_grid"] = tuple(cfg["beta_grid"])
    for key in ("m_over_n_random", "m_over_n_spectral"):
        if key in cfg:
            kwargs[key] = cfg[key]
    return ExperimentSpec(**kwargs)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    return int(os.environ.get("SAF_THREADS", "1"))


def cmd_solve(args) -> int:
    config = GdConfig(mu=args.mu, beta=args.beta, max_iter=args.max_iter,
                      grad_tol=args.grad_tol, err_tol=args.err_tol)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    x = gen_signal(args.n, args.field, args.seed)
    A = gen_sensing(args.m, args.n, args.field, args.seed)
    obs = observe(A, x)
    if args.noise > 0:
        obs = add_noise(obs, args.noise, args.seed)
    base, init_kind = parse_algorithm(args.algorithm)
    if args.init:
        init_kind = args.init
    init = InitStrategy(kind=init_kind, power_iters=args.power_iters)
    code = 0
    try:
        trace = run_solver(base, A, obs, config, init, args.seed, truth=x)
    except DivergedError as exc:
        trace = exc.trace
        code = 1
    trace.write_csv(outdir / "trace.csv")
    final_err = dist(trace.final, x) / float(np.linalg.norm(x))
    summary = {
        "algorithm": base,
        "init": init_kind,
        "success": bool(code == 0 and success(trace.final, x)),
        "final_rel_err": final_err,
        "iters": trace.iterations,
        "reason": trace.reason,
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return code


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, SWEEP_SCHEMA)
    spec = _spec_from_config(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    threads = _threads(args)
    if cfg["mode"] == "success":
        rows = run_success_sweep(spec, threads=threads)
        path = outdir / "success.csv"
        write_success_csv(rows, path)
    else:
        rows = run_beta_sweep(spec, threads=threads)
        path = outdir / "beta.csv"
        write_beta_csv(rows, path)
    print(f"wrote {path}")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_config(args.config, BENCH_SCHEMA)
    spec = _spec_from_config(cfg)
    thresholds = tuple(cfg.get("thresholds", [1e-5, 1e-10]))
    rows = run_iteration_table(spec, thresholds=thresholds, threads=_threads(args))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "iterations.csv"
    write_iteration_csv(rows, path, timing=not args.no_timing)
    print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    rows = run_suite(args.suite, quick=args.quick, seed=args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"verify_{args.suite}.csv"
    write_report_csv(rows, path)
    failed = [r for r in rows if not r.passed]
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed; wrote {path}")
    for r in failed:
        print(f"FAIL {r.check_id} [{r.input}] expected {r.expected} "
              f"got {r.actual} (tol {r.tolerance})")
    return 0 if all_passed(rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saflow",
        description="Phase retrieval via smoothed amplitude flow: solver, "
                    "experiment sweeps, and numerical verification.",
    )
    parser.add_argument("--version", action="version", version=f"saflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "solve", help="run one seeded instance",
        epilog="writes trace.csv (columns iter,grad_norm,rel_err) and summary.json")
    p.add_argument("--n", type=_positive_int, required=True, help="signal dimension")
    p.add_argument("--m", type=_positive_int, required=True, help="number of measurements")
    p.add_argument("--field", choices=["real", "complex"], default="real")
    p.add_argument("--beta", type=float, default=0.5, help="smoothing parameter in (0, 1]")
    p.add_argument("--mu", type=float, default=0.6, help="step size")
    p.add_argument("--max-iter", type=_positive_int, default=2000, dest="max_iter")
    p.add_argument("--grad-tol", type=float, default=1e-14, dest="grad_tol")
    p.add_argument("--err-tol", type=float, default=SUCCESS_THRESHOLD, dest="err_tol")
    p.add_argument("--init", choices=["random", "spectral"], default=None,
                   help="override the algorithm's default initialization")
    p.add_argument("--power-iters", type=_positive_int, default=50, dest="power_iters")
    p.add_argument("--algorithm", default="saf",
                   help="saf | wf | twf | taf (optionally with -random/-spectral)")
    p.add_argument("--noise", type=float, default=0.0, help="additive noise level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "sweep", help="success-rate or beta sweep from a JSON config",
        epilog="writes success.csv (m_over_n,algorithm,success_rate,trials) "
               "or beta.csv (beta,init,success_rate) per the config's mode")
    p.add_argument("config", help="JSON config path (see README for the schema)")
    p.add_argument("--out", default=".")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="trial pool size; 1 (default, or SAF_THREADS) is bit-exact")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "bench", help="iteration-count table from a JSON config",
        epilog="writes iterations.csv "
               "(algorithm,init,threshold,median_iters,mean_seconds)")
    p.add_argument("config")
    p.add_argument("--out", default=".")
    p.add_argument("--threads", type=_positive_int, default=None)
    p.add_argument("--no-timing", action="store_true", dest="no_timing",
                   help="zero the wall-clock column for byte-reproducible output")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "verify", help="run a numerical verification suite",
        epilog="writes verify_<suite>.csv "
               "(check_id,input,expected,actual,tolerance,pass); exit 0 iff all pass")
    p.add_argument("suite", choices=list(SUITES))
    p.add_argument("--quick", action="store_true", help="reduced sampling budgets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
