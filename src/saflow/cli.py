"""Command-line interface.

Subcommands
-----------
solve   one seeded instance -> trace CSV + JSON summary
sweep   success-rate or beta sweep from a JSON config -> table CSV
bench   iteration-count table from a JSON config -> table CSV
verify  numerical verification suites -> report CSV

Exit codes: 0 success, 1 numerical failure (divergence / failed checks),
2 usage or config error.  All outputs are deterministic functions of
(flags, config, base seed), whatever --threads is; rerunning reproduces
files byte for byte (bench timing excepted unless --no-timing is given).

verify runs its independent Monte Carlo passes on up to one process per
available CPU, this one included, and writes the same bytes at any count;
under `taskset -c 0` it runs serially and starts no process.

solve, sweep and bench run each product with a sensing matrix of 48 MiB or
more (m = 8000, n = 1000 holds 61 MiB) on every available CPU, one thread
per CPU, and write the same bytes as on one.  Such a product uses one CPU
under `taskset -c 0`, when BLAS runs more than one thread per call (pin
OpenBLAS with OPENBLAS_NUM_THREADS=1) or its thread count cannot be read,
and in the processes of a --threads pool, which already fill the CPUs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .constants import SUITES
from .distances import SUCCESS_THRESHOLD, dist
from .measurement import add_noise, gen_sensing, gen_signal, observe
from .metrics import (
    ExperimentSpec,
    run_beta_sweep,
    run_iteration_table,
    run_success_sweep,
    write_beta_csv,
    write_iteration_csv,
    write_success_csv,
)
from .solvers import ALGORITHMS, GdConfig, make_init, parse_algorithm, solve as run_solver

# The keys each config accepts, with their JSON types: int (never a bool or a
# float), float (an int too), str, or [T] (a non-empty list of T).  Defaults
# and bounds are ExperimentSpec's and GdConfig's; a key a command would
# ignore is not accepted.
_SHARED_KEYS = {"n": int, "field": str, "trials": int, "mu": float, "max_iter": int,
                "noise_level": float, "base_seed": int, "power_iters": int}
CONFIG_KEYS = {
    "success sweep": {**_SHARED_KEYS, "mode": str, "beta": float, "err_tol": float,
                      "algorithms": [str], "m_over_n": [float]},
    "beta sweep": {**_SHARED_KEYS, "mode": str, "err_tol": float, "beta_grid": [float],
                   "m_over_n_random": float, "m_over_n_spectral": float},
    "bench": {**_SHARED_KEYS, "beta": float, "algorithms": [str], "m_over_n": float,
              "thresholds": [float]},
}
REQUIRED_KEYS = {"success sweep": ("n",), "beta sweep": ("n",), "bench": ("n", "m_over_n")}
_GD_FIELDS = {f.name for f in fields(GdConfig)}
_SPEC_FIELDS = {f.name for f in fields(ExperimentSpec)}


def _has_type(value, kind) -> bool:
    """Whether a parsed JSON value has the CONFIG_KEYS type `kind`."""
    if isinstance(kind, list):
        items = value if isinstance(value, list) else []
        return bool(items) and all(_has_type(v, kind[0]) for v in items)
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _load_config(path: str, command: str) -> tuple[dict, ExperimentSpec]:
    """The config at path, checked for `command` ("sweep" or "bench"), and its spec."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    try:
        return cfg, _spec_from_config(cfg, command)
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from None


def _spec_from_config(cfg, command: str) -> ExperimentSpec:
    """The spec of a parsed config: its keys, checked, over ExperimentSpec's defaults."""
    if not isinstance(cfg, dict):
        raise ValueError(f"must be a JSON object, got {type(cfg).__name__}")
    if command == "sweep":
        if cfg.get("mode") not in ("success", "beta"):
            raise ValueError(f"mode must be 'success' or 'beta', got {cfg.get('mode')!r}")
        command = f"{cfg['mode']} sweep"
    keys = CONFIG_KEYS[command]
    for key in REQUIRED_KEYS[command]:
        if key not in cfg:
            raise ValueError(f"missing required key {key!r}")
    for key, value in cfg.items():
        kind = keys.get(key)
        if kind is None:
            raise ValueError(f"{key!r} is not a key of a {command} config")
        if not _has_type(value, kind):
            what = (f"a non-empty list of {kind[0].__name__}" if isinstance(kind, list)
                    else kind.__name__)
            raise ValueError(f"{key} must be {what}, got {value!r}")
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in cfg.items()}
    if not isinstance(values.get("m_over_n", ()), tuple):  # bench: one m/n
        values["m_over_n"] = (values["m_over_n"],)
    config = replace(ExperimentSpec.config,
                     **{k: v for k, v in values.items() if k in _GD_FIELDS})
    return ExperimentSpec(config=config,
                          **{k: v for k, v in values.items() if k in _SPEC_FIELDS})


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def cmd_solve(args) -> int:
    config = GdConfig(mu=args.mu, beta=args.beta, max_iter=args.max_iter,
                      grad_tol=args.grad_tol, err_tol=args.err_tol)
    x = gen_signal(args.n, args.field, args.seed)
    A = gen_sensing(args.m, args.n, args.field, args.seed)
    y = add_noise(observe(A, x), args.noise, args.seed)
    base, init_kind = parse_algorithm(args.algorithm)
    z0 = make_init(A, y, init_kind, args.seed, args.power_iters)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    trace = run_solver(base, A, y, config, z0, truth=x)
    code = 1 if trace.reason == "diverged" else 0
    trace.write_csv(outdir / "trace.csv")
    final_err = dist(trace.final, x) / float(np.linalg.norm(x))
    summary = {
        "algorithm": base,
        "init": init_kind,
        "success": bool(code == 0 and final_err <= SUCCESS_THRESHOLD),
        "final_rel_err": final_err if np.isfinite(final_err) else None,  # JSON has no inf
        "iters": trace.iterations,
        "reason": trace.reason,
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return code


def cmd_sweep(args) -> int:
    cfg, spec = _load_config(args.config, "sweep")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg["mode"] == "success":
        rows = run_success_sweep(spec, threads=args.threads)
        path = outdir / "success.csv"
        write_success_csv(rows, path)
    else:
        rows = run_beta_sweep(spec, threads=args.threads)
        path = outdir / "beta.csv"
        write_beta_csv(rows, path)
    print(f"wrote {path}")
    return 0


def cmd_bench(args) -> int:
    _, spec = _load_config(args.config, "bench")
    rows = run_iteration_table(spec, threads=args.threads)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "iterations.csv"
    write_iteration_csv(rows, path, timing=not args.no_timing)
    print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite, write_report_csv  # solve, sweep and bench never load it
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
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saflow",
        description="Phase retrieval via smoothed amplitude flow: solver, "
                    "experiment sweeps, and numerical verification.",
    )
    parser.add_argument("--version", action="version", version=f"saflow {__version__}")
    threads_help = ("processes that solve trials, this one included (default 1); "
                    "every count writes the same results.  Without a pool, a sensing "
                    "matrix of 48 MiB or more has each product run on every available "
                    "CPU under one-thread BLAS, with the same bytes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "solve", help="run one seeded instance",
        epilog="writes trace.csv (columns iter,grad_norm,rel_err) and summary.json")
    p.add_argument("--n", type=_positive_int, required=True, help="signal dimension")
    p.add_argument("--m", type=_positive_int, required=True, help="number of measurements")
    spec = ExperimentSpec()  # a solve's defaults are an experiment's
    gd = spec.config
    p.add_argument("--field", choices=["real", "complex"], default=spec.field)
    p.add_argument("--beta", type=float, default=gd.beta, help="smoothing parameter in (0, 1]")
    p.add_argument("--mu", type=float, default=gd.mu, help="step size")
    p.add_argument("--max-iter", type=_positive_int, default=gd.max_iter, dest="max_iter")
    p.add_argument("--grad-tol", type=float, default=gd.grad_tol, dest="grad_tol")
    p.add_argument("--err-tol", type=float, default=gd.err_tol, dest="err_tol")
    p.add_argument("--power-iters", type=_positive_int, default=spec.power_iters,
                   dest="power_iters")
    p.add_argument("--algorithm", default="saf",
                   help=f"{' | '.join(ALGORITHMS)}, optionally with -random/-spectral to "
                        "choose the start")
    p.add_argument("--noise", type=float, default=spec.noise_level, help="additive noise level")
    p.add_argument("--seed", type=_nonnegative_int, default=spec.base_seed)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "sweep", help="success-rate or beta sweep from a JSON config",
        epilog="writes success.csv (m_over_n,algorithm,success_rate,trials) "
               "or beta.csv (beta,init,success_rate) per the config's mode")
    p.add_argument("config", help="JSON config path (see README for its keys)")
    p.add_argument("--out", default=".")
    p.add_argument("--threads", type=_positive_int, default=1, help=threads_help)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "bench", help="iteration-count table from a JSON config",
        epilog="writes iterations.csv "
               "(algorithm,init,threshold,median_iters,mean_seconds)")
    p.add_argument("config")
    p.add_argument("--out", default=".")
    p.add_argument("--threads", type=_positive_int, default=1, help=threads_help)
    p.add_argument("--no-timing", action="store_true", dest="no_timing",
                   help="zero the wall-clock column for byte-reproducible output")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "verify", help="run a numerical verification suite",
        epilog="writes verify_<suite>.csv "
               "(check_id,input,expected,actual,tolerance,pass); exit 0 iff all pass")
    p.add_argument("suite", choices=list(SUITES))
    p.add_argument("--quick", action="store_true", help="reduced sampling budgets")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
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
