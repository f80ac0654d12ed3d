"""The benchmark's workloads: inputs made from the seed, the timed CLI calls,
and the checks on their outputs.

Every timed call goes through ``saflow.cli.main``.  A workload's size is
fixed by ``--seconds`` alone (never by measured time), so one seed always
gives the same operations and the same counts.  The checks test properties
of the method and values computed here, apart from saflow; none compares
against a stored copy of saflow's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from saflow import cli
from saflow.solvers import GdConfig, gd_saf
from calibration import Calibration
from tracing import Tracer, layer_metrics, phase_aligned_error

# nominal cost of one trial at every grid point / of one table trial on one
# BLAS thread of the reference machine (README); sets the size of a run
SWEEP_S_PER_TRIAL = 2.7
TABLE_S_PER_TRIAL = 9.0

SWEEP_N = 128
REAL_GRID = (1, 2, 3, 4, 5, 6, 7, 8)
COMPLEX_GRID = (3, 4, 5, 6, 8)
SWEEP_CONFIG = {"mode": "success", "n": SWEEP_N, "beta": 0.5, "mu": 0.6,
                "max_iter": 2000, "err_tol": 1e-5, "algorithms": ["saf-random"]}
# README long-run success rates: >= 0.95 from m = 5.5n (real) and 6n (complex)
LONG_RUN_RATE = 0.95
FLOOR_TAIL = 1e-5        # chance that a solver at the long-run rate misses the floor
NOT_IDENTIFIABLE_MAX = 0.05

TABLE_CONFIG = {"n": 1000, "m_over_n": 8, "mu": 0.8, "beta": 0.5, "max_iter": 2000,
                "power_iters": 50, "thresholds": [1e-5, 1e-10],
                "algorithms": ["saf-random", "saf-spectral", "wf", "twf", "taf"]}
SAF_RANDOM_OVER_TAF = 2.5  # "approximately equal" at desk scale, as in acceptance 2
# one-trial calls of SAF-random alone, beside the five-solver trials: about one
# random start in twenty takes 4-5 times the usual count, so SAF-random's median
# is taken over trials + SAF_RANDOM_EXTRA starts (README, *Checks*)
SAF_RANDOM_EXTRA = 5

SPOT_STARTS = 3          # random starts per spot instance; the lowest residual is kept
SPOT_TOL = 1e-6


@dataclass(frozen=True)
class Call:
    """One timed CLI invocation and the operations it stands for."""
    label: str
    argv: list
    ops: int
    output: Path
    field: str = ""  # set on the sweep's calls, which each solve one field


@dataclass
class CallResult:
    call: Call
    seconds: float
    code: int | None
    error: str = ""


def base_seed(seed: int, stream: int) -> int:
    """Non-negative 63-bit config seed for stream `stream` of the run seed."""
    ss = np.random.SeedSequence(seed % 2**63, spawn_key=(stream,))
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def binomial_floor(trials: int, rate: float, tail: float) -> int:
    """Largest k with P(Binomial(trials, rate) < k) <= tail."""
    cdf, k = 0.0, 0
    while k <= trials:
        cdf_next = cdf + math.comb(trials, k) * rate**k * (1 - rate) ** (trials - k)
        if cdf_next > tail:
            return k
        cdf, k = cdf_next, k + 1
    return trials


def _rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class Workload:
    name = ""
    spot_ops = 0  # operations of spot_check, run once per execute
    calibration = "draws"  # the calibration kernel whose work is most like this one's

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds

    def calls(self, out: Path) -> list[Call]:
        """Write the configs under `out` and return the timed calls."""
        raise NotImplementedError

    def check(self, results: list[CallResult]) -> tuple[int, list[str]]:
        """(failed operations, problems) for one pass of the timed calls.

        Each problem fails the operations it concerns: a failed check on an
        algorithm or a grid point fails all of its trials."""
        raise NotImplementedError

    def spot_check(self) -> tuple[int, list[str]]:
        """(failed, problems) of checks made after the timed part, on the
        benchmark's own instances."""
        return 0, []


def _write_config(path: Path, cfg: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg))
    return str(path)


def _call_problems(results: list[CallResult]) -> tuple[int, list[str], list[CallResult]]:
    """Calls that raised, exited non-zero or wrote no output fail all their
    operations; returns (failed, problems, the calls that ran)."""
    failed, problems, ran = 0, [], []
    for r in results:
        missing = "" if r.call.output.is_file() else f", {r.call.output.name} missing"
        if r.code != 0 or missing:
            failed += r.call.ops
            problems.append(f"{r.call.label}: exit {r.code}{missing} {r.error}".strip())
        else:
            ran.append(r)
    return failed, problems, ran


class SweepN128(Workload):
    """The paper's success-rate experiment at n = 128, SAF from random starts."""

    name = "sweep-n128"
    spot_ops = 2  # one real and one complex spot instance

    @property
    def trials(self) -> int:
        return max(1, round(self.seconds / SWEEP_S_PER_TRIAL))

    def calls(self, out):
        calls = []
        for stream, (field, grid) in enumerate((("real", REAL_GRID),
                                                ("complex", COMPLEX_GRID))):
            cfg = {**SWEEP_CONFIG, "field": field, "m_over_n": list(grid),
                   "trials": self.trials, "base_seed": base_seed(self.seed, stream)}
            path = _write_config(out / f"{field}.json", cfg)
            dest = out / field
            calls.append(Call(f"sweep-{field}", ["sweep", path, "--out", str(dest),
                                                 "--threads", "1"],
                              ops=len(grid) * self.trials, output=dest / "success.csv",
                              field=field))
        return calls

    def check(self, results):
        failed, problems, ran = _call_problems(results)
        floor = binomial_floor(self.trials, LONG_RUN_RATE, FLOOR_TAIL)
        for r in ran:
            grid = [float(g) for g in (REAL_GRID if r.call.field == "real" else COMPLEX_GRID)]
            rows = {float(row["m_over_n"]): row for row in _rows(r.call.output)}
            if set(rows) != set(grid):
                failed += r.call.ops
                problems.append(f"{r.call.label}: grid points {sorted(rows)}, expected {grid}")
                continue
            bad = set()  # grid points whose trials all fail
            for mn, row in rows.items():
                if int(row["trials"]) != self.trials:
                    bad.add(mn)
                    problems.append(f"{r.call.label}: m/n={mn:g} reports "
                                    f"{row['trials']} trials, ran {self.trials}")
            top = grid[-1]
            successes = round(float(rows[top]["success_rate"]) * self.trials)
            if successes < floor:
                bad.add(top)
                problems.append(f"{r.call.label}: {successes}/{self.trials} recovered at "
                                f"m/n={top:g}, floor {floor}")
            if r.call.field == "real" and float(rows[1.0]["success_rate"]) > NOT_IDENTIFIABLE_MAX:
                bad.add(1.0)
                problems.append(f"{r.call.label}: rate {rows[1.0]['success_rate']} at m/n=1, "
                                f"where x is not identifiable (need <= {NOT_IDENTIFIABLE_MAX})")
            failed += len(bad) * self.trials
        return failed, problems

    def spot_check(self):
        """SAF from random starts on instances drawn here, judged by the
        phase-aligned error and the residual || |Az| - y || / ||y||."""
        rng = np.random.default_rng(base_seed(self.seed, 2))
        config = GdConfig(mu=SWEEP_CONFIG["mu"], beta=SWEEP_CONFIG["beta"],
                          max_iter=SWEEP_CONFIG["max_iter"])
        n, m = SWEEP_N, 8 * SWEEP_N
        problems = []
        for field in ("real", "complex"):
            def draw(*shape):
                if field == "real":
                    return rng.standard_normal(shape)
                return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            x = draw(n)
            A = draw(m, n) / (1.0 if field == "real" else math.sqrt(2.0))
            y = np.abs(A.conj() @ x)
            best = None
            for _ in range(SPOT_STARTS):
                z = gd_saf(A, y, config, z0=draw(n)).final
                resid = float(np.linalg.norm(np.abs(A.conj() @ z) - y) / np.linalg.norm(y))
                if best is None or resid < best[0]:
                    best = (resid, z)
                if resid <= SPOT_TOL:
                    break
            resid, z = best
            err = phase_aligned_error(z, x)
            if not (err <= SPOT_TOL and resid <= SPOT_TOL):
                problems.append(f"spot solve {field} m=8n: error {err:.3g}, "
                                f"residual {resid:.3g} (need <= {SPOT_TOL})")
        return len(problems), problems


class TableN1000(Workload):
    """The paper's iteration table: n = 1000, m = 8n, five solvers to 1e-10.

    Each trial is its own one-trial ``saflow bench`` call, so the table's
    "median" of a call is that trial's iteration count and every trial is
    checked, not only the medians; the medians over trials are taken here.
    SAF_RANDOM_EXTRA more calls run SAF-random alone on their own instances.
    """

    name = "table-n1000"
    calibration = "matvec"

    @property
    def trials(self) -> int:
        return max(1, round(self.seconds / TABLE_S_PER_TRIAL))

    def calls(self, out):
        runs = [(f"trial {ti}", ti, TABLE_CONFIG["algorithms"]) for ti in range(self.trials)]
        runs += [(f"saf-random {k}", self.trials + k, ["saf-random"])
                 for k in range(SAF_RANDOM_EXTRA)]
        calls = []
        for label, stream, algorithms in runs:
            cfg = {**TABLE_CONFIG, "algorithms": algorithms, "trials": 1,
                   "base_seed": base_seed(self.seed, stream)}
            path = _write_config(out / f"table{stream}.json", cfg)
            dest = out / f"table{stream}"
            calls.append(Call(f"bench {label}", ["bench", path, "--out", str(dest),
                                                 "--threads", "1", "--no-timing"],
                              ops=len(algorithms), output=dest / "iterations.csv"))
        return calls

    def check(self, results):
        failed, problems, ran = _call_problems(results)
        lo, hi = TABLE_CONFIG["thresholds"]
        iters = {}  # (algorithm, init) -> [(iterations to lo, to hi)] of passing trials
        for r in ran:
            got = {(row["algorithm"], row["init"], float(row["threshold"])):
                   float(row["median_iters"]) for row in _rows(r.call.output)}
            algs = {key[:2] for key in got}
            if len(algs) != r.call.ops or len(got) != 2 * r.call.ops:
                failed += r.call.ops
                problems.append(f"{r.call.label}: rows {sorted(got)} do not cover every "
                                f"algorithm at both thresholds")
                continue
            for alg in sorted(algs):
                to_lo, to_hi = got[alg + (lo,)], got[alg + (hi,)]
                if to_lo <= to_hi <= TABLE_CONFIG["max_iter"]:
                    iters.setdefault(alg, []).append((to_lo, to_hi))
                else:
                    failed += 1
                    problems.append(f"{r.call.label}: {'-'.join(alg)} reached {lo:g} after "
                                    f"{to_lo} and {hi:g} after {to_hi} iterations "
                                    f"(max_iter {TABLE_CONFIG['max_iter']})")

        med = {alg: np.median(v, axis=0) for alg, v in iters.items()}
        wf, saf_r, taf = ("wf", "spectral"), ("saf", "random"), ("taf", "spectral")
        blamed = set()  # algorithms whose trials fail an ordering check
        for i, thr in enumerate((lo, hi)):
            if wf in med:
                faster = [a for a in med if a != wf and med[a][i] >= med[wf][i]]
                if faster:
                    blamed.update([wf, *faster])
                    problems.append(f"WF is not the slowest to {thr:g}: {faster}")
            if saf_r in med and taf in med and med[saf_r][i] > SAF_RANDOM_OVER_TAF * med[taf][i]:
                blamed.add(saf_r)
                problems.append(f"SAF-random {med[saf_r][i]} > {SAF_RANDOM_OVER_TAF} x TAF "
                                f"{med[taf][i]} to {thr:g}")
        failed += sum(len(iters[a]) for a in blamed)
        return failed, problems


def _verify_rows() -> dict[str, Counter]:
    """check_id counts each suite defines (saflow.verify, full budgets)."""
    names = ("abs_ts", "t_sq", "s_sq", "signed_t_sq", "signed_abs_ts")
    signed = ("signed_t_sq", "signed_abs_ts")
    calculus = Counter(["psi_u_upper_bound", "psi_u_lower_bound", "psi_u_lipschitz",
                        "psi_u_lipschitz_weak_constant_fails", "gradient_vs_central_fd",
                        "dir_second_derivative_vs_fd", "curvature_cubic_nonnegative",
                        "curvature_cubic_zero_at_beta", "zero_gradient_at_truth"])
    expectations = Counter()
    for _sigma in range(5):                       # five alignments
        expectations.update(["expected_abs_uv_mc", "expected_sgnuv_vsq_mc"])
    for _case in range(2):                        # two (sigma, lam) pairs
        expectations.update(f"rate_closed_form_{g}" for g in names)
    for sigma in (0.0, 0.5):
        for _lam in range(3):
            expectations.update(f"rate_signed_zero_{g}" if sigma == 0.0 and g in signed
                                else f"rate_quad_vs_mc_fd_{g}" for g in names)
    expectations["signed_expectation_nonnegative"] += 6   # 3 sigmas x 2 lams
    for _case in range(3):
        expectations.update(["integrated_rate_vs_mc_t_sq", "integrated_rate_vs_mc_signed_t_sq"])
    landscape = Counter([
        "saddle_curvature_negative", "saddle_curvature_at_half", "saddle_curvature_mc",
        "orthogonal_curvature_decreasing", "curvature_origin_limit", "kernel_identity",
        "region_radius_orthogonal", "region_radius_aligned", "region_radius_max",
        "alignment_gradient_negative", "alignment_gradient_increasing_in_beta",
        "scan_radial_gradient_positive", "scan_curvature_x_negative",
        "scan_strong_convexity_near_truth", "convexity_radius_constant"])
    appendix = Counter([
        "weighted_kernel_integral", "weighted_kernel_integral_below_bound",
        "alignment_prefactor_limit", "alignment_prefactor_decreasing",
        "rational_integral_t0", "rational_integral_t_quarter", "rational_integral_t_third",
        "surd_form_pairing_t_quarter", "surd_form_pairing_t_third",
        "monotone_f0_halfpi_increasing", "monotone_f0_normalized_increasing",
        "ratio_deriv_nonnegative", "arcsin_combination_nonnegative",
        "arcsin_ratio_lower_bound", "hull_poly_between_0_and_1_plus_s",
        "sqrt_gap_poly_positive", "sqrt_gap_poly_decreasing", "sqrt_gap_poly_at_two_thirds",
        "case_boundary_margin_nonnegative", "angle_family_increasing_in_theta"])
    return {"calculus": calculus, "expectations": expectations,
            "landscape": landscape, "appendix": appendix}


VERIFY_ROWS = _verify_rows()


class VerifyAll(Workload):
    """``saflow verify all`` at full budgets; one operation is one check row."""

    name = "verify-all"
    # 46 rows are Monte Carlo estimates judged at three standard errors; they
    # run at the seed the package is validated against, so that no run can
    # fail a row by sampling chance.  The work does not depend on the seed.
    VERIFY_SEED = 0

    def calls(self, out):
        dest = out / "verify"
        return [Call("verify-all", ["verify", "all", "--seed", str(self.VERIFY_SEED),
                                    "--out", str(dest)],
                     ops=sum(sum(c.values()) for c in VERIFY_ROWS.values()),
                     output=dest / "verify_all.csv")]

    def check(self, results):
        (result,) = results
        if result.code not in (0, 1) or not result.call.output.exists():
            return result.call.ops, [f"verify all: exit {result.code} {result.error}"]
        lines = result.call.output.read_text().splitlines()[1:]
        ids = [line.split(",", 1)[0] for line in lines]
        passed = [line.rsplit(",", 1)[1] == "true" for line in lines]
        problems = [f"verify row {i} failed" for i, ok in zip(ids, passed) if not ok]
        failed = len(problems)
        pos = 0
        for suite, expected in VERIFY_ROWS.items():
            size = sum(expected.values())
            got = Counter(ids[pos:pos + size])
            if got != expected:
                failed += sum((expected - got).values())  # a missing row is a failed check
                problems.append(f"suite {suite}: rows {dict(got - expected)} beyond and "
                                f"{dict(expected - got)} missing from its definition")
            pos += size
        if pos != len(ids):
            problems.append(f"verify all wrote {len(ids)} rows, suites define {pos}")
        if (result.code == 0) != all(passed):
            problems.append(f"verify all exit {result.code} disagrees with its rows")
        if problems and not failed:  # output wrong as a whole: no row can be trusted
            failed = result.call.ops
        return min(failed, result.call.ops), problems


WORKLOADS = {w.name: w for w in (SweepN128, TableN1000, VerifyAll)}


def run_pass(calls: list[Call], calibration: Calibration | None = None) -> list[CallResult]:
    """Run the timed CLI calls in order, with the calibration kernel (if
    any) timed before each call and after the last; the CLI's own prints
    are discarded."""
    results = []
    for call in calls:
        if calibration is not None:
            calibration.sample()
        error, code = "", None
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an operation that raises counts as failed
                error = repr(exc)
            seconds = time.perf_counter() - t0
        results.append(CallResult(call, seconds, code, error))
    if calibration is not None:
        calibration.sample()
    return results


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def execute(workload: Workload, calls: list[Call], run_dir: Path, trace: bool) -> dict:
    """Run the timed calls, check them and, when tracing, trace a second pass.

    The traced pass runs the same inputs after the untraced one; its outputs
    must match byte for byte, and its extra run time, both passes at the
    reference speed of their own calibration, is the tracing overhead.
    Returns attempted/failed counts, run_wall_s (untraced), scale (the
    calibration's reference over measured kernel time), problems and, when
    tracing, the per-layer metrics.
    """
    calibrations = [Calibration(workload.calibration, len(calls))]
    passes = [run_pass(calls, calibrations[0])]
    per_layer = None
    if trace:
        calibrations.append(Calibration(workload.calibration, len(calls)))
        with Tracer() as tracer:
            passes.append(run_pass(workload.calls(run_dir / "traced"), calibrations[1]))
        tracer.save(run_dir / "spans.npz")
        if tracer.absent:
            print(f"traced functions absent from saflow: {tracer.absent}", file=sys.stderr)

    attempted, failed, problems = workload.spot_ops, 0, []
    for results in passes:
        attempted += sum(r.call.ops for r in results)
        f, p = workload.check(results)
        failed += f
        problems += p
    for plain, traced in zip(*passes) if trace else ():
        if (plain.call.output.exists() and traced.call.output.exists()
                and plain.call.output.read_bytes() != traced.call.output.read_bytes()):
            failed += traced.call.ops
            problems.append(f"{plain.call.label}: traced output differs from untraced")
    f, p = workload.spot_check()
    failed += f
    problems += p

    wall = [sum(r.seconds for r in results) for results in passes]
    if trace:
        ref = [w * c.scale for w, c in zip(wall, calibrations)]
        per_layer = layer_metrics(tracer, {
            "trace.overhead_s": ref[1] - ref[0],
            "run.wall_s": wall[0],
            "calib.ms": calibrations[0].seconds * 1e3})
    return {"attempted": attempted, "failed": min(failed, attempted),
            "run_wall_s": wall[0], "scale": calibrations[0].scale,
            "problems": problems, "per_layer": per_layer}
