"""saflow benchmark: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload table-n1000 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each run starts bench/worker.py in a fresh
process with BLAS pinned to one thread; the worker drives saflow through
``saflow.cli.main`` and checks what it writes.  With ``--trace 0`` the last
line of output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (see bench/README.md).  Set-up time is the
median over the run's own worker and SETUP_PROBES extra workers that stop
just before their first timed call.  Both times are given at the reference
machine speed, scaled by the kernels of bench/calibration.py that each
worker times next to them; their wall seconds go to stderr.  Outputs and
spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-n128", "table-n1000", "verify-all")
END_TO_END = {"setup_s": "s", "run_ref_s": "s", "peak_rss_mb": "MiB"}
SETUP_PROBES = 2
DEADLINE_S = 175.0


def _worker(args, env, t_start, *extra) -> dict:
    """Start one worker, wait for it, and return its last JSON line."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(ROOT / ".bench_out"),
           "--t0", repr(t0), *extra]
    remaining = DEADLINE_S - (time.monotonic() - t_start)
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"error: worker did not finish within {DEADLINE_S:.0f} s")
        except BaseException:  # interrupted: leave no worker behind
            proc.kill()
            proc.communicate()
            raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    t_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "saflow" / "__init__.py").is_file():
        print(f"error: no saflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    if args.trace:
        result = _worker(args, env, t_start)
        metrics = result["per_layer"]
    else:
        setups = [_worker(args, env, t_start, "--setup-only")
                  for _ in range(SETUP_PROBES)]
        result = _worker(args, env, t_start)
        setups.append(result)
        result["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        result["run_ref_s"] = result["run_wall_s"] * result["scale"]
        setup_wall = statistics.median(s["setup_wall_s"] for s in setups)
        print(f"wall seconds: setup {setup_wall:.4f}, run {result['run_wall_s']:.3f}; "
              f"run scale {result['scale']:.4f}", file=sys.stderr)
        metrics = {k: {"value": result[k], "unit": unit} for k, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
