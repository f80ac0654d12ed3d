"""One run of one workload, in a fresh process started by run.py.

BLAS is pinned to one thread here, before numpy is imported, and saflow is
imported from the checkout's ``src/`` only.  With ``--setup-only`` the
process stops just before the first timed call and reports its set-up
time, in wall seconds and scaled to the reference speed by the set-up
kernel of calibration.py, timed right after.  With ``--trace 1`` the timed calls run twice on the same inputs,
untraced and then traced, so the tracing overhead is measured in the same
process; the two passes must write identical outputs.  Prints one JSON
object as its last line.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_saflow():
    sys.path.insert(0, str(SRC))
    import saflow.cli  # noqa: F401  (imports every layer)
    if not Path(saflow.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"saflow imported from {saflow.cli.__file__}, not {SRC}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _import_saflow()
    import workloads as wl
    from calibration import SETUP_REF_S, setup_kernel_s

    workload = wl.WORKLOADS[args.workload](args.seed, args.seconds)
    tag = "setup" if args.setup_only else f"trace{args.trace}"
    run_dir = wl.fresh_dir(Path(args.out) / f"{args.workload}-seed{args.seed}-{tag}")
    calls = workload.calls(run_dir / "untraced")
    setup = {"setup_wall_s": time.monotonic() - args.t0}
    setup["setup_s"] = setup["setup_wall_s"] * SETUP_REF_S / setup_kernel_s()
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    result = wl.execute(workload, calls, run_dir, trace=bool(args.trace))
    problems = result.pop("problems")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        **result,
        "correct": not problems,
        **setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
