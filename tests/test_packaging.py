"""The runtime dependencies declared in pyproject.toml are exactly the
third-party packages that src/saflow imports."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blas_core import golden_mismatch

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _third_party_imports() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "saflow").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_declared_dependencies_are_the_imported_ones():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in declared}
    assert _third_party_imports() == names


def _run_fresh(script: str) -> dict:
    """Run script in a fresh interpreter that imports saflow from src/; its last JSON line."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_solve_sweep_and_bench_load_neither_scipy_nor_a_process_pool(tmp_path):
    # the pool's module is imported only for --threads > 1, so a fresh
    # interpreter that runs these has neither; nor does it load (and, with
    # no bytecode cache, compile) the verification stack
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"mode": "success", "n": 8, "m_over_n": [6], "trials": 1}))
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({"n": 8, "m_over_n": 6, "trials": 1,
                                 "algorithms": ["saf-random", "taf"]}))
    script = f"""
import json, sys
import saflow, saflow.cli
codes = [saflow.cli.main(["solve", "--n", "8", "--m", "48", "--out", {str(tmp_path / "solve")!r}]),
         saflow.cli.main(["sweep", {str(sweep)!r}, "--threads", "1",
                          "--out", {str(tmp_path / "sweep")!r}]),
         saflow.cli.main(["bench", {str(bench)!r}, "--threads", "1",
                          "--out", {str(tmp_path / "bench")!r}])]
loaded = [m for m in sys.modules
          if m == "scipy" or m.startswith("scipy.") or m == "concurrent.futures.process"
          or m in ("saflow.verify", "saflow.landscape", "saflow.quadpack")]
print(json.dumps({{"codes": codes, "loaded": sorted(loaded)}}))
"""
    assert _run_fresh(script) == {"codes": [0, 0, 0], "loaded": []}


def test_import_saflow_leaves_the_quadrature_unloaded():
    # without a bytecode cache, loading the quadrature module (QUADPACK's
    # rules and its QAG loop) means compiling it, which the set-up of
    # solve, sweep and bench should not pay; the package namespace holds
    # only __version__, so `import saflow` loads no module of it at all
    script = """
import json, sys
import saflow
package = sorted(m for m in sys.modules if m.startswith("saflow."))
import saflow.cli
print(json.dumps([package, sorted(m for m in sys.modules if m == "saflow.quadpack")]))
"""
    assert _run_fresh(script) == [[], []]


MODULES = sorted(path.stem for path in (ROOT / "src" / "saflow").glob("*.py")
                 if path.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    # first in a fresh interpreter, so an import cycle cannot hide behind
    # the order in which other modules happened to load
    script = f"""
import json, saflow.{module}
print(json.dumps("ok"))
"""
    assert _run_fresh(script) == "ok"


def test_import_saflow_cli_loads_no_process_pool():
    # the pool's module is imported by the first map that needs a pool,
    # which the set-up of every command should not pay
    script = """
import json, sys
import saflow.cli
print(json.dumps(sorted(m for m in sys.modules if m == "concurrent.futures.process")))
"""
    assert _run_fresh(script) == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_output_does_not_depend_on_the_cpu_count(tmp_path, cpus):
    # at one CPU the pieces run in-process and no pool is loaded; at two they
    # run on a pool that is gone when verify returns; the bytes are the same
    script = f"""
import json, multiprocessing, sys
import saflow.cli, saflow.parallel
saflow.parallel.available_cpus = lambda: {cpus}
code = saflow.cli.main(["verify", "all", "--quick", "--seed", "0",
                        "--out", {str(tmp_path)!r}])
print(json.dumps({{"code": code, "pool": "concurrent.futures.process" in sys.modules,
                  "children": len(multiprocessing.active_children())}}))
"""
    assert _run_fresh(script) == {"code": 0, "pool": cpus > 1, "children": 0}
    got = (tmp_path / "verify_all.csv").read_bytes()
    assert got == (ROOT / "tests" / "golden" / "verify_all.csv").read_bytes(), \
        golden_mismatch("verify_all.csv")


def test_verify_loads_no_scipy(tmp_path):
    # the quadratures are saflow's own (landscape.quad on saflow.quadpack's
    # Gauss-Kronrod rules; scipy is only the tests' agreement oracle), so
    # verify, which runs all 160 of them, needs no scipy
    script = f"""
import json, sys
import saflow.cli
code = saflow.cli.main(["verify", "all", "--quick", "--out", {str(tmp_path / "verify")!r}])
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
print(json.dumps({{"code": code, "loaded": sorted(loaded)}}))
"""
    assert _run_fresh(script) == {"code": 0, "loaded": []}


def test_benchmark_hooks_are_in_place():
    # bench/tracing.py wraps the TARGETS functions by identity (an alias
    # would be wrapped twice) and bench/tests replace solvers._descend by its
    # positional signature and binds solve's algorithm and truth by name;
    # the benchmark's spot solve passes gd_saf its start as z0=...; bench/tests
    # build a trace and its record by keyword and force a check row false
    # with dataclasses.replace;
    # Tier-1 does not run bench/tests, so this keeps a refactor from
    # blinding the benchmark.  TARGETS is read from the source.
    path = ROOT / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    funcs = {}
    for layer, names in targets.items():
        module = importlib.import_module(f"saflow.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn), f"saflow.{layer}.{name} is gone"
            funcs[f"{layer}.{name}"] = fn
    assert len({id(fn) for fn in funcs.values()}) == len(funcs), "two targets are one function"
    solvers = importlib.import_module("saflow.solvers")
    assert list(inspect.signature(solvers._descend).parameters) == [
        "algorithm", "A", "y", "z", "config", "truth", "value_grad", "step_of"]
    assert {"algorithm", "truth"} <= set(inspect.signature(solvers.solve).parameters)
    assert "z0" in inspect.signature(solvers.gd_saf).parameters
    trace = solvers.SolveTrace(algorithm="saf", final=np.zeros(2), reason="max_iter")
    trace.records.append(solvers.IterRecord(iter=0, loss=0.0, grad_norm=1.0, rel_err=None))
    assert trace.iterations == 0 and trace.records[0].rel_err is None
    verify = importlib.import_module("saflow.verify")
    row = verify.CheckResult("c", "input", "expected", "actual", "0", True)
    assert dataclasses.replace(row, passed=False).passed is False
