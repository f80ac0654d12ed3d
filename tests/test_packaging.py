"""The runtime dependencies declared in pyproject.toml are exactly the
third-party packages that src/saflow imports."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_solve_sweep_and_bench_load_neither_scipy_nor_a_process_pool(tmp_path):
    # scipy is imported on the first quadrature and the pool's module only
    # for --threads > 1, so a fresh interpreter that runs these has neither
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
          if m == "scipy" or m.startswith("scipy.") or m == "concurrent.futures.process"]
print(json.dumps({{"codes": codes, "loaded": sorted(loaded)}}))
"""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "loaded": []}
