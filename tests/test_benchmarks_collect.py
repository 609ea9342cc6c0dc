"""The benchmark suites import what the library exports.

Tier-1 runs only ``tests/``, so a benchmark importing a deleted name
would otherwise go unnoticed until someone runs the benchmarks.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HARNESS = ROOT / "ovc_bench"


def run_python(args, *path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (*map(str, path), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_benchmarks_collect():
    run_python(["-m", "pytest", "benchmarks", "--collect-only", "-q",
                "-p", "no:cacheprovider"], ROOT / "src")


def assert_repro_imports_resolve(folder):
    """Every ``from repro... import`` in ``folder``'s modules, also one
    inside a function, names something the library exports: collection
    and a module import miss those."""
    for path in folder.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").startswith("repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), \
                        f"{path.name}: {node.module}.{alias.name}"


def test_ovc_bench_imports():
    # The harness modules import each other by bare name, as run.py does.
    run_python(["-c", "import benchenv, gate, tracer, workloads, run"],
               HARNESS, ROOT / "src")
    # Most of its repro imports sit inside functions; resolve those too.
    assert_repro_imports_resolve(HARNESS)


@pytest.mark.parametrize("folder", ["benchmarks", "jobs"])
def test_function_level_imports_resolve(folder):
    assert_repro_imports_resolve(ROOT / folder)
