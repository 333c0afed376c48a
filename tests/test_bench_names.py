"""The gridse names the benchmark in bench/ relies on still exist.

bench/tracer.py wraps gridse functions by module and name, and the bench
scripts import names from gridse. A rename or deletion in gridse would
otherwise surface only when `bench/run.py --trace 1` or the bench checks
run. bench/ is read, never written: no bytecode is cached for the tracer.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer_names", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names(tracer) -> list:
    names = [(mod, fn) for mod, fns in tracer.SPANS.items() for fn in fns]
    names += list(tracer.RENAMED) + list(tracer.CALL_COUNTS)
    names += [tuple(span.split(".")) for span in tracer.RESULT_COUNTS]
    return names


def test_traced_names_exist(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    names = _traced_names(tracer)
    assert ("controller", "policy_decide") in names
    missing = [f"gridse.{mod}.{fn}" for mod, fn in names
               if not callable(getattr(importlib.import_module(f"gridse.{mod}"), fn, None))]
    assert missing == []


def _gridse_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "gridse"
            for alias in node.names]


@pytest.mark.parametrize("script", ["ladder.py", "test_checks.py"])
def test_bench_imports_from_gridse_exist(script):
    imports = _gridse_imports(BENCH / script)
    assert imports, f"{script} imports nothing from gridse"
    missing = [f"{mod}.{name}" for mod, name in imports
               if not hasattr(importlib.import_module(mod), name)]
    assert missing == []
