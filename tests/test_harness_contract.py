"""The names the benchmark harness reaches into toricchi by.

perfbench/tracer.py wraps every function listed in its TRACED table with
getattr, and perfbench/run.py reads toricchi.kernel_backend and
todd_class.cache_info(). The full harness test takes too long for the quick
suite, so this reads the table from the tracer's source and checks only
that every name still exists: deleting one would break `run.py --trace 1`
without any other test noticing.
"""

import ast
import importlib
from pathlib import Path

import toricchi
from toricchi.todd import todd_class

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_names() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_name_exists():
    traced = _traced_names()
    assert traced
    missing = [
        f"{mod}.{name}"
        for mod, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"toricchi.{mod}"), name, None))
    ]
    assert missing == []


def test_run_py_diagnostics_exist():
    assert callable(toricchi.kernel_backend)
    assert callable(todd_class.cache_info)
