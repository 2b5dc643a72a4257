"""The names the benchmark harness reaches into toricchi by.

perfbench/tracer.py wraps every function listed in its TRACED table with
getattr, and perfbench/run.py reads toricchi.kernel_backend and
todd_class.cache_info(). perfbench/test_perfbench.py also asserts that
the tracer wraps some names where another toricchi module imported them
(chow's dual_basis_vector, todd's multiply_ray_divisor). The full harness
test takes too long for the quick suite, so this reads the table and those
names from the harness sources and checks only that every one still
exists: deleting one would break `run.py --trace 1` or the harness test
without any other test noticing. One test also installs the real tracer
around a small verification, so a call path the tracer cannot see shows
up here.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import toricchi
from toricchi.catalog import build_catalog
from toricchi.report import run_verification
from toricchi.todd import todd_class

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
HARNESS_TEST = PERFBENCH / "test_perfbench.py"


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


def _reimported_names() -> list:
    """(module, name) of every before[("toricchi.<module>", "<name>")] the
    harness test compares against after installing the tracer."""
    tree = ast.parse(HARNESS_TEST.read_text(encoding="utf-8"))
    return [
        ast.literal_eval(node.slice)
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "before"
        and isinstance(node.slice, ast.Tuple)
    ]


def test_reimported_names_the_harness_test_checks_exist():
    names = _reimported_names()
    assert ("toricchi.chow", "dual_basis_vector") in names
    assert ("toricchi.todd", "multiply_ray_divisor") in names
    missing = [
        f"{mod}.{name}"
        for mod, name in names
        if not callable(getattr(importlib.import_module(mod), name, None))
    ]
    assert missing == []


def _bindings() -> dict:
    """Every toricchi module global and Fan.__post_init__, by identity."""
    out = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "toricchi" or name.startswith("toricchi.")
        for attr, value in vars(module).items()
    }
    out[("Fan", "__post_init__")] = toricchi.Fan.__dict__["__post_init__"]
    return out


def test_tracer_sees_every_chi_route():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        run_verification(build_catalog("p2"), 2, seed=3)
    finally:
        tr.remove()
    for route in ("todd.chi_hrr", "oracle.chi_recursive", "oracle.chi_graded_cohomology"):
        assert tr.calls(route) > 0, route
    # the induction steps' restrictions go through todd's module global, so they
    # are seen; the recursion's own (divisor.restrict) count under chi_recursive
    assert tr.calls("divisor.restrict_divisor") > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
