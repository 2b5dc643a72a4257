"""Self-checks of the benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

run.import_program()

import toricchi as T  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_cold_fold_inputs_are_distinct_smooth_complete_folds():
    items = workloads.cold_fold_inputs(seed=7, count=2 * len(workloads.STRATA))
    keys = {(rays, cones) for rays, cones, _, _ in items}
    assert len(keys) == len(items)
    for rays, cones, coeffs, rho in items:
        fan = T.Fan(3, rays, cones)
        assert T.is_smooth(fan) and T.is_complete(fan)
        assert len(coeffs) == len(rays) and 0 <= rho < len(rays)


def test_cold_fold_inputs_follow_the_seed():
    assert workloads.cold_fold_inputs(3, 6) == workloads.cold_fold_inputs(3, 6)
    assert workloads.cold_fold_inputs(3, 6) != workloads.cold_fold_inputs(4, 6)


def test_constructing_a_workload_calls_nothing_in_the_program():
    # the timed set-up is setup_steps() alone; seeding the inputs is not in it
    tr = tracer.Tracer()
    tr.install()
    try:
        for cls in workloads.WORKLOADS.values():
            cls(3)
        next(workloads.ColdFans(3).inputs())  # plain tuples; no Fan is built
    finally:
        tr.remove()
    assert all(span.calls == 0 for span in tr.spans.values())


def _bindings():
    """Every toricchi module global and Fan.__post_init__, by identity."""
    out = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "toricchi" or name.startswith("toricchi.")
        for attr, value in vars(module).items()
    }
    out[("Fan", "__post_init__")] = T.Fan.__dict__["__post_init__"]
    return out


def test_tracer_wraps_reimported_names_and_restores_originals():
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        todd = sys.modules["toricchi.todd"]
        chow = sys.modules["toricchi.chow"]
        assert todd.multiply_ray_divisor is not before[("toricchi.todd", "multiply_ray_divisor")]
        assert chow.dual_basis_vector is not before[("toricchi.chow", "dual_basis_vector")]
        fan = T.build_catalog("p2")
        T.chi_hrr(fan, T.TorusDivisor(fan, (2, 0, 1)))
    finally:
        tr.remove()
    assert tr.calls("todd.chi_hrr") == 1
    assert tr.calls("fan.construct") >= 1
    assert tr.calls("chow.multiply_ray_divisor") == tr.edges[
        ("todd.chi_hrr", "chow.multiply_ray_divisor")
    ] + tr.edges[("todd.todd_class", "chow.multiply_ray_divisor")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", "5", "--trace", "1"],
        check=True, capture_output=True, text=True, timeout=170,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_two_traced_runs_give_identical_counts():
    a, b = _traced("chi_wide"), _traced("chi_wide")
    assert a["correct"] and b["correct"]
    counts = {k for k, m in a["metrics"].items() if m["unit"] == "count"}
    assert "kernel.points" in counts and "oracle.canonical_rep_calls" in counts
    assert {k: a["metrics"][k]["value"] for k in counts} == {
        k: b["metrics"][k]["value"] for k in counts
    }
