import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricchi import oracle
from toricchi.catalog import build_catalog, catalog_names, projective_space
from toricchi.divisor import TorusDivisor, canonical_divisor, principal_divisor, zero_divisor
from toricchi.errors import RecursionBudgetExceeded, ToricError
from toricchi.fan import Fan
from toricchi.intlinalg import det_int, solve_rational
from toricchi.oracle import (
    canonical_representative,
    cartier_data,
    chi_by_method,
    chi_graded_cohomology,
    chi_recursive,
    cohomology_scan_detail,
    count_lattice_points,
    is_nef,
    serre_duality_check,
)
from toricchi.todd import chi_hrr

P1 = projective_space(1)
P2 = projective_space(2)


def test_chi_recursive_base_cases():
    assert chi_recursive(P1, TorusDivisor(P1, (3, 0))) == 4
    assert chi_recursive(P1, TorusDivisor(P1, (0, -2))) == -1
    assert chi_recursive(P2, zero_divisor(P2)) == 1


def test_chi_recursive_p2():
    assert chi_recursive(P2, TorusDivisor(P2, (2, 0, 0))) == 6
    assert chi_recursive(P2, TorusDivisor(P2, (-1, 0, 0))) == 0
    assert chi_recursive(P2, canonical_divisor(P2)) == 1


def test_canonical_representative_of_principal_is_zero():
    for m in ((1, 0), (0, 1), (2, -3), (-5, 4)):
        d = principal_divisor(P2, m)
        assert canonical_representative(P2, d.coeffs) == (0, 0, 0)


@given(st.tuples(*[st.integers(-5, 5)] * 4), st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_canonical_representative_is_class_invariant(coeffs, m):
    fan = build_catalog("f1")
    d = TorusDivisor(fan, coeffs)
    shifted = d + principal_divisor(fan, m)
    assert canonical_representative(fan, d.coeffs) == canonical_representative(
        fan, shifted.coeffs
    )


def test_canonical_representative_idempotent():
    rng = random.Random(3)
    fan = build_catalog("bl2_p2")
    for _ in range(20):
        coeffs = tuple(rng.randint(-5, 5) for _ in fan.rays)
        rep = canonical_representative(fan, coeffs)
        assert canonical_representative(fan, rep) == rep


def test_chi_recursive_ray_order_is_irrelevant():
    fan = build_catalog("f2")
    d = TorusDivisor(fan, (3, -1, 2, 0))
    base = chi_recursive(fan, d)
    rng = random.Random(17)
    order = list(range(4))
    for _ in range(6):
        rng.shuffle(order)
        assert chi_recursive(fan, d, ray_order=tuple(order)) == base


def test_chi_recursive_rejects_bad_ray_order():
    with pytest.raises(ToricError, match="permutation"):
        chi_recursive(P2, zero_divisor(P2), ray_order=(0, 1))
    with pytest.raises(ToricError, match="permutation"):
        chi_recursive(P2, zero_divisor(P2), ray_order=(0, 1, 1))


def test_recursion_budget(monkeypatch):
    monkeypatch.setenv("TORIC_RECURSION_BUDGET", "0")
    # fresh memo via ray_order so the cached global table cannot satisfy this
    with pytest.raises(RecursionBudgetExceeded):
        chi_recursive(P2, TorusDivisor(P2, (7, 3, 1)), ray_order=(0, 1, 2))
    monkeypatch.setenv("TORIC_RECURSION_BUDGET", "100000")
    assert chi_recursive(P2, TorusDivisor(P2, (7, 3, 1)), ray_order=(0, 1, 2)) > 0


@pytest.mark.parametrize("a", [30000, -30000])
def test_chi_recursive_long_chain_matches_hrr(a):
    # the chain along D_0 has |a| links; it is a loop, so no depth limit is met
    d = TorusDivisor(P2, (a, 0, 0))
    assert chi_recursive(P2, d, ray_order=(0, 1, 2)) == chi_hrr(P2, d)


def _python(code: str) -> str:
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    return out.stdout.strip()


def test_import_leaves_recursion_limit_alone():
    code = "import sys; a = sys.getrecursionlimit(); import toricchi; print(a, sys.getrecursionlimit())"
    before, after = _python(code).split()
    assert before == after


def test_chi_recursive_under_recursion_limit_120():
    # the depth is bounded by the dimension, not by the coefficients
    code = (
        "import sys\n"
        "from toricchi.catalog import projective_space\n"
        "from toricchi.divisor import TorusDivisor\n"
        "from toricchi.oracle import chi_recursive\n"
        "p3 = projective_space(3)\n"
        "sys.setrecursionlimit(120)\n"
        "print(chi_recursive(p3, TorusDivisor(p3, (300, -7, 0, 5))))\n"
    )
    p3 = projective_space(3)
    assert int(_python(code)) == chi_hrr(p3, TorusDivisor(p3, (300, -7, 0, 5)))


@pytest.mark.parametrize(
    "fan, coeffs, order, least",
    [
        (P2, (7, 3, 1), (0, 1, 2), 11),
        (projective_space(3), (3, -2, 1, 2), (3, 1, 0, 2), 8),
    ],
    ids=["p2", "p3"],
)
def test_least_recursion_budget_is_the_node_count(monkeypatch, fan, coeffs, order, least):
    # one unit per memo miss on a nonzero class; pins the node count
    d = TorusDivisor(fan, coeffs)
    monkeypatch.setenv("TORIC_RECURSION_BUDGET", str(least - 1))
    with pytest.raises(RecursionBudgetExceeded):
        chi_recursive(fan, d, ray_order=order)
    monkeypatch.setenv("TORIC_RECURSION_BUDGET", str(least))
    assert chi_recursive(fan, d, ray_order=order) == chi_hrr(fan, d)


def test_chi_memo_is_emptied_over_its_cap(monkeypatch):
    monkeypatch.setattr(oracle, "_CHI_MEMO_CAP", 50)
    oracle._chi_memo.clear()
    big = TorusDivisor(P2, (200, 0, 0))
    assert chi_recursive(P2, big) == chi_hrr(P2, big)
    assert len(oracle._chi_memo) > 50  # one call may overshoot the cap
    small = TorusDivisor(P2, (3, 1, 0))
    assert chi_recursive(P2, small) == chi_hrr(P2, small)
    # the second call found the memo over the cap and started it afresh
    assert 0 < len(oracle._chi_memo) <= 50


def test_chi_graded_cohomology_p1():
    for d in range(5):
        assert chi_graded_cohomology(P1, TorusDivisor(P1, (d, 0))) == d + 1
    assert chi_graded_cohomology(P1, TorusDivisor(P1, (-2, 0))) == -1


def test_chi_graded_cohomology_p2():
    assert chi_graded_cohomology(P2, TorusDivisor(P2, (2, 0, 0))) == 6
    assert chi_graded_cohomology(P2, zero_divisor(P2)) == 1
    # all cohomology sits in top degree for K: chi = (-1)^2 * h^2 = 1
    assert chi_graded_cohomology(P2, canonical_divisor(P2)) == 1
    assert chi_graded_cohomology(P2, TorusDivisor(P2, (-2, -1, 0))) == 1


def test_contribution_table_p1():
    # bit k set <=> ray k fails its inequality at m. No failures: m is a
    # global section, +1. One failure: contractible complex, 0. Both: -1.
    table = oracle._contribution_table(P1)
    assert table[0b00] == 1
    assert table[0b01] == 0 and table[0b10] == 0
    assert table[0b11] == -1


def test_scan_detail_reports_stable_box():
    chi, lo, hi, shells = cohomology_scan_detail(P2, TorusDivisor(P2, (3, 0, 0)))
    assert chi == 10
    assert shells >= 2
    # the returned box really is stable: one more shell adds nothing
    rays = [list(u) for u in P2.rays]
    bounds = [-a for a in (3, 0, 0)]
    table = oracle._contribution_table(P2)
    from toricchi import kernel

    extra = sum(
        kernel.box_sum(slo, shi, rays, bounds, table)
        for slo, shi in oracle._shell_slabs(lo, hi)
    )
    assert extra == 0


def test_shell_slabs_tile_the_shell():
    lo, hi = (-1, -1, -1), (1, 1, 1)
    seen = set()
    for slo, shi in oracle._shell_slabs(lo, hi):
        pts = [
            (x, y, z)
            for x in range(slo[0], shi[0] + 1)
            for y in range(slo[1], shi[1] + 1)
            for z in range(slo[2], shi[2] + 1)
        ]
        for p in pts:
            assert p not in seen  # disjoint
            seen.add(p)
    want = {
        p
        for p in (
            (x, y, z) for x in range(-2, 3) for y in range(-2, 3) for z in range(-2, 3)
        )
        if any(abs(c) == 2 for c in p)
    }
    assert seen == want


def _fraction_arrangement_box(fan, coeffs):
    """The arrangement box by a Fraction solve per nonsingular n-subset of
    the rays, as the oracle computed it before caching integer adjugates."""
    n = fan.dim
    los = [None] * n
    his = [None] * n
    for sub in combinations(range(len(fan.rays)), n):
        a = [list(fan.rays[i]) for i in sub]
        if det_int(a) == 0:
            continue
        m = solve_rational(a, [-coeffs[i] for i in sub])
        for i, x in enumerate(m):
            lo, hi = math.floor(x), math.ceil(x)
            los[i] = lo if los[i] is None or lo < los[i] else los[i]
            his[i] = hi if his[i] is None or hi > his[i] else his[i]
    return tuple(x - 2 for x in los), tuple(x + 2 for x in his)


@pytest.mark.parametrize("name", catalog_names() + ["many_ray"])
def test_integer_arrangement_box_matches_fraction_solve(name):
    fan = _many_ray_surface() if name == "many_ray" else build_catalog(name)
    rng = random.Random(name)
    r = len(fan.rays)
    for _ in range(40):
        coeffs = tuple(rng.randint(-60, 60) for _ in range(r))
        assert oracle._arrangement_box(fan, coeffs) == _fraction_arrangement_box(fan, coeffs)
    assert oracle._arrangement_box(fan, (0,) * r) == _fraction_arrangement_box(fan, (0,) * r)


def test_arrangement_box_on_the_line():
    # vertices m = −3 (ray 1) and m = −5 (ray −1), padded by 2
    assert oracle._arrangement_box(P1, (3, -5)) == ((-7,), (-1,))


def _eager_contributions(fan):
    """All 2^r entries of the contribution table by a subset-sum sweep over
    the face masks, the eager builder the oracle once used for r <= 16."""
    r = len(fan.rays)
    chi_face = [0] * (1 << r)
    for mask, sign in oracle._face_masks(fan):
        chi_face[mask] += sign
    for b in range(r):
        bit = 1 << b
        for mask in range(1 << r):
            if mask & bit:
                chi_face[mask] += chi_face[mask ^ bit]
    return [1 - v for v in chi_face]


@pytest.mark.parametrize("name", ["bl3_p2", "p1xp1xp1"])
def test_lazy_contributions_match_eager_table(name):
    # the table the scan reads, filled per mask, against the subset-sum sweep
    fan = build_catalog(name)
    lazy = oracle._contribution_table(fan)
    assert [lazy[mask] for mask in range(1 << len(fan.rays))] == _eager_contributions(fan)


def _many_ray_surface():
    """Every primitive (a, b) with max(|a|, |b|) <= 2, plus (3, 1), in
    angular order; consecutive rays span unimodular cones."""
    rays = [
        (a, b)
        for a in range(-2, 3)
        for b in range(-2, 3)
        if (a, b) != (0, 0) and math.gcd(a, b) == 1
    ] + [(3, 1)]
    rays.sort(key=lambda u: math.atan2(u[1], u[0]))
    return Fan(2, tuple(rays), tuple((i, (i + 1) % len(rays)) for i in range(len(rays))))


def test_many_ray_fan_three_routes_agree():
    # with 17 rays the table the cohomology scan reads fills only the masks it meets
    fan = _many_ray_surface()
    assert len(fan.rays) == 17
    assert isinstance(oracle._contribution_table(fan), oracle._LazyContributions)
    rng = random.Random(17)
    divisors = [(1,) * 17, (0,) * 17, (-1,) * 17]
    divisors += [tuple(rng.randint(-2, 2) for _ in range(17)) for _ in range(2)]
    for coeffs in divisors:
        d = TorusDivisor(fan, coeffs)
        chi = chi_hrr(fan, d)
        assert chi_recursive(fan, d) == chi
        assert chi_graded_cohomology(fan, d) == chi
    assert chi_hrr(fan, TorusDivisor(fan, (1,) * 17)) == -4


def test_cartier_data_p2():
    d = TorusDivisor(P2, (1, 0, 0))
    data = dict(zip(P2.max_cones, cartier_data(P2, d)))
    assert data[(0, 1)] == (-1, 0)
    assert data[(1, 2)] == (0, 0)
    assert data[(0, 2)] == (-1, 1)


def test_is_nef():
    assert is_nef(P2, TorusDivisor(P2, (1, 0, 0)))
    assert is_nef(P2, zero_divisor(P2))
    assert not is_nef(P2, TorusDivisor(P2, (-1, 0, 0)))
    f2 = build_catalog("f2")
    # the -2 curve itself is not nef
    assert not is_nef(f2, TorusDivisor(f2, (0, 1, 0, 0)))


def test_count_lattice_points_examples():
    assert count_lattice_points(P2, TorusDivisor(P2, (1, 0, 0))) == 3
    assert count_lattice_points(P2, TorusDivisor(P2, (2, 0, 0))) == 6
    fan = build_catalog("p1xp1")
    assert count_lattice_points(fan, TorusDivisor(fan, (1, 0, 1, 0))) == 4
    assert count_lattice_points(P2, TorusDivisor(P2, (-1, 0, 0))) is None
    assert count_lattice_points(P2, zero_divisor(P2)) == 1


def test_count_matches_chi_for_nef():
    rng = random.Random(31)
    for name in ("p2", "f1", "p1xp1", "p3"):
        fan = build_catalog(name)
        hits = 0
        while hits < 5:
            d = TorusDivisor(fan, tuple(rng.randint(0, 3) for _ in fan.rays))
            pts = count_lattice_points(fan, d)
            if pts is None:
                continue
            hits += 1
            assert pts == chi_hrr(fan, d)


def test_serre_duality():
    assert serre_duality_check(P1, TorusDivisor(P1, (3, 0)))
    assert serre_duality_check(P2, TorusDivisor(P2, (2, -1, 0)), method="recursive")
    assert serre_duality_check(P2, TorusDivisor(P2, (4, 0, 0)), method="cohomology")


def test_chi_by_method_dispatch():
    d = TorusDivisor(P2, (1, 1, 1))
    vals = {m: chi_by_method(P2, d, m) for m in ("hrr", "recursive", "cohomology")}
    assert len(set(vals.values())) == 1
    with pytest.raises(ToricError, match="unknown chi method"):
        chi_by_method(P2, d, "magic")


@given(st.tuples(*[st.integers(-4, 4)] * 4))
@settings(max_examples=25, deadline=None)
def test_three_methods_agree_on_f1(coeffs):
    fan = build_catalog("f1")
    d = TorusDivisor(fan, coeffs)
    a = chi_hrr(fan, d)
    assert chi_recursive(fan, d) == a
    assert chi_graded_cohomology(fan, d) == a
