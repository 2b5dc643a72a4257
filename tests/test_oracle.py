import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _relabel import relabel

from toricchi import clear_caches, kernel, oracle
from toricchi.catalog import (
    build_catalog,
    catalog_names,
    product_fan,
    product_p1,
    projective_space,
)
from toricchi.divisor import TorusDivisor, canonical_divisor, principal_divisor, zero_divisor
from toricchi.errors import (
    DivisorError,
    DomainError,
    NonSmoothConeError,
    RecursionBudgetExceeded,
    ScanRegionError,
    ToricError,
)
from toricchi.fan import Fan
from toricchi.intlinalg import det_int, lattice_basis_hnf, reduce_mod_lattice, solve_rational
from toricchi.oracle import (
    canonical_representative,
    cartier_data,
    chi_by_method,
    chi_graded_cohomology,
    chi_recursive,
    count_lattice_points,
    is_nef,
    serre_duality_check,
)
from toricchi.report import render_verification, run_verification
from toricchi.todd import chi_hrr, verify_ishida

P1 = projective_space(1)
P2 = projective_space(2)


def test_chi_recursive_base_cases():
    assert chi_recursive(P1, TorusDivisor(P1, (3, 0))) == 4
    assert chi_recursive(P1, TorusDivisor(P1, (0, -2))) == -1
    assert chi_recursive(P2, zero_divisor(P2)) == 1


def test_point_fan_gives_one_everywhere():
    # the fan of a point has no rays: every route, the lattice-point count
    # and the nef test run their general code and must give the point's
    # values, with no dimension-0 branch to lean on
    point = Fan(0, (), ((),))
    d = TorusDivisor(point, ())
    assert chi_hrr(point, d) == chi_recursive(point, d) == 1
    assert chi_graded_cohomology(point, d) == count_lattice_points(point, d) == 1
    assert is_nef(point, d) is True
    assert verify_ishida(point) is True
    report = render_verification(point, "point", run_verification(point, 2))
    assert report.splitlines()[-1].startswith("RESULT PASS")


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


def test_canonical_representative_refuses_bad_input():
    for coeffs in ((1, 2), (1, 2, 3, 4), ()):
        with pytest.raises(DivisorError, match="coefficients for 3 rays"):
            canonical_representative(P2, coeffs)
    # σ₀ = (0, 1) has determinant 2, so no dual basis reads the class off it
    with pytest.raises(NonSmoothConeError):
        canonical_representative(Fan(2, ((1, 0), (1, 2)), ((0, 1),)), (1, 0))


def test_canonical_representative_checks_every_input():
    # every input, a tuple of ints included, goes through the one input check
    want = canonical_representative(P2, (3, -1, 2))
    assert canonical_representative(P2, [3, -1, 2]) == want
    assert canonical_representative(P2, (3, -1, True)) == canonical_representative(P2, (3, -1, 1))
    for bad in ((Fraction(3), -1, 2), (3.0, -1, 2), [3, -1, 2.5]):
        with pytest.raises(DivisorError, match="expected integers"):
            canonical_representative(P2, bad)
    assert all(type(c) is int for c in canonical_representative(P2, [3, -1, True]))


def _hermite_representative(fan, coeffs):
    """The Hermite floor-reduction against the principal lattice: the
    normal form the recursion keyed on before the σ₀ one, kept as the
    oracle for class equality."""
    rows = [[u[i] for u in fan.rays] for i in range(fan.dim)]
    return reduce_mod_lattice(tuple(coeffs), lattice_basis_hnf(rows, len(fan.rays)))


_NORMAL_FORM_FANS = {name: (lambda name=name: build_catalog(name)) for name in catalog_names()}
_NORMAL_FORM_FANS["p1^4"] = lambda: product_p1(4)
_NORMAL_FORM_FANS["surface17"] = lambda: _many_ray_surface()


@pytest.mark.parametrize("name", sorted(_NORMAL_FORM_FANS))
def test_canonical_representative_agrees_with_hermite_on_classes(name):
    # rep(c1) == rep(c2) exactly when c1 − c2 is principal, which the
    # Hermite reduction decides; and the rep is zero on σ₀ and idempotent
    fan = _NORMAL_FORM_FANS[name]()
    sigma = fan.max_cones[0]
    r = len(fan.rays)
    rng = random.Random(name)
    draws = [tuple(rng.randint(-20, 20) for _ in range(r)) for _ in range(30)]
    pairs = list(zip(draws, draws[1:]))
    for c in draws:
        m = tuple(rng.randint(-20, 20) for _ in range(fan.dim))
        pairs.append((c, (TorusDivisor(fan, c) + principal_divisor(fan, m)).coeffs))
        rho = rng.randrange(r)
        pairs.append((c, tuple(x + (g == rho) for g, x in enumerate(c))))
    outcomes = set()
    for c1, c2 in pairs:
        rep1 = canonical_representative(fan, c1)
        assert all(rep1[i] == 0 for i in sigma)
        assert canonical_representative(fan, rep1) == rep1
        principal = not any(_hermite_representative(fan, [a - b for a, b in zip(c1, c2)]))
        assert (rep1 == canonical_representative(fan, c2)) == principal
        outcomes.add(principal)
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", ["bl1_p2", "bl2_p2", "bl3_p2"])
def test_hermite_and_sigma0_forms_differ_on_the_blowups(name):
    # the Hermite pivots (0, 1) are a lattice basis but not a cone, so the
    # two normal forms pick different representatives of the same class
    fan = build_catalog(name)
    rng = random.Random(name)
    draws = [tuple(rng.randint(-20, 20) for _ in fan.rays) for _ in range(20)]
    assert any(canonical_representative(fan, c) != _hermite_representative(fan, c) for c in draws)


def test_chi_recursive_ray_order_is_irrelevant():
    # relabelling the rays reorders the recursion's picks, moves σ₀ and
    # reorders every star fan; no route may notice
    for name in ("f2", "bl3_p2", "p1xp2", "p3"):
        fan = build_catalog(name)
        rng = random.Random(name)
        draws = [tuple(rng.randint(-5, 5) for _ in fan.rays) for _ in range(4)]
        base = [chi_recursive(fan, TorusDivisor(fan, c)) for c in draws]
        order = list(range(len(fan.rays)))
        for _ in range(4):
            rng.shuffle(order)
            other, move = relabel(fan, order)
            for coeffs, want in zip(draws, base):
                d = TorusDivisor(other, move(coeffs))
                assert chi_recursive(other, d) == chi_hrr(other, d) == want, (name, order)
                assert chi_graded_cohomology(other, d) == want, (name, order)


def test_bad_recursion_budget_is_a_domain_error(monkeypatch):
    monkeypatch.setenv("TORIC_RECURSION_BUDGET", "1e6")
    with pytest.raises(DomainError, match="TORIC_RECURSION_BUDGET"):
        chi_recursive(P2, TorusDivisor(P2, (1, 0, 0)))


def test_recursion_budget(monkeypatch):
    monkeypatch.setenv("TORIC_RECURSION_BUDGET", "0")
    # an empty memo, so no earlier call's entries can satisfy this
    clear_caches()
    with pytest.raises(RecursionBudgetExceeded):
        chi_recursive(P2, TorusDivisor(P2, (7, 3, 1)))
    monkeypatch.setenv("TORIC_RECURSION_BUDGET", "100000")
    assert chi_recursive(P2, TorusDivisor(P2, (7, 3, 1))) > 0


@pytest.mark.parametrize("a", [30000, -30000])
def test_chi_recursive_long_chain_matches_hrr(a):
    # the chain along D_0 has |a| links; it is a loop, so no depth limit is met
    d = TorusDivisor(P2, (a, 0, 0))
    clear_caches()
    assert chi_recursive(P2, d) == chi_hrr(P2, d)


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
    "fan, coeffs, least",
    [
        (P2, (7, 3, 1), 11),
        (projective_space(3), (3, -2, 1, 2), 8),
    ],
    ids=["p2", "p3"],
)
def test_least_recursion_budget_is_the_node_count(monkeypatch, fan, coeffs, least):
    # one unit per memo miss on a nonzero class, from an empty memo; pins
    # the node count
    d = TorusDivisor(fan, coeffs)
    monkeypatch.setenv("TORIC_RECURSION_BUDGET", str(least - 1))
    clear_caches()
    with pytest.raises(RecursionBudgetExceeded):
        chi_recursive(fan, d)
    monkeypatch.setenv("TORIC_RECURSION_BUDGET", str(least))
    clear_caches()
    assert chi_recursive(fan, d) == chi_hrr(fan, d)


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


def test_chi_recursive_builds_no_divisor_below_its_entry(monkeypatch):
    # the divisor is checked once, when chi_recursive takes it; every link
    # restricts int tuples through divisor.restrict
    fan = projective_space(3)
    d = TorusDivisor(fan, (12, -7, 5, 9))
    want = chi_hrr(fan, d)
    clear_caches()
    built = []
    check = TorusDivisor.__post_init__

    def counted(self):
        built.append(self.coeffs)
        check(self)

    monkeypatch.setattr(TorusDivisor, "__post_init__", counted)
    assert chi_recursive(fan, d) == want == 1540
    assert built == []


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


def _shell_slabs(lo, hi):
    """The shell around [lo, hi] as disjoint boxes: for each axis j, the two
    slabs where coordinate j sits just outside, axes < j stay inside, and
    axes > j range over the grown box."""
    n = len(lo)
    for j in range(n):
        head_lo = [lo[i] if i < j else lo[i] - 1 for i in range(n)]
        head_hi = [hi[i] if i < j else hi[i] + 1 for i in range(n)]
        for side in (lo[j] - 1, hi[j] + 1):
            s_lo = list(head_lo)
            s_hi = list(head_hi)
            s_lo[j] = s_hi[j] = side
            yield tuple(s_lo), tuple(s_hi)


def _shell_walk(fan, coeffs, table):
    """The scan the oracle ran before the vertex box was proven enough:
    pad the vertex box by 2, then add shells until two in a row sum to 0.
    Returns (sum, lo, hi) with [lo, hi] the whole region it visited."""
    rays = fan.rays
    bounds = [-a for a in coeffs]
    lo, hi = oracle._arrangement_box(fan, coeffs)
    lo = tuple(x - 2 for x in lo)
    hi = tuple(x + 2 for x in hi)
    total = kernel.box_sum(lo, hi, rays, bounds, table)
    zeros = 0
    while zeros < 2:
        s = sum(kernel.box_sum(a, b, rays, bounds, table) for a, b in _shell_slabs(lo, hi))
        total += s
        zeros = zeros + 1 if s == 0 else 0
        lo = tuple(x - 1 for x in lo)
        hi = tuple(x + 1 for x in hi)
    return total, lo, hi


def test_scan_detail_reports_stable_box():
    # the route sums the unpadded vertex box, and the two shells around
    # it, the old walk's stopping rule, add nothing
    coeffs = (3, 0, 0)
    assert chi_graded_cohomology(P2, TorusDivisor(P2, coeffs)) == 10
    lo, hi = oracle._arrangement_box(P2, coeffs)
    assert (lo, hi) == ((-3, 0), (0, 3))
    bounds = [-a for a in coeffs]
    table = oracle._contribution_table(P2)
    for grow in (0, 1):
        glo = tuple(x - grow for x in lo)
        ghi = tuple(x + grow for x in hi)
        slabs = _shell_slabs(glo, ghi)
        assert sum(kernel.box_sum(a, b, P2.rays, bounds, table) for a, b in slabs) == 0


def test_shell_slabs_tile_the_shell():
    # the shell walk relies on the slabs covering the shell once
    lo, hi = (-1, -1, -1), (1, 1, 1)
    seen = set()
    for slo, shi in _shell_slabs(lo, hi):
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


class _Abs:
    """|table[mask]|, so a box sum of it is zero only if every term is."""

    def __init__(self, table):
        self.table = table

    def __getitem__(self, mask):
        return abs(self.table[mask])


_VERTEX_BOX_FANS = {
    **{name: (lambda name=name: build_catalog(name)) for name in catalog_names()},
    "p1^4": lambda: product_p1(4),
    "p2xp2": lambda: product_fan(P2, P2),
}


@pytest.mark.parametrize("name", sorted(_VERTEX_BOX_FANS))
def test_vertex_box_holds_every_term_of_the_shell_walk(name):
    # every term the shell walk sees outside the vertex box is 0, and the
    # vertex-box sum the route returns is the walk's χ
    fan = _VERTEX_BOX_FANS[name]()
    table = oracle._contribution_table(fan)
    rng = random.Random(name)
    for _ in range(34 if fan.dim <= 3 else 12):
        coeffs = tuple(rng.randint(-6, 6) for _ in fan.rays)
        want, wlo, whi = _shell_walk(fan, coeffs, table)
        lo, hi = oracle._arrangement_box(fan, coeffs)
        assert chi_graded_cohomology(fan, TorusDivisor(fan, coeffs)) == want
        bounds = [-a for a in coeffs]
        outside = kernel.box_sum(wlo, whi, fan.rays, bounds, _Abs(table)) - kernel.box_sum(
            lo, hi, fan.rays, bounds, _Abs(table)
        )
        assert outside == 0


@pytest.mark.parametrize(
    "coeffs, points", [((-1, 0, 1, -1, 0, 1, -1, 0), 128), ((3, 0, 0, 0, 0, 0, 0, 0), 16384)]
)
def test_p7_vertex_box_sizes(coeffs, points):
    # the shell walk summed 2,097,152 and 10,000,000 points here, plus shells
    fan = projective_space(7)
    d = TorusDivisor(fan, coeffs)
    lo, hi = oracle._arrangement_box(fan, coeffs)
    assert math.prod(b - a + 1 for a, b in zip(lo, hi)) == points
    assert chi_graded_cohomology(fan, d) == chi_hrr(fan, d)


def test_scan_refuses_a_box_over_the_line_limit():
    # the box of P^3 with a = (100000, 0, 0, 0) has about 10^10 lines
    fan = build_catalog("p3")
    with pytest.raises(ScanRegionError, match="lines"):
        chi_graded_cohomology(fan, TorusDivisor(fan, (100000, 0, 0, 0)))
    # the refusal comes before any summing, and the bound is on lines alone
    assert oracle._box_sum((0, 0), (0, oracle._MAX_SCAN_LINES), [], [], [1]) == (
        oracle._MAX_SCAN_LINES + 1
    )
    with pytest.raises(ScanRegionError):
        oracle._box_sum((0, 0, 0), (1, 1 << 23, 1 << 23), [], [], [1])


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
    return tuple(los), tuple(his)


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
    # vertices m = −3 (ray 1) and m = −5 (ray −1)
    assert oracle._arrangement_box(P1, (3, -5)) == ((-5,), (-3,))


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


def test_count_lattice_points_reads_the_cartier_data_once(monkeypatch):
    calls = []
    real = oracle.cartier_data
    monkeypatch.setattr(oracle, "cartier_data", lambda *a: calls.append(a) or real(*a))
    for coeffs, want in (((2, 0, 0), 6), ((-1, 0, 0), None)):
        calls.clear()
        assert count_lattice_points(P2, TorusDivisor(P2, coeffs)) == want
        assert len(calls) == 1


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


def _count_by_points(fan, d):
    """|P_D ∩ M| by testing every point of the Cartier data's bounding box,
    as count_lattice_points did before it summed with the scan kernel."""
    data = cartier_data(fan, d)
    ranges = [range(min(m[i] for m in data), max(m[i] for m in data) + 1) for i in range(fan.dim)]
    return sum(
        all(sum(x * y for x, y in zip(m, u)) >= -a for u, a in zip(fan.rays, d.coeffs))
        for m in product(*ranges)
    )


@pytest.mark.parametrize("name", catalog_names())
def test_count_lattice_points_matches_point_loop(name):
    fan = build_catalog(name)
    rng = random.Random(name)
    draws = [tuple(rng.randint(0, 3) for _ in fan.rays) for _ in range(12)]
    nef = [TorusDivisor(fan, c) for c in draws + [(0,) * len(fan.rays)]]
    nef = [d for d in nef if is_nef(fan, d)]
    assert len(nef) >= 2
    for d in nef:
        assert count_lattice_points(fan, d) == _count_by_points(fan, d)


def test_serre_duality():
    assert serre_duality_check(P1, TorusDivisor(P1, (3, 0)))
    assert serre_duality_check(P2, TorusDivisor(P2, (2, -1, 0)), method="recursive")
    assert serre_duality_check(P2, TorusDivisor(P2, (4, 0, 0)), method="cohomology")


def test_chi_by_method_dispatch():
    d = TorusDivisor(P2, (1, 1, 1))
    vals = {m: chi_by_method(P2, d, m) for m in ("hrr", "recursive", "cohomology")}
    assert len(set(vals.values())) == 1
    for bad in ("magic", ["hrr"]):
        with pytest.raises(ToricError, match="unknown chi method"):
            chi_by_method(P2, d, bad)


CHAIN_FANS = [build_catalog(name) for name in catalog_names()] + [product_p1(4)]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_every_link_of_a_descent_chain_is_canonical(data):
    # _chi reduces once per chain: each stepped link must already be canonical
    fan = data.draw(st.sampled_from(CHAIN_FANS))
    coeffs = data.draw(st.tuples(*[st.integers(-6, 6)] * len(fan.rays)))
    order = data.draw(st.permutations(range(len(fan.rays))))
    rep = canonical_representative(fan, coeffs)
    while any(rep):
        rho = next(i for i in order if rep[i])
        sign = 1 if rep[rho] > 0 else -1
        stepped = tuple(c - sign if i == rho else c for i, c in enumerate(rep))
        assert canonical_representative(fan, stepped) == stepped
        rep = stepped


@given(st.tuples(*[st.integers(-4, 4)] * 4))
@settings(max_examples=25, deadline=None)
def test_three_methods_agree_on_f1(coeffs):
    fan = build_catalog("f1")
    d = TorusDivisor(fan, coeffs)
    a = chi_hrr(fan, d)
    assert chi_recursive(fan, d) == a
    assert chi_graded_cohomology(fan, d) == a
