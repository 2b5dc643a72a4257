"""Differential tests of the per-fan engine against the computations it
replaced: cone inversion, the face scan, first-cone search, the move-case
multiplication (against the reference move in _move_oracle), per-cone
Cartier solves and the uncached step degree; and the store itself: its
bound, eviction and clearing."""

import ast
import random
from itertools import combinations
from pathlib import Path

import pytest

import _move_oracle

import toricchi
from toricchi import engine, oracle, todd
from toricchi.catalog import build_catalog, catalog_names
from toricchi.chow import CycleClass, fundamental_class, multiply_ray_divisor
from toricchi.cli import main
from toricchi.divisor import TorusDivisor, dual_basis_vector, first_cone_containing
from toricchi.engine import engine_for
from toricchi.errors import NonSmoothConeError
from toricchi.fan import (
    Fan,
    enumerate_faces,
    is_complete,
    is_smooth,
    require_complete,
    spans_cone,
    star_fan,
)
from toricchi.intlinalg import inv_unimodular, solve_unimodular
from toricchi.oracle import (
    cartier_data,
    chi_graded_cohomology,
    chi_recursive,
    count_lattice_points,
)
from toricchi.todd import (
    chi_hrr,
    step_intermediate_direct,
    todd_class,
    verify_induction_step,
    verify_ishida,
)

ALL_FANS = catalog_names()
FOLDS = [n for n in ALL_FANS if build_catalog(n).dim == 3]


def scan_spans_cone(fan, rays):
    want = tuple(sorted(set(rays)))
    return want if any(set(want) <= set(c) for c in fan.max_cones) else None


@pytest.mark.parametrize("name", ALL_FANS)
def test_dual_bases_are_columns_of_the_inverse(name):
    fan = build_catalog(name)
    for cone in fan.max_cones:
        inv = inv_unimodular(fan.ray_matrix(cone))
        columns = tuple(tuple(row[j] for row in inv) for j in range(fan.dim))
        assert fan.dual_basis(cone) == columns
        for j, rho in enumerate(cone):
            assert dual_basis_vector(fan, cone, rho) == columns[j]


@pytest.mark.parametrize("name", ALL_FANS)
def test_face_set_agrees_with_cone_scan(name):
    fan = build_catalog(name)
    rays = range(len(fan.rays))
    for k in range(fan.dim + 2):
        for sub in combinations(rays, k):
            assert spans_cone(fan, sub) == scan_spans_cone(fan, sub)
            assert spans_cone(fan, sub[::-1]) == scan_spans_cone(fan, sub)
            if scan_spans_cone(fan, sub) is not None:
                assert first_cone_containing(fan, sub) == _move_oracle.lex_first(fan, sub)
        if k <= fan.dim:
            assert enumerate_faces(fan, k) == tuple(
                sub for sub in combinations(rays, k) if scan_spans_cone(fan, sub) is not None
            )


@pytest.mark.parametrize("name", ALL_FANS)
def test_engine_rows_match_explicit_move(name):
    # the engine's rows and the reference move in the same (lex-first) cone
    # must build the same classes, term for term
    fan = build_catalog(name)
    td = todd_class(fan)
    for rho in range(len(fan.rays)):
        for cls in (fundamental_class(fan), td, multiply_ray_divisor(td, rho)):
            fast = multiply_ray_divisor(cls, rho)
            assert fast.parts == _move_oracle.times_ray(cls, rho, _move_oracle.lex_first).parts


@pytest.mark.parametrize("name", ALL_FANS)
def test_cartier_data_matches_per_cone_solve(name):
    fan = build_catalog(name)
    rng = random.Random(name)
    for _ in range(5):
        d = TorusDivisor(fan, [rng.randint(-6, 6) for _ in fan.rays])
        expected = [
            solve_unimodular(fan.ray_matrix(c), [-d.coeffs[i] for i in c])
            for c in fan.max_cones
        ]
        assert cartier_data(fan, d) == expected


@pytest.mark.parametrize("name", FOLDS)
def test_step_table_matches_direct_intermediate(name):
    fan = build_catalog(name)
    rng = random.Random(4100 + ALL_FANS.index(name))
    for trial in range(4):
        d = TorusDivisor(fan, [rng.randint(-4, 4) for _ in fan.rays])
        for rho in range(len(fan.rays)):
            step = verify_induction_step(fan, d, rho)
            assert step.ok
            assert step.intermediate == step_intermediate_direct(fan, d, rho)
            chooser = _move_oracle.random_chooser(trial * 100 + rho)
            assert step.intermediate == _move_oracle.step_intermediate(fan, d, rho, chooser)


def test_non_unimodular_cone_raises_typed_error():
    fan = Fan(2, ((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(NonSmoothConeError) as info:
        fan.dual_basis((0, 1))
    assert info.value.cone == (0, 1)
    assert info.value.determinant == 2
    assert isinstance(info.value, toricchi.ToricError)
    # smooth cones of the same fan still invert
    assert fan.dual_basis((1, 2)) == ((-1, 1), (-2, 1))
    assert (0, 1) not in fan.dual_bases
    with pytest.raises(toricchi.ToricError, match="not a maximal cone"):
        fan.dual_basis((0,))


def test_verdicts_build_no_engine(capsys):
    # smooth and complete are decided when the fan is built, so the gate
    # and `toric check` read them without the face closure of an engine
    toricchi.clear_caches()
    for name in ALL_FANS:
        fan = build_catalog(name)
        require_complete(fan)
        assert is_smooth(fan) and is_complete(fan)
    assert main(["check", "catalog:projective_space:12"]) == 0
    assert "smooth: yes\ncomplete: yes\n" in capsys.readouterr().out
    assert engine._ENGINES == {}


def test_move_case_rejects_a_class_off_the_fan():
    fan = build_catalog("p1xp1")
    with pytest.raises(toricchi.DivisorError):
        multiply_ray_divisor(CycleClass(fan, {(0, 1): 1}), 0)


def _holds(fan, fn):
    """Whether the fan's engine holds a value of the per_fan function fn."""
    return any(key[0] is fn.__wrapped__ for key in engine_for(fan).memo)


def test_clear_caches_keeps_reports_byte_identical(capsys):
    argv = ["verify-hrr", "catalog:p1xp2", "--trials", "3", "--seed", "5"]
    assert main(argv) == 0
    before = capsys.readouterr().out
    fan = build_catalog("p1xp2")
    assert _holds(fan, todd._td_degrees)
    assert _holds(fan, oracle._arrangement_adjugates)
    toricchi.clear_caches()
    assert engine._ENGINES == {}
    assert todd_class.cache_info().currsize == 0
    assert not _holds(fan, todd._td_degrees)
    assert not _holds(fan, oracle._arrangement_adjugates)
    assert main(argv) == 0
    assert capsys.readouterr().out == before


BOUND_FANS = ("p2", "f2", "bl3_p2", "p1xp1xp1", "p1xp2", "p3")


def _everything(fan):
    """Every per-fan value the routes read, through the public calls."""
    rng = random.Random(len(fan.rays))
    d = TorusDivisor(fan, [rng.randint(-3, 3) for _ in fan.rays])
    star = star_fan(fan, (0,))
    return (
        is_smooth(fan), is_complete(fan), verify_ishida(fan),
        chi_hrr(fan, d), chi_recursive(fan, d), chi_graded_cohomology(fan, d),
        count_lattice_points(fan, d),
        tuple(verify_induction_step(fan, d, rho) for rho in range(len(fan.rays))),
        star.fan, dict(star.ray_map),
    )


def test_engines_stay_under_the_bound(monkeypatch, capsys):
    toricchi.clear_caches()
    fans = [build_catalog(name) for name in BOUND_FANS]
    expected = [_everything(fan) for fan in fans]
    argv = ["verify-hrr", "catalog:p1xp2", "--trials", "3", "--seed", "5"]
    assert main(argv) == 0
    report = capsys.readouterr().out

    toricchi.clear_caches()
    monkeypatch.setattr(engine, "_MAX_ENGINES", 4)
    for _ in range(2):  # the second pass rebuilds the evicted engines
        oracle._chi_memo.clear()
        for fan, want in zip(fans, expected):
            assert _everything(fan) == want
            assert len(engine._ENGINES) <= 4
    assert main(argv) == 0
    assert capsys.readouterr().out == report
    assert len(engine._ENGINES) <= 4
    toricchi.clear_caches()


def test_oldest_engine_goes_first(monkeypatch):
    toricchi.clear_caches()
    monkeypatch.setattr(engine, "_MAX_ENGINES", 3)
    a, b, c, d = (build_catalog(name) for name in ("p1", "p2", "p3", "p4"))
    first = engine_for(a)
    engine_for(b)
    engine_for(c)
    assert engine_for(a) is first
    engine_for(d)
    assert list(engine._ENGINES) == [b, c, d]
    assert engine_for(a) is not first  # rebuilt, and b goes
    assert list(engine._ENGINES) == [c, d, a]
    toricchi.clear_caches()


SRC = Path(toricchi.__file__).resolve().parent
# the only lru_caches: per-divisor or per-order memos, and todd_class,
# whose cache_info() perfbench/run.py reads
LRU_CACHED = {"todd.todd_univariate", "todd.todd_class"}


def test_per_fan_values_live_only_in_the_engine():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorated = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    for sub in ast.walk(dec):
                        decorated[id(sub)] = node.name
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ("lru_cache", "cache"):
                where = decorated.get(id(node), f"line {node.lineno}")
                found.add(f"{path.stem}.{where}")
    assert found == LRU_CACHED
