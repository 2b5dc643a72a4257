"""Differential tests of the per-fan engine against the computations it
replaced: cone inversion, the face scan, first-cone search, the move-case
multiplication, per-cone Cartier solves and the uncached step degree."""

import random
from itertools import combinations

import pytest

import toricchi
from toricchi import oracle
from toricchi.catalog import build_catalog, catalog_names
from toricchi.chow import CycleClass, fundamental_class, multiply_ray_divisor
from toricchi.cli import main
from toricchi.divisor import TorusDivisor, dual_basis_vector, first_cone_containing
from toricchi.engine import engine_for
from toricchi.errors import NonSmoothConeError
from toricchi.fan import Fan, enumerate_faces, spans_cone
from toricchi.intlinalg import inv_unimodular, solve_unimodular
from toricchi.oracle import cartier_data
from toricchi.todd import step_intermediate_direct, todd_class, verify_induction_step

ALL_FANS = catalog_names()
FOLDS = [n for n in ALL_FANS if build_catalog(n).dim == 3]


def random_cone_chooser(seed):
    rng = random.Random(seed)

    def choose(fan, tau):
        return rng.choice([c for c in fan.max_cones if set(tau) <= set(c)])

    return choose


def lex_first_chooser(fan, tau):
    return min(c for c in fan.max_cones if set(tau) <= set(c))


def scan_spans_cone(fan, rays):
    want = tuple(sorted(set(rays)))
    return want if any(set(want) <= set(c) for c in fan.max_cones) else None


@pytest.mark.parametrize("name", ALL_FANS)
def test_dual_bases_are_columns_of_the_inverse(name):
    fan = build_catalog(name)
    engine = engine_for(fan)
    for cone in fan.max_cones:
        inv = inv_unimodular(fan.ray_matrix(cone))
        columns = tuple(tuple(row[j] for row in inv) for j in range(fan.dim))
        assert engine.dual_basis(cone) == columns
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
                assert first_cone_containing(fan, sub) == lex_first_chooser(fan, sub)
        if k <= fan.dim:
            assert enumerate_faces(fan, k) == tuple(
                sub for sub in combinations(rays, k) if scan_spans_cone(fan, sub) is not None
            )


@pytest.mark.parametrize("name", ALL_FANS)
def test_engine_rows_match_explicit_move(name):
    # the table path and the override path with the same (lex-first) cone
    # must build the same classes, term for term
    fan = build_catalog(name)
    td = todd_class(fan)
    for rho in range(len(fan.rays)):
        for cls in (fundamental_class(fan), td, multiply_ray_divisor(td, rho)):
            fast = multiply_ray_divisor(cls, rho)
            slow = multiply_ray_divisor(cls, rho, lex_first_chooser)
            assert fast.parts == slow.parts


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
            chooser = random_cone_chooser(trial * 100 + rho)
            assert step.intermediate == step_intermediate_direct(fan, d, rho, chooser)


def test_non_unimodular_cone_raises_typed_error():
    fan = Fan(2, ((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(NonSmoothConeError) as info:
        engine_for(fan).dual_basis((0, 1))
    assert info.value.cone == (0, 1)
    assert info.value.determinant == 2
    assert isinstance(info.value, toricchi.ToricError)
    # smooth cones of the same fan still invert
    assert engine_for(fan).dual_basis((1, 2)) == ((-1, 1), (-2, 1))


def test_move_case_rejects_a_class_off_the_fan():
    fan = build_catalog("p1xp1")
    with pytest.raises(toricchi.DivisorError):
        multiply_ray_divisor(CycleClass(fan, {(0, 1): 1}), 0)


def test_clear_caches_keeps_reports_byte_identical(capsys):
    argv = ["verify-hrr", "catalog:p1xp2", "--trials", "3", "--seed", "5"]
    assert main(argv) == 0
    before = capsys.readouterr().out
    fan = build_catalog("p1xp2")
    assert engine_for(fan).td_degrees is not None
    assert oracle._arrangement_adjugates.cache_info().currsize > 0
    toricchi.clear_caches()
    assert engine_for(fan).td_degrees is None
    assert todd_class.cache_info().currsize == 0
    assert oracle._arrangement_adjugates.cache_info().currsize == 0
    assert main(argv) == 0
    assert capsys.readouterr().out == before
