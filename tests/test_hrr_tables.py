"""Differential tests of the integer HRR sums (chi_hrr and the upstairs
sides of verify_induction_step) against the Fraction sums they replaced.

The oracle is the former per-monomial degree table: deg(base · monomial)
memoized against one class, summed with the rational e^D terms of
exp_divisor over D's own support, with no σ₀ zeroing and no integer scale.
Every check runs on the catalog, three product 4-folds and a 17-ray
surface, with small and with 10^15-sized coefficients.
"""

import math
import random
from fractions import Fraction

import pytest

from toricchi.catalog import (
    build_catalog,
    catalog_names,
    hirzebruch,
    product_fan,
    product_p1,
    projective_space,
)
from toricchi.chow import DegreeTable, MonomialWalk, degree, exp_divisor, multiply_ray_divisor
from toricchi.divisor import TorusDivisor, is_linearly_equivalent, ray_divisor
from toricchi.fan import Fan
from toricchi.todd import (
    chi_hrr,
    chi_hrr_direct,
    step_class,
    step_intermediate_direct,
    todd_class,
    verify_induction_step,
)


class FractionDegreeTable:
    """deg(base · D_{ρ1} ⋯ D_{ρk}) per ray monomial, each one multiplied out
    from base in the order the monomial lists it, memoized as Fractions."""

    def __init__(self, base):
        self.base = base
        self._degrees = {}

    def __getitem__(self, mono):
        got = self._degrees.get(mono)
        if got is None:
            cls = self.base
            for rho in mono:
                cls = multiply_ray_divisor(cls, rho)
                if not cls.parts:
                    break
            got = self._degrees[mono] = degree(cls)
        return got


def oracle_sum(table, d):
    return sum((t.coeff * table[t.rays] for t in exp_divisor(d, d.fan.dim)), Fraction(0))


def oracle_step(fan, d, rho):
    """(rhs, intermediate) as verify_induction_step computed them before."""
    td = FractionDegreeTable(todd_class(fan))
    rhs = oracle_sum(td, d) - oracle_sum(td, d - ray_divisor(fan, rho))
    return rhs, oracle_sum(FractionDegreeTable(step_class(fan, rho)), d)


def many_ray_surface():
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


FANS = {name: (lambda name=name: build_catalog(name)) for name in catalog_names()}
FANS.update({
    "p1^4": lambda: product_p1(4),
    "f1xp1xp1": lambda: product_fan(hirzebruch(1), product_p1(2)),
    "p2xp2": lambda: product_fan(projective_space(2), projective_space(2)),
    "surface17": many_ray_surface,
})
BIG = 10**15


def divisors(name, fan, count=2):
    """count seeded divisors with coefficients in -20..20, then count with
    coefficients ±10^15 plus a small offset."""
    rng = random.Random(f"hrr-tables-{name}")
    small = [tuple(rng.randint(-20, 20) for _ in fan.rays) for _ in range(count)]
    big = [
        tuple(rng.choice((-BIG, BIG)) + rng.randint(-20, 20) for _ in fan.rays)
        for _ in range(count)
    ]
    return [TorusDivisor(fan, c) for c in small + big]


@pytest.mark.parametrize("name", FANS)
def test_chi_hrr_matches_fraction_oracle_and_direct_route(name):
    fan = FANS[name]()
    td = FractionDegreeTable(todd_class(fan))
    for d in divisors(name, fan):
        chi = chi_hrr(fan, d)
        assert type(chi) is int
        assert chi == oracle_sum(td, d) == chi_hrr_direct(fan, d)


@pytest.mark.parametrize("name", FANS)
def test_step_sides_match_fraction_oracles_and_direct_route(name):
    fan = FANS[name]()
    rng = random.Random(f"hrr-steps-{name}")
    # every ray on the small fans; two per divisor where the 4-folds and the
    # 17-ray surface make the direct route slow
    few = fan.dim > 3 or len(fan.rays) > 8
    for d in divisors(name, fan, count=1):
        rays = rng.sample(range(len(fan.rays)), 2) if few else range(len(fan.rays))
        for rho in rays:
            step = verify_induction_step(fan, d, rho)
            assert step.ok, (name, d.coeffs, rho, step)
            assert (step.rhs, step.intermediate) == oracle_step(fan, d, rho)
            assert step.intermediate == step_intermediate_direct(fan, d, rho)


@pytest.mark.parametrize("name", FANS)
def test_zeroing_on_any_maximal_cone_gives_the_same_chi(name):
    fan = FANS[name]()
    n = fan.dim
    tables = [DegreeTable(todd_class(fan), MonomialWalk(fan, sigma)) for sigma in fan.max_cones]
    for d in divisors(name, fan, count=1):
        chi = chi_hrr(fan, d)
        for table in tables:
            total = table.pair(table.walk.weights(d.coeffs))
            assert Fraction(total, math.factorial(n) * table.scale) == chi


@pytest.mark.parametrize("name", FANS)
def test_scaled_table_entries_are_the_exact_degrees(name):
    fan = FANS[name]()
    walk = MonomialWalk(fan, fan.max_cones[0])
    assert len(walk.rays) == len(set(walk.rays)) == math.comb(len(fan.rays), fan.dim)
    bases = [todd_class(fan)] + [step_class(fan, rho) for rho in range(min(3, len(fan.rays)))]
    for base in bases:
        table = DegreeTable(base, walk)
        oracle = FractionDegreeTable(base)
        assert all(type(x) is int for x in table.degrees)
        assert all(
            oracle[mono] * table.scale == x for mono, x in zip(walk.rays, table.degrees)
        )


@pytest.mark.parametrize("name", ["p2", "p1xp1xp1", "p1^4", "surface17"])
def test_weights_are_the_scaled_exponential(name):
    # n!/α! · a′^α is n! times the e^{D′} coefficient of D^α, D′ zero on σ
    fan = FANS[name]()
    walk = MonomialWalk(fan, fan.max_cones[-1])
    d = divisors(name, fan, count=1)[1]
    weights = walk.weights(d.coeffs)
    shifted = [
        a - sum(s * t for s, t in zip((d.coeffs[i] for i in walk.sigma), row))
        for a, row in zip((d.coeffs[g] for g in walk.off), walk.shifts)
    ]
    coeffs = [0] * len(fan.rays)
    for g, a in zip(walk.off, shifted):
        coeffs[g] = a
    zeroed = TorusDivisor(fan, coeffs)
    assert is_linearly_equivalent(d, zeroed) is not None
    terms = {t.rays: t.coeff for t in exp_divisor(zeroed, fan.dim)}
    top = math.factorial(fan.dim)
    for mono, w in zip(walk.rays, weights):
        assert w == terms.get(mono, 0) * top
