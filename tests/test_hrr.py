import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricchi.catalog import (
    build_catalog,
    catalog_names,
    hirzebruch,
    product_fan,
    product_p1,
    projective_space,
)
from toricchi.divisor import (
    TorusDivisor,
    canonical_divisor,
    principal_divisor,
    ray_divisor,
    zero_divisor,
)
from toricchi.fan import is_complete, is_smooth
from toricchi.oracle import chi_graded_cohomology, chi_recursive
from toricchi.todd import (
    adjacent_rays,
    chi_hrr,
    chi_hrr_direct,
    verify_induction_step,
    verify_ishida,
)

P1 = projective_space(1)
P2 = projective_space(2)


def test_chi_of_structure_sheaf_is_one_everywhere():
    for name in catalog_names():
        fan = build_catalog(name)
        assert chi_hrr(fan, zero_divisor(fan)) == 1


@pytest.mark.parametrize("d", range(-5, 6))
def test_chi_p1_closed_form(d):
    assert chi_hrr(P1, TorusDivisor(P1, (d, 0))) == d + 1


@pytest.mark.parametrize("d", range(-5, 6))
def test_chi_p2_closed_form(d):
    assert chi_hrr(P2, TorusDivisor(P2, (d, 0, 0))) == (d + 1) * (d + 2) // 2


def test_chi_p3_closed_form():
    p3 = build_catalog("p3")
    for d in range(5):
        want = (d + 1) * (d + 2) * (d + 3) // 6
        assert chi_hrr(p3, TorusDivisor(p3, (d, 0, 0, 0))) == want


def test_chi_canonical_p2():
    # chi(K) = chi(O(-3H)) = (-2)(-1)/2 = 1, with the sign from h^2
    assert chi_hrr(P2, canonical_divisor(P2)) == 1


def test_chi_p1xp1_product_formula():
    fan = build_catalog("p1xp1")
    for a in range(-3, 4):
        for b in range(-3, 4):
            got = chi_hrr(fan, TorusDivisor(fan, (a, 0, b, 0)))
            assert got == (a + 1) * (b + 1)


def test_chi_matches_direct_route():
    rng = random.Random(11)
    for name in ("p2", "f2", "p1xp1", "bl2_p2", "p1xp1xp1"):
        fan = build_catalog(name)
        for _ in range(5):
            d = TorusDivisor(
                fan, tuple(rng.randint(-4, 4) for _ in fan.rays)
            )
            assert chi_hrr_direct(fan, d) == chi_hrr(fan, d)


@given(st.tuples(*[st.integers(-5, 5)] * 3))
@settings(max_examples=50)
def test_chi_invariant_under_linear_equivalence(m_and_d):
    # chi only sees the divisor class
    a, b, c = m_and_d
    d = TorusDivisor(P2, (c, 0, 0))
    shifted = d + principal_divisor(P2, (a, b))
    assert chi_hrr(P2, shifted) == chi_hrr(P2, d)


def test_adjacent_rays():
    assert adjacent_rays(P2, 0) == [1, 2]
    fan = build_catalog("p1xp1")
    assert adjacent_rays(fan, 0) == [2, 3]  # -e1 is opposite, never adjacent


def test_induction_step_p2_zero_divisor():
    rep = verify_induction_step(P2, zero_divisor(P2), 0)
    assert rep.lhs == 1
    assert rep.rhs == 1
    assert rep.intermediate == 1
    assert rep.ok


@pytest.mark.parametrize("deg", range(4))
def test_induction_step_p2_line_restriction(deg):
    # True is ray 1 too, and the report keeps the checked index
    for rho in (1, True):
        rep = verify_induction_step(P2, TorusDivisor(P2, (deg, 0, 0)), rho)
        # restriction to the line V(1) has degree deg, so chi = deg + 1
        assert rep.lhs == deg + 1
        assert rep.ok
        assert rep.rho == 1 and type(rep.rho) is int


def test_induction_step_p1xp1_ruling():
    fan = build_catalog("p1xp1")
    for a in range(3):
        for b in range(3):
            d = TorusDivisor(fan, (a, 0, b, 0))
            rep = verify_induction_step(fan, d, 2)
            assert rep.lhs == a + 1  # the horizontal ruling only sees a
            assert rep.ok


def test_induction_step_every_ray_random_divisors():
    rng = random.Random(23)
    for name in ("p2", "f1", "f3", "p1xp2", "bl3_p2"):
        fan = build_catalog(name)
        for _ in range(3):
            d = TorusDivisor(fan, tuple(rng.randint(-3, 3) for _ in fan.rays))
            for rho in range(len(fan.rays)):
                rep = verify_induction_step(fan, d, rho)
                assert rep.ok, (name, d.coeffs, rho, rep)


def test_step_report_flags_disagreement():
    from fractions import Fraction

    from toricchi.todd import StepReport

    bad = StepReport(rho=0, lhs=2, rhs=Fraction(2), intermediate=Fraction(3))
    assert not bad.ok


def test_chi_additive_in_ray_steps():
    # chi(D) - chi(D - D_rho) computed upstairs equals chi of the restriction:
    # the difference form of the step identity, checked numerically
    fan = build_catalog("f2")
    rng = random.Random(5)
    for _ in range(6):
        d = TorusDivisor(fan, tuple(rng.randint(-3, 3) for _ in fan.rays))
        for rho in range(len(fan.rays)):
            delta = chi_hrr(fan, d) - chi_hrr(fan, d - ray_divisor(fan, rho))
            assert delta == verify_induction_step(fan, d, rho).lhs


@pytest.mark.parametrize(
    "build",
    [
        lambda: product_p1(4),
        lambda: product_fan(hirzebruch(1), product_p1(2)),
        lambda: product_fan(projective_space(2), projective_space(2)),
    ],
    ids=["p1^4", "f1xp1xp1", "p2xp2"],
)
def test_identities_on_fourfolds(build):
    # the catalog stops at P^4 among 4-folds; products reach further
    fan = build()
    assert fan.dim == 4
    assert is_smooth(fan) and is_complete(fan)
    assert verify_ishida(fan)
    rng = random.Random(4)
    for _ in range(2):
        d = TorusDivisor(fan, tuple(rng.randint(-2, 2) for _ in fan.rays))
        chi = chi_hrr(fan, d)
        assert chi_recursive(fan, d) == chi
        assert chi_graded_cohomology(fan, d) == chi
        assert verify_induction_step(fan, d, 0).ok
