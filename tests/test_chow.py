from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _move_oracle import apply_polynomial, lex_first, random_chooser, times_ray

from toricchi.catalog import build_catalog, hirzebruch, projective_space
from toricchi.chow import (
    CycleClass,
    Term,
    apply_divisor_polynomial,
    degree,
    exp_divisor,
    fundamental_class,
    multiply_ray_divisor,
)
from toricchi.divisor import TorusDivisor, first_cone_containing
from toricchi.engine import FanEngine
from toricchi.errors import DomainError, ToricError

P2 = projective_space(2)


def test_cycle_class_prunes_zeros():
    c = CycleClass(P2, {(0,): Fraction(1), (1,): Fraction(0)})
    assert (0,) in c.parts
    assert (1,) not in c.parts
    assert c.component(1) == {(0,): Fraction(1)}
    assert c.component(2) == {}


def test_fundamental_class():
    c = fundamental_class(P2)
    assert c.parts == {(): Fraction(1)}


def test_transverse_multiplication():
    # D_1 · [V(0)] = [V(0,1)] on P^2
    c = multiply_ray_divisor(CycleClass(P2, {(0,): 1}), 1)
    assert c.parts == {(0, 1): Fraction(1)}


def test_disjoint_orbit_multiplication_vanishes():
    fan = build_catalog("p1xp1")
    # rays 0 and 1 are e1 and -e1: they never span a cone
    c = multiply_ray_divisor(CycleClass(fan, {(0,): 1}), 1)
    assert c.parts == {}


def test_move_case_self_intersection_p2():
    # D_0 · [V(0)] on P^2 rewrites through m and lands on [V(0,1)] + [V(0,2)]
    # scaled by the relation coefficients; its degree is 1
    c = multiply_ray_divisor(CycleClass(P2, {(0,): 1}), 0)
    assert degree(c) == 1


def test_move_case_hirzebruch_self_intersections():
    for a in range(4):
        fa = hirzebruch(a)
        c = multiply_ray_divisor(CycleClass(fa, {(1,): 1}), 1)
        assert degree(c) == -a
        # the fiber class squares to zero
        z = multiply_ray_divisor(CycleClass(fa, {(0,): 1}), 0)
        assert degree(z) == 0


def test_apply_divisor_polynomial_p2():
    x = fundamental_class(P2)
    pt = apply_divisor_polynomial(x, [Term(Fraction(1), (0, 1))])
    assert degree(pt) == 1
    sq = apply_divisor_polynomial(x, [Term(Fraction(1), (2, 2))])
    assert degree(sq) == 1
    # overlong monomials vanish rather than blow up
    zero = apply_divisor_polynomial(x, [Term(Fraction(1), (0, 1, 2))])
    assert zero.parts == {}


def test_apply_divisor_polynomial_is_linear():
    x = fundamental_class(P2)
    t1 = Term(Fraction(2), (0, 0))
    t2 = Term(Fraction(-3), (1, 2))
    both = apply_divisor_polynomial(x, [t1, t2])
    one = apply_divisor_polynomial(x, [t1])
    two = apply_divisor_polynomial(x, [t2])
    assert degree(both) == degree(one) + degree(two) == 2 - 3


def test_degree_ignores_lower_codimension():
    c = CycleClass(P2, {(): Fraction(5), (1,): Fraction(7), (0, 1): Fraction(2)})
    assert degree(c) == 2


def test_exp_divisor_of_zero():
    d = TorusDivisor(P2, (0, 0, 0))
    assert exp_divisor(d, 2) == [Term(Fraction(1), ())]


def test_exp_divisor_p1():
    p1 = projective_space(1)
    terms = exp_divisor(TorusDivisor(p1, (1, 0)), 1)
    assert terms == [Term(Fraction(1), ()), Term(Fraction(1), (0,))]


def test_exp_divisor_quadratic_coefficients():
    # e^(D0+D1) on P^2 through order 2: the (0,1) cross term carries 2/2! = 1
    # and each square carries 1/2
    terms = {t.rays: t.coeff for t in exp_divisor(TorusDivisor(P2, (1, 1, 0)), 2)}
    assert terms[()] == 1
    assert terms[(0,)] == 1 and terms[(1,)] == 1
    assert terms[(0, 0)] == Fraction(1, 2)
    assert terms[(0, 1)] == 1
    assert terms[(1, 1)] == Fraction(1, 2)
    assert (2,) not in terms


def test_exp_divisor_refuses_a_bad_order():
    d = TorusDivisor(P2, (1, 0, 0))
    with pytest.raises(DomainError, match="nonnegative"):
        exp_divisor(d, -1)
    with pytest.raises(ToricError, match="expected integers"):
        exp_divisor(d, 2.5)


def test_exp_divisor_term_order_is_canonical():
    terms = exp_divisor(TorusDivisor(P2, (2, -1, 3)), 2)
    keys = [t.rays for t in terms]
    assert keys == sorted(keys, key=lambda m: (len(m), m))


@given(st.tuples(*[st.integers(-4, 4)] * 3))
@settings(max_examples=30)
def test_exp_divisor_scalar_multiples(coeffs):
    # linear part of e^(2D) is twice that of e^D; constant term always 1
    d = TorusDivisor(P2, coeffs)
    e1 = {t.rays: t.coeff for t in exp_divisor(d, 2)}
    e2 = {t.rays: t.coeff for t in exp_divisor(2 * d, 2)}
    assert e1[()] == e2[()] == 1
    for i, a in enumerate(coeffs):
        assert e1.get((i,), 0) == a
        assert e2.get((i,), 0) == 2 * a


@given(st.integers(0, 2**16), st.tuples(*[st.integers(-3, 3)] * 4))
@settings(max_examples=40)
def test_move_choice_independence(seed, coeffs):
    # any maximal cone containing tau may serve in the move case; degrees of
    # complete products never notice the difference, so the reference move
    # in a random cone must give the package's degree
    fan = build_catalog("f2")
    terms = exp_divisor(TorusDivisor(fan, coeffs), fan.dim)
    base = degree(apply_divisor_polynomial(fundamental_class(fan), terms))
    assert degree(apply_polynomial(fundamental_class(fan), terms, random_chooser(seed))) == base


def test_move_choice_independence_3d():
    # on p1xp1xp1 every move lands on the ray opposite ρ, which spans no
    # cone with τ; p1xp2 and p3 have moves that count
    for name, coeffs in (
        ("p1xp1xp1", (2, 1, -1, 0, 3, 1)),
        ("p1xp2", (2, -1, 1, 3, 0)),
        ("p3", (1, 2, -1, 3)),
    ):
        fan = build_catalog(name)
        terms = exp_divisor(TorusDivisor(fan, coeffs), fan.dim)
        base = degree(apply_divisor_polynomial(fundamental_class(fan), terms))
        for seed in range(5):
            alt = apply_polynomial(fundamental_class(fan), terms, random_chooser(seed))
            assert degree(alt) == base, (name, seed)


def test_doubled_move_rows_are_seen(monkeypatch):
    # a planted fault: every engine pairing doubled. The reference move reads
    # fan.dual_basis, so on p1xp2 some product must now differ from it
    fan = build_catalog("p1xp2")
    squares = [multiply_ray_divisor(fundamental_class(fan), rho) for rho in range(5)]
    for rho, cls in enumerate(squares):
        assert multiply_ray_divisor(cls, rho).parts == times_ray(cls, rho, lex_first).parts
    row = FanEngine.move_row

    def doubled(self, sigma, rho):
        return tuple((g, 2 * p) for g, p in row(self, sigma, rho))

    monkeypatch.setattr(FanEngine, "move_row", doubled)
    assert any(
        multiply_ray_divisor(cls, rho).parts != times_ray(cls, rho, lex_first).parts
        for rho, cls in enumerate(squares)
    )


def test_first_cone_containing_is_lex_first():
    assert first_cone_containing(P2, (1,)) == (0, 1)
