import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toricchi import oracle, todd
from toricchi.catalog import build_catalog, catalog_names, hirzebruch, product_p1, projective_space
from toricchi.divisor import (
    TorusDivisor,
    canonical_divisor,
    clear_ray_coefficient,
    dual_basis_vector,
    first_cone_containing,
    is_linearly_equivalent,
    principal_divisor,
    ray_divisor,
    restrict,
    restrict_divisor,
    zero_divisor,
)
from toricchi.errors import DivisorError, ToricError
from toricchi.fan import Fan, star_fan
from toricchi.intlinalg import dot, solve_integer, solve_rational

P2 = projective_space(2)
P1 = projective_space(1)

coeff = st.integers(min_value=-6, max_value=6)


def test_divisor_length_checked():
    with pytest.raises(DivisorError):
        TorusDivisor(P2, (1, 0))


@pytest.mark.parametrize("bad", [2.9, Fraction(5, 2), "2"], ids=["float", "fraction", "str"])
def test_divisor_rejects_non_integer_coefficients(bad):
    # truncating 2.9 to 2 would give chi_hrr 6 for a divisor nobody asked for
    with pytest.raises(DivisorError, match="expected integers"):
        TorusDivisor(P2, (bad, 0, 0))
    with pytest.raises(DivisorError, match="expected integers"):
        principal_divisor(P2, (bad, 0))


def test_divisor_arithmetic():
    d = TorusDivisor(P2, (1, 2, 3))
    e = TorusDivisor(P2, (0, -1, 1))
    assert (d + e).coeffs == (1, 1, 4)
    assert (d - e).coeffs == (1, 3, 2)
    assert (-d).coeffs == (-1, -2, -3)
    assert (3 * e).coeffs == (0, -3, 3)
    assert zero_divisor(P2).is_zero()
    assert not d.is_zero()


def test_mixed_fan_arithmetic_rejected():
    with pytest.raises(DivisorError):
        TorusDivisor(P2, (1, 0, 0)) + TorusDivisor(P1, (1, 0))


def test_canonical_and_ray_divisors():
    assert canonical_divisor(P2).coeffs == (-1, -1, -1)
    assert ray_divisor(P2, 1).coeffs == (0, 1, 0)


def test_principal_divisor_examples():
    # P^2: m = (1,0) pairs to 1, 0, -1 against (1,0), (0,1), (-1,-1)
    assert principal_divisor(P2, (1, 0)).coeffs == (1, 0, -1)
    assert principal_divisor(P2, (0, 0)).is_zero()
    # F_2 rays (1,0),(0,1),(-1,2),(0,-1): m = (0,1)
    f2 = hirzebruch(2)
    assert principal_divisor(f2, (0, 1)).coeffs == (0, 1, 2, -1)
    with pytest.raises(DivisorError):
        principal_divisor(P2, (1, 0, 0))


@given(st.tuples(coeff, coeff), st.tuples(coeff, coeff))
def test_principal_divisor_additive(m1, m2):
    s = tuple(a + b for a, b in zip(m1, m2))
    lhs = principal_divisor(P2, m1) + principal_divisor(P2, m2)
    assert lhs.coeffs == principal_divisor(P2, s).coeffs


def test_dual_basis_vector():
    m = dual_basis_vector(P2, (0, 1), 0)
    assert dot(m, P2.rays[0]) == 1
    assert dot(m, P2.rays[1]) == 0
    m2 = dual_basis_vector(P2, (1, 2), 2)
    assert dot(m2, P2.rays[2]) == 1
    assert dot(m2, P2.rays[1]) == 0
    with pytest.raises(ToricError, match="not in cone"):
        dual_basis_vector(P2, (0, 1), 2)


def test_first_cone_containing():
    assert first_cone_containing(P2, (0,)) == (0, 1)
    assert first_cone_containing(P2, (2,)) == (0, 2)
    fan = build_catalog("p1xp1")
    with pytest.raises(DivisorError):
        first_cone_containing(fan, (0, 1))


def test_clear_ray_coefficient_p2():
    d = TorusDivisor(P2, (1, 0, 0))
    m, cleared = clear_ray_coefficient(d, 0)
    assert m == (1, 0)
    assert cleared.coeffs == (0, 0, 1)


def test_clear_ray_coefficient_noop_when_zero():
    d = TorusDivisor(P2, (0, 5, -2))
    m, cleared = clear_ray_coefficient(d, 0)
    assert m == (0, 0)
    assert cleared is d


def test_clear_ray_coefficient_p1():
    d = TorusDivisor(P1, (3, 0))
    m, cleared = clear_ray_coefficient(d, 0)
    assert cleared.coeffs == (0, 3)
    assert m == (3,)


@given(st.tuples(coeff, coeff, coeff, coeff), st.integers(min_value=0, max_value=3))
def test_clear_ray_coefficient_properties(coeffs, rho):
    fan = build_catalog("f1")
    d = TorusDivisor(fan, coeffs)
    m, cleared = clear_ray_coefficient(d, rho)
    assert cleared.coeffs[rho] == 0
    # the cleared divisor differs from d by exactly div(m)
    assert (d - cleared).coeffs == principal_divisor(fan, m).coeffs


def test_restrict_divisor_p2_line():
    # restricting d·H to a line gives a degree-d divisor on P^1
    for deg in range(4):
        d = TorusDivisor(P2, (deg, 0, 0))
        r = restrict_divisor(d, 1)
        assert r.fan.dim == 1
        assert sum(r.coeffs) == deg


def test_restrict_zero_is_zero():
    r = restrict_divisor(zero_divisor(P2), 2)
    assert r.is_zero()


def test_restrict_divisor_hirzebruch_section():
    # coefficient 1 on the (-1,a) ray restricts to degree 1 on the fiber class
    for a in range(4):
        fa = hirzebruch(a)
        d = ray_divisor(fa, 2)
        r = restrict_divisor(d, 1)
        assert r.fan.dim == 1
        assert sum(r.coeffs) == 1


def test_restriction_drops_non_adjacent_rays():
    fan = build_catalog("p1xp1")
    # ray 1 is -e1: not adjacent to ray 0 (= e1); its coefficient dies
    d = ray_divisor(fan, 1)
    r = restrict_divisor(d, 0)
    assert r.fan.dim == 1
    assert sum(r.coeffs) == 0


def test_is_linearly_equivalent_examples():
    d1 = TorusDivisor(P2, (1, 0, 0))
    d2 = TorusDivisor(P2, (0, 0, 1))
    assert is_linearly_equivalent(d1, d2) == (1, 0)
    assert is_linearly_equivalent(d1, d1) == (0, 0)
    # the two rulings of P1xP1 are not equivalent
    fan = build_catalog("p1xp1")
    assert is_linearly_equivalent(ray_divisor(fan, 0), ray_divisor(fan, 2)) is None


@given(st.tuples(coeff, coeff))
def test_linear_equivalence_recovers_character(m):
    d = principal_divisor(P2, m)
    assert is_linearly_equivalent(d, zero_divisor(P2)) == m


# fans off the smooth complete domain, where σ₀ may not be unimodular
_EQUIVALENCE_FANS = {
    # one cone of determinant 2 in A²
    "a2_det2": Fan(2, ((1, 0), (1, 2)), ((0, 1),)),
    # non-complete: a det-2 cone and a det-3 cone, one ray off σ₀
    "a2_two_cones": Fan(2, ((1, 0), (1, 2), (-1, 1)), ((0, 1), (1, 2))),
    # P(1,1,2), complete; σ₀ is unimodular in one ray order, of det −2 in the other
    "p112": Fan(2, ((1, 0), (0, 1), (-1, -2)), ((0, 1), (0, 2), (1, 2))),
    "p112_det2_first": Fan(2, ((1, 0), (-1, -2), (0, 1)), ((0, 1), (0, 2), (1, 2))),
    "point": Fan(0, (), ((),)),
}


@pytest.mark.parametrize("name", sorted(_EQUIVALENCE_FANS))
def test_linear_equivalence_matches_integer_solve(name):
    # solve_integer over all rays is the oracle; on a non-unimodular σ₀ some
    # answers are None because the m solved on σ₀'s rays is not integral
    fan = _EQUIVALENCE_FANS[name]
    r = len(fan.rays)
    rows = [list(u) for u in fan.rays]
    sigma = fan.max_cones[0]
    rng = random.Random(name)
    diffs = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(40)]
    diffs += [principal_divisor(fan, [rng.randint(-3, 3) for _ in range(fan.dim)]).coeffs
              for _ in range(10)]
    fractional = 0
    for diff in diffs:
        d = TorusDivisor(fan, diff)
        m = is_linearly_equivalent(d, zero_divisor(fan))
        if r == 0:
            assert m == ()
            continue
        assert m == solve_integer(rows, diff)
        if m is not None:
            assert principal_divisor(fan, m) == d
        on_sigma = solve_rational([rows[i] for i in sigma], [diff[i] for i in sigma])
        if any(x.denominator != 1 for x in on_sigma):
            assert m is None
            fractional += 1
    assert bool(fractional) == (name in {"a2_det2", "a2_two_cones", "p112_det2_first"})


def test_linear_equivalence_refuses_a_half_character():
    fan = _EQUIVALENCE_FANS["a2_det2"]
    # ⟨m, (1, 0)⟩ = 1 and ⟨m, (1, 2)⟩ = 0 force m = (1, −1/2)
    assert is_linearly_equivalent(ray_divisor(fan, 0), zero_divisor(fan)) is None
    assert is_linearly_equivalent(TorusDivisor(fan, (1, 3)), zero_divisor(fan)) == (1, 1)


@given(st.tuples(coeff, coeff, coeff, coeff), st.tuples(coeff, coeff))
def test_restriction_respects_linear_equivalence(coeffs, m):
    # restricting equivalent divisors gives equivalent divisors downstairs
    fan = build_catalog("p1xp1")
    d = TorusDivisor(fan, coeffs)
    shifted = d + principal_divisor(fan, m)
    for rho in range(4):
        r1 = restrict_divisor(d, rho)
        r2 = restrict_divisor(shifted, rho)
        assert is_linearly_equivalent(r1, r2) is not None


ENTRY_POINTS = {
    "chi_hrr": todd.chi_hrr,
    "chi_hrr_direct": todd.chi_hrr_direct,
    "verify_induction_step": lambda f, d: todd.verify_induction_step(f, d, 0),
    "step_intermediate_direct": lambda f, d: todd.step_intermediate_direct(f, d, 0),
    "chi_recursive": oracle.chi_recursive,
    "chi_graded_cohomology": oracle.chi_graded_cohomology,
    "chi_by_method": lambda f, d: oracle.chi_by_method(f, d, "recursive"),
    "serre_duality_check": oracle.serre_duality_check,
    "count_lattice_points": oracle.count_lattice_points,
    "is_nef": oracle.is_nef,
    "cartier_data": oracle.cartier_data,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_foreign_divisor_is_rewrapped_or_refused(entry):
    # a divisor from another fan is read as its coefficients on the given
    # fan: refused unless there is one per ray, answered as on that fan if
    # the two fans are equal
    call = ENTRY_POINTS[entry]
    for other in (build_catalog("p1xp1"), P1):
        d = TorusDivisor(other, (1,) + (0,) * (len(other.rays) - 1))
        with pytest.raises(DivisorError):
            call(P2, d)
    twin = projective_space(2)
    assert twin is not P2
    assert call(P2, TorusDivisor(twin, (2, -1, 0))) == call(P2, TorusDivisor(P2, (2, -1, 0)))


def _principal_clear(d, rho):
    """Clearing by subtracting div(χ^m) built over all rays: the oracle for
    clear_ray_coefficient's clearing row."""
    a = d.coeffs[rho]
    if a == 0:
        return (0,) * d.fan.dim, d
    sigma = first_cone_containing(d.fan, (rho,))
    m = tuple(a * x for x in dual_basis_vector(d.fan, sigma, rho))
    return m, d - principal_divisor(d.fan, m)


def _principal_restrict(d, rho):
    """Restriction through _principal_clear and the star-fan ray map."""
    _, cleared = _principal_clear(d, rho)
    star, ray_map = star_fan(d.fan, (rho,))
    out = [0] * len(star.rays)
    for g, j in ray_map.items():
        out[j] = cleared.coeffs[g]
    return TorusDivisor(star, tuple(out))


def _oracle_fans():
    tops = [build_catalog(name) for name in catalog_names()] + [product_p1(4)]
    stars = [star_fan(f, (rho,)).fan for f in tops for rho in range(len(f.rays))]
    return tops + [f for f in stars if f.dim > 0]


def test_clearing_row_matches_principal_divisor_oracle():
    rng = random.Random(11)
    big = 10**15
    for fan in _oracle_fans():
        r = len(fan.rays)
        for rho in range(r):
            draws = [tuple(rng.randint(-20, 20) for _ in range(r)) for _ in range(6)]
            draws += [tuple(rng.choice((-big, big)) for _ in range(r)) for _ in range(2)]
            draws.append(tuple(0 if g == rho else rng.randint(-20, 20) for g in range(r)))
            for coeffs in draws:
                d = TorusDivisor(fan, coeffs)
                assert clear_ray_coefficient(d, rho) == _principal_clear(d, rho)
                want = _principal_restrict(d, rho)
                assert restrict_divisor(d, rho) == want
                assert restrict(fan, rho, coeffs) == (want.fan, want.coeffs)
