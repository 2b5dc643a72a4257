"""Todd series, Todd class, the HRR Euler characteristic, and the
induction-step identity.

The univariate Todd coefficients t_k are produced by inverting the series
(1 − e^{−x})/x = Σ_{j≥0} (−1)^j x^j/(j+1)! exactly, never from a hard-coded
Bernoulli table; the convolution identity Σ t_k g_{m−k} = [m = 0] is the
self-check. One product builds both classes the paper's proof uses: the
truncated Todd factor Σ_k t_k D_γ^k of each ray γ in a list, applied to the
fundamental class in list order, grading truncated at codimension n as it
goes (_todd_product). Over all rays it is Td(X); over the rays adjacent to
ρ, times D_ρ, it is the induction step's class C_ρ.

χ(O(D)) by Riemann-Roch is degree(e^D · Td). The fan's engine holds one
MonomialWalk (chow.py), over σ₀ = fan.max_cones[0], and integer degree
tables on it: deg(D^α · Td) for every monomial α of degree ≤ n in the
r − n rays off σ₀, scaled by the lcm L of Td's denominators. Since χ only
sees the class of D, D is first replaced by the equivalent D′ that vanishes
on σ₀, and

    χ(D) = Σ_α (n!/α! · a′^α) · (L · deg(D^α · Td)) / (n! · L),

an integer sum with one exact division at the end; a nonzero remainder
raises ToricError. The induction step's rhs is the same sum for D minus the
sum for D − D_ρ against the Td table, and its intermediate the sum against
the table of C_ρ; lhs is chi_hrr on the star fan. chi_hrr_direct and
step_intermediate_direct multiply e^D out on the class instead, with no
table, as cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .chow import (
    CycleClass,
    DegreeTable,
    MonomialWalk,
    apply_divisor_polynomial,
    degree,
    exp_divisor,
    fundamental_class,
    multiply_ray_divisor,
)
from .divisor import TorusDivisor, divisor_on, restrict_divisor
from .engine import _MAX_ENGINES, engine_for, per_fan
from .errors import DomainError, ToricError, exact_ints
from .fan import Fan, ray_index, require_complete


def todd_generating_series(order: int) -> list[Fraction]:
    """Coefficients of (1 − e^{−x})/x through the given order."""
    return [Fraction((-1) ** j, factorial(j + 1)) for j in range(order + 1)]


# typed, so 2.0 is not served the entry of 2 and reaches the check
@lru_cache(maxsize=None, typed=True)
def todd_univariate(order: int) -> tuple[Fraction, ...]:
    """t_0..t_order with Σ t_k x^k ≡ x/(1 − e^{−x}) mod x^{order+1}."""
    (order,) = exact_ints((order,), ToricError, "Todd series order")
    if order < 0:
        raise DomainError(f"Todd series order must be nonnegative, got {order}")
    g = todd_generating_series(order)
    t = [Fraction(1)]
    for k in range(1, order + 1):
        t.append(-sum((g[j] * t[k - j] for j in range(1, k + 1)), Fraction(0)))
    return tuple(t)


def _todd_product(fan: Fan, rays) -> CycleClass:
    """Π over rays γ of the factor Σ_k t_k D_γ^k on the fundamental class,
    factors in the given order, truncated by the grading."""
    t = todd_univariate(fan.dim)
    cls = fundamental_class(fan)
    for g in rays:
        acc = cls.scale(t[0])
        power = cls
        for k in range(1, fan.dim + 1):
            power = multiply_ray_divisor(power, g)
            if not power.parts:
                break
            acc = acc + power.scale(t[k])
        cls = acc
    return cls


# an lru_cache, not per_fan, because perfbench/run.py reads its cache_info()
@lru_cache(maxsize=_MAX_ENGINES)
def todd_class(fan: Fan) -> CycleClass:
    """Td(X): the Todd product over every ray."""
    return _todd_product(fan, range(len(fan.rays)))


@per_fan
def _walk(fan: Fan) -> MonomialWalk:
    return MonomialWalk(fan, fan.max_cones[0])


@per_fan
def _td_degrees(fan: Fan) -> DegreeTable:
    return DegreeTable(todd_class(fan), _walk(fan))


@per_fan
def _step_degrees(fan: Fan, rho: int) -> DegreeTable:
    return DegreeTable(step_class(fan, rho), _walk(fan))


def chi_hrr(fan: Fan, d: TorusDivisor) -> int:
    """χ(O(D)) = degree(e^D · Td(X)); exact, asserts integrality."""
    require_complete(fan)
    d = divisor_on(fan, d)
    td = _td_degrees(fan)
    total = td.pair(td.walk.weights(d.coeffs))
    den = factorial(fan.dim) * td.scale
    chi, rem = divmod(total, den)
    if rem:
        raise ToricError(f"chi_hrr value is not an integer: {Fraction(total, den)}")
    return chi


def chi_hrr_direct(fan: Fan, d: TorusDivisor) -> Fraction:
    """Uncached route: degree(apply(e^D) to Td). Cross-checks chi_hrr."""
    d = divisor_on(fan, d)
    return degree(apply_divisor_polynomial(todd_class(fan), exp_divisor(d, fan.dim)))


def verify_ishida(fan: Fan) -> bool:
    """Todd genus check: degree(Td(X)) must be exactly 1."""
    require_complete(fan)
    return degree(todd_class(fan)) == Fraction(1)


@dataclass(frozen=True)
class StepReport:
    """Three independent computations of the induction step at one ray.

    lhs: χ on the star fan of the restricted divisor (computed downstairs);
    rhs: degree((e^D − e^{D−D_ρ})·Td) upstairs;
    intermediate: degree(e^D · D_ρ · Π over adjacent γ of the Todd factor).
    """

    rho: int
    lhs: int
    rhs: Fraction
    intermediate: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs == self.intermediate


def adjacent_rays(fan: Fan, rho: int) -> list[int]:
    """Rays γ ≠ rho such that rho and γ span a cone together."""
    rho = ray_index(fan, rho)
    faces = engine_for(fan).first_cone
    return [g for g in range(len(fan.rays)) if g != rho and (min(g, rho), max(g, rho)) in faces]


def step_class(fan: Fan, rho: int) -> CycleClass:
    """C_ρ = D_ρ · the Todd product over the rays adjacent to ρ."""
    return multiply_ray_divisor(_todd_product(fan, adjacent_rays(fan, rho)), rho)


def verify_induction_step(fan: Fan, d: TorusDivisor, rho: int) -> StepReport:
    """Check χ(O_{X'}(D|)) = degree((e^D − e^{D−D_ρ})·Td(X)) three ways.

    lhs comes from the star fan, rhs from the Td degree table upstairs (the
    sums for D and for D − D_ρ) and intermediate from the C_ρ degree table
    upstairs; the two tables share the walk, hence D's weights.
    """
    require_complete(fan)
    d = divisor_on(fan, d)
    i = ray_index(fan, rho)
    restricted = restrict_divisor(d, i)
    lhs = chi_hrr(restricted.fan, restricted)

    td = _td_degrees(fan)
    step = _step_degrees(fan, i)
    weights = td.walk.weights(d.coeffs)
    lower = list(d.coeffs)
    lower[i] -= 1
    top = factorial(fan.dim)
    rhs = Fraction(td.pair(weights) - td.pair(td.walk.weights(lower)), top * td.scale)
    intermediate = Fraction(step.pair(weights), top * step.scale)
    return StepReport(rho=i, lhs=lhs, rhs=rhs, intermediate=intermediate)


def step_intermediate_direct(fan: Fan, d: TorusDivisor, rho: int) -> Fraction:
    """Uncached route: degree(apply(e^D) to C_ρ). Cross-checks the step
    table behind verify_induction_step's intermediate, as chi_hrr_direct
    does for chi_hrr."""
    d = divisor_on(fan, d)
    return degree(apply_divisor_polynomial(step_class(fan, rho), exp_divisor(d, fan.dim)))
