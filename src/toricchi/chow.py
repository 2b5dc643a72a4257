"""Cycle classes spanned by orbit closures and divisor multiplication.

A CycleClass is a sparse rational combination of classes [V(τ)], keyed by
the face τ (tuple of ray indices); codimension equals len(τ). Classes are
kept in this redundant spanning set, no normal form: the package only ever
consumes degrees of top-codimension parts, which are well defined.

Multiplication by a ray divisor D_ρ follows the smooth intersection rules:
transverse (τ, ρ span a cone: coefficient 1), vanishing (they span none),
and the move case ρ ∈ τ, where D_ρ is rewritten by the dual basis vector m
of u_ρ inside the lexicographically first maximal cone σ ⊇ τ:
D_ρ = −Σ_{γ∉σ(1)} ⟨m, u_γ⟩ D_γ  (mod relations vanishing on V(τ)),
and each summand is transverse because γ ∉ τ. Both cases are read from
the fan engine (engine.py): the transverse test is a lookup in its face
set and the move case reads its rewrite row for (σ, ρ), σ the cone the
engine keeps as first for τ. Any other σ ⊇ τ gives the same degrees; the
tests check that against a reference move that reads σ's dual basis.
Every coefficient the rules produce is an integer (1, or −⟨m, u_γ⟩ with m
integral on a smooth fan), so a class with integer coefficients stays
integral under multiplication.

The HRR sums read degrees in integer form. χ only sees the class of D, so
a MonomialWalk over a maximal cone σ first replaces D by the equivalent
D′ = D − div(χ^m) that vanishes on σ's rays (m from σ's dual basis, which
the fan computed once), and lists the monomials D^α of degree ≤ n in the
r − n rays off σ, depth first, each one its parent times one ray divisor.
Its weights(D) are the integers n!/α! · a′^α, built along the same walk,
so that e^D ≡ Σ_α weight_α / n! · D^α. A DegreeTable holds
deg(base · D^α) for every monomial of one walk as integers over one scale,
the lcm L of the base class's denominators: it fills them by the same walk,
keeping only the ≤ n + 1 prefix classes on the path to the current
monomial, each one multiplication from its parent. Then
deg(e^D · base) = Σ_α weight_α · table_α / (n! · L), an integer sum with
one division at the end.

exp_divisor is the same expansion as rational terms over D's own support,
built afresh on each call, for the uncached cross-checks (chi_hrr_direct,
step_intermediate_direct).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, lcm
from operator import mul
from typing import NamedTuple

# dual_basis_vector is not called here; perfbench's tracer and its test
# reach it under this module's name.
from .divisor import TorusDivisor, dual_basis_vector, first_cone_containing  # noqa: F401
from .engine import engine_for
from .errors import DomainError, ToricError, exact_ints
from .fan import Fan, ray_index
from .intlinalg import dot


class CycleClass:
    """Sparse graded class: parts maps face tuple -> nonzero Fraction."""

    __slots__ = ("fan", "parts")

    def __init__(self, fan: Fan, parts=None):
        self.fan = fan
        self.parts: dict[tuple[int, ...], Fraction] = {}
        if parts:
            for cone, c in parts.items():
                if c:
                    self.parts[cone] = Fraction(c)

    def component(self, codim: int) -> dict[tuple[int, ...], Fraction]:
        return {t: c for t, c in self.parts.items() if len(t) == codim}

    def __add__(self, other: "CycleClass") -> "CycleClass":
        out = dict(self.parts)
        for t, c in other.parts.items():
            s = out.get(t, 0) + c
            if s:
                out[t] = s
            else:
                out.pop(t, None)
        return CycleClass(self.fan, out)

    def scale(self, c) -> "CycleClass":
        c = Fraction(c)
        if not c:
            return CycleClass(self.fan)
        return CycleClass(self.fan, {t: c * v for t, v in self.parts.items()})

    def __repr__(self):
        return f"CycleClass({dict(sorted(self.parts.items()))})"


def fundamental_class(fan: Fan) -> CycleClass:
    """[X] = [V(zero cone)]."""
    return CycleClass(fan, {(): Fraction(1)})


def _times_ray(engine, parts: dict, rho: int) -> dict:
    """D_ρ · Σ c_τ [V(τ)] as a face -> coefficient dict, through the
    engine's face set and move rows; coefficients of any exact number type,
    zeros kept. The move case rewrites D_ρ in the first maximal cone
    containing τ; a face τ that no maximal cone contains raises
    DivisorError."""
    faces = engine.first_cone
    out: dict = {}
    for tau, coeff in parts.items():
        if rho not in tau:
            target = tuple(sorted(tau + (rho,)))
            if target in faces:
                out[target] = out.get(target, 0) + coeff
        else:
            sigma = faces.get(tau)
            if sigma is None:
                sigma = first_cone_containing(engine.fan, tau)
            for g, p in engine.move_row(sigma, rho):
                target = tuple(sorted(tau + (g,)))
                if target in faces:
                    out[target] = out.get(target, 0) - p * coeff
    return out


def multiply_ray_divisor(c: CycleClass, rho: int) -> CycleClass:
    """D_ρ · c, extended linearly over the [V(τ)] terms of c; the move case
    rewrites D_ρ in the first maximal cone containing τ."""
    fan = c.fan
    rho = ray_index(fan, rho)
    return CycleClass(fan, _times_ray(engine_for(fan), c.parts, rho))


class Term(NamedTuple):
    """One monomial of a divisor polynomial: coeff · Π D_ρ over the multiset."""

    coeff: Fraction
    rays: tuple[int, ...]


def apply_divisor_polynomial(c: CycleClass, terms) -> CycleClass:
    """Σ over terms of coeff · (iterated ray multiplication) applied to c.

    Monomial factors are applied in the order the term lists them; anything
    pushed beyond codimension n vanishes on its own (no cone has > n rays).
    """
    fan = c.fan
    total = CycleClass(fan)
    for term in terms:
        if len(term.rays) > fan.dim:
            continue
        cur = c
        for rho in term.rays:
            cur = multiply_ray_divisor(cur, rho)
            if not cur.parts:
                break
        total = total + cur.scale(term.coeff)
    return total


def degree(c: CycleClass) -> Fraction:
    """Sum of the codimension-n coefficients; each [V(σ_max)] is a point."""
    n = c.fan.dim
    return sum((v for t, v in c.parts.items() if len(t) == n), Fraction(0))


class MonomialWalk:
    """The monomials of degree ≤ n in the rays off one maximal cone σ, in
    depth-first order, and the integer weights of e^D on them.

    Monomial k is rays[k], a sorted ray tuple; monomial 0 is the empty one.
    Each later monomial is its parent, rays[k][:-1], times the ray divisor
    of its last ray; in depth-first order the parent is the latest
    monomial one level up.

    shifts[j] pairs the off-σ ray off[j] with σ's dual basis, so D′ = D −
    div(χ^m) has coefficient a_{off[j]} − Σ_i a_{σ[i]} · shifts[j][i] there
    and 0 on σ.
    """

    __slots__ = ("fan", "sigma", "off", "shifts", "rays", "_steps")

    def __init__(self, fan: Fan, sigma):
        n = fan.dim
        self.fan = fan
        self.sigma = sigma = tuple(sigma)
        dual = fan.dual_basis(sigma)
        self.off = off = tuple(g for g in range(len(fan.rays)) if g not in sigma)
        self.shifts = tuple(tuple(dot(m, fan.rays[g]) for m in dual) for g in off)
        rays, parent, slot, run = [()], [-1], [-1], [0]

        def visit(k, lo):
            # children of monomial k: append a slot ≥ its last one (sorted)
            if len(rays[k]) == n:
                return
            for j in range(lo, len(off)):
                rays.append(rays[k] + (off[j],))
                parent.append(k)
                run.append(run[k] + 1 if slot[k] == j else 1)
                slot.append(j)
                visit(len(rays) - 1, j)

        visit(0, 0)
        self.rays = tuple(rays)
        # per monomial k ≥ 1: (parent index, position j in off of the last
        # ray, how many times that ray ends the monomial)
        self._steps = tuple(zip(parent, slot, run))[1:]

    def weights(self, coeffs) -> list[int]:
        """n!/α! · a′^α per monomial α, a′ the coefficients of D′ off σ.

        Each weight is its parent's times a′ at the new ray over that ray's
        run: n!/(α + e_j)! · a′^(α+e_j) is an integer, so the floor division
        is exact.
        """
        s = [coeffs[i] for i in self.sigma]
        a = [coeffs[g] - sum(map(mul, s, row)) for g, row in zip(self.off, self.shifts)]
        w = [factorial(self.fan.dim)]
        for p, j, c in self._steps:
            w.append(w[p] * a[j] // c)
        return w


class DegreeTable:
    """deg(base · D^α) for every monomial α of one walk, as integers over
    one scale: degrees[k] = scale · deg(base · D^walk.rays[k]).

    scale is the lcm of base's denominators; the ray multiplications have
    integer coefficients, so every scaled degree is an integer. The fill
    keeps only the prefix classes on the path to the current monomial.
    """

    __slots__ = ("walk", "scale", "degrees")

    def __init__(self, base: CycleClass, walk: MonomialWalk):
        n = walk.fan.dim
        engine = engine_for(walk.fan)
        self.walk = walk
        self.scale = scale = lcm(*(c.denominator for c in base.parts.values()))
        path = [{t: c.numerator * (scale // c.denominator) for t, c in base.parts.items()}]
        degrees = [sum(v for t, v in path[0].items() if len(t) == n)]
        for mono in walk.rays[1:]:
            d = len(mono)
            del path[d:]
            path.append(_times_ray(engine, path[d - 1], mono[-1]))
            degrees.append(sum(v for t, v in path[d].items() if len(t) == n))
        self.degrees = tuple(degrees)

    def pair(self, weights) -> int:
        """Σ weight_α · degrees_α: n! · scale · deg(e^D · base) for the
        weights of D on this table's walk."""
        return sum(map(mul, weights, self.degrees))


def exp_divisor(d: TorusDivisor, order: int) -> list[Term]:
    """Expansion of e^D = Σ_{k≤order} (Σ a_ρ D_ρ)^k / k! as monomial terms.

    Deterministic order: by monomial length, then lexicographically.
    """
    (order,) = exact_ints((order,), ToricError, "series order")
    if order < 0:
        raise DomainError(f"series order must be nonnegative, got {order}")
    # the sorted monomial Π D_i^{α_i} has coefficient Π a_i^{α_i} / α_i!,
    # and α_i! is the product of the run counts of i
    support = [i for i, a in enumerate(d.coeffs) if a]
    terms = []
    for k in range(order + 1):
        for mono in combinations_with_replacement(support, k):
            num = den = 1
            run = 0
            for j, i in enumerate(mono):
                num *= d.coeffs[i]
                run = run + 1 if j and mono[j - 1] == i else 1
                den *= run
            terms.append(Term(Fraction(num, den), mono))
    return terms
