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
and each summand is transverse because γ ∉ τ. By default both cases are
read from the fan engine (engine.py): the transverse test is a lookup in
its face set and the move case reads its rewrite row for (σ, ρ). An
explicit choice of σ takes the same formula through dual_basis_vector.

DegreeTable memoizes deg(base · monomial) against one fixed class, so the
degree of base times any divisor polynomial is a weighted sum of lookups.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple

from .divisor import TorusDivisor, dual_basis_vector, first_cone_containing
from .engine import engine_for
from .fan import Fan, ray_index, spans_cone
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


def multiply_ray_divisor(c: CycleClass, rho: int, choose_cone=None) -> CycleClass:
    """D_ρ · c, extended linearly over the [V(τ)] terms of c.

    choose_cone optionally overrides the move-case choice of maximal cone
    σ ⊇ τ (signature (fan, tau) -> cone); any valid choice gives the same
    degrees, which the test suite exercises. The default choice is the
    lexicographically first cone.
    """
    fan = c.fan
    rho = ray_index(fan, rho)
    out: dict[tuple[int, ...], Fraction] = {}

    def add(t, v):
        s = out.get(t, 0) + v
        if s:
            out[t] = s
        else:
            out.pop(t, None)

    if choose_cone is None:
        engine = engine_for(fan)
        faces = engine.first_cone
        for tau, coeff in c.parts.items():
            if rho not in tau:
                target = tuple(sorted(tau + (rho,)))
                if target in faces:
                    add(target, coeff)
            else:
                sigma = faces.get(tau)
                if sigma is None:
                    sigma = first_cone_containing(fan, tau)
                for g, p in engine.move_row(sigma, rho):
                    target = tuple(sorted(tau + (g,)))
                    if target in faces:
                        add(target, -p * coeff)
        return CycleClass(fan, out)

    for tau, coeff in c.parts.items():
        if rho not in tau:
            target = spans_cone(fan, tau + (rho,))
            if target is not None:
                add(target, coeff)
        else:
            sigma = choose_cone(fan, tau)
            m = dual_basis_vector(fan, sigma, rho)
            in_sigma = set(sigma)
            for g, u in enumerate(fan.rays):
                if g in in_sigma:
                    continue
                p = dot(m, u)
                if not p:
                    continue
                target = spans_cone(fan, tau + (g,))
                if target is not None:
                    add(target, -p * coeff)
    return CycleClass(fan, out)


class Term(NamedTuple):
    """One monomial of a divisor polynomial: coeff · Π D_ρ over the multiset."""

    coeff: Fraction
    rays: tuple[int, ...]


def apply_divisor_polynomial(c: CycleClass, terms, choose_cone=None) -> CycleClass:
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
            cur = multiply_ray_divisor(cur, rho, choose_cone)
            if not cur.parts:
                break
        total = total + cur.scale(term.coeff)
    return total


def degree(c: CycleClass) -> Fraction:
    """Sum of the codimension-n coefficients; each [V(σ_max)] is a point."""
    n = c.fan.dim
    return sum((v for t, v in c.parts.items() if len(t) == n), Fraction(0))


class DegreeTable:
    """deg(base · D_{ρ1} ⋯ D_{ρk}) per ray monomial (ρ1, …, ρk), memoized.

    Factors are applied in the order the monomial lists them, as
    apply_divisor_polynomial does; only the degrees are kept.
    """

    __slots__ = ("base", "_degrees")

    def __init__(self, base: CycleClass):
        self.base = base
        self._degrees: dict[tuple[int, ...], Fraction] = {}

    def __getitem__(self, mono: tuple[int, ...]) -> Fraction:
        got = self._degrees.get(mono)
        if got is None:
            cls = self.base
            for rho in mono:
                cls = multiply_ray_divisor(cls, rho)
                if not cls.parts:
                    break
            got = self._degrees[mono] = degree(cls)
        return got


@lru_cache(maxsize=None)
def _exp_cached(fan: Fan, coeffs: tuple[int, ...], order: int) -> tuple[Term, ...]:
    # e^D truncated: the sorted monomial Π D_i^{α_i} has coefficient
    # Π a_i^{α_i} / α_i!, and α_i! is the product of the run counts of i
    support = [i for i, a in enumerate(coeffs) if a]
    terms = []
    for k in range(order + 1):
        for mono in combinations_with_replacement(support, k):
            num = den = 1
            run = 0
            for j, i in enumerate(mono):
                num *= coeffs[i]
                run = run + 1 if j and mono[j - 1] == i else 1
                den *= run
            terms.append(Term(Fraction(num, den), mono))
    return tuple(terms)


def exp_divisor(d: TorusDivisor, order: int) -> list[Term]:
    """Expansion of e^D = Σ_{k≤order} (Σ a_ρ D_ρ)^k / k! as monomial terms.

    Deterministic order: by monomial length, then lexicographically.
    """
    return list(_exp_cached(d.fan, d.coeffs, order))
