"""A reference for the Chow ring's multiplication by a ray divisor, kept
apart from the package's rule: the move case D_ρ ≡ −Σ_{γ∉σ} ⟨m, u_γ⟩ D_γ
on V(τ) runs in a maximal cone σ ⊇ τ that the caller chooses, m is read
from fan.dual_basis(σ) and paired by dot, and the face test scans
fan.max_cones. Nothing here reads the fan engine, so a wrong move row or
face entry there shows up as a difference from this reference.

Any choice of σ gives the same degrees of complete products; with the
lex-first σ the classes equal the package's term for term."""

import random

from toricchi.chow import CycleClass, degree, exp_divisor, fundamental_class
from toricchi.intlinalg import dot
from toricchi.todd import todd_univariate


def spans(fan, rays) -> bool:
    return any(set(rays) <= set(c) for c in fan.max_cones)


def lex_first(fan, tau):
    return min(c for c in fan.max_cones if set(tau) <= set(c))


def random_chooser(seed):
    rng = random.Random(seed)

    def choose(fan, tau):
        return rng.choice([c for c in fan.max_cones if set(tau) <= set(c)])

    return choose


def times_ray(cls: CycleClass, rho: int, choose) -> CycleClass:
    """D_ρ · cls: transverse where τ + ρ spans a cone, the move case in
    σ = choose(fan, τ) where ρ ∈ τ."""
    fan = cls.fan
    out: dict = {}
    for tau, coeff in cls.parts.items():
        if rho not in tau:
            summands = [(rho, coeff)]
        else:
            sigma = choose(fan, tau)
            m = fan.dual_basis(sigma)[sigma.index(rho)]
            summands = [(g, -dot(m, u) * coeff) for g, u in enumerate(fan.rays) if g not in sigma]
        for g, c in summands:
            target = tuple(sorted(tau + (g,)))
            if c and spans(fan, target):
                out[target] = out.get(target, 0) + c
    return CycleClass(fan, out)


def apply_polynomial(cls: CycleClass, terms, choose) -> CycleClass:
    """Σ over terms of coeff · Π D_ρ over term.rays, applied to cls."""
    total = CycleClass(cls.fan)
    for term in terms:
        cur = cls
        for rho in term.rays:
            cur = times_ray(cur, rho, choose)
        total = total + cur.scale(term.coeff)
    return total


def step_intermediate(fan, d, rho: int, choose):
    """deg(e^D · C_ρ), C_ρ = D_ρ · Π over rays γ adjacent to ρ of the
    Todd factor Σ_k t_k D_γ^k."""
    t = todd_univariate(fan.dim)
    cls = fundamental_class(fan)
    for g in range(len(fan.rays)):
        if g != rho and spans(fan, (rho, g)):
            power, acc = cls, cls.scale(t[0])
            for k in range(1, fan.dim + 1):
                power = times_ray(power, g, choose)
                acc = acc + power.scale(t[k])
            cls = acc
    cls = times_ray(cls, rho, choose)
    return degree(apply_polynomial(cls, exp_divisor(d, fan.dim), choose))
