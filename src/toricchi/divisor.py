"""Torus-invariant divisors D = Σ a_ρ D_ρ and their linear algebra.

A character m in the dual lattice M has div(χ^m) with coefficient ⟨m, u_ρ⟩
at each ray; linear equivalence is shift by such a principal divisor.
Restriction to the orbit closure V(ρ) first clears the coefficient at ρ
(replacing D by an equivalent divisor trivial along ρ) and then transports
the coefficients of the rays adjacent to ρ through the star-fan ray
correspondence. Coefficients on rays not adjacent to ρ restrict to zero and
are discarded.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .engine import engine_for
from .errors import DivisorError, exact_ints
from .fan import Fan, ray_index, star_fan
from .intlinalg import dot, solve_integer

log = logging.getLogger(__name__)

Character = tuple[int, ...]


@dataclass(frozen=True)
class TorusDivisor:
    fan: Fan
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = exact_ints(self.coeffs, DivisorError, "divisor coefficients")
        object.__setattr__(self, "coeffs", coeffs)
        if len(self.coeffs) != len(self.fan.rays):
            raise DivisorError(
                f"{len(self.coeffs)} coefficients for {len(self.fan.rays)} rays"
            )

    def _same_fan(self, other: "TorusDivisor") -> None:
        if self.fan != other.fan:
            raise DivisorError("divisors live on different fans")

    def __add__(self, other: "TorusDivisor") -> "TorusDivisor":
        self._same_fan(other)
        return TorusDivisor(self.fan, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TorusDivisor") -> "TorusDivisor":
        self._same_fan(other)
        return TorusDivisor(self.fan, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TorusDivisor":
        return TorusDivisor(self.fan, tuple(-a for a in self.coeffs))

    def __rmul__(self, k: int) -> "TorusDivisor":
        return TorusDivisor(self.fan, tuple(k * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def divisor_on(fan: Fan, d: TorusDivisor) -> TorusDivisor:
    """d as a divisor on fan, for entry points that take both: d itself
    when its fan equals fan, else its coefficients re-read on fan, which
    raises DivisorError unless there is one per ray of fan."""
    return d if d.fan == fan else TorusDivisor(fan, d.coeffs)


def zero_divisor(fan: Fan) -> TorusDivisor:
    return TorusDivisor(fan, (0,) * len(fan.rays))


def ray_divisor(fan: Fan, rho: int) -> TorusDivisor:
    """The prime divisor D_ρ."""
    rho = ray_index(fan, rho)
    return TorusDivisor(fan, tuple(1 if i == rho else 0 for i in range(len(fan.rays))))


def canonical_divisor(fan: Fan) -> TorusDivisor:
    """K = −Σ D_ρ."""
    return TorusDivisor(fan, (-1,) * len(fan.rays))


def principal_divisor(fan: Fan, m) -> TorusDivisor:
    """div(χ^m): coefficient ⟨m, u_ρ⟩ at each ray."""
    m = exact_ints(m, DivisorError, "character coordinates")
    if len(m) != fan.dim:
        raise DivisorError(f"character {m} has wrong length for dimension {fan.dim}")
    return TorusDivisor(fan, tuple(dot(m, u) for u in fan.rays))


def dual_basis_vector(fan: Fan, sigma, rho: int) -> tuple[int, ...]:
    """m with ⟨m, u_ρ⟩ = 1 and ⟨m, u_γ⟩ = 0 for the other rays γ of sigma.

    sigma must be a smooth maximal cone containing rho; m is the
    corresponding column of the inverse ray matrix, cached by the fan's
    engine (NonSmoothConeError if sigma is not unimodular).
    """
    sigma = tuple(sigma)
    return engine_for(fan).dual_basis(sigma)[sigma.index(rho)]


def first_cone_containing(fan: Fan, rays) -> tuple[int, ...]:
    """Lexicographically first maximal cone containing the given ray set."""
    want = tuple(sorted(set(rays)))
    best = engine_for(fan).first_cone.get(want)
    if best is None:
        raise DivisorError(f"no maximal cone contains rays {list(want)}")
    return best


def clear_ray_coefficient(d: TorusDivisor, rho: int) -> tuple[Character, TorusDivisor]:
    """(m, D − div(χ^m)) with the result's coefficient 0 at rho.

    Deterministic: m = a_ρ · (dual basis vector to u_ρ inside the
    lexicographically first maximal cone containing rho).
    """
    rho = ray_index(d.fan, rho)
    a = d.coeffs[rho]
    if a == 0:
        return (0,) * d.fan.dim, d
    sigma = first_cone_containing(d.fan, (rho,))
    m = tuple(a * x for x in dual_basis_vector(d.fan, sigma, rho))
    return m, d - principal_divisor(d.fan, m)


def restrict_divisor(d: TorusDivisor, rho: int) -> TorusDivisor:
    """Restriction of O(D) to V(ρ), as a divisor on star_fan(rho).

    Clears the coefficient at rho, then carries the coefficient of each ray
    adjacent to rho over to its star-fan image; all other coefficients
    restrict to zero.
    """
    _, cleared = clear_ray_coefficient(d, rho)
    star, ray_map = star_fan(d.fan, (rho,))
    out = [0] * len(star.rays)
    for g, j in ray_map.items():
        out[j] = cleared.coeffs[g]
    if log.isEnabledFor(logging.DEBUG):
        for g, a in enumerate(cleared.coeffs):
            if a and g != rho and g not in ray_map:
                log.debug("restrict_divisor: discarding %d·D_%d (not adjacent to %d)", a, g, rho)
    return TorusDivisor(star, tuple(out))


def is_linearly_equivalent(d1: TorusDivisor, d2: TorusDivisor):
    """Character m with D1 − D2 = div(χ^m), or None.

    Solves the integer system ⟨m, u_ρ⟩ = (D1−D2)_ρ over all rays.
    """
    d1._same_fan(d2)
    diff = [a - b for a, b in zip(d1.coeffs, d2.coeffs)]
    if d1.fan.dim == 0:
        return () if not any(diff) else None
    a = [list(u) for u in d1.fan.rays]
    return solve_integer(a, diff)
