"""Torus-invariant divisors D = Σ a_ρ D_ρ and their linear algebra.

A character m in the dual lattice M has div(χ^m) with coefficient ⟨m, u_ρ⟩
at each ray; linear equivalence is shift by such a principal divisor.
zero_on is the one normal form: it subtracts div(χ^m), m a sum over a
maximal cone's dual basis read from the engine's move rows. Over all of
σ₀ = max_cones[0] it gives a class its representative; over {ρ} in the
first maximal cone containing ρ it clears ρ for restriction to V(ρ), where
the rays adjacent to ρ carry theirs to their star-fan images.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import engine_for
from .errors import DivisorError, ToricError, exact_ints
from .fan import Fan, _star_fan_cached, ray_index
from .intlinalg import dot, inv_rational

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
    corresponding column of the inverse ray matrix, which the fan keeps
    (NonSmoothConeError if sigma is not unimodular).
    """
    sigma = tuple(sigma)
    if rho not in sigma:
        raise ToricError(f"ray {rho!r} is not in cone {sigma}")
    return fan.dual_basis(sigma)[sigma.index(rho)]


def first_cone_containing(fan: Fan, rays) -> tuple[int, ...]:
    """Lexicographically first maximal cone containing the given ray set."""
    want = tuple(sorted(set(rays)))
    best = engine_for(fan).first_cone.get(want)
    if best is None:
        raise DivisorError(f"no maximal cone contains rays {list(want)}")
    return best


def zero_on(fan: Fan, sigma, rays, coeffs) -> tuple[int, ...]:
    """coeffs − div(χ^m), m = Σ c_i m^σ_i over i in rays ⊆ sigma: zero on
    rays, sigma's other coordinates unchanged; NonSmoothConeError unless
    sigma is unimodular."""
    engine = engine_for(fan)
    out = list(coeffs)
    for i in rays:
        c = coeffs[i]
        if c:
            out[i] = 0
            for g, p in engine.move_row(sigma, i):
                out[g] -= c * p
    return tuple(out)


def clear_ray_coefficient(d: TorusDivisor, rho: int) -> tuple[Character, TorusDivisor]:
    """(m, D − div(χ^m)) with the result's coefficient 0 at rho, for the
    deterministic m = a_ρ · (dual basis vector to u_ρ inside the
    lexicographically first maximal cone containing rho)."""
    rho = ray_index(d.fan, rho)
    a = d.coeffs[rho]
    if a == 0:
        return (0,) * d.fan.dim, d
    sigma = engine_for(d.fan).first_cone[(rho,)]
    m = d.fan.dual_basis(sigma)[sigma.index(rho)]
    return tuple(a * x for x in m), TorusDivisor(d.fan, zero_on(d.fan, sigma, (rho,), d.coeffs))


def restrict_divisor(d: TorusDivisor, rho: int) -> TorusDivisor:
    """Restriction of O(D) to V(ρ), as a divisor on star_fan(rho): D cleared
    at rho as in clear_ray_coefficient, read on the rays adjacent to rho in
    star-fan ray order (the order of ray_map's keys)."""
    return TorusDivisor(*restrict(d.fan, ray_index(d.fan, rho), d.coeffs))


def restrict(fan: Fan, rho: int, coeffs) -> tuple[Fan, tuple[int, ...]]:
    """restrict_divisor's (star fan, coefficients) for a checked ray index
    and int coefficients, one per ray; builds no TorusDivisor."""
    cleared = zero_on(fan, engine_for(fan).first_cone[(rho,)], (rho,), coeffs)
    star, ray_map = _star_fan_cached(fan, (rho,))
    return star, tuple(cleared[g] for g in ray_map)


def is_linearly_equivalent(d1: TorusDivisor, d2: TorusDivisor):
    """Character m with D1 − D2 = div(χ^m), or None.

    m solves ⟨m, u_i⟩ = (D1−D2)_i on the rays of σ₀ = max_cones[0], a
    rational basis on any fan; it is the answer if integral and right on
    every ray.
    """
    d1._same_fan(d2)
    fan, sigma = d1.fan, d1.fan.max_cones[0]
    diff = [a - b for a, b in zip(d1.coeffs, d2.coeffs)]
    inverse = inv_rational(fan.ray_matrix(sigma))
    m = [sum(x * diff[i] for x, i in zip(row, sigma)) for row in inverse]
    if any(x.denominator != 1 for x in m):
        return None
    m = tuple(int(x) for x in m)
    return m if all(dot(m, u) == c for u, c in zip(fan.rays, diff)) else None
