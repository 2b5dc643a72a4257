"""Per-fan intersection engine: what the HRR route derives from the fan alone.

A FanEngine is built once per fan and held in one cache keyed on the fan
(engine_for). It owns

  first_cone    every face of the fan (sorted ray-index tuple) mapped to the
                lexicographically first maximal cone containing it; its keys
                are the face set, so "do these rays span a cone" is one
                dictionary lookup;
  dual_basis    per maximal cone, the integer dual basis of its rays, read
                from the Fraction inverse the fan made at construction
                (Fan.dual_bases); a cone whose inverse is not integral raises
                NonSmoothConeError, so nothing here inverts a matrix;
  move_row      per (σ, ρ), the rays γ ∉ σ with ⟨m, u_γ⟩ ≠ 0 for the dual
                basis vector m of u_ρ in σ, which rewrite D_ρ near V(τ ⊆ σ),
                so a multiplication in the Chow ring does no linear algebra;

plus slots the todd module fills in: the MonomialWalk (chow.py) over
σ₀ = fan.max_cones[0], that is the monomials of degree ≤ n in the r − n
rays off σ₀, in depth-first order, with the rows that shift a divisor to
the equivalent one vanishing on σ₀; and integer degree tables on that
walk, one against the Todd class and one against each induction-step class
C_ρ, each stored as integers over one scale (the lcm of its class's
denominators). Every entry is filled on first use.

The engine holds no references to divisors: the HRR sums compute a
divisor's weights on the walk afresh each call, and the only per-divisor
memo of the route, chow's e^D expansion for the direct cross-checks, is
bounded. toricchi.clear_caches() empties this cache with the others.
"""

from __future__ import annotations

from itertools import combinations

from .errors import NonSmoothConeError
from .intlinalg import det_int, dot


class FanEngine:
    __slots__ = (
        "fan", "first_cone", "_dual", "_moves",
        "walk", "td_degrees", "step_degrees",
    )

    def __init__(self, fan):
        self.fan = fan
        first: dict[tuple[int, ...], tuple[int, ...]] = {}
        # max_cones is sorted, so the first cone to claim a face is the lex-first
        for cone in fan.max_cones:
            for k in range(len(cone) + 1):
                for face in combinations(cone, k):
                    first.setdefault(face, cone)
        self.first_cone = first
        self._dual: dict = {}
        self._moves: dict = {}
        self.walk = None  # chow.MonomialWalk over max_cones[0]
        self.td_degrees = None  # chow.DegreeTable against Td(X) on walk
        self.step_degrees: dict = {}  # ρ -> chow.DegreeTable against C_ρ on walk

    def dual_basis(self, cone) -> tuple[tuple[int, ...], ...]:
        """The fan's dual basis of a maximal cone as integer vectors: the
        j-th is the m with ⟨m, u_{cone[j]}⟩ = 1 and ⟨m, u_γ⟩ = 0 for the
        cone's other rays. Raises NonSmoothConeError unless it is integral;
        only then is the determinant computed, to name it."""
        got = self._dual.get(cone)
        if got is None:
            columns = self.fan.dual_bases[cone]
            if any(x.denominator != 1 for m in columns for x in m):
                raise NonSmoothConeError(cone, det_int(self.fan.ray_matrix(cone)))
            got = tuple(tuple(x.numerator for x in m) for m in columns)
            self._dual[cone] = got
        return got

    def move_row(self, sigma, rho: int) -> tuple[tuple[int, int], ...]:
        """(γ, ⟨m, u_γ⟩) for the rays γ ∉ σ with nonzero pairing, where m is
        the dual basis vector of u_ρ in σ: D_ρ ≡ −Σ ⟨m, u_γ⟩ D_γ on V(τ), τ ⊆ σ."""
        key = (sigma, rho)
        got = self._moves.get(key)
        if got is None:
            m = self.dual_basis(sigma)[sigma.index(rho)]
            pairs = ((g, dot(m, u)) for g, u in enumerate(self.fan.rays) if g not in sigma)
            got = self._moves[key] = tuple((g, p) for g, p in pairs if p)
        return got


_ENGINES: dict = {}


def engine_for(fan) -> FanEngine:
    """The fan's engine, built on first request."""
    got = _ENGINES.get(fan)
    if got is None:
        got = _ENGINES[fan] = FanEngine(fan)
    return got


def clear_engines() -> None:
    _ENGINES.clear()
