"""Per-fan store: every value the routes derive from a fan alone.

A FanEngine is built once per fan and held in one cache keyed on the fan
(engine_for); equal fans share it, so the equal star fans of different
fans share one. It owns

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
  memo          the values of every function decorated with per_fan: the
                smooth and complete verdicts and the star fans (fan.py), the
                principal-lattice basis, the face contribution table and the
                arrangement adjugates (oracle.py), and the monomial walk with
                its Td and C_ρ degree tables (todd.py).

Every entry is filled on first use. The cache keeps at most _MAX_ENGINES
engines and drops the oldest first, with everything in it; a dropped fan
is rebuilt on its next use and gives the same values. Oldest, not least
recently used: a hit is then one dictionary lookup, and a fan in steady
use is rebuilt only once per _MAX_ENGINES new fans.

The engines hold no references to divisors: the HRR sums compute a
divisor's weights on the walk afresh each call. toricchi.clear_caches()
empties this cache with the per-divisor memos.
"""

from __future__ import annotations

from functools import wraps
from itertools import combinations

from .errors import NonSmoothConeError
from .intlinalg import det_int, dot


class FanEngine:
    __slots__ = ("fan", "first_cone", "_dual", "_moves", "memo")

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
        self.memo: dict = {}  # (function, args) -> value, see per_fan

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


# A 1,000-item cold_fans session meets about 1,100 fans, of which about
# 100 recur (the star fans); the largest rungs touch two or three.
_MAX_ENGINES = 256
_ENGINES: dict = {}


def engine_for(fan) -> FanEngine:
    """The fan's engine, built on first request; building one past
    _MAX_ENGINES drops the oldest."""
    got = _ENGINES.get(fan)
    if got is None:
        if len(_ENGINES) >= _MAX_ENGINES:
            del _ENGINES[next(iter(_ENGINES))]
        got = _ENGINES[fan] = FanEngine(fan)
    return got


def per_fan(fn):
    """Decorator: cache fn(fan, *args) in the memo of the fan's engine, so
    the value lives and goes with the engine. Exceptions are not cached."""

    @wraps(fn)
    def cached(fan, *args):
        memo = engine_for(fan).memo
        key = (fn, args)
        try:
            return memo[key]
        except KeyError:
            got = memo[key] = fn(fan, *args)
            return got

    return cached
