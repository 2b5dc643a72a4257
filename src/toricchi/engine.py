"""Per-fan store: every value the routes derive from a fan alone.

A FanEngine is built once per fan and held in one cache keyed on the fan
(engine_for); equal fans share it, so the equal star fans of different
fans share one. It owns

  first_cone    every face of the fan (sorted ray-index tuple) mapped to the
                lexicographically first maximal cone containing it; its keys
                are the face set, so "do these rays span a cone" is one
                dictionary lookup;
  move_row      per (σ, ρ), the rays γ ∉ σ with ⟨m, u_γ⟩ ≠ 0 for the dual
                basis vector m of u_ρ in σ (read from Fan.dual_basis): the
                Chow ring's move case, restriction and the class normal
                form (divisor.zero_on) read them and do no linear algebra;
  memo          the values of every function decorated with per_fan: the
                star fans (fan.py), the face contribution table and the
                arrangement adjugates (oracle.py), and the monomial walk
                with its Td and C_ρ degree tables (todd.py).

The dual bases and the smooth and complete verdicts stay on the Fan.
Every entry here is filled on first use. The cache keeps at most _MAX_ENGINES
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

from .intlinalg import dot


class FanEngine:
    __slots__ = ("fan", "first_cone", "_moves", "memo")

    def __init__(self, fan):
        self.fan = fan
        first: dict[tuple[int, ...], tuple[int, ...]] = {}
        # max_cones is sorted, so the first cone to claim a face is the lex-first
        for cone in fan.max_cones:
            for k in range(len(cone) + 1):
                for face in combinations(cone, k):
                    first.setdefault(face, cone)
        self.first_cone = first
        self._moves: dict = {}
        self.memo: dict = {}  # (function, args) -> value, see per_fan

    def move_row(self, sigma, rho: int) -> tuple[tuple[int, int], ...]:
        """(γ, ⟨m, u_γ⟩) for the rays γ ∉ σ with nonzero pairing, where m is
        the dual basis vector of u_ρ in σ: D_ρ ≡ −Σ ⟨m, u_γ⟩ D_γ on V(τ), τ ⊆ σ."""
        key = (sigma, rho)
        got = self._moves.get(key)
        if got is None:
            m = self.fan.dual_basis(sigma)[sigma.index(rho)]
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
