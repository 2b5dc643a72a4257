"""Rational polyhedral fans with exact validation.

A Fan holds the ambient lattice dimension, the primitive ray generators, and
the maximal cones (as sorted tuples of ray indices). Construction validates
structure exactly: integer input (a float or Fraction is rejected, never
truncated), primitive distinct rays, full-dimensional simplicial maximal
cones, every ray used, and the fan condition (any two maximal cones meet in
a common face), decided for each pair in the coordinates of one of its
cones. Smoothness and completeness are separate checks returning witness
reports, so a structurally valid but non-smooth or non-complete fan can
still be inspected; require_complete raises instead.

There is no floating point anywhere: memberships and intersections are
decided with Fraction arithmetic and integer normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import lcm
from types import MappingProxyType
from typing import NamedTuple, Optional

from .engine import engine_for
from .errors import FanFormatError, FanValidationError, NotAFaceError, NotCompleteError, exact_ints
from .intlinalg import (
    det_int,
    inv_rational,
    kernel_vector,
    primitive_vector,
    smith_diagonal,
    vector_gcd,
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a validation check. On failure, reason describes it and
    witness holds the offending ray indices: the non-unimodular cone, or
    the open wall."""

    ok: bool
    reason: str = ""
    witness: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Fan:
    """Simplicial fan in Z^dim given by rays and maximal cones.

    rays: tuple of primitive integer vectors (each a tuple of length dim).
    max_cones: tuple of sorted tuples of ray indices, each of length dim
    with linearly independent rays. dim 0 is allowed (the fan of a point,
    one empty cone); it arises as the star fan of a maximal cone.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        (dim,) = exact_ints((self.dim,), FanValidationError, "dimension")
        rays = tuple(exact_ints(r, FanValidationError, "ray coordinates") for r in self.rays)
        cones = (exact_ints(c, FanValidationError, "cone ray indices") for c in self.max_cones)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rays", rays)
        # canonical cone order: the same geometric fan always compares equal
        object.__setattr__(self, "max_cones", tuple(sorted(tuple(sorted(c)) for c in cones)))
        _validate(self)
        # fans key every per-fan cache; hash the nested tuples once, not per lookup
        object.__setattr__(self, "_hash", hash((self.dim, self.rays, self.max_cones)))

    def __hash__(self):
        return self._hash

    def ray_matrix(self, cone) -> list[list[int]]:
        """Rows are the ray generators of the given cone (tuple of indices)."""
        return [list(self.rays[i]) for i in cone]

    def __repr__(self):
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"


def _validate(fan: Fan) -> None:
    n = fan.dim
    if n < 0:
        raise FanValidationError(f"dimension must be nonnegative, got {n}")
    if n == 0 and fan.rays:
        raise FanValidationError("a 0-dimensional fan has no rays")
    seen = set()
    for i, r in enumerate(fan.rays):
        if len(r) != n:
            raise FanValidationError(f"ray {i} {r} has {len(r)} coordinates, expected {n}")
        g = vector_gcd(r)
        if g == 0:
            raise FanValidationError(f"ray {i} is the zero vector")
        if g != 1:
            raise FanValidationError(f"ray {i} {r} is not primitive (gcd {g})")
        if r in seen:
            raise FanValidationError(f"duplicate ray {r}")
        seen.add(r)
    if not fan.max_cones:
        raise FanValidationError("fan has no maximal cones")
    seen_cones = set()
    used = set()
    for k, cone in enumerate(fan.max_cones):
        if len(cone) != n:
            raise FanValidationError(
                f"maximal cone {k} {cone} has {len(cone)} rays, expected {n}"
            )
        if len(set(cone)) != len(cone):
            raise FanValidationError(f"maximal cone {k} {cone} repeats a ray index")
        for i in cone:
            if not 0 <= i < len(fan.rays):
                raise FanValidationError(f"maximal cone {k} uses ray index {i}, out of range")
        if cone in seen_cones:
            raise FanValidationError(f"duplicate maximal cone {cone}")
        seen_cones.add(cone)
        used.update(cone)
        if n > 0 and det_int(fan.ray_matrix(cone)) == 0:
            raise FanValidationError(f"maximal cone {k} {cone} is degenerate (determinant 0)")
    for i in range(len(fan.rays)):
        if i not in used:
            raise FanValidationError(f"unused ray {i} {fan.rays[i]}")
    _check_fan_condition(n, fan.rays, fan.max_cones)


def _check_fan_condition(n: int, rays, cones) -> None:
    """Every pairwise intersection of maximal cones must be their common face.

    Each pair (A, B) is decided in A's coordinates (one Fraction inverse per
    cone). Let S = A ∩ B, k = |B∖S|, and C the k×k matrix of the
    A-coordinates on A∖S of the rays of B∖S. A point of cone(B) outside
    cone(S) has B-coordinates μ ≥ 0, μ ≠ 0 on B∖S; it lies in cone(A) when
    its A-coordinates are ≥ 0, which is Cμ ≥ 0 on A∖S and can always be
    reached on S by adding rays of S. So the cones meet outside cone(S)
    exactly when the pointed cone {μ ≥ 0 : Cμ ≥ 0} is not {0}, that is, when
    it has an extreme ray: a kernel_vector of k−1 of its 2k rows (the k unit
    rows and the rows of C), with one sign ≥ 0 on every row. For a shared
    wall (k = 1) this is the sign test: the ray of B off the wall must have
    a negative A-coordinate. The error's witness is Σ μ_b u_b with its
    negative A-coordinates on S raised to 0, scaled to a primitive vector.
    """
    if n == 0:
        return
    inverses = {c: inv_rational([rays[i] for i in c]) for c in cones}
    for a, b in combinations(cones, 2):
        inv = inverses[a]
        outside = [i for i in b if i not in a]
        k = len(outside)
        # A-coordinates of each ray of B∖S, indexed by position in A
        coords = [
            [sum(rays[i][r] * inv[r][p] for r in range(n)) for p in range(n)]
            for i in outside
        ]
        rows = [[int(j == t) for j in range(k)] for t in range(k)]
        rows += [[coords[j][p] for j in range(k)] for p, i in enumerate(a) if i not in b]
        for sub in combinations(rows, k - 1):
            mu = kernel_vector(sub, k)
            if mu is None:
                continue
            if max(mu) <= 0:
                mu = tuple(-x for x in mu)
            if all(sum(c * x for c, x in zip(row, mu)) >= 0 for row in rows):
                lam = [max(sum(m * v[p] for m, v in zip(mu, coords)), 0) for p in range(n)]
                scale = lcm(*(x.denominator for x in lam))
                point = primitive_vector(
                    [int(sum(x * scale * rays[i][r] for x, i in zip(lam, a))) for r in range(n)]
                )
                shared = tuple(i for i in a if i in b)
                raise FanValidationError(
                    f"fan condition fails: cones {a} and {b} overlap at {point}, "
                    f"which is outside their shared face {shared}"
                )


def parse_fan(text: str) -> Fan:
    """Parse the fan file format.

    Line-oriented UTF-8: '#' starts a comment, blank lines are skipped.
        dim <n>
        rays
        <n integers per line, one ray per line>
        cones
        <n zero-based ray indices per line, one maximal cone per line>
    """
    dim: Optional[int] = None
    rays: list[tuple[int, ...]] = []
    cones: list[tuple[int, ...]] = []
    state = "dim"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if state == "dim":
            parts = line.split()
            if parts[0] != "dim" or len(parts) != 2:
                raise FanFormatError("expected 'dim <n>'", lineno)
            try:
                dim = int(parts[1])
            except ValueError:
                raise FanFormatError(f"not an integer: {parts[1]!r}", lineno) from None
            if dim < 1:
                raise FanFormatError(f"dimension must be positive, got {dim}", lineno)
            state = "rays-header"
        elif state == "rays-header":
            if line != "rays":
                raise FanFormatError("expected 'rays'", lineno)
            state = "rays"
        elif state == "rays":
            if line == "cones":
                state = "cones"
                continue
            ray = _parse_int_row(line, dim, lineno, "ray coordinates")
            g = vector_gcd(ray)
            if g == 0:
                raise FanFormatError("ray is the zero vector", lineno)
            if g != 1:
                raise FanFormatError(f"non-primitive ray {ray} (gcd {g})", lineno)
            if ray in rays:
                raise FanFormatError(f"duplicate ray {ray}", lineno)
            rays.append(ray)
        elif state == "cones":
            cone = _parse_int_row(line, dim, lineno, "ray indices")
            for i in cone:
                if not 0 <= i < len(rays):
                    raise FanFormatError(f"ray index {i} out of range", lineno)
            if len(set(cone)) != len(cone):
                raise FanFormatError("repeated ray index in cone", lineno)
            cones.append(tuple(sorted(cone)))
    if state == "dim":
        raise FanFormatError("empty fan file: missing 'dim <n>'")
    if state in ("rays-header", "rays"):
        raise FanFormatError("missing 'cones' section")
    if not cones:
        raise FanFormatError("no maximal cones given")
    return Fan(dim, tuple(rays), tuple(cones))


def _parse_int_row(line: str, width: int, lineno: int, what: str) -> tuple[int, ...]:
    parts = line.split()
    if len(parts) != width:
        raise FanFormatError(f"expected {width} {what}, got {len(parts)}", lineno)
    out = []
    for tok in parts:
        try:
            out.append(int(tok))
        except ValueError:
            raise FanFormatError(f"not an integer: {tok!r}", lineno) from None
    return tuple(out)


def format_fan(fan: Fan) -> str:
    """Inverse of parse_fan (canonical fan file text)."""
    lines = [f"dim {fan.dim}", "rays"]
    lines += [" ".join(str(x) for x in r) for r in fan.rays]
    lines.append("cones")
    lines += [" ".join(str(i) for i in c) for c in fan.max_cones]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def is_smooth(fan: Fan) -> CheckReport:
    """Every maximal cone's ray generators must have determinant ±1."""
    for k, cone in enumerate(fan.max_cones):
        if fan.dim == 0:
            continue
        d = det_int(fan.ray_matrix(cone))
        if d not in (1, -1):
            return CheckReport(
                False, f"maximal cone {k} {cone} has determinant {d}, not ±1", cone
            )
    return CheckReport(True)


@lru_cache(maxsize=None)
def is_complete(fan: Fan) -> CheckReport:
    """Completeness: every (n−1)-face (wall) lies in exactly two maximal cones.

    The wall count is exact for a Fan, because construction has already
    checked the fan condition. Two full-dimensional simplicial cones that
    share a wall then meet only in that wall, so they lie on opposite
    sides of it, and every point in the relative interior of a wall with
    two cones is interior to the support. If the support is not all of
    R^n, a generic segment from inside a cone to a point outside the
    support leaves the support through the relative interior of some wall
    (it misses every face of dimension n−2 or less), and that wall lies in
    only one cone. So the fan is complete exactly when every wall lies in
    two cones; the witness is the first wall in sorted order that does not.
    """
    n = fan.dim
    if n == 0:
        return CheckReport(True)
    walls: dict[tuple[int, ...], list[int]] = {}
    for k, cone in enumerate(fan.max_cones):
        for wall in combinations(cone, n - 1):
            walls.setdefault(wall, []).append(k)
    for wall, owners in sorted(walls.items()):
        if len(owners) != 2:
            return CheckReport(
                False, f"wall {wall} lies in {len(owners)} maximal cone(s), expected 2", wall
            )
    return CheckReport(True)


def require_complete(fan: Fan) -> None:
    """Raise NotCompleteError with the open wall unless the fan is complete;
    the chi and verify entry points call this first."""
    report = is_complete(fan)
    if not report:
        raise NotCompleteError(report.witness, report.reason)


def enumerate_faces(fan: Fan, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-dimensional faces as sorted ray-index tuples, sorted.

    Simpliciality makes every subset of a maximal cone a face, so the
    engine's downward closure of the maximal cones is exhaustive.
    """
    if not 0 <= k <= fan.dim:
        raise ValueError(f"face dimension {k} out of range 0..{fan.dim}")
    return tuple(sorted(f for f in engine_for(fan).first_cone if len(f) == k))


def spans_cone(fan: Fan, ray_indices) -> Optional[tuple[int, ...]]:
    """The face with exactly this ray set if one exists in the fan, else None.

    The empty set yields the zero cone ().
    """
    want = tuple(sorted(set(ray_indices)))
    for i in want:
        if not 0 <= i < len(fan.rays):
            raise ValueError(f"ray index {i} out of range")
    return want if want in engine_for(fan).first_cone else None


class StarFan(NamedTuple):
    """Result of star_fan: the quotient fan plus the ray correspondence.

    ray_map sends an original ray index γ (with τ+γ a cone of the fan) to
    the index of its image ray in the star fan.
    """

    fan: Fan
    ray_map: "MappingProxyType[int, int]"


def star_fan(fan: Fan, tau) -> StarFan:
    """Quotient fan of the cones containing tau, projected to N/N_tau.

    tau's rays are completed to a Z-basis (Smith normal form; smoothness
    makes all elementary divisors 1) and the tau-coordinates are dropped.
    Rays of the star fan are the images of rays γ with τ+γ a cone, ordered
    by original ray index; maximal cones are images of the maximal cones
    containing tau.
    """
    tau = tuple(sorted(set(tau)))
    return _star_fan_cached(fan, tau)


@lru_cache(maxsize=None)
def _star_fan_cached(fan: Fan, tau: tuple[int, ...]) -> StarFan:
    if spans_cone(fan, tau) is None:
        raise NotAFaceError(f"{tau} is not a face of the fan")
    if not tau:
        return StarFan(fan, MappingProxyType({i: i for i in range(len(fan.rays))}))
    n = fan.dim
    k = len(tau)
    a = fan.ray_matrix(tau)
    d, _, v = smith_diagonal(a)
    for i in range(k):
        if d[i][i] != 1:
            raise FanValidationError(
                f"cone {tau} is not smooth (elementary divisor {d[i][i]})"
            )

    def project(x) -> tuple[int, ...]:
        # drop the first k coordinates in the Smith basis: x ↦ (x·V)[k:]
        return tuple(sum(x[r] * v[r][j] for r in range(n)) for j in range(k, n))

    tau_set = set(tau)
    adjacent = [
        g
        for g in range(len(fan.rays))
        if g not in tau_set and spans_cone(fan, tau + (g,)) is not None
    ]
    images = []
    ray_map = {}
    for g in adjacent:
        w = project(fan.rays[g])
        if not any(w) or vector_gcd(w) != 1:
            raise FanValidationError(
                f"projected ray {w} of ray {g} is not primitive; fan not smooth along {tau}"
            )
        if w in images:
            raise FanValidationError(f"rays collide in the star fan of {tau}")
        ray_map[g] = len(images)
        images.append(w)
    star_cones = sorted(
        tuple(sorted(ray_map[g] for g in cone if g not in tau_set))
        for cone in fan.max_cones
        if tau_set.issubset(cone)
    )
    star = Fan(n - k, tuple(images), tuple(star_cones))
    return StarFan(star, MappingProxyType(ray_map))
