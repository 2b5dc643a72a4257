"""Rational polyhedral fans with exact validation.

A Fan holds the ambient lattice dimension, the primitive ray generators, and
the maximal cones (as sorted tuples of ray indices). Construction validates
structure exactly: primitive distinct rays, full-dimensional simplicial
maximal cones, every ray used, and the fan condition (any two maximal cones
meet in a common face). Smoothness and completeness are separate checks
returning witness reports, so a structurally valid but non-smooth or
non-complete fan can still be inspected; require_complete raises instead.

There is no floating point anywhere: memberships and intersections are
decided with Fraction arithmetic and integer normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import NamedTuple, Optional

from .engine import engine_for
from .errors import FanFormatError, FanValidationError, NotAFaceError, NotCompleteError
from .intlinalg import (
    det_int,
    kernel_vector,
    smith_diagonal,
    solve_rational,
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
        object.__setattr__(self, "rays", tuple(tuple(int(x) for x in r) for r in self.rays))
        # canonical cone order: the same geometric fan always compares equal
        object.__setattr__(
            self,
            "max_cones",
            tuple(sorted(tuple(sorted(int(i) for i in c)) for c in self.max_cones)),
        )
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
    _check_fan_condition(fan)


def _cone_member_coeffs(fan: Fan, cone, point):
    """Fraction coefficients expressing point over cone's rays, or None.

    cone's rays must be linearly independent (guaranteed for faces of
    maximal cones); the expansion is then unique when it exists.
    """
    if not cone:
        return [] if not any(point) else None
    a = [[fan.rays[i][r] for i in cone] for r in range(fan.dim)]
    return solve_rational(a, list(point))


def _check_fan_condition(fan: Fan) -> None:
    """Every pairwise intersection of maximal cones must be their common face.

    For simplicial cones this reduces to: cone(A) ∩ cone(B) ⊆ cone(A∩B).
    The intersection is enumerated exactly: a point of it is U^T·λ = W^T·μ
    with λ, μ ≥ 0, so generators correspond to extreme rays of
    {z ≥ 0 : M·z = 0} with M = [U^T | −W^T]; each extreme ray's support
    carries a one-dimensional kernel, so scanning supports of size ≤ n+1
    and keeping the sign-definite kernel vectors yields a generating set.
    """
    n = fan.dim
    if n == 0:
        return
    for a, b in combinations(fan.max_cones, 2):
        shared = sorted(set(a) & set(b))
        u = [fan.rays[i] for i in a]
        w = [fan.rays[j] for j in b]
        cols = len(a) + len(b)
        m_rows = [
            [u[c][r] for c in range(len(a))] + [-w[c][r] for c in range(len(b))]
            for r in range(n)
        ]
        witnesses = set()
        for size in range(1, min(cols, n + 1) + 1):
            for sub in combinations(range(cols), size):
                rows = [[row[c] for c in sub] for row in m_rows]
                z = kernel_vector(rows, size)
                if z is None:
                    continue
                if all(x <= 0 for x in z):
                    z = tuple(-x for x in z)
                if any(x < 0 for x in z):
                    continue
                lam = {sub[t]: z[t] for t in range(size)}
                x = tuple(
                    sum(lam.get(c, 0) * u[c][r] for c in range(len(a)))
                    for r in range(n)
                )
                if any(x):
                    witnesses.add(x)
        for x in witnesses:
            coeffs = _cone_member_coeffs(fan, tuple(shared), x)
            if coeffs is None or any(c < 0 for c in coeffs):
                raise FanValidationError(
                    f"fan condition fails: cones {a} and {b} overlap at {x}, "
                    f"which is outside their shared face {tuple(shared)}"
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
