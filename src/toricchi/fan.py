"""Rational polyhedral fans with exact validation.

A Fan holds the ambient lattice dimension, the primitive ray generators, and
the maximal cones (as sorted tuples of ray indices). Construction validates
structure exactly: integer input (a float or Fraction is rejected, never
truncated), primitive distinct rays, full-dimensional simplicial maximal
cones, every ray used, and the fan condition (any two maximal cones meet in
a common face), decided for each pair in the coordinates of one of its
cones. That check inverts each maximal cone's ray matrix once, and the fan
keeps those exact inverses (dual_bases): smoothness, the engine's integral
dual bases and the star fans all read them instead of inverting again.
Smoothness and completeness are separate checks returning witness reports,
so a structurally valid but non-smooth or non-complete fan can still be
inspected; require_complete is the one gate that raises instead.

There is no floating point anywhere: memberships and intersections are
decided with Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm
from types import MappingProxyType
from typing import NamedTuple, Optional

from .engine import engine_for, per_fan
from .errors import FanFormatError, FanValidationError, NonSmoothConeError, NotAFaceError
from .errors import NotCompleteError, ToricError, exact_ints
from .intlinalg import dot, inv_rational, kernel_vector, primitive_vector, vector_gcd


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
    dual_bases (read-only, not a field, so equality and hashing ignore it)
    maps each maximal cone to the Fraction columns of its inverse ray matrix.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        (dim,) = exact_ints((self.dim,), FanValidationError, "dimension")
        rays = _int_rows(self.rays, "ray coordinates")
        cones = _int_rows(self.max_cones, "cone ray indices")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rays", rays)
        # canonical cone order: the same geometric fan always compares equal
        object.__setattr__(self, "max_cones", tuple(sorted(tuple(sorted(c)) for c in cones)))
        object.__setattr__(self, "dual_bases", MappingProxyType(_validate(self)))
        # fans key every per-fan cache; hash the nested tuples once, not per lookup
        object.__setattr__(self, "_hash", hash((self.dim, self.rays, self.max_cones)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # pickle and deepcopy rebuild from the fields, so dual_bases is remade
        return Fan, (self.dim, self.rays, self.max_cones)

    def ray_matrix(self, cone) -> list[list[int]]:
        """Rows are the ray generators of the given cone (tuple of indices)."""
        return [list(self.rays[i]) for i in cone]

    def __repr__(self):
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"


def _int_rows(rows, what: str) -> tuple[tuple[int, ...], ...]:
    try:
        rows = tuple(rows)
    except TypeError:
        raise FanValidationError(f"{what}: expected integers, got {rows!r}") from None
    return tuple(exact_ints(r, FanValidationError, what) for r in rows)


def _validate(fan: Fan) -> dict:
    """Raise FanValidationError on any structural fault; return the dual
    bases _check_fan_condition made."""
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
    for i in range(len(fan.rays)):
        if i not in used:
            raise FanValidationError(f"unused ray {i} {fan.rays[i]}")
    return _check_fan_condition(n, fan.rays, fan.max_cones)


def _check_fan_condition(n: int, rays, cones) -> dict:
    """Every pairwise intersection of maximal cones must be their common face.

    Returns each cone's dual basis, the columns of its Fraction inverse (a
    cone without one is degenerate). Each pair (A, B) is decided in A's
    coordinates, the pairings with A's dual basis. Let S = A ∩ B,
    k = |B∖S|, and C the k×k matrix of the A-coordinates on A∖S of the rays
    of B∖S. A point of cone(B) outside cone(S) has B-coordinates μ ≥ 0,
    μ ≠ 0 on B∖S; it lies in cone(A) when its A-coordinates are ≥ 0, which
    is Cμ ≥ 0 on A∖S and can always be reached on S by adding rays of S. So
    the cones meet outside cone(S) exactly when the pointed cone
    {μ ≥ 0 : Cμ ≥ 0} is not {0}, that is, when it has an extreme ray: a
    kernel_vector of k−1 of its 2k rows (the k unit rows and the rows of
    C), with one sign ≥ 0 on every row. For a shared wall (k = 1) this is
    the sign test: the ray of B off the wall must have a negative
    A-coordinate. The error's witness is Σ μ_b u_b with its negative
    A-coordinates on S raised to 0, scaled to a primitive vector.
    """
    duals = {}
    for pos, c in enumerate(cones):
        try:
            duals[c] = tuple(zip(*inv_rational([rays[i] for i in c])))
        except ValueError:
            msg = f"maximal cone {pos} {c} is degenerate (determinant 0)"
            raise FanValidationError(msg) from None
    for a, b in combinations(cones, 2):
        outside = [i for i in b if i not in a]
        k = len(outside)
        # A-coordinates of each ray of B∖S, indexed by position in A
        coords = [[dot(rays[i], m) for m in duals[a]] for i in outside]
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
    return duals


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


@per_fan
def is_smooth(fan: Fan) -> CheckReport:
    """Every maximal cone's rays must be a lattice basis: its dual basis
    from construction is integral. The witness is the first cone that is
    not; only its determinant is computed, to word the reason."""
    engine = engine_for(fan)
    for k, cone in enumerate(fan.max_cones):
        try:
            engine.dual_basis(cone)
        except NonSmoothConeError as exc:
            return CheckReport(
                False, f"maximal cone {k} {cone} has determinant {exc.determinant}, not ±1", cone
            )
    return CheckReport(True)


@per_fan
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
    """The one gate every chi and verify entry point calls first: raise
    NotCompleteError with the open wall unless the fan is complete, then
    NonSmoothConeError with the first non-unimodular cone unless it is
    smooth."""
    report = is_complete(fan)
    if not report:
        raise NotCompleteError(report.witness, report.reason)
    report = is_smooth(fan)
    if not report:
        engine_for(fan).dual_basis(report.witness)  # raises NonSmoothConeError


def enumerate_faces(fan: Fan, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-dimensional faces as sorted ray-index tuples, sorted.

    Simpliciality makes every subset of a maximal cone a face, so the
    engine's downward closure of the maximal cones is exhaustive.
    """
    (k,) = exact_ints((k,), ToricError, "face dimension")
    if not 0 <= k <= fan.dim:
        raise ToricError(f"face dimension {k} out of range 0..{fan.dim}")
    return tuple(sorted(f for f in engine_for(fan).first_cone if len(f) == k))


def spans_cone(fan: Fan, ray_indices) -> Optional[tuple[int, ...]]:
    """The face with exactly this ray set if one exists in the fan, else None.

    The empty set yields the zero cone ().
    """
    want = tuple(sorted(ray_index(fan, i) for i in set(ray_indices)))
    return want if want in engine_for(fan).first_cone else None


def ray_index(fan: Fan, rho) -> int:
    """rho as an index into fan.rays: the range check of every entry point
    that takes a ray. A ToricError unless rho is an integer in
    0..len(fan.rays) − 1 (a negative index is not taken from the end)."""
    (i,) = exact_ints((rho,), ToricError, "ray index")
    if not 0 <= i < len(fan.rays):
        raise ToricError(f"ray index {i} out of range 0..{len(fan.rays) - 1}")
    return i


class StarFan(NamedTuple):
    """Result of star_fan: the quotient fan plus the ray correspondence.

    ray_map sends an original ray index γ (with τ+γ a cone of the fan) to
    the index of its image ray in the star fan.
    """

    fan: Fan
    ray_map: "MappingProxyType[int, int]"


def star_fan(fan: Fan, tau) -> StarFan:
    """Quotient fan of the cones containing tau, projected to N/N_tau.

    σ is the lexicographically first maximal cone containing tau. Its rays
    are a lattice basis when σ is smooth (NonSmoothConeError otherwise), so
    the pairings with the dual basis vectors of σ's rays outside tau are
    coordinates on N/N_tau. Rays of the star fan are the images of rays γ
    with τ+γ a cone, ordered by original ray index; maximal cones are
    images of the maximal cones containing tau. An image that is not
    primitive, or two that coincide, fail the star fan's own validation.
    """
    tau = tuple(sorted(set(tau)))
    return _star_fan_cached(fan, tau)


@per_fan
def _star_fan_cached(fan: Fan, tau: tuple[int, ...]) -> StarFan:
    if spans_cone(fan, tau) is None:
        raise NotAFaceError(f"{tau} is not a face of the fan")
    if not tau:
        return StarFan(fan, MappingProxyType({i: i for i in range(len(fan.rays))}))
    engine = engine_for(fan)
    sigma = engine.first_cone[tau]
    basis = [m for i, m in zip(sigma, engine.dual_basis(sigma)) if i not in tau]
    tau_set = set(tau)
    cones = [c for c in fan.max_cones if tau_set.issubset(c)]
    adjacent = sorted({g for c in cones for g in c} - tau_set)
    ray_map = {g: j for j, g in enumerate(adjacent)}
    images = tuple(tuple(dot(fan.rays[g], m) for m in basis) for g in adjacent)
    star_cones = tuple(tuple(ray_map[g] for g in c if g not in tau_set) for c in cones)
    star = Fan(fan.dim - len(tau), images, star_cones)
    return StarFan(star, MappingProxyType(ray_map))
