"""Built-in fans: projective spaces, Hirzebruch surfaces, products of
projective lines, blowups of the plane, and P1 x P2.

Every entry is smooth and complete (the test suite asserts it); they are
the corpus the verification commands run on. build_catalog accepts both
the short instance names listed in STANDARD ("p2", "f1", "bl2_p2", ...)
and the parametric family names ("projective_space", "hirzebruch",
"product_p1", "blowup_p2") with explicit integer parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import ToricError, exact_ints
from .fan import Fan


def projective_space(n: int) -> Fan:
    """Rays e_1..e_n and −(e_1+..+e_n); every n-subset spans a cone."""
    if n < 1:
        raise ToricError(f"projective_space needs n >= 1, got {n}")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = tuple(combinations(range(n + 1), n))
    return Fan(n, tuple(rays), cones)


def hirzebruch(a: int) -> Fan:
    """Rays (1,0),(0,1),(−1,a),(0,−1); the four fence cones."""
    if a < 0:
        raise ToricError(f"hirzebruch needs a >= 0, got {a}")
    rays = ((1, 0), (0, 1), (-1, a), (0, -1))
    return Fan(2, rays, ((0, 1), (1, 2), (2, 3), (0, 3)))


def product_fan(f1: Fan, f2: Fan) -> Fan:
    """Fan of the product variety: rays padded with zeros, cones joined."""
    n1, n2 = f1.dim, f2.dim
    rays = [r + (0,) * n2 for r in f1.rays]
    rays += [(0,) * n1 + r for r in f2.rays]
    off = len(f1.rays)
    cones = tuple(
        tuple(sorted(c1 + tuple(i + off for i in c2)))
        for c1, c2 in product(f1.max_cones, f2.max_cones)
    )
    return Fan(n1 + n2, tuple(rays), cones)


def product_p1(k: int) -> Fan:
    """(P1)^k, rays ordered e_1, −e_1, e_2, −e_2, ..."""
    if k < 1:
        raise ToricError(f"product_p1 needs k >= 1, got {k}")
    fan = projective_space(1)
    for _ in range(k - 1):
        fan = product_fan(fan, projective_space(1))
    return fan


def blowup_p2(k: int) -> Fan:
    """P2 blown up at k of its torus-fixed points (k = 1..3), by inserting
    the sum of the adjacent ray generators into the corresponding cone."""
    if not 1 <= k <= 3:
        raise ToricError(f"blowup_p2 needs 1 <= k <= 3, got {k}")
    rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [(0, 1), (1, 2), (0, 2)]
    for corner in list(cones)[:k]:
        i, j = corner
        new = tuple(rays[i][t] + rays[j][t] for t in range(2))
        rays.append(new)
        m = len(rays) - 1
        cones.remove(corner)
        cones.extend([tuple(sorted((i, m))), tuple(sorted((j, m)))])
    return Fan(2, tuple(rays), tuple(sorted(cones)))


FAMILIES = {
    "projective_space": (projective_space, 1),
    "hirzebruch": (hirzebruch, 1),
    "product_p1": (product_p1, 1),
    "blowup_p2": (blowup_p2, 1),
}


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    family: str
    params: tuple[int, ...]
    description: str


STANDARD: tuple[CatalogEntry, ...] = (
    CatalogEntry("p1", "projective_space", (1,), "projective line"),
    CatalogEntry("p2", "projective_space", (2,), "projective plane"),
    CatalogEntry("p3", "projective_space", (3,), "projective 3-space"),
    CatalogEntry("p4", "projective_space", (4,), "projective 4-space"),
    CatalogEntry("f0", "hirzebruch", (0,), "Hirzebruch surface, a = 0"),
    CatalogEntry("f1", "hirzebruch", (1,), "Hirzebruch surface, a = 1"),
    CatalogEntry("f2", "hirzebruch", (2,), "Hirzebruch surface, a = 2"),
    CatalogEntry("f3", "hirzebruch", (3,), "Hirzebruch surface, a = 3"),
    CatalogEntry("p1xp1", "product_p1", (2,), "P1 x P1"),
    CatalogEntry("p1xp1xp1", "product_p1", (3,), "P1 x P1 x P1"),
    CatalogEntry("bl1_p2", "blowup_p2", (1,), "P2 blown up at 1 point"),
    CatalogEntry("bl2_p2", "blowup_p2", (2,), "P2 blown up at 2 points"),
    CatalogEntry("bl3_p2", "blowup_p2", (3,), "P2 blown up at 3 points"),
    CatalogEntry("p1xp2", "product", (), "P1 x P2"),
)

_BY_NAME = {e.name: e for e in STANDARD}


def build_catalog(name: str, params=()) -> Fan:
    """Fan for a catalog name: a STANDARD instance or family(params)."""
    params = exact_ints(params, ToricError, "catalog parameters")
    if name in _BY_NAME:
        entry = _BY_NAME[name]
        if params:
            raise ToricError(f"catalog entry {name!r} takes no parameters")
        if entry.name == "p1xp2":
            return product_fan(projective_space(1), projective_space(2))
        fn, _ = FAMILIES[entry.family]
        return fn(*entry.params)
    if name in FAMILIES:
        fn, arity = FAMILIES[name]
        if len(params) != arity:
            raise ToricError(f"{name} takes {arity} integer parameter(s), got {len(params)}")
        return fn(*params)
    raise ToricError(f"unknown catalog name {name!r}")


def catalog_names() -> list[str]:
    return [e.name for e in STANDARD]
