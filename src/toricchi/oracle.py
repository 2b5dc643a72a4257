"""Euler characteristics computed without the Chow ring.

chi_recursive runs the inductive difference identity as an algorithm:
χ(O(D)) − χ(O(D−D_ρ)) equals χ of the restriction on the star fan of ρ.
The divisor is checked once, on entry; the recursion then restricts int
tuples (divisor.restrict), each replaced by the class's representative
that is zero on σ₀ = max_cones[0] (divisor.zero_on), the memoization key
and the termination measure. Stepping the first nonzero coefficient toward
zero keeps it canonical with no reduction (see _chi) and drops its L1 norm.
Base cases: the line (χ = deg + 1) and the trivial class (χ = 1, the
Todd-genus fact taken as input; on a point every class is trivial). As in
the paper's induction on dimension, only the restriction recurses: the
chain of steps within one fan is a loop, so the depth is at most the
dimension and the interpreter's recursion limit is never touched. The node
budget (TORIC_RECURSION_BUDGET) is the one bound on the work. The one memo,
_chi_memo, is emptied when a call starts with more than _CHI_MEMO_CAP
entries in it.

chi_graded_cohomology sums, over lattice characters m, the alternating sum
of graded cohomology via face counting: the contribution of m is
1 − χ_face(Δ) where Δ is the fan's face complex induced on the rays with
⟨m, u_ρ⟩ < −a_ρ. The scan region is the bounding box of the hyperplane
arrangement's vertices, from the floor of their minimum to the ceiling of
their maximum on each axis, and it provably holds every nonzero term:
- The contribution is constant on each region R_S = {m : ⟨m, u_ρ⟩ < −a_ρ
  exactly for ρ ∈ S}, and it is χ_m = Σ (−1)^p dim H^p(X, O(D))_m
  (Cox–Little–Schenck, Toric Varieties, §9.1). X is complete, so each H^p
  is finite-dimensional and only finitely many m have χ_m ≠ 0.
- An unbounded R_S that holds a lattice point m also holds m + t·v for an
  integral v in its recession cone and every t ≥ 0, all with the same
  χ_m; so that value is 0.
- A bounded R_S has as closure a polytope whose vertices are arrangement
  vertices, so it lies in their bounding box.
The vertices come from integer adjugates of the nonsingular n-subsets of
rays, computed once per fan, and exact floor and ceil division. A box of
more than _MAX_SCAN_LINES lines raises ScanRegionError before any summing.
The box goes through the one scan kernel, kernel.box_sum, which sums the
box a plane at a time: the rows of a plane between two changes in the
order of the rays' breakpoints form a band, summed in closed form as runs
of one ray mask times exact floor sums, so the fan's contribution table is
read once per run of a band, not once per line or point.
The table is a dict filled per mask on first use, so no fan pays for all
2^r masks. Like the other routes it passes the one entry gate,
fan.require_complete, so a fan that is not complete or has a
non-unimodular maximal cone is refused before any scan.

count_lattice_points is the nef-case oracle: when the Cartier data pass the
nef inequalities, χ equals the number of lattice points of the divisor
polytope, summed by the same kernel over the Cartier data's bounding box
with a table that is 1 at mask 0 (every inequality holds) and 0 elsewhere.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from itertools import combinations

from . import kernel
from .divisor import TorusDivisor, canonical_divisor, divisor_on, restrict, zero_on
from .engine import per_fan
from .errors import DomainError, RecursionBudgetExceeded, ScanRegionError, ToricError
from .fan import Fan, enumerate_faces, require_complete
from .intlinalg import det_int, dot, inv_rational
from .todd import chi_hrr  # noqa: F401  (CHI_METHODS names it)

DEFAULT_RECURSION_BUDGET = 1_000_000


def canonical_representative(fan: Fan, coeffs) -> tuple[int, ...]:
    """The representative of the divisor class that is zero on the rays of
    σ₀ = max_cones[0]; unique, as only div(χ^0) vanishes on σ₀. DivisorError
    unless coeffs are integers, one per ray; NonSmoothConeError unless σ₀
    is unimodular."""
    sigma = fan.max_cones[0]
    return zero_on(fan, sigma, sigma, TorusDivisor(fan, coeffs).coeffs)


_chi_memo: dict = {}
# About 60 MB of entries. A 30 s chi_wide benchmark run, the busiest user
# of the memo, fills about 60k, so the cap only bounds long sessions.
_CHI_MEMO_CAP = 1 << 18


def chi_recursive(fan: Fan, d: TorusDivisor) -> int:
    """χ(O(D)) by running the induction: descend on positive coefficients
    (χ(D) = χ(D−D_ρ) + χ of the restriction), ascend on negative ones
    (χ(D) = χ(D+D_ρ) − χ of the restriction of D+D_ρ). ρ is the first
    ray, in ray order, where the class's representative is nonzero.
    """
    require_complete(fan)
    text = os.environ.get("TORIC_RECURSION_BUDGET", str(DEFAULT_RECURSION_BUDGET))
    try:
        budget = [int(text)]
    except ValueError:
        raise DomainError(f"TORIC_RECURSION_BUDGET must be an integer, got {text!r}") from None
    if len(_chi_memo) > _CHI_MEMO_CAP:
        _chi_memo.clear()
    return _chi(fan, divisor_on(fan, d).coeffs, budget)


def _chi(fan: Fan, coeffs, budget) -> int:
    """χ of the class of coeffs, a tuple of ints, one per ray. The chain
    D, D ∓ D_ρ, … along the picked rays is a loop; only the restriction at
    each link recurses, onto a star fan of one dimension less, so the depth
    is at most fan.dim and no global recursion limit is raised. The chain
    stops at the trivial class or a memoized one, and on the way back every
    link is memoized in _chi_memo with its running sum."""
    if fan.dim == 1:
        # on the line, χ = degree + 1; the coefficient sum is equivalence-invariant
        return sum(coeffs) + 1
    links = []
    total = 1
    sigma = fan.max_cones[0]
    rep = zero_on(fan, sigma, sigma, coeffs)
    while any(rep):
        key = (fan, rep)
        if key in _chi_memo:
            total = _chi_memo[key]
            break
        budget[0] -= 1
        if budget[0] < 0:
            raise RecursionBudgetExceeded(
                "recursion budget exhausted (set TORIC_RECURSION_BUDGET to raise it)"
            )
        rho = next(i for i, c in enumerate(rep) if c)
        # descend: χ(D) = χ(D − D_ρ) + χ(D|); ascend: χ(D) = χ(D + D_ρ) − χ((D + D_ρ)|)
        sign = 1 if rep[rho] > 0 else -1
        stepped = tuple(c - sign if i == rho else c for i, c in enumerate(rep))
        star, restricted = restrict(fan, rho, rep if sign > 0 else stepped)
        links.append((key, sign * _chi(star, restricted, budget)))
        # canonical already: rep is zero on σ₀, so rho is off σ₀ and the
        # stepped tuple is still zero on σ₀
        rep = stepped
    for key, delta in reversed(links):
        total += delta
        _chi_memo[key] = total
    return total


def _face_masks(fan: Fan):
    """(ray mask, (−1)^(k+1)) for every k-face, k = 1..dim: the terms of
    χ_face of an induced subcomplex."""
    return [
        (sum(1 << i for i in face), 1 if k % 2 == 1 else -1)
        for k in range(1, fan.dim + 1)
        for face in enumerate_faces(fan, k)
    ]


class _LazyContributions(dict):
    """mask -> 1 − χ_face(mask), each entry computed from the face list the
    first time the scan reads it."""

    __slots__ = ("_faces",)

    def __init__(self, faces):
        super().__init__()
        self._faces = faces

    def __missing__(self, mask: int) -> int:
        chi_face = sum(s for fmask, s in self._faces if fmask & mask == fmask)
        value = self[mask] = 1 - chi_face
        return value


@per_fan
def _contribution_table(fan: Fan) -> _LazyContributions:
    """table[mask] = 1 − χ_face(subcomplex induced on the rays in mask),
    each entry computed the first time the scan reads it."""
    return _LazyContributions(_face_masks(fan))


@per_fan
def _arrangement_adjugates(fan: Fan):
    """(ray subset, |det A| · A⁻¹, |det A|) for every nonsingular n-subset
    of the rays, A the matrix of their rows: both integral. The vertex
    where those rays' hyperplanes ⟨m, u_ρ⟩ = −a_ρ meet is the product of
    the middle entry with (−a_ρ) over the subset, divided by the last."""
    out = []
    for sub in combinations(range(len(fan.rays)), fan.dim):
        a = [list(fan.rays[i]) for i in sub]
        d = abs(det_int(a))
        if d:
            adj = tuple(tuple(int(d * x) for x in row) for row in inv_rational(a))
            out.append((sub, adj, d))
    return tuple(out)


def _arrangement_box(fan: Fan, coeffs):
    """Bounding box of all vertices of {⟨m, u_ρ⟩ = −a_ρ}: floor of the
    minimum to ceiling of the maximum on each axis."""
    vertices = _arrangement_adjugates(fan)
    if not vertices:
        raise ToricError("no arrangement vertices; fan rays do not span")
    floors = []
    ceils = []
    for sub, adj, d in vertices:
        rhs = [-coeffs[i] for i in sub]
        nums = [sum(x * y for x, y in zip(row, rhs)) for row in adj]
        floors.append([v // d for v in nums])
        ceils.append([-(-v // d) for v in nums])
    return (
        tuple(min(col) for col in zip(*floors)),
        tuple(max(col) for col in zip(*ceils)),
    )


# The most lines one box may have: the product of its extents off the
# longest axis, the lines of kernel.box_sum's planes, counted before any
# summing although the kernel sums most rows of a long plane a band at a
# time. The largest box the tests and the P^7 rungs reach, P^7 with
# D = (−5, −4, 0, …, 0), has 10^6.
_MAX_SCAN_LINES = 1 << 24


def _box_sum(lo, hi, rays, bounds, table) -> int:
    """kernel.box_sum over [lo, hi], after refusing a box of more than
    _MAX_SCAN_LINES lines with ScanRegionError."""
    lines = math.prod(sorted(h - l + 1 for l, h in zip(lo, hi))[:-1])
    if lines > _MAX_SCAN_LINES:
        raise ScanRegionError(
            f"scan box {list(lo)}..{list(hi)} has {lines} lines, "
            f"more than the limit of {_MAX_SCAN_LINES}"
        )
    return kernel.box_sum(lo, hi, rays, bounds, table)


def _scan(fan: Fan, coeffs) -> int:
    lo, hi = _arrangement_box(fan, coeffs)
    bounds = [-a for a in coeffs]
    return _box_sum(lo, hi, fan.rays, bounds, _contribution_table(fan))


def chi_graded_cohomology(fan: Fan, d: TorusDivisor) -> int:
    """χ(O(D)) as Σ_m (1 − χ_face(Δ_{D,m})) over the arrangement's vertex box."""
    require_complete(fan)
    return _scan(fan, divisor_on(fan, d).coeffs)


def cartier_data(fan: Fan, d: TorusDivisor) -> list[tuple[int, ...]]:
    """m_σ per maximal cone with ⟨m_σ, u_ρ⟩ = −a_ρ on the cone's rays.

    m_σ = Σ_j −a_{σ_j} · m_j over the cone's dual basis m_j (the columns of
    its inverse ray matrix, which the fan keeps).
    """
    d = divisor_on(fan, d)
    out = []
    for cone in fan.max_cones:
        basis = fan.dual_basis(cone)
        out.append(
            tuple(-sum(d.coeffs[i] * m[r] for i, m in zip(cone, basis)) for r in range(fan.dim))
        )
    return out


def _passes_nef(fan: Fan, coeffs, data) -> bool:
    """Whether the Cartier data pass is_nef's inequalities."""
    return all(dot(m, u) >= -a for m in data for u, a in zip(fan.rays, coeffs))


def is_nef(fan: Fan, d: TorusDivisor) -> bool:
    """Cartier-data inequalities ⟨m_σ, u_γ⟩ ≥ −a_γ at every cone, every ray."""
    d = divisor_on(fan, d)
    return _passes_nef(fan, d.coeffs, cartier_data(fan, d))


def count_lattice_points(fan: Fan, d: TorusDivisor):
    """|P_D ∩ M| for nef D (P_D = {m : ⟨m, u_ρ⟩ ≥ −a_ρ}); None if not nef.

    For nef divisors on complete fans the polytope is the convex hull of
    the Cartier data, so their bounding box holds every point counted.
    """
    require_complete(fan)
    d = divisor_on(fan, d)
    data = cartier_data(fan, d)
    if not _passes_nef(fan, d.coeffs, data):
        return None
    lo = [min(m[i] for m in data) for i in range(fan.dim)]
    hi = [max(m[i] for m in data) for i in range(fan.dim)]
    inside = defaultdict(int, {0: 1})
    return _box_sum(lo, hi, fan.rays, [-a for a in d.coeffs], inside)


# method -> route name, looked up when called, so a rebound name is what runs
CHI_METHODS = {
    "hrr": "chi_hrr",
    "recursive": "chi_recursive",
    "cohomology": "chi_graded_cohomology",
}


def chi_by_method(fan: Fan, d: TorusDivisor, method: str) -> int:
    try:
        name = CHI_METHODS[method]
    except (KeyError, TypeError):
        raise ToricError(f"unknown chi method {method!r}") from None
    return globals()[name](fan, d)


def serre_duality_check(fan: Fan, d: TorusDivisor, method: str = "hrr") -> bool:
    """χ(D) == (−1)^n · χ(K − D) with both sides by the selected method."""
    k = canonical_divisor(fan)
    d = divisor_on(fan, d)
    lhs = chi_by_method(fan, d, method)
    rhs = chi_by_method(fan, k - d, method)
    return lhs == (-1) ** fan.dim * rhs
