"""The box scan of the graded-cohomology route, in pure Python.

box_sum sums table[mask(m)] over the integer points m of a box, where bit k
of mask(m) records that ray k's inequality ⟨m, u_k⟩ < bound_k holds at m.
It sweeps the box one plane at a time. A plane is spanned by the box's
longest axis, the line coordinate t, and its second longest, the row
coordinate y; the other coordinates are fixed. On one row each ray's
inequality is linear in t, so its bit flips at most once, at a breakpoint
found by exact integer floor or ceil division, and the row is at most r+1
runs of one mask each. Each breakpoint is floor-linear in y, so the rows
between two changes of the breakpoints' order form a band whose sum is a
handful of table entries times exact floor sums over its rows (see
_Bands); a band of one row, and every row of a plane of at most r+2
rows, is summed run by run instead. The table is read once per run of a
band or row, never once per point. The scan works with Python ints
throughout, so no coordinate, bound or table entry can overflow. The table
may be any mapping indexable by mask. It is the one scan of the package
and serves two callers in the oracle: the cohomology route passes a dict
that fills each contribution on first read, and the nef lattice-point
count passes one that is 1 at mask 0, where ⟨m, u_k⟩ ≥ bound_k for every k
so m lies in the divisor polytope, and 0 elsewhere.
"""

from __future__ import annotations

from math import lcm


def backend() -> str:
    """Which box-scan kernel runs: always "pure"."""
    return "pure"


def box_sum(lo, hi, rays, bounds, table) -> int:
    """Sum table[mask(m)] over integer points m in the box [lo, hi].

    mask(m) has bit k set iff ⟨m, rays[k]⟩ < bounds[k]. Empty boxes (any
    lo_i > hi_i) sum to 0; a 0-dimensional box is the single empty point.

    The sum runs plane by plane over the box's two longest axes: t, the
    longest, and y. With the other coordinates fixed, ray k's test reads
    c·t < e − c'·y (c = rays[k][t], c' = rays[k][y], e = bounds[k] minus
    the fixed part of the dot product). On the row y, for c > 0 the bit is
    on for t < ⌈x⌉ and for c < 0 for t ≥ ⌊x⌋ + 1, where x = (e − c'·y)/c
    is affine in y; for c = 0 it is constant on the row and flips at one
    row if c' ≠ 0. A plane of more than r+2 rows (r = len(rays)) is cut
    into bands of rows at every row where two breakpoints, or a breakpoint
    and the window edge t0 or t1 + 1, change order, and where a ray with
    c = 0 flips; each band of two rows or more is summed in closed form.
    """
    n = len(lo)
    if any(l > h for l, h in zip(lo, hi)):
        return 0
    if n == 0:
        return table[sum(1 << k for k, b in enumerate(bounds) if b > 0)]
    a = max(range(n), key=lambda i: hi[i] - lo[i])
    t0, t1 = lo[a], hi[a]
    steps = [(1 << k, u[a]) for k, u in enumerate(rays)]
    if n == 1:
        return _line_sum(t0, t1, steps, bounds, table)
    y = max((i for i in range(n) if i != a), key=lambda i: hi[i] - lo[i])
    y0, y1, ys = lo[y], hi[y], [u[y] for u in rays]
    if y1 - y0 < len(rays) + 2:

        def plane(rest):
            return _rows(t0, t1, steps, ys, rest, y0, y1, table)

    else:
        plane = _Bands(t0, t1, y0, y1, steps, ys, table).sum
    others = [i for i in range(n) if i not in (a, y)]
    total = 0

    def sweep(j: int, rest: list) -> None:
        # rest[k] = bounds[k] − ⟨m, u_k⟩ over the axes others[:j] fixed so far
        nonlocal total
        if j == len(others):
            total += plane(rest)
            return
        i = others[j]
        col = [u[i] for u in rays]
        rest = [e - lo[i] * c for e, c in zip(rest, col)]
        for _ in range(lo[i], hi[i] + 1):
            sweep(j + 1, rest)
            rest = [e - c for e, c in zip(rest, col)]

    sweep(0, list(bounds))
    return total


def _line_sum(t0, t1, steps, rest, table) -> int:
    """Σ table[mask] over the line t0 ≤ t ≤ t1, where steps[k] = (bit, c)
    and ray k's bit is on at t iff c·t < rest[k]: table[mask] × run length
    for each run between the sorted breakpoints."""
    mask = 0
    flips = []
    for (bit, c), e in zip(steps, rest):
        if c > 0:
            t = -(-e // c)
            if t > t0:
                mask |= bit
        elif c < 0:
            t = e // c + 1
            if t <= t0:
                mask |= bit
        else:
            if e > 0:
                mask |= bit
            continue
        if t0 < t <= t1:
            flips.append((t, bit))
    flips.sort()
    total = 0
    start = t0
    for t, bit in flips:
        if t > start:
            total += table[mask] * (t - start)
            start = t
        mask ^= bit
    return total + table[mask] * (t1 + 1 - start)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Σ_{i=0}^{n−1} ⌊(a·i + b)/m⌋ for n ≥ 0 and m > 0, exactly, in
    O(log m) steps of the Euclid-like reduction (a, m) → (m mod a, a)."""
    total = 0
    while True:
        if a >= m or a < 0:
            q, a = divmod(a, m)
            total += q * (n * (n - 1) // 2)
        if b >= m or b < 0:
            q, b = divmod(b, m)
            total += q * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _cut(alpha: int, beta: int) -> int:
    """The row s where β·y < α changes truth value (β ≠ 0): it holds for
    y < s when β > 0, and for y ≥ s when β < 0."""
    return -(-alpha // beta) if beta > 0 else alpha // beta + 1


def _rows(t0, t1, steps, ys, rest, ya, yb, table) -> int:
    """The rows ya ≤ y ≤ yb of a plane summed one by one: on row y ray k's
    bit is on at t iff c·t < rest[k] − ys[k]·y."""
    total = 0
    row = [e - c * ya for e, c in zip(rest, ys)]
    for _ in range(ya, yb + 1):
        total += _line_sum(t0, t1, steps, row, table)
        row = [e - c for e, c in zip(row, ys)]
    return total


class _Bands:
    """The sum over one plane t0 ≤ t ≤ t1, y0 ≤ y ≤ y1 of a box, band by
    band, for the fixed part rest of the bounds that sum(rest) is given.

    Each ray with c ≠ 0, and each window edge, is an element with a key
    X(y) = A + B·y = L·x(y), where L is the lcm of the |c| (so X is an
    integer), and a type τ: 0 for c > 0 and the edges, 1 for c < 0. Its
    breakpoint p = ⌈X/L⌉ for τ = 0 and ⌊X/L⌋ + 1 for τ = 1 is the least
    integer ≥ x or > x, so it never falls as (X, τ) rises, and sorting the
    elements by (X, τ, index) sorts their breakpoints weakly: runs between
    tied breakpoints have length 0. The edge elements are t0 and t1 + 1
    themselves; elements sorted before t0 clip to t0 and after t1 + 1 to
    t1 + 1. B depends only on the rays, A on the plane's rest. A pair of
    elements swaps places at one row, a ray with c = 0 flips at one row,
    and the rows between two such cuts form a band with one sorted order.
    """

    def __init__(self, t0, t1, y0, y1, steps, ys, table):
        self.t0, self.t1, self.y0, self.y1 = t0, t1, y0, y1
        self.steps, self.ys, self.table = steps, ys, table
        moving = [k for k, (_, c) in enumerate(steps) if c]
        self.scale = scale = lcm(*(abs(steps[k][1]) for k in moving))
        # A = L/c · rest[k] for ray k; the edges' A are L·t0 and L·(t1 + 1)
        self.factors = [(k, scale // steps[k][1]) for k in moving]
        # (bit, τ, B) per element: the moving rays, then the edges t0, t1 + 1
        elems = [(steps[k][0], 0 if f > 0 else 1, -f * ys[k]) for k, f in self.factors]
        elems += [(0, 0, 0), (0, 0, 0)]
        self.elems = elems
        self.lo_edge, self.hi_edge = len(elems) - 2, len(elems) - 1
        # (j, k, β, δ): element j sorts before k iff β·y < A_k − A_j + δ
        self.pairs = [
            (j, k, elems[j][2] - elems[k][2], 1 if elems[j][1] <= elems[k][1] else 0)
            for j in range(len(elems))
            for k in range(j + 1, len(elems))
            if elems[j][2] != elems[k][2]
        ]
        # rays with c = 0: (k, bit, c'); the bit is on iff c'·y < rest[k]
        self.still = [(k, bit, ys[k]) for k, (bit, c) in enumerate(steps) if not c]

    def sum(self, rest) -> int:
        """The plane's sum: bands of two rows or more in closed form, bands
        of one row run by run."""
        y0, y1, scale = self.y0, self.y1, self.scale
        heads = [f * rest[k] for k, f in self.factors]
        heads += [scale * self.t0, scale * (self.t1 + 1)]
        cuts = set()
        for j, k, beta, delta in self.pairs:
            s = _cut(heads[k] - heads[j] + delta, beta)
            if y0 < s <= y1:
                cuts.add(s)
        for k, _, c in self.still:
            if c:
                s = _cut(rest[k], c)
                if y0 < s <= y1:
                    cuts.add(s)
        total = 0
        start = y0
        for end in sorted(cuts) + [y1 + 1]:
            if end - start == 1:
                total += _rows(self.t0, self.t1, self.steps, self.ys, rest, start, start, self.table)
            else:
                total += self._band_sum(rest, heads, start, end - 1)
            start = end
        return total

    def _band_sum(self, rest, heads, ya: int, yb: int) -> int:
        """The rows ya..yb of a band, in which no two elements change
        order: Σ_y Σ_runs table[mask] × length = Σ_runs table[mask] ×
        (Σ_y end − Σ_y start), with each Σ_y p a floor sum."""
        elems, scale, n = self.elems, self.scale, yb - ya + 1
        mask = 0
        for k, bit, c in self.still:
            if c * ya < rest[k]:
                mask |= bit
        keys = sorted(
            [(a + slope * ya, tau, e) for e, (a, (_, tau, slope)) in enumerate(zip(heads, elems))]
        )
        order = [e for *_, e in keys]
        lo_at, hi_at = order.index(self.lo_edge), order.index(self.hi_edge)
        # at t0 a ray sorted before the t0 edge is on iff c < 0 (τ = 1), any
        # other iff c > 0; the ones between the edges flip inside the band
        for i, (_, tau, e) in enumerate(keys):
            if tau == (i < lo_at):
                mask |= elems[e][0]
        table = self.table
        total = 0
        prev = n * self.t0
        for x, tau, e in keys[lo_at + 1 : hi_at + 1]:
            bit, _, slope = elems[e]
            if tau:  # Σ ⌊X/L⌋ + 1
                at = _floor_sum(n, scale, slope, x) + n
            else:  # Σ ⌈X/L⌉ = −Σ ⌊−X/L⌋
                at = -_floor_sum(n, scale, -slope, -x)
            if at > prev:
                total += table[mask] * (at - prev)
                prev = at
            mask ^= bit
        return total
