"""The box scan of the graded-cohomology route, in pure Python.

box_sum sums table[mask(m)] over the integer points m of a box, where bit k
of mask(m) records that ray k's inequality ⟨m, u_k⟩ < bound_k holds at m.
It sweeps the box in lines along its longest axis. On one line each ray's
inequality is linear in the line coordinate t, so its bit flips at most
once, at a breakpoint found by exact integer floor or ceil division. A line
is therefore at most r+1 runs of one mask each, and the scan reads the
table once per run, not once per point. It works with Python ints
throughout, so no coordinate, bound or table entry can overflow. The table
may be any mapping indexable by mask. It is the one scan of the package and
serves two callers in the oracle: the cohomology route passes a dict that
fills each contribution on first read, and the nef lattice-point count
passes one that is 1 at mask 0, where ⟨m, u_k⟩ ≥ bound_k for every k so m
lies in the divisor polytope, and 0 elsewhere.
"""

from __future__ import annotations


def backend() -> str:
    """Which box-scan kernel runs: always "pure"."""
    return "pure"


def box_sum(lo, hi, rays, bounds, table) -> int:
    """Sum table[mask(m)] over integer points m in the box [lo, hi].

    mask(m) has bit k set iff ⟨m, rays[k]⟩ < bounds[k]. Empty boxes (any
    lo_i > hi_i) sum to 0; a 0-dimensional box is the single empty point.

    The sum runs line by line along the box's longest axis a. With the
    other coordinates fixed, ray k's test reads c·t < e in the line
    coordinate t (c = rays[k][a], e = bounds[k] minus the fixed part of
    the dot product): for c > 0 the bit is on for t < ⌈e/c⌉, for c < 0 it
    is on for t ≥ ⌊e/c⌋ + 1, and for c = 0 it is constant. Each line adds
    table[mask] × run length for each run between sorted breakpoints.
    """
    n = len(lo)
    if any(l > h for l, h in zip(lo, hi)):
        return 0
    if n == 0:
        return table[sum(1 << k for k, b in enumerate(bounds) if b > 0)]
    a = max(range(n), key=lambda i: hi[i] - lo[i])
    t0, t1 = lo[a], hi[a]
    others = [i for i in range(n) if i != a]
    steps = [(1 << k, u[a]) for k, u in enumerate(rays)]
    total = 0

    def sweep(j: int, rest: list) -> None:
        # rest[k] = bounds[k] − ⟨m, u_k⟩ over the axes others[:j] fixed so far
        nonlocal total
        if j < len(others):
            i = others[j]
            col = [u[i] for u in rays]
            rest = [e - lo[i] * c for e, c in zip(rest, col)]
            for _ in range(lo[i], hi[i] + 1):
                sweep(j + 1, rest)
                rest = [e - c for e, c in zip(rest, col)]
            return
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
        start = t0
        for t, bit in flips:
            if t > start:
                total += table[mask] * (t - start)
                start = t
            mask ^= bit
        total += table[mask] * (t1 + 1 - start)

    sweep(0, list(bounds))
    return total
