"""The box scan of the graded-cohomology route, in pure Python.

box_sum walks every integer point m of a box and adds table[mask(m)],
where bit k of mask(m) records that ray k's inequality fails at m. It
works with Python ints throughout, so no coordinate, bound or table entry
can overflow. The table may be any mapping indexable by mask; the oracle
passes a dict that fills each entry on first read.
"""

from __future__ import annotations


def backend() -> str:
    """Which box-scan kernel runs: always "pure"."""
    return "pure"


def box_sum(lo, hi, rays, bounds, table) -> int:
    """Sum table[mask(m)] over integer points m in the box [lo, hi].

    mask(m) has bit k set iff ⟨m, rays[k]⟩ < bounds[k]. Empty boxes (any
    lo_i > hi_i) sum to 0; a 0-dimensional box is the single empty point.
    """
    n = len(lo)
    if any(l > h for l, h in zip(lo, hi)):
        return 0
    r = len(rays)
    dots = [0] * r
    total = 0

    def rec(axis: int) -> None:
        nonlocal total
        if axis == n:
            mask = 0
            for k in range(r):
                if dots[k] < bounds[k]:
                    mask |= 1 << k
            total += table[mask]
            return
        cols = [rays[k][axis] for k in range(r)]
        saved = dots[:]
        for k in range(r):
            dots[k] = saved[k] + lo[axis] * cols[k]
        v = lo[axis]
        while True:
            rec(axis + 1)
            v += 1
            if v > hi[axis]:
                break
            for k in range(r):
                dots[k] += cols[k]
        dots[:] = saved

    rec(0)
    return total
