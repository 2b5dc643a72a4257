"""Frozen reference block used to calibrate CPU timings against host drift.

The host's speed drifts by tens of percent over seconds, and the drift hits
every pure-Python loop alike. The block below copies the shapes of the
program's hot loops (a box scan with ray masks and a table lookup,
Fraction Gaussian elimination, dict-of-tuples polynomial accumulation),
imports nothing from the program, and is never changed: its cost on the
host at a given moment measures how fast the host is running Python then.

Timings are reported in reference seconds: CPU seconds scaled by
NOMINAL_S / (measured block cost). NOMINAL_S is the block's cost measured
once on the machine the benchmark was defined on, so reference seconds
read roughly as ordinary seconds there.

Do not edit this module: a change to the block or to NOMINAL_S changes
the unit of every timing the benchmark reports.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# typical block cost (CPU seconds) between items on the defining machine
NOMINAL_S = 0.0022
# the block's result; a mismatch means the block was edited
CHECKSUM = 30

_RAYS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 0), (0, -1, 1))
_BOUNDS = (2, -1, 3, 1, -2, 0)
_TABLE = tuple(((m * 2654435761) >> 7) % 5 - 2 for m in range(64))
_MATRIX = ((3, 1, -2, 5), (2, -4, 1, 1), (-1, 2, 6, -3), (4, 1, 1, 2))


def _box_scan() -> int:
    total = 0
    r = len(_RAYS)
    for x in range(-3, 4):
        for y in range(-3, 4):
            for z in range(-3, 4):
                mask = 0
                for k in range(r):
                    u = _RAYS[k]
                    if x * u[0] + y * u[1] + z * u[2] < _BOUNDS[k]:
                        mask |= 1 << k
                total += _TABLE[mask]
    return total


def _eliminate(rhs) -> Fraction:
    n = len(_MATRIX)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(_MATRIX, rhs)]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sum(m[i][n] for i in range(n))


def _expand() -> Fraction:
    linear = {(i,): Fraction(a) for i, a in enumerate((2, -3, 1, 4, -1))}
    cur = {(): Fraction(1)}
    terms = {}
    for k in range(1, 4):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for mono, c in cur.items():
            for (i,), a in linear.items():
                key = tuple(sorted(mono + (i,)))
                nxt[key] = nxt.get(key, Fraction(0)) + c * a
        cur = {m: c / k for m, c in nxt.items()}
        for m, c in cur.items():
            terms[m] = terms.get(m, Fraction(0)) + c
    return sum(terms.values(), Fraction(0))


def _block() -> int:
    acc = _box_scan()
    for b in ((1, 0, 0, 0), (0, 1, -1, 2)):
        acc += _eliminate(b).numerator % 97
    acc += _expand().numerator % 89
    return acc


def run_once() -> float:
    """CPU seconds one block takes now; gc is paused while it runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        value = _block()
        dt = time.process_time() - t0
    finally:
        if enabled:
            gc.enable()
    if value != CHECKSUM:
        raise RuntimeError(f"reference block returned {value}, expected {CHECKSUM}")
    return dt
