import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricchi import kernel


def brute_force(lo, hi, rays, bounds, table):
    import itertools

    total = 0
    for m in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        mask = 0
        for k, u in enumerate(rays):
            if sum(a * b for a, b in zip(m, u)) < bounds[k]:
                mask |= 1 << k
        total += table[mask]
    return total


def line_sweep(lo, hi, rays, bounds, table):
    """The box sum one line at a time along the longest axis: each ray's
    bit flips at most once on a line, so a line is at most r+1 runs of one
    mask, each read from the table once. The oracle for boxes too large to
    sum point by point."""
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

    def sweep(j, rest):
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


def test_empty_box():
    assert kernel.box_sum((1, 0), (0, 5), [[1, 0]], [0], [3, 7]) == 0
    assert kernel.box_sum((1,), (0,), [[1]], [0], [1, 1]) == 0


def test_zero_dimensional_box():
    # one empty point; no rays means mask 0
    assert kernel.box_sum((), (), [], [], [42]) == 42


def test_single_cell():
    # m = (0, 0): dot = 0 for both rays; bound 1 -> fail, bound 0 -> ok
    got = kernel.box_sum((0, 0), (0, 0), [[1, 0], [0, 1]], [1, 0], [0, 1, 2, 3])
    assert got == 1


small = st.integers(min_value=-6, max_value=6)


@given(
    st.integers(1, 3),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_pure_matches_brute_force(n, data):
    r = data.draw(st.integers(1, 4))
    lo = data.draw(st.tuples(*[st.integers(-4, 2)] * n))
    hi = tuple(l + data.draw(st.integers(0, 4)) for l in lo)
    rays = [data.draw(st.tuples(*[small] * n)) for _ in range(r)]
    bounds = [data.draw(small) for _ in range(r)]
    table = [data.draw(st.integers(-9, 9)) for _ in range(1 << r)]
    want = brute_force(lo, hi, rays, bounds, table)
    if data.draw(st.booleans(), label="lazy table"):
        # the many-ray form: entries appear in a dict as the scan asks for them
        entries = table

        class Lazy(dict):
            def __missing__(self, mask):
                value = self[mask] = entries[mask]
                return value

        table = Lazy()
    assert kernel.box_sum(lo, hi, [list(u) for u in rays], bounds, table) == want


@st.composite
def wide_boxes(draw):
    """(lo, hi, rays, bounds, table): boxes up to 16 points wide per axis and
    4096 in all, some axes zero in every ray, and rays that copy an earlier
    ray's breakpoints (same ray scaled, or negated with a nearby bound)."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(0, 6))
    lo, hi = [], []
    volume = 1
    for _ in range(n):
        w = draw(st.integers(0, min(15, 4096 // volume - 1)))
        volume *= w + 1
        lo.append(draw(st.integers(-20, 10)))
        hi.append(lo[-1] + w)
    zero_axes = draw(st.sets(st.integers(0, n - 1), max_size=n))
    rays, bounds = [], []
    for k in range(r):
        if k and draw(st.booleans()):
            j = draw(st.integers(0, k - 1))
            s = draw(st.sampled_from([1, 2, 3, -1, -2]))
            rays.append([s * x for x in rays[j]])
            bounds.append(s * bounds[j] + (draw(st.integers(0, 1)) if s < 0 else 0))
        else:
            rays.append([0 if i in zero_axes else draw(st.integers(-6, 6)) for i in range(n)])
            bounds.append(draw(st.integers(-40, 40)))
    table = [draw(st.integers(-9, 9)) for _ in range(1 << r)]
    return tuple(lo), tuple(hi), rays, bounds, table


@given(wide_boxes())
@settings(max_examples=80, deadline=None)
def test_wide_boxes_match_brute_force(box):
    assert kernel.box_sum(*box) == brute_force(*box)


class CountingTable:
    """A table that counts its reads."""

    def __init__(self, values):
        self.values = values
        self.reads = 0

    def __getitem__(self, mask):
        self.reads += 1
        return self.values[mask]


@pytest.mark.parametrize(
    "lo, hi",
    [
        ((-500,), (499,)),  # one line of 1000 points
        ((0, -3, 5), (2, 40, 8)),  # lines along the longest axis, axis 1
        ((-2, -2, -2, -30), (1, 0, 2, 30)),
    ],
)
def test_table_is_read_once_per_run(lo, hi):
    n = len(lo)
    rays = [[(3 * k + 2 * i) % 7 - 3 for i in range(n)] for k in range(5)]
    bounds = [4, -7, 0, 11, -2]
    table = CountingTable([(mask * 37) % 11 - 5 for mask in range(1 << 5)])
    got = kernel.box_sum(lo, hi, rays, bounds, table)
    assert got == brute_force(lo, hi, rays, bounds, table.values)
    widths = [h - l + 1 for l, h in zip(lo, hi)]
    points = math.prod(widths)
    lines = points // max(widths)
    assert table.reads <= lines * (len(rays) + 1)
    assert table.reads < points


@st.composite
def long_planes(draw):
    """(lo, hi, rays, bounds, table): 2-D and 3-D boxes whose planes have
    20–300 rows (or one row, or none), ray entries up to ±6 and bounds that
    put each ray's hyperplane near the box. Some rays copy an earlier one
    scaled or negated (ties at every row), and some are sheared copies,
    s·u + d·e_y with the bound moved to match, whose breakpoints meet the
    copied ray's exactly at one integer row y* of the plane."""
    n = draw(st.integers(2, 3))
    rows = draw(st.one_of(st.integers(20, 300), st.sampled_from([0, 1])))
    widths = [max(rows, 1) + draw(st.integers(0, 40)), rows]
    if n == 3:
        widths.append(draw(st.integers(1, 4)))
    perm = draw(st.permutations(range(n)))
    widths = [widths[perm[i]] for i in range(n)]
    y = perm.index(1)  # the axis of the rows
    lo = [draw(st.integers(-50, 50)) for _ in range(n)]
    hi = [l + w - 1 for l, w in zip(lo, widths)]
    mid = [(l + h) // 2 for l, h in zip(lo, hi)]
    r = draw(st.integers(1, 5))
    rays, bounds = [], []
    for k in range(r):
        kind = draw(st.sampled_from(["fresh", "copy", "shear"])) if k else "fresh"
        if kind == "fresh":
            u = [draw(st.integers(-6, 6)) for _ in range(n)]
            rays.append(u)
            bounds.append(sum(a * b for a, b in zip(mid, u)) + draw(st.integers(-60, 60)))
            continue
        j = draw(st.integers(0, k - 1))
        s = draw(st.sampled_from([1, 2, 3, -1, -2]))
        u = [s * x for x in rays[j]]
        b = s * bounds[j] + (draw(st.integers(0, 1)) if s < 0 else 0)
        if kind == "shear":
            d = draw(st.sampled_from([1, 2, -1, -3]))
            star = draw(st.integers(lo[y], max(lo[y], hi[y])))
            u[y] += d
            b += d * star
        rays.append(u)
        bounds.append(b)
    table = [draw(st.integers(-9, 9)) for _ in range(1 << r)]
    return tuple(lo), tuple(hi), rays, bounds, table


@given(long_planes())
@settings(max_examples=120, deadline=None)
def test_long_planes_match_line_sweep(box):
    assert kernel.box_sum(*box) == line_sweep(*box)


def test_long_plane_reads_the_table_per_band_not_per_row():
    # one plane: lines of 1,200 points along axis 0, 1,000 rows along axis 1
    lo, hi = (0, 0), (1199, 999)
    rays = [[1, 2], [-3, 1], [2, -5]]
    bounds = [1500, -900, -1000]
    values = [(mask * 37) % 11 - 5 for mask in range(1 << 3)]
    banded, lined = CountingTable(values), CountingTable(values)
    got = kernel.box_sum(lo, hi, rays, bounds, banded)
    assert got == line_sweep(lo, hi, rays, bounds, lined)
    assert lined.reads >= 1000
    assert banded.reads < 100
