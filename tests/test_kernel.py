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
