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
