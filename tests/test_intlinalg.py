from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricchi.intlinalg import (
    det_int,
    hermite_normal_form,
    identity,
    inv_rational,
    inv_unimodular,
    kernel_vector,
    lattice_basis_hnf,
    primitive_vector,
    reduce_mod_lattice,
    smith_diagonal,
    solve_integer,
    solve_rational,
    solve_unimodular,
    vector_gcd,
)

small_entry = st.integers(min_value=-9, max_value=9)


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def square_matrix(n):
    return st.lists(
        st.lists(small_entry, min_size=n, max_size=n), min_size=n, max_size=n
    )


def det_gauss(a):
    # independent reference determinant over Fraction
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    assert out.denominator == 1
    return out.numerator


def test_vector_gcd():
    assert vector_gcd((6, -9, 15)) == 3
    assert vector_gcd((0, 0)) == 0
    assert vector_gcd((7,)) == 7


def test_primitive_vector():
    assert primitive_vector((4, -6)) == (2, -3)
    assert primitive_vector((0, -5, 0)) == (0, -1, 0)
    assert primitive_vector((1, 0)) == (1, 0)


def test_det_int_small_cases():
    assert det_int([[2]]) == 2
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert det_int([]) == 1  # empty matrix, 0x0


@given(square_matrix(3))
def test_det_matches_fraction_gauss(a):
    assert det_int(a) == det_gauss(a)


@given(square_matrix(4))
@settings(max_examples=40)
def test_det_matches_fraction_gauss_4x4(a):
    assert det_int(a) == det_gauss(a)


@given(st.lists(st.lists(small_entry, min_size=3, max_size=3), min_size=1, max_size=4))
def test_hermite_normal_form_is_a_unimodular_image(a):
    h, u = hermite_normal_form(a)
    assert det_int(u) in (1, -1)
    assert mat_mul(u, a) == h
    # row echelon: pivot columns strictly increase, pivots positive
    last = -1
    for row in h:
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            continue
        assert nz[0] > last
        assert row[nz[0]] > 0
        last = nz[0]


def test_hermite_pivot_reduction():
    h, _ = hermite_normal_form([[1, 5], [0, 3]])
    assert h == [[1, 2], [0, 3]]  # entry above the 3-pivot lands in [0, 3)
    h2, _ = hermite_normal_form([[2, 0], [0, 3]])
    assert h2 == [[2, 0], [0, 3]]


def test_lattice_basis_hnf_drops_zero_rows():
    basis = lattice_basis_hnf([[1, 2], [2, 4], [0, 0]], 2)
    assert basis == [[1, 2]]


def test_reduce_mod_lattice_examples():
    basis = lattice_basis_hnf([[1, 0], [0, 2]], 2)
    assert reduce_mod_lattice((5, 3), basis) == (0, 1)
    assert reduce_mod_lattice((-1, -1), basis) == (0, 1)
    assert reduce_mod_lattice((0, 0), basis) == (0, 0)


@given(
    st.lists(st.lists(small_entry, min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(small_entry, min_size=3, max_size=3),
)
def test_reduce_mod_lattice_properties(gens, v):
    basis = lattice_basis_hnf(gens, 3)
    r = reduce_mod_lattice(tuple(v), basis)
    # idempotent
    assert reduce_mod_lattice(r, basis) == r
    # difference lies in the lattice
    diff = [a - b for a, b in zip(v, r)]
    sol = solve_integer([[row[i] for row in basis] for i in range(3)], diff)
    assert sol is not None


@given(
    st.lists(st.lists(small_entry, min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(small_entry, min_size=3, max_size=3),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3),
)
def test_reduce_mod_lattice_is_coset_invariant(gens, v, mults):
    basis = lattice_basis_hnf(gens, 3)
    shifted = list(v)
    for k, row in zip(mults, basis):
        for i in range(3):
            shifted[i] += k * row[i]
    assert reduce_mod_lattice(tuple(v), basis) == reduce_mod_lattice(
        tuple(shifted), basis
    )


def test_smith_diagonal_divisibility():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d, u, v = smith_diagonal(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert det_int(u) in (1, -1) and det_int(v) in (1, -1)
    diag = [d[i][i] for i in range(3)]
    for i in range(2):
        if diag[i + 1] != 0:
            assert diag[i + 1] % diag[i] == 0


def test_solve_integer():
    assert solve_integer([[2, 0], [0, 3]], [4, 9]) == (2, 3)
    assert solve_integer([[2, 0], [0, 3]], [3, 3]) is None  # 2x = 3 insoluble
    assert solve_integer([[1, 1]], [5]) is not None
    # inconsistent over Q as well
    assert solve_integer([[1, 1], [2, 2]], [1, 3]) is None


def test_solve_rational():
    sol = solve_rational([[2, 1], [1, 1]], [3, 2])
    assert sol == [Fraction(1), Fraction(1)]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None
    underdetermined = solve_rational([[1, 2]], [4])
    assert underdetermined is not None
    assert underdetermined[0] + 2 * underdetermined[1] == 4


def test_solve_unimodular_and_inverse():
    a = [[1, 2], [0, 1]]
    assert solve_unimodular(a, [3, 1]) == (1, 1)
    inv = inv_unimodular(a)
    assert mat_mul(a, inv) == identity(2)
    assert all(isinstance(x, int) for row in inv for x in row)


def test_inv_rational():
    a = [[2, 0], [1, 1]]
    inv = inv_rational(a)
    prod = [
        [sum(Fraction(a[i][k]) * inv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(Exception):
        inv_rational([[1, 2], [2, 4]])


def test_kernel_vector():
    v = kernel_vector([[1, 1, 1], [0, 1, 2]], 3)
    assert v is not None
    assert v[0] + v[1] + v[2] == 0
    assert v[1] + 2 * v[2] == 0
    assert vector_gcd(v) == 1
    # nullity 0 and nullity 2 both refuse
    assert kernel_vector([[1, 0], [0, 1]], 2) is None
    assert kernel_vector([[1, 1, 1]], 3) is None
