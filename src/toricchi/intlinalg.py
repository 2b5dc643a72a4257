"""Exact integer and rational linear algebra on small matrices.

Everything here works on plain lists of Python ints (rows) or Fractions;
there is deliberately no floating point and no numpy. Matrices in this
package are tiny (at most ~a dozen rows, lattice rank <= ~4), so the
classical textbook algorithms are the right tool: Bareiss for
determinants, Fraction-pivoted Gaussian elimination where a rational
answer is wanted. The Hermite and Smith forms and the solve_* functions
have no caller in the package; the tests keep them as reference
implementations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[int]]


def vector_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive_vector(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = vector_gcd(v)
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det_int(a: Matrix) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hermite_normal_form(a: Matrix) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U @ a == H, H in row echelon form:
    pivot columns strictly increase, pivots are positive, and entries above
    each pivot are reduced into [0, pivot).
    """
    h = [row[:] for row in a]
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = identity(rows)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # gcd-out column c below row r using extended euclid row ops
        pivot = None
        for i in range(r, rows):
            if h[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            h[r], h[pivot] = h[pivot], h[r]
            u[r], u[pivot] = u[pivot], u[r]
        for i in range(r + 1, rows):
            while h[i][c] != 0:
                q = h[r][c] // h[i][c]
                h[r] = [x - q * y for x, y in zip(h[r], h[i])]
                u[r] = [x - q * y for x, y in zip(u[r], u[i])]
                h[r], h[i] = h[i], h[r]
                u[r], u[i] = u[i], u[r]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return h, u


def lattice_basis_hnf(vectors, length: int) -> Matrix:
    """HNF basis (list of rows, zero rows dropped) of the lattice the given
    integer vectors span inside Z^length."""
    vecs = [list(v) for v in vectors]
    if not vecs:
        return []
    h, _ = hermite_normal_form(vecs)
    return [row for row in h if any(row)]


def reduce_mod_lattice(v, basis: Matrix) -> tuple[int, ...]:
    """Unique coset representative of v modulo the lattice with HNF basis rows.

    Floor-reduces the entry at each pivot column into [0, pivot), top down.
    Membership test: v is in the lattice iff the result is the zero vector.
    """
    w = list(v)
    for row in basis:
        p = next(i for i, x in enumerate(row) if x)
        q = w[p] // row[p]
        if q:
            w = [x - q * y for x, y in zip(w, row)]
    return tuple(w)


def _diagonalize(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """U @ a @ V = D diagonal, U and V unimodular.

    Smith-style alternating row/column gcd reduction, without the final
    divisibility chaining (the k-minor gcds, which is all the callers here
    rely on, are already invariant).
    """
    d = [row[:] for row in a]
    rows = len(d)
    cols = len(d[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)

    def clear_col(k):
        # reduce each entry below the pivot mod the pivot; swap only when a
        # nonzero remainder is left, so |pivot| strictly shrinks per swap
        changed = False
        for i in range(k + 1, rows):
            while d[i][k] != 0:
                changed = True
                q = d[i][k] // d[k][k]
                if q:
                    d[i] = [x - q * y for x, y in zip(d[i], d[k])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[k])]
                if d[i][k]:
                    d[k], d[i] = d[i], d[k]
                    u[k], u[i] = u[i], u[k]
        return changed

    def clear_row(k):
        changed = False
        for j in range(k + 1, cols):
            while d[k][j] != 0:
                changed = True
                q = d[k][j] // d[k][k]
                if q:
                    for row in d:
                        row[j] -= q * row[k]
                    for row in v:
                        row[j] -= q * row[k]
                if d[k][j]:
                    for row in d:
                        row[k], row[j] = row[j], row[k]
                    for row in v:
                        row[k], row[j] = row[j], row[k]
        return changed

    for k in range(min(rows, cols)):
        # move a nonzero entry to the (k, k) slot
        found = False
        for i in range(k, rows):
            for j in range(k, cols):
                if d[i][j] != 0:
                    if i != k:
                        d[k], d[i] = d[i], d[k]
                        u[k], u[i] = u[i], u[k]
                    if j != k:
                        for row in d:
                            row[k], row[j] = row[j], row[k]
                        for row in v:
                            row[k], row[j] = row[j], row[k]
                    found = True
                    break
            if found:
                break
        if not found:
            break
        while True:
            clear_col(k)
            if not clear_row(k):
                break
            if not clear_col(k):
                break
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            u[k] = [-x for x in u[k]]
    return d, u, v


def smith_diagonal(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonal form with unimodular transforms: U @ a @ V diagonal."""
    return _diagonalize(a)


def solve_integer(a: Matrix, b) -> tuple[int, ...] | None:
    """One integer solution x of a @ x = b, or None if none exists."""
    rows = len(a)
    if rows == 0:
        return ()
    cols = len(a[0])
    d, u, v = _diagonalize(a)
    c = [dot(u[i], b) for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < cols else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    return tuple(dot(v[i], y) for i in range(cols))


def _rref(m, cols: int) -> list[int]:
    """Bring the Fraction rows m, in place, to reduced row echelon form on
    their first cols columns; later columns are carried along. Returns the
    pivot column of each nonzero row. The form is unique, so every caller's
    answer depends only on the matrix."""
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def solve_rational(a, b) -> list[Fraction] | None:
    """A particular rational solution of a @ x = b, or None if inconsistent.

    Free variables are set to zero. Exact Fraction pivoting throughout.
    """
    cols = len(a[0]) if a else 0
    m = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(a, b)]
    pivots = _rref(m, cols)
    if any(row[cols] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(m, pivots):
        x[c] = row[cols]
    return x


def solve_unimodular(a: Matrix, b) -> tuple[int, ...]:
    """Solve a @ x = b for square a with det +-1 (integer answer guaranteed)."""
    x = solve_rational(a, b)
    assert x is not None
    out = []
    for f in x:
        if f.denominator != 1:
            raise ValueError("matrix is not unimodular")
        out.append(int(f))
    return tuple(out)


def inv_unimodular(a: Matrix) -> Matrix:
    """Exact inverse of a square integer matrix with det +-1."""
    n = len(a)
    cols = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        cols.append(solve_unimodular(a, e))
    return [list(row) for row in zip(*cols)]


def inv_rational(a) -> list[list[Fraction]]:
    """Exact Fraction inverse of a nonsingular square matrix: one
    elimination of [a | I], singular unless every column has a pivot."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    if len(_rref(m, n)) != n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]


def kernel_vector(rows, length: int) -> tuple[int, ...] | None:
    """Primitive integer spanning vector of the kernel, if it is 1-dimensional.

    rows: integer vectors interpreted as linear functionals on Z^length.
    Returns None when the nullity is not exactly 1.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = _rref(m, length)
    free = [c for c in range(length) if c not in pivots]
    if len(free) != 1:
        return None
    f = free[0]
    x = [Fraction(0)] * length
    x[f] = Fraction(1)
    for row, c in zip(m, pivots):
        x[c] = -row[f]
    denom = lcm(*(val.denominator for val in x))
    return primitive_vector([int(val * denom) for val in x])
