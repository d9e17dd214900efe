"""Exact linear algebra and sparse polynomials: the echelon kernel behind
nullspace, solve and the rank helper below, and the integer Bareiss det,
against two independent Fraction eliminations kept here as oracles."""

import random
from fractions import Fraction

import pytest

from gelfand.exact import MultiPoly, _echelon, _rref, det, monomials, nullspace, solve
from gelfand.symmpair import laplacian


def rank(matrix):
    """Rank of an exact matrix: the pivot count of its echelon form."""
    return len(_echelon(matrix)[1])


def _rref_oracle(matrix):
    """Gauss-Jordan elimination that clears above and below each pivot as
    it goes; returns (rows, pivot_columns)."""
    rows = [list(map(Fraction, row)) for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _det_oracle(matrix):
    """Determinant by elimination that stops at the first column without a
    pivot."""
    a = [list(map(Fraction, row)) for row in matrix]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def _nullspace_oracle(matrix, ncols):
    rows, pivots = _rref_oracle(matrix)
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(int(c == fcol)) for c in range(ncols)]
        for r, pcol in enumerate(pivots):
            v[pcol] = -rows[r][fcol]
        basis.append(v)
    return basis


def _solve_oracle(matrix, rhs):
    """The solution read off the oracle's reduced form, or None when a
    reduced row reads 0 = nonzero."""
    rows, pivots = _rref_oracle([list(row) + [b] for row, b in zip(matrix, rhs)])
    if any(all(x == 0 for x in row[:-1]) and row[-1] != 0 for row in rows):
        return None
    x = [Fraction(0)] * len(matrix[0])
    for r, pcol in enumerate(pivots):
        x[pcol] = rows[r][-1]
    return x


def _apply(matrix, x):
    return [sum(a * b for a, b in zip(row, x) if a) for row in matrix]


def _random_matrix(rng, nrows, ncols, kind):
    m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7 else Fraction(0)
          for _ in range(ncols)] for _ in range(nrows)]
    if kind == "zero-row":
        m[rng.randrange(nrows)] = [Fraction(0)] * ncols
    elif kind == "zero-column":
        c = rng.randrange(ncols)
        for row in m:
            row[c] = Fraction(0)
    elif kind == "combination" and nrows > 1:
        # one row a rational combination of the others
        i = rng.randrange(nrows)
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nrows)]
        m[i] = [sum(coeffs[k] * m[k][c] for k in range(nrows) if k != i) for c in range(ncols)]
    return m


def _laplacian_matrix(n_ambient, degree):
    """The Laplacian from degree-d to degree-(d-2) coefficients, as
    ``symmpair.harmonic_basis`` builds it."""
    monos = monomials(n_ambient, degree)
    lower = {m: i for i, m in enumerate(monomials(n_ambient, degree - 2))} if degree >= 2 else {}
    rows = [[Fraction(0)] * len(monos) for _ in lower]
    for col, mono in enumerate(monos):
        for m, c in laplacian(MultiPoly(n_ambient, {mono: 1})).terms.items():
            rows[lower[m]][col] = c
    return rows, len(monos)


def _skew(rng, n):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            m[i][j], m[j][i] = x, -x
    return m


def _cases():
    """(id, matrix, ncols) for every grid the kernel is checked on."""
    rng = random.Random(16)
    out = [("empty", [], 0)]
    for nrows in range(1, 8):
        for ncols in range(1, 8):
            for kind in ("generic", "zero-row", "zero-column", "combination"):
                out.append((f"random-{nrows}x{ncols}-{kind}",
                            _random_matrix(rng, nrows, ncols, kind), ncols))
    for n in range(1, 6):
        # square and singular: the last row a combination of the rest
        out.append((f"singular-{n + 1}", _random_matrix(rng, n + 1, n + 1, "combination"), n + 1))
    for n_ambient in range(1, 7):
        for degree in range(1, 6):
            out.append((f"laplacian-N{n_ambient}-d{degree}", *_laplacian_matrix(n_ambient, degree)))
    for n in range(2, 19):
        out.append((f"skew-{n}", _skew(rng, n), n))
    return out


CASES = _cases()


@pytest.mark.parametrize("matrix,ncols", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_kernel_matches_oracles(matrix, ncols):
    expected_rows, expected_pivots = _rref_oracle(matrix)
    assert _rref(matrix) == (expected_rows, expected_pivots)
    assert rank(matrix) == len(expected_pivots)
    kernel = nullspace(matrix, ncols)
    assert kernel == _nullspace_oracle(matrix, ncols)
    assert all(not any(_apply(matrix, v)) for v in kernel)
    if len(matrix) == ncols:
        d = det(matrix)
        assert type(d) is Fraction
        assert d == _det_oracle(matrix)
        assert (d == 0) == (len(expected_pivots) < ncols)


@pytest.mark.parametrize("matrix,ncols", [c[1:] for c in CASES if c[1]],
                         ids=[c[0] for c in CASES if c[1]])
def test_solve_matches_oracle(matrix, ncols):
    rng = random.Random(ncols * 100 + len(matrix))
    x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
    consistent = _apply(matrix, x0)
    x = solve(matrix, consistent)
    assert x == _solve_oracle(matrix, consistent)
    assert _apply(matrix, x) == consistent
    # a nonzero left-kernel vector lies outside the column space
    transpose = [list(col) for col in zip(*matrix)]
    for y in _nullspace_oracle(transpose, len(matrix))[:2]:
        rhs = [a + b for a, b in zip(consistent, y)]
        assert _solve_oracle(matrix, rhs) is None
        with pytest.raises(ValueError, match="inconsistent"):
            solve(matrix, rhs)


def _det_cases(n, rng):
    """Square rational matrices of size n with denominators up to 97: a
    generic one, one with a zero row, one with a zero column, one whose
    first pivots need row swaps and one with a row that is a combination
    of the others."""
    def entry():
        return Fraction(rng.randint(-99, 99), rng.randint(1, 97))

    generic = [[entry() for _ in range(n)] for _ in range(n)]
    out = [generic]
    if n == 0:
        return out
    zero_row = [row[:] for row in generic]
    zero_row[rng.randrange(n)] = [Fraction(0)] * n
    zero_col = [row[:] for row in generic]
    c = rng.randrange(n)
    for row in zero_col:
        row[c] = Fraction(0)
    # column 0 is zero above the last row and the superdiagonal is zero, so
    # the elimination has to swap rows
    swaps = [row[:] for row in generic]
    for i in range(n - 1):
        swaps[i][0] = Fraction(0)
        swaps[i][min(i + 1, n - 1)] = Fraction(0)
    combination = [row[:] for row in generic]
    if n > 1:
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 97)) for _ in range(n)]
        combination[-1] = [sum(coeffs[k] * combination[k][j] for k in range(n - 1))
                           for j in range(n)]
    return out + [zero_row, zero_col, swaps, combination]


@pytest.mark.parametrize("n", range(19))
def test_bareiss_det_equals_fraction_oracle(n):
    rng = random.Random(1800 + n)
    for m in _det_cases(n, rng):
        d = det(m)
        assert type(d) is Fraction
        assert d == _det_oracle(m)
    # integer and float entries are read exactly, as Fraction(x) reads them
    ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    assert det(ints) == _det_oracle(ints)
    floats = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
    assert det(floats) == _det_oracle(floats)


def test_det_of_empty_matrix_is_fraction_one():
    d = det([])
    assert type(d) is Fraction and d == 1


def test_solve_rejects_rhs_of_wrong_length():
    # the third equation x + y = 3 would otherwise never be read
    with pytest.raises(ValueError):
        solve([[1, 0], [0, 1], [1, 1]], [1, 2])
    with pytest.raises(ValueError):
        solve([[1, 0]], [1, 2])


def test_solve_rejects_a_system_with_no_equations():
    with pytest.raises(ValueError, match="no equations"):
        solve([], [])


def test_multipoly_arithmetic_stores_no_zero_terms():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    p = x * x - 3 * y + MultiPoly.const(2, Fraction(1, 2))
    assert (p + (-p)).terms == {}
    assert (p - p).is_zero()
    prod = (x + y) * (x - y)
    assert prod.terms == {(2, 0): 1, (0, 2): -1}
    assert all(c != 0 for c in prod.terms.values())
