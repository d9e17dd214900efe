"""Two-step algebras, Pfaffians, and square-integrability classification."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelfand import tables
from gelfand.exact import MultiPoly, _echelon, det
from gelfand.nilpf import (
    b_form,
    build_free_two_step,
    build_heisenberg,
    build_two_step,
    build_un_type,
    direct_sum,
    is_generically_square_integrable,
    load_algebra,
    pfaffian,
    pfaffian_polynomial,
    plancherel_density,
    sample_centre_point,
    transform_v_basis,
)


def rank(matrix):
    """Rank of an exact matrix: the pivot count of its echelon form."""
    return len(_echelon(matrix)[1])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_heisenberg_dims():
    for n in (1, 2, 3):
        a = build_heisenberg(n, "C")
        assert (a.dim_v, a.dim_z) == (2 * n, 1)
        b = build_heisenberg(n, "H")
        assert (b.dim_v, b.dim_z) == (4 * n, 3)


def _bracket(alg, i, j):
    """[v_i, v_j] as a center vector, read off the stored i < j brackets."""
    if i == j:
        return (Fraction(0),) * alg.dim_z
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    for (a, b), vec in alg.brackets:
        if (a, b) == (i, j):
            return tuple(sign * x for x in vec)
    return (Fraction(0),) * alg.dim_z


def test_heisenberg_c1_is_three_dimensional():
    a = build_heisenberg(1, "C")
    assert a.dim_v + a.dim_z == 3
    assert _bracket(a, 0, 1) == (Fraction(1),)
    assert _bracket(a, 1, 0) == (Fraction(-1),)


def test_free_two_step_dims():
    for n in (2, 3, 4):
        a = build_free_two_step(n)
        assert (a.dim_v, a.dim_z) == (n, n * (n - 1) // 2)


def test_free_two_step_on_two_generators_matches_heisenberg():
    free = build_free_two_step(2)
    heis = build_heisenberg(1, "C")
    assert free.brackets == heis.brackets


def test_un_type_dims():
    for n in (1, 2, 3):
        a = build_un_type(n)
        assert (a.dim_v, a.dim_z) == (2 * n, n * n)


def test_un_type_rank_one_is_heisenberg():
    a = build_un_type(1)
    assert (a.dim_v, a.dim_z) == (2, 1)
    assert _bracket(a, 0, 1) == (Fraction(1),)


def _un_reference_basis(n):
    """The orthogonal basis of u(n) as complex matrices: i E_kk, then
    E_ab - E_ba and i(E_ab + E_ba) for a < b."""
    basis = []
    for k in range(n):
        m = [[0j] * n for _ in range(n)]
        m[k][k] = 1j
        basis.append(m)
    for a in range(n):
        for b in range(a + 1, n):
            m = [[0j] * n for _ in range(n)]
            m[a][b], m[b][a] = 1, -1
            basis.append(m)
            m = [[0j] * n for _ in range(n)]
            m[a][b] = m[b][a] = 1j
            basis.append(m)
    return basis


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_un_type_constants_match_complex_pairing(n):
    # reference: Re<A v, w> / |A|^2 over the basis matrices, with v, w
    # running through e_1, i e_1, e_2, i e_2, ...
    alg = build_un_type(n)
    basis = _un_reference_basis(n)
    vecs = []
    for c in range(n):
        for u in (1, 1j):
            v = [0j] * n
            v[c] = u
            vecs.append(v)
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            expected = []
            for a in basis:
                av = [sum(a[r][c] * vecs[i][c] for c in range(n)) for r in range(n)]
                pairing = sum(x * y.conjugate() for x, y in zip(av, vecs[j])).real
                norm = sum(abs(x) ** 2 for row in a for x in row)
                expected.append(Fraction(pairing) / Fraction(norm))
            assert _bracket(alg, i, j) == tuple(expected), (i, j)


def test_direct_sum_dims_add():
    a = build_heisenberg(1, "C")
    b = build_heisenberg(2, "C")
    s = direct_sum(a, b)
    assert (s.dim_v, s.dim_z) == (a.dim_v + b.dim_v, 2)


def test_build_rejects_bad_brackets():
    with pytest.raises(ValueError):
        build_two_step(2, 1, {(1, 0): (Fraction(1),)})
    with pytest.raises(ValueError):
        build_two_step(2, 1, {(0, 0): (Fraction(1),)})
    with pytest.raises(ValueError, match="dimensions must be >= 0"):
        build_two_step(-2, 1, {})
    with pytest.raises(ValueError, match="dimensions must be >= 0"):
        build_two_step(2, -1, {})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_builders_span_their_centre(n):
    algebras = [build_heisenberg(n, "C"), build_heisenberg(n, "H"), build_un_type(n)]
    if n >= 2:
        algebras.append(build_free_two_step(n))
    for alg in algebras:
        assert rank([list(vec) for _, vec in alg.brackets]) == alg.dim_z


# ---------------------------------------------------------------------------
# b_t and Pfaffians
# ---------------------------------------------------------------------------


def test_b_form_zero_and_linearity():
    a = build_heisenberg(2, "C")
    zero = b_form(a, (0,))
    assert all(x == 0 for row in zero for x in row)
    b1 = b_form(a, (1,))
    b3 = b_form(a, (3,))
    assert all(3 * x == y for r1, r3 in zip(b1, b3) for x, y in zip(r1, r3))


def test_b_form_h1():
    a = build_heisenberg(1, "C")
    s = Fraction(5, 7)
    assert b_form(a, (s,)) == [[0, s], [-s, 0]]


def test_pfaffian_two_by_two():
    assert pfaffian([[0, Fraction(3)], [Fraction(-3), 0]]) == 3


def test_pfaffian_odd_dimension_zero():
    assert pfaffian([[0] * 3 for _ in range(3)]) == 0


def _random_skew(n, rng):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            m[i][j] = x
            m[j][i] = -x
    return m


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_pfaffian_squares_to_determinant(n):
    rng = random.Random(1234 + n)
    for _ in range(4):
        m = _random_skew(n, rng)
        assert pfaffian(m) ** 2 == det(m)


def _recursive_pfaffian(m):
    """Pf(m) over the Fractions by Laplace expansion along the first row."""
    @lru_cache(maxsize=None)
    def rec(idx):
        if not idx:
            return Fraction(1)
        return sum(((-1) ** (pos - 1) * m[idx[0]][idx[pos]] * rec(idx[1:pos] + idx[pos + 1:])
                    for pos in range(1, len(idx)) if m[idx[0]][idx[pos]]), Fraction(0))

    return rec(tuple(range(len(m))))


def _sparse_skew(n, rng, density):
    m = _random_skew(n, rng)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= density:
                m[i][j] = m[j][i] = Fraction(0)
    return m


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_elimination_pfaffian_matches_recursive_expansion(n):
    rng = random.Random(4321 + n)
    for density in (1.0, 0.6, 0.3):
        for _ in range(3):
            m = _sparse_skew(n, rng, density)
            got = pfaffian(m)
            assert isinstance(got, Fraction)
            assert got == _recursive_pfaffian(m)
            assert got ** 2 == det(m)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_elimination_pfaffian_pivot_swap(n):
    # a[0][1] = 0 forces the first pivot onto a later column
    rng = random.Random(77 + n)
    for _ in range(4):
        m = _random_skew(n, rng)
        m[0][1] = m[1][0] = Fraction(0)
        assert pfaffian(m) == _recursive_pfaffian(m)
        assert pfaffian(m) ** 2 == det(m)
    # a[0][1] = a[0][2] = 0 pushes the first pivot out to column 3
    m = _random_skew(n, rng)
    m[0][1] = m[1][0] = Fraction(0)
    m[0][2] = m[2][0] = Fraction(0)
    assert pfaffian(m) == _recursive_pfaffian(m)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_elimination_pfaffian_of_singular_matrices_is_zero(n):
    rng = random.Random(11 + n)
    # a zero row: no pivot in the first step
    m = _random_skew(n, rng)
    for j in range(n):
        m[0][j] = m[j][0] = Fraction(0)
    assert pfaffian(m) == 0 == _recursive_pfaffian(m)
    if n >= 4:
        # rows 2 and 3 coupled only to each other and scaled copies of rows
        # 0 and 1 elsewhere: the Schur complement has a zero row
        m = _random_skew(n, rng)
        for j in range(n):
            if j not in (2, 3):
                m[2][j], m[j][2] = 2 * m[0][j], -2 * m[0][j]
                m[3][j], m[j][3] = 2 * m[1][j], -2 * m[1][j]
        m[2][3], m[3][2] = 4 * m[0][1], -4 * m[0][1]
        assert det(m) == 0
        assert pfaffian(m) == 0 == _recursive_pfaffian(m)


def _pfaffian_oracle(mat):
    """Skew elimination over the rationals: pivot on a nonzero entry of row
    k (swapping its column to k + 1 flips the sign), multiply by the pivot
    and take the Schur complement of that 2x2 block."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    if n % 2 == 1:
        return Fraction(0)
    result = Fraction(1)
    for k in range(0, n, 2):
        piv = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k + 1:
            a[piv], a[k + 1] = a[k + 1], a[piv]
            for row in a:
                row[piv], row[k + 1] = row[k + 1], row[piv]
            result = -result
        p = a[k][k + 1]
        result *= p
        rk, rk1 = a[k], a[k + 1]
        for i in range(k + 2, n):
            ri = a[i]
            u, v = ri[k] / p, ri[k + 1] / p
            for j in range(i + 1, n):
                ri[j] += u * rk1[j] - v * rk[j]
                a[j][i] = -ri[j]
    return result


def _skew_cases(n, rng):
    """Skew matrices of size n with denominators up to 97: a generic one,
    one with a zero row and column, one whose first pivots need column
    swaps, and a singular one whose rows 2 and 3 repeat rows 0 and 1."""
    generic = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-99, 99), rng.randint(1, 97))
            generic[i][j], generic[j][i] = x, -x
    out = [generic]
    if n < 2:
        return out
    zero = [row[:] for row in generic]
    c = rng.randrange(n)
    for j in range(n):
        zero[c][j] = zero[j][c] = Fraction(0)
    swaps = [row[:] for row in generic]
    for i in range(0, n - 1, 2):
        # a[i][i+1] = 0, and for i = 0 also a[0][2] = 0
        for j in range(i + 1, min(i + 2 + (i == 0), n)):
            swaps[i][j] = swaps[j][i] = Fraction(0)
    out += [zero, swaps]
    if n >= 4:
        singular = [row[:] for row in generic]
        for j in range(n):
            if j not in (2, 3):
                singular[2][j], singular[j][2] = 3 * generic[0][j], -3 * generic[0][j]
                singular[3][j], singular[j][3] = 3 * generic[1][j], -3 * generic[1][j]
        singular[2][3], singular[3][2] = 9 * generic[0][1], -9 * generic[0][1]
        out.append(singular)
    return out


@pytest.mark.parametrize("n", range(19))
def test_fraction_free_pfaffian_equals_fraction_oracle(n):
    rng = random.Random(1900 + n)
    for m in _skew_cases(n, rng):
        got = pfaffian(m)
        assert type(got) is Fraction
        assert got == _pfaffian_oracle(m)
        if n <= 10:
            assert got == _recursive_pfaffian(m)


def test_pfaffian_rejects_non_skew():
    with pytest.raises(ValueError):
        pfaffian([[0, 1], [1, 0]])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_heisenberg_pfaffian_polynomial_is_power(n):
    p = pfaffian_polynomial(build_heisenberg(n, "C"))
    t = MultiPoly.variable(1, 0)
    assert p.poly == t ** n


def _poly_matrix_det(mat):
    """Determinant of a square matrix of MultiPoly entries: Laplace expansion
    along the rows, memoized on the remaining-column set."""
    nvars = mat[0][0].nvars
    memo = {}

    def rec(row, cols):
        if not cols:
            return MultiPoly.const(nvars, 1)
        got = memo.get((row, cols))
        if got is not None:
            return got
        total = MultiPoly.zero(nvars)
        for pos, c in enumerate(cols):
            entry = mat[row][c]
            if entry.is_zero():
                continue
            term = entry * rec(row + 1, cols[:pos] + cols[pos + 1:])
            total = total + (term if pos % 2 == 0 else -term)
        memo[(row, cols)] = total
        return total

    return rec(0, tuple(range(len(mat))))


def test_symbolic_pfaffian_squares_to_symbolic_determinant():
    for alg in (build_heisenberg(2, "C"), build_heisenberg(1, "H"), build_un_type(2)):
        p = pfaffian_polynomial(alg).poly
        assert p * p == _poly_matrix_det(_b_form_symbolic(alg))


def _b_form_symbolic(alg):
    """B(t) as a dense matrix whose entries are linear polynomials in the
    center coordinates."""
    n = alg.dim_v
    zero = MultiPoly.zero(alg.dim_z)
    mat = [[zero] * n for _ in range(n)]
    for (i, j), vec in alg.brackets:
        poly = MultiPoly(alg.dim_z, {tuple(int(a == k) for a in range(alg.dim_z)): c
                                     for k, c in enumerate(vec) if c})
        mat[i][j] = poly
        mat[j][i] = -poly
    return mat


def _pf_recursive(a, idx, memo, zero, one):
    if not idx:
        return one
    got = memo.get(idx)
    if got is not None:
        return got
    first = idx[0]
    total = zero
    for pos in range(1, len(idx)):
        entry = a[first][idx[pos]]
        if entry.is_zero():
            continue
        rest = idx[1:pos] + idx[pos + 1:]
        sub = _pf_recursive(a, rest, memo, zero, one)
        term = entry * sub
        total = total + term if pos % 2 == 1 else total - term
    memo[idx] = total
    return total


def _matrix_pfaffian_polynomial(alg):
    """The oracle: the dense matrix B(t), checked skew entry by entry, then
    the memoized Laplace expansion over it; an odd size gives 0."""
    mat = _b_form_symbolic(alg)
    n = len(mat)
    assert all(mat[i][j] == -mat[j][i] for i in range(n) for j in range(n))
    if n % 2 == 1:
        return MultiPoly.zero(alg.dim_z)
    return _pf_recursive(mat, tuple(range(n)), {},
                         MultiPoly.zero(alg.dim_z), MultiPoly.const(alg.dim_z, 1))


def _random_algebra(seed):
    """A seeded two-step algebra: dim_v in 2..8, dim_z in 1..4, each pair
    bracketed with probability 1/2 by a vector of small rationals."""
    rng = random.Random(seed)
    dim_v, dim_z = rng.randint(2, 8), rng.randint(1, 4)
    brackets = {}
    for i in range(dim_v):
        for j in range(i + 1, dim_v):
            if rng.random() < 0.5:
                brackets[(i, j)] = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                         for _ in range(dim_z))
    return build_two_step(dim_v, dim_z, brackets)


_ORACLE_SPECS = ["heis:1", "heis:2", "heis:4", "heish:1", "heish:2", "free:2", "free:3",
                 "free:4", "free:5", "un:1", "un:2", "un:3", "un:4", "un:5", "vin:17:2",
                 "heis:1+heis:2", "heis:1+free:3", "un:2+heish:1"]


@pytest.mark.parametrize("spec", _ORACLE_SPECS)
def test_pfaffian_polynomial_matches_the_matrix_expansion_on_table_specs(spec):
    alg = tables.algebra(spec)
    assert pfaffian_polynomial(alg).poly == _matrix_pfaffian_polynomial(alg)


def test_pfaffian_polynomial_matches_the_matrix_expansion_on_random_algebras():
    algebras = [_random_algebra(seed) for seed in range(40)]
    assert {a.dim_v for a in algebras} == set(range(2, 9))
    polys = [pfaffian_polynomial(alg).poly for alg in algebras]
    assert polys == [_matrix_pfaffian_polynomial(alg) for alg in algebras]
    assert sum(not p.is_zero() for p in polys) >= 10


def test_pfaffian_polynomial_is_homogeneous_of_degree_half_dim_v():
    # each expansion step multiplies by one linear form, so every term has
    # degree dim_v // 2, which is >= 1 when dim_v > 0: the Pfaffian vanishes
    # at the origin with no check of its own; an odd dim_v gives no terms
    algebras = [tables.algebra(spec) for spec in _ORACLE_SPECS]
    algebras += [_random_algebra(seed) for seed in range(40)]
    assert any(alg.dim_v % 2 for alg in algebras)
    nonzero = 0
    for alg in algebras:
        terms = pfaffian_polynomial(alg).poly.terms
        assert all(sum(mono) == alg.dim_v // 2 for mono in terms), alg.dim_v
        assert not (alg.dim_v % 2 and terms), alg.dim_v
        nonzero += bool(terms)
    assert nonzero >= 20


def _large_denominator_algebra(seed):
    """A seeded algebra with even dim_v in 4..8 and dim_z in 1..3, each pair
    bracketed with probability 3/4 by numerators up to 20 over denominators
    drawn from {7, 11, 13, 16}."""
    rng = random.Random(seed)
    dim_v, dim_z = rng.choice((4, 6, 8)), rng.randint(1, 3)
    brackets = {}
    for i in range(dim_v):
        for j in range(i + 1, dim_v):
            if rng.random() < 0.75:
                brackets[(i, j)] = tuple(Fraction(rng.randint(-20, 20), rng.choice((7, 11, 13, 16)))
                                         for _ in range(dim_z))
    return build_two_step(dim_v, dim_z, brackets)


def test_pfaffian_polynomial_matches_the_matrix_expansion_at_large_denominators():
    algebras = [_large_denominator_algebra(seed) for seed in range(12)]
    lcms = [math.lcm(*(c.denominator for _, vec in alg.brackets for c in vec))
            for alg in algebras]
    assert sum(d == 7 * 11 * 13 * 16 for d in lcms) >= 9 and min(lcms) > 100
    polys = [pfaffian_polynomial(alg).poly for alg in algebras]
    assert polys == [_matrix_pfaffian_polynomial(alg) for alg in algebras]
    assert all(not p.is_zero() for p in polys)


def test_pfaffian_polynomial_when_the_denominators_cancel():
    # Pf = B01 B23 - B02 B13 + B03 B12 = (1 - 2 + 3) t^2, with D = 240240
    brackets = {(0, 1): (Fraction(7, 11),), (2, 3): (Fraction(11, 7),),
                (0, 2): (Fraction(3, 13),), (1, 3): (Fraction(26, 3),),
                (0, 3): (Fraction(5, 16),), (1, 2): (Fraction(48, 5),)}
    alg = build_two_step(4, 1, brackets)
    p = pfaffian_polynomial(alg).poly
    assert p == MultiPoly(1, {(2,): 2}) == _matrix_pfaffian_polynomial(alg)


@pytest.mark.parametrize("dim_v,dim_z", [(0, 0), (0, 2), (1, 1), (3, 2), (4, 0), (4, 3)])
def test_pfaffian_polynomial_without_brackets(dim_v, dim_z):
    alg = build_two_step(dim_v, dim_z, {})
    expected = MultiPoly.const(dim_z, 1) if dim_v == 0 else MultiPoly.zero(dim_z)
    assert pfaffian_polynomial(alg).poly == expected == _matrix_pfaffian_polynomial(alg)


def test_numeric_pfaffian_squares_to_det_on_constructed_forms_up_to_dim_12():
    samples = [
        (build_heisenberg(6, "C"), (Fraction(3, 7),)),
        (build_heisenberg(3, "H"), (Fraction(1), Fraction(-2, 3), Fraction(1, 5))),
        (build_un_type(3), tuple(Fraction(k + 1, 3) for k in range(9))),
        (direct_sum(build_heisenberg(2, "C"), build_heisenberg(2, "C")),
         (Fraction(2), Fraction(-1, 2))),
    ]
    for alg, t in samples:
        b = b_form(alg, t)
        assert len(b) <= 12
        assert pfaffian(b) ** 2 == det(b)


def test_quaternionic_pfaffian_is_norm_power():
    for n in (1, 2):
        p = pfaffian_polynomial(build_heisenberg(n, "H")).poly
        q = MultiPoly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        lead = p.terms[(2 * n, 0, 0)]
        assert p == (q ** n).scale(lead)
        assert is_generically_square_integrable(build_heisenberg(n, "H"))


def test_free_three_generators_not_square_integrable():
    alg = build_free_two_step(3)
    assert not is_generically_square_integrable(alg)
    assert pfaffian_polynomial(alg).is_zero()


def test_un_type_square_integrable():
    assert is_generically_square_integrable(build_un_type(2))


def test_nested_heisenberg_pfaffians_divide():
    # nested bases: the bigger polynomial is t^{m-n} times the smaller, so
    # nonvanishing at level m forces nonvanishing at level n
    t = MultiPoly.variable(1, 0)
    for n in (1, 2):
        for m in (3, 4):
            pn = pfaffian_polynomial(build_heisenberg(n, "C")).poly
            pm = pfaffian_polynomial(build_heisenberg(m, "C")).poly
            assert pm == pn * t ** (m - n)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_basis_change_covariance(seed):
    rng = random.Random(seed)
    alg = build_heisenberg(2, "C")
    s = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
    d = det(s)
    if d == 0:
        return
    moved = transform_v_basis(alg, s)
    p0 = pfaffian_polynomial(alg).poly
    p1 = pfaffian_polynomial(moved).poly
    assert p1 == p0.scale(d)


def _transform_v_basis_oracle(alg, s):
    """[u_i, u_j] = sum over every ordered (a, b) of s[a][i] s[b][j] [v_a, v_b]."""
    s = [[Fraction(x) for x in row] for row in s]
    n = alg.dim_v
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            acc = [Fraction(0)] * alg.dim_z
            for a in range(n):
                if s[a][i] == 0:
                    continue
                for b in range(n):
                    if s[b][j] == 0:
                        continue
                    vec = _bracket(alg, a, b)
                    coef = s[a][i] * s[b][j]
                    acc = [x + coef * y for x, y in zip(acc, vec)]
            if any(acc):
                brackets[(i, j)] = tuple(acc)
    return build_two_step(n, alg.dim_z, brackets)


def _basis_changes(n, seed):
    """A seeded dense integer n x n matrix and a seeded rational one."""
    rng = random.Random(seed)
    return [[[Fraction(rng.randint(-5, 5), rng.randint(1, 6) if rational else 1)
              for _ in range(n)] for _ in range(n)] for rational in (False, True)]


@pytest.mark.parametrize("spec", _ORACLE_SPECS)
def test_transform_v_basis_matches_the_oracle_on_table_specs(spec):
    alg = tables.algebra(spec)
    for s in _basis_changes(alg.dim_v, spec):
        assert transform_v_basis(alg, s) == _transform_v_basis_oracle(alg, s)


def test_transform_v_basis_matches_the_oracle_on_random_algebras():
    for seed in range(40):
        alg = _random_algebra(seed)
        for s in _basis_changes(alg.dim_v, seed):
            assert transform_v_basis(alg, s) == _transform_v_basis_oracle(alg, s), seed


def test_plancherel_density_values():
    alg = build_heisenberg(3, "C")
    assert plancherel_density(alg, (2,)) == 8.0
    assert plancherel_density(alg, (-2,)) == 8.0
    assert plancherel_density(alg, (0,)) == 0.0


def _zero_fraction(alg, count, seed):
    """Share of seeded ``sample_centre_point`` draws where the Pfaffian
    polynomial vanishes exactly."""
    rng = random.Random(seed)
    poly = pfaffian_polynomial(alg)
    return sum(poly(sample_centre_point(rng, alg.dim_z)) == 0 for _ in range(count)) / count


def test_sample_zero_set_h2():
    assert _zero_fraction(build_heisenberg(2, "C"), 10 ** 4, seed=7) == 0.0


def test_sample_zero_set_reproducible():
    alg = build_free_two_step(3)
    assert _zero_fraction(alg, 100, seed=3) == 1.0


# ---------------------------------------------------------------------------
# symplectic quotient
# ---------------------------------------------------------------------------


def _quotient_to_heisenberg(alg, t):
    """Symplectic basis of (v, b_t): returns (d, T) with d = dim_v / 2 and T
    the exact change of basis with T^t B T the standard block form
    diag([[0,1],[-1,0]], ...).  Raises on degenerate b_t."""
    if alg.dim_v % 2 == 1:
        raise ValueError("odd flat dimension: b_t is always degenerate")
    b = b_form(alg, t)
    n = alg.dim_v

    def apply(form, u, w):
        return sum(u[i] * sum(form[i][j] * w[j] for j in range(n)) for i in range(n))

    remaining = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pairs = []
    while remaining:
        v = remaining[0]
        partner = next((w for w in remaining[1:] if apply(b, v, w) != 0), None)
        if partner is None:
            raise ValueError("degenerate central form")
        scale = apply(b, v, partner)
        w = [x / scale for x in partner]
        new_remaining = []
        for u in remaining:
            if u is v or u is partner:
                continue
            cu = apply(b, u, w)
            cv = apply(b, u, v)
            adjusted = [x - cu * a + cv * c for x, a, c in zip(u, v, w)]
            if any(adjusted):
                new_remaining.append(adjusted)
        pairs.append((v, w))
        remaining = new_remaining
    if 2 * len(pairs) != n:
        raise ValueError("degenerate central form")
    return len(pairs), _transpose([col for pair in pairs for col in pair])


def test_quotient_heisenberg_identity_scaling():
    alg = build_heisenberg(2, "C")
    d, T = _quotient_to_heisenberg(alg, (Fraction(1),))
    assert d == 2
    b = b_form(alg, (1,))
    assert pfaffian(b) != 0
    j = _standard_block(d)
    assert _congruence(T, b) == j


def test_quotient_quaternionic_generic():
    alg = build_heisenberg(1, "H")
    d, T = _quotient_to_heisenberg(alg, (Fraction(1), Fraction(1, 2), Fraction(-1, 3)))
    assert d == 2
    b = b_form(alg, (Fraction(1), Fraction(1, 2), Fraction(-1, 3)))
    assert pfaffian(b) != 0
    assert _congruence(T, b) == _standard_block(d)


def test_quotient_rejects_degenerate():
    alg = build_heisenberg(1, "C")
    assert pfaffian(b_form(alg, (Fraction(0),))) == 0
    with pytest.raises(ValueError):
        _quotient_to_heisenberg(alg, (Fraction(0),))
    free = build_free_two_step(3)
    assert pfaffian(b_form(free, (Fraction(1),) * 3)) == 0
    with pytest.raises(ValueError):
        _quotient_to_heisenberg(free, (Fraction(1),) * 3)


def _standard_block(d):
    out = [[Fraction(0)] * (2 * d) for _ in range(2 * d)]
    for a in range(d):
        out[2 * a][2 * a + 1] = Fraction(1)
        out[2 * a + 1][2 * a] = Fraction(-1)
    return out


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _mat_mul(a, b):
    cols = _transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _congruence(T, b):
    return _mat_mul(_mat_mul(_transpose(T), b), T)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def dump_algebra(alg):
    """The text that ``load_algebra`` reads: header 'dim_v dim_z', then one
    line 'i j k num/den' per nonzero c_ij^k with i < j, zero-based."""
    lines = [f"{alg.dim_v} {alg.dim_z}"]
    for (i, j), vec in alg.brackets:
        for k, c in enumerate(vec):
            if c:
                lines.append(f"{i} {j} {k} {c.numerator}/{c.denominator}")
    return "\n".join(lines) + "\n"


def test_algebra_text_roundtrip():
    # un:3 carries the non-integer constants +-1/2
    for alg in (build_heisenberg(1, "H"), build_free_two_step(3), build_un_type(3)):
        text = dump_algebra(alg)
        back = load_algebra(text)
        assert back.dim_v == alg.dim_v and back.dim_z == alg.dim_z
        assert back.brackets == alg.brackets


def test_load_rejects_garbage():
    with pytest.raises(ValueError):
        load_algebra("")
    with pytest.raises(ValueError):
        load_algebra("2 1\n0 1 5 1/1")
    with pytest.raises(ValueError):
        load_algebra("2 1\n0 1 0")
