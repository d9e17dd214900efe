"""Two-step nilpotent Lie algebras with square-integrable representations:
structure constants, the central forms b_t, exact Pfaffians and Pfaffian
polynomials, Plancherel densities, and the table families (complex and
quaternionic Heisenberg, free two-step, unitary-center type).

Structure constants are exact rationals; the bracket of the basis vectors
v_i, v_j (i < j) is stored as a vector in the center.  The Pfaffian of the
matrix B(t), entries linear in the central coordinates t, is expanded
straight from the brackets with integer polynomial arithmetic after clearing
denominators (a polynomial ring has no division); at a rational point it is
fraction-free integer elimination.
Either way every classification statement (vanishing, covariance,
square-equals-determinant) is tolerance free.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .exact import MultiPoly, Record, fr


class TwoStepAlgebra(Record):
    def __init__(self, dim_v: int, dim_z: int, brackets: tuple):
        object.__setattr__(self, "dim_v", dim_v)
        object.__setattr__(self, "dim_z", dim_z)
        object.__setattr__(self, "brackets", brackets)  # ((i, j), center vector), i < j, sparse


def build_two_step(dim_v: int, dim_z: int, brackets) -> TwoStepAlgebra:
    """Assemble and validate an algebra from sparse bracket data.

    ``brackets`` maps (i, j) with i < j to center vectors.  Skew symmetry is
    enforced by storage; handing in both (i, j) and (j, i) is rejected.
    """
    if dim_v < 0 or dim_z < 0:
        raise ValueError(f"dimensions must be >= 0, got dim_v={dim_v}, dim_z={dim_z}")
    seen = {}
    for (i, j), vec in dict(brackets).items():
        if not (0 <= i < dim_v and 0 <= j < dim_v):
            raise ValueError(f"bracket index ({i}, {j}) out of range")
        if i == j:
            raise ValueError("diagonal brackets must vanish")
        if i > j:
            raise ValueError("store brackets with i < j only")
        if (i, j) in seen:
            raise ValueError(f"duplicate bracket ({i}, {j})")
        vec = tuple(fr(x) for x in vec)
        if len(vec) != dim_z:
            raise ValueError("center vector has wrong length")
        if any(vec):
            seen[(i, j)] = vec
    return TwoStepAlgebra(dim_v, dim_z, tuple(sorted(seen.items())))


# quaternion multiplication on (1, i, j, k) coefficients
_QMUL = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
}


def _quat_imag_conj_product(a: int, b: int):
    """Imaginary part of conj(u_a) u_b for unit quaternions, as a center
    3-vector over (i, j, k)."""
    conj_sign = 1 if a == 0 else -1
    idx, sign = _QMUL[(a, b)]
    out = [Fraction(0)] * 3
    if idx != 0:
        out[idx - 1] = Fraction(conj_sign * sign)
    return tuple(out)


def build_heisenberg(n: int, field: str = "C") -> TwoStepAlgebra:
    """Generalized Heisenberg algebra Im F + F^n for F complex or
    quaternionic, with [u, v] = Im(conj(u) v) summed over coordinates.

    The complex case uses the basis order (x_1, y_1, x_2, y_2, ...) with
    [x_a, y_a] = z, which pins the Pfaffian polynomial to exactly t^n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if field == "C":
        brackets = {(2 * a, 2 * a + 1): (Fraction(1),) for a in range(n)}
        return build_two_step(2 * n, 1, brackets)
    if field == "H":
        brackets = {}
        for a in range(n):
            for p in range(4):
                for q in range(p + 1, 4):
                    vec = _quat_imag_conj_product(p, q)
                    if any(vec):
                        brackets[(4 * a + p, 4 * a + q)] = vec
        return build_two_step(4 * n, 3, brackets)
    raise ValueError("field must be 'C' or 'H'")


def build_free_two_step(n: int) -> TwoStepAlgebra:
    """Free two-step algebra on n generators: center = the full exterior
    square, [v_i, v_j] = z_ij."""
    if n < 2:
        raise ValueError("need n >= 2")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: k for k, p in enumerate(pairs)}
    brackets = {}
    for (i, j), k in index.items():
        vec = [Fraction(0)] * len(pairs)
        vec[k] = Fraction(1)
        brackets[(i, j)] = tuple(vec)
    return build_two_step(n, len(pairs), brackets)


def build_un_type(n: int) -> TwoStepAlgebra:
    """Center u(n) over C^n: <[v, w], A> = Re<A v, w> against an orthogonal
    R-basis of the skew-Hermitian matrices under Re tr(A* B): diagonal
    i E_kk (norm 1), then E_ab - E_ba and i(E_ab + E_ba) for a < b (norm 2).
    The real pairing is what makes the bracket antisymmetric; the basis is
    orthogonal rather than unit so the constants stay rational, which only
    rescales the center coordinates.

    The v-basis is e_1, i e_1, e_2, i e_2, ...  For v = u e_c and
    w = u' e_r with u, u' in {1, i}, Re<A v, w> = Re(A_rc u conj(u')), so
    only the basis matrices with an entry at (r, c) contribute.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    # (squared norm, {(r, c): (Re A_rc, Im A_rc)})
    basis = [(1, {(k, k): (0, 1)}) for k in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            basis.append((2, {(a, b): (1, 0), (b, a): (-1, 0)}))
            basis.append((2, {(a, b): (0, 1), (b, a): (0, 1)}))
    dim_v = 2 * n
    dim_z = n * n
    brackets = {}
    for z, (norm, entries) in enumerate(basis):
        for (r, c), (re, im) in entries.items():
            for p in (0, 1):
                for q in (0, 1):
                    i, j = 2 * c + p, 2 * r + q
                    # Re((re + i im) i^(p - q))
                    val = (re, -im, -re, im)[(p - q) % 4]
                    if i < j and val:
                        brackets.setdefault((i, j), [0] * dim_z)[z] = Fraction(val, norm)
    return build_two_step(dim_v, dim_z, brackets)


def direct_sum(a: TwoStepAlgebra, b: TwoStepAlgebra) -> TwoStepAlgebra:
    """The direct sum of two algebras: their brackets on disjoint v and z
    blocks.  It spans its centre exactly when both summands span theirs; no
    builder checks the span."""
    brackets = {key: vec + (Fraction(0),) * b.dim_z for key, vec in a.brackets}
    for (i, j), vec in b.brackets:
        brackets[(i + a.dim_v, j + a.dim_v)] = (Fraction(0),) * a.dim_z + vec
    return build_two_step(a.dim_v + b.dim_v, a.dim_z + b.dim_z, brackets)


def transform_v_basis(alg: TwoStepAlgebra, s) -> TwoStepAlgebra:
    """Pull the brackets back along new v-basis vectors u_i = sum_a s[a][i] v_a:
    each stored [v_a, v_b], a < b, adds (s_ai s_bj - s_bi s_aj) [v_a, v_b] to
    [u_i, u_j]."""
    s = [[fr(x) for x in row] for row in s]
    n = alg.dim_v
    acc = {}
    for (a, b), vec in alg.brackets:
        sa, sb = s[a], s[b]
        nonzero = [(k, y) for k, y in enumerate(vec) if y]
        for i in range(n):
            for j in range(i + 1, n):
                coef = sa[i] * sb[j] - sb[i] * sa[j]
                if coef:
                    row = acc.setdefault((i, j), [0] * alg.dim_z)
                    for k, y in nonzero:
                        row[k] += coef * y
    return build_two_step(n, alg.dim_z, acc)


# ---------------------------------------------------------------------------
# the central forms and Pfaffians
# ---------------------------------------------------------------------------


def b_form(alg: TwoStepAlgebra, t):
    """Skew matrix B with B_ij = t([v_i, v_j]), exact."""
    t = tuple(fr(x) for x in t)
    if len(t) != alg.dim_z:
        raise ValueError("central coordinate has wrong length")
    n = alg.dim_v
    mat = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), vec in alg.brackets:
        val = sum((a * b for a, b in zip(t, vec) if b), Fraction(0))
        mat[i][j] = val
        mat[j][i] = -val
    return mat


def pfaffian(mat):
    """Exact Pfaffian of a skew-symmetric matrix of Fractions.

    Odd dimension gives 0 by convention.  Fraction-free skew elimination
    (Rote, "Division-free algorithms for the determinant and the Pfaffian",
    2001) on DA, D the lcm of the denominators, Pf(DA) = D^{n/2} Pf(A): pivot
    on a nonzero entry of row k (swapping its column to k + 1 flips the
    sign), then a_ij <- (p a_ij + a_ik a_{k+1,j} - a_{i,k+1} a_kj) / prev
    divides exactly; the last pivot is Pf(DA), and a row with no pivot gives 0.
    """
    n = len(mat)
    mat = [[fr(x) for x in row] for row in mat]
    d = math.lcm(*(x.denominator for row in mat for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in mat]
    if any(a[i][j] != -a[j][i] for i in range(n) for j in range(n)):
        raise ValueError("matrix is not skew-symmetric")
    if n % 2 == 1:
        return Fraction(0)
    sign, prev = 1, 1
    for k in range(0, n, 2):
        piv = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k + 1:
            a[piv], a[k + 1] = a[k + 1], a[piv]
            for row in a:
                row[piv], row[k + 1] = row[k + 1], row[piv]
            sign = -sign
        p = a[k][k + 1]
        rk, rk1 = a[k], a[k + 1]
        for i, ri in enumerate(a[k + 2:], k + 2):
            u, v = ri[k], ri[k + 1]
            for j in range(i + 1, n):
                ri[j] = (p * ri[j] + u * rk1[j] - v * rk[j]) // prev
                a[j][i] = -ri[j]
        prev = p
    return Fraction(sign * prev, d ** (n // 2))


class PfaffianPolynomial(Record):
    def __init__(self, poly: MultiPoly):
        object.__setattr__(self, "poly", poly)

    def __call__(self, t):
        return self.poly.eval(tuple(fr(x) for x in t))

    def is_zero(self) -> bool:
        return self.poly.is_zero()


def pfaffian_polynomial(alg: TwoStepAlgebra) -> PfaffianPolynomial:
    """Pf(B(t)) as an exact polynomial, which squares to det B(t).  It is
    homogeneous of degree dim_v/2, each step multiplying by one linear form,
    so it vanishes at t = 0 whenever there is any flat part; an odd dim_v
    gives no terms.

    Memoized Laplace expansion along the first of the remaining indices,
    which stay sorted, so each entry B_ij(t) = t([v_i, v_j]) with i < j is a
    bracket read as a linear form, and a pair with no bracket is skipped.
    The expansion runs on integer coefficients: with D the lcm of the
    bracket denominators, Pf(D B) = D^{dim_v/2} Pf(B), divided out once.
    """
    nz, half = alg.dim_z, alg.dim_v // 2
    d = math.lcm(*(c.denominator for _, vec in alg.brackets for c in vec))
    forms = {key: [(k, c.numerator * (d // c.denominator)) for k, c in enumerate(vec) if c]
             for key, vec in alg.brackets}
    memo = {(): {(0,) * nz: 1}}

    def expand(idx):
        got = memo.get(idx)
        if got is None:
            got = {}
            for pos in range(1, len(idx)):
                form = forms.get((idx[0], idx[pos]))
                if form is not None:
                    sign = 1 if pos % 2 == 1 else -1
                    for mono, c in expand(idx[1:pos] + idx[pos + 1:]).items():
                        for k, f in form:
                            key = mono[:k] + (mono[k] + 1,) + mono[k + 1:]
                            got[key] = got.get(key, 0) + sign * f * c
            got = memo[idx] = {m: c for m, c in got.items() if c}
        return got

    terms = expand(tuple(range(alg.dim_v))) if alg.dim_v % 2 == 0 else {}
    return PfaffianPolynomial(MultiPoly(nz, {m: Fraction(c, d ** half) for m, c in terms.items()}))


def is_generically_square_integrable(alg: TwoStepAlgebra) -> bool:
    return not pfaffian_polynomial(alg).is_zero()


def plancherel_density(alg: TwoStepAlgebra, t) -> float:
    return abs(float(pfaffian_polynomial(alg)(t)))


def sample_centre_point(rng: random.Random, dim_z: int) -> tuple:
    """A seeded rational point of (-1, 1)^dim_z with odd/2^11 coordinates:
    exact and reproducible, but with no atom on the coordinate hyperplanes
    (a grid with exact zeros would misreport the measure-zero vanishing sets
    it is probing)."""
    denom = 2 ** 11
    return tuple(Fraction(rng.randrange(-denom + 1, denom, 2), denom)
                 for _ in range(dim_z))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def load_algebra(text: str) -> TwoStepAlgebra:
    """Text form: header 'dim_v dim_z', then one line 'i j k num/den' per
    nonzero c_ij^k with i < j, zero-based; '#' starts a comment."""
    lines = [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty algebra definition")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'dim_v dim_z'")
    dim_v, dim_z = int(head[0]), int(head[1])
    brackets: dict = {}
    given = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ValueError(f"bad bracket line: {ln!r}")
        i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
        if not 0 <= k < dim_z:
            raise ValueError(f"center index out of range in {ln!r}")
        if (i, j, k) in given:
            raise ValueError(f"bracket component ({i}, {j}, {k}) given twice")
        given.add((i, j, k))
        try:
            coef = Fraction(parts[3])
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {ln!r}") from None
        vec = list(brackets.get((i, j), (Fraction(0),) * dim_z))
        vec[k] = coef
        brackets[(i, j)] = tuple(vec)
    return build_two_step(dim_v, dim_z, brackets)
