"""Two-step nilpotent Lie algebras with square-integrable representations:
structure constants, the central forms b_t, exact Pfaffians and Pfaffian
polynomials, Plancherel densities, and the table families (complex and
quaternionic Heisenberg, free two-step, unitary-center type).

Structure constants are exact rationals; the bracket of the basis vectors
v_i, v_j (i < j) is stored as a vector in the center.  The Pfaffian of the
matrix B(t), entries linear in the central coordinates t, is computed by
recursive expansion with exact polynomial arithmetic, so every classification
statement (vanishing, covariance, square-equals-determinant) is tolerance
free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .exact import MultiPoly, fr, transpose


@dataclass(frozen=True)
class TwoStepAlgebra:
    dim_v: int
    dim_z: int
    brackets: tuple  # ((i, j), center vector) with i < j, sparse
    v_labels: tuple
    z_labels: tuple
    center_is_z: bool = True

    def bracket(self, i: int, j: int):
        if i == j:
            return (Fraction(0),) * self.dim_z
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for (a, b), vec in self.brackets:
            if (a, b) == (i, j):
                return tuple(sign * x for x in vec)
        return (Fraction(0),) * self.dim_z


def build_two_step(dim_v: int, dim_z: int, brackets, v_labels=None, z_labels=None,
                   require_center_spanned: bool = False) -> TwoStepAlgebra:
    """Assemble and validate an algebra from sparse bracket data.

    ``brackets`` maps (i, j) with i < j to center vectors.  Skew symmetry is
    enforced by storage; handing in both (i, j) and (j, i) is rejected.  With
    ``require_center_spanned`` the bracket image must span the whole center.
    """
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
    if require_center_spanned:
        from .exact import rank

        vecs = [list(v) for v in seen.values()]
        if rank(vecs) != dim_z:
            raise ValueError("brackets do not span the declared center")
    return TwoStepAlgebra(
        dim_v,
        dim_z,
        tuple(sorted(seen.items())),
        tuple(v_labels or (f"v{i}" for i in range(dim_v))),
        tuple(z_labels or (f"z{k}" for k in range(dim_z))),
        center_is_z=require_center_spanned,
    )


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
        labels = [f"{ch}{a + 1}" for a in range(n) for ch in "xy"]
        return build_two_step(2 * n, 1, brackets, labels, ("z",),
                              require_center_spanned=True)
    if field == "H":
        brackets = {}
        for a in range(n):
            for p in range(4):
                for q in range(p + 1, 4):
                    vec = _quat_imag_conj_product(p, q)
                    if any(vec):
                        brackets[(4 * a + p, 4 * a + q)] = vec
        labels = [f"{ch}{a + 1}" for a in range(n) for ch in ("e", "i", "j", "k")]
        return build_two_step(4 * n, 3, brackets, labels, ("zi", "zj", "zk"),
                              require_center_spanned=True)
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
    return build_two_step(
        n, len(pairs), brackets,
        [f"v{i + 1}" for i in range(n)],
        [f"z{i + 1}{j + 1}" for i, j in pairs],
        require_center_spanned=True,
    )


def _un_basis(n: int):
    """Orthogonal R-basis of the skew-Hermitian n x n matrices with the form
    Re tr(A* B): diagonal i E_kk (norm 1), then E_ab - E_ba and
    i(E_ab + E_ba) for a < b (norm 2).  Matrices are (real, imag) pairs of
    rational entry grids."""
    basis = []
    for k in range(n):
        re = [[Fraction(0)] * n for _ in range(n)]
        im = [[Fraction(0)] * n for _ in range(n)]
        im[k][k] = Fraction(1)
        basis.append((re, im, Fraction(1), f"d{k + 1}"))
    for a in range(n):
        for b in range(a + 1, n):
            re = [[Fraction(0)] * n for _ in range(n)]
            im = [[Fraction(0)] * n for _ in range(n)]
            re[a][b] = Fraction(1)
            re[b][a] = Fraction(-1)
            basis.append((re, im, Fraction(2), f"a{a + 1}{b + 1}"))
            re2 = [[Fraction(0)] * n for _ in range(n)]
            im2 = [[Fraction(0)] * n for _ in range(n)]
            im2[a][b] = Fraction(1)
            im2[b][a] = Fraction(1)
            basis.append((re2, im2, Fraction(2), f"b{a + 1}{b + 1}"))
    return basis


def build_un_type(n: int) -> TwoStepAlgebra:
    """Center u(n) over C^n: <[v, w], A> = Re<A v, w> against the orthogonal
    basis above (the real pairing is what makes the bracket antisymmetric;
    the basis is orthogonal rather than unit so the constants stay rational,
    which only rescales the center coordinates)."""
    if n < 1:
        raise ValueError("need n >= 1")
    basis = _un_basis(n)
    dim_v = 2 * n
    dim_z = n * n

    def real_vec(idx):
        # v-basis: e_1, i e_1, e_2, i e_2, ...; return (re, im) column
        coord, imag = divmod(idx, 2)
        re = [Fraction(0)] * n
        im = [Fraction(0)] * n
        (im if imag else re)[coord] = Fraction(1)
        return re, im

    def pair(avec, v, w):
        # Re< A v, w > with first-linear complex inner product
        are, aim, _, _ = avec
        vre, vim = v
        wre, wim = w
        total = Fraction(0)
        for r in range(n):
            avr = sum(are[r][c] * vre[c] - aim[r][c] * vim[c] for c in range(n))
            avi = sum(are[r][c] * vim[c] + aim[r][c] * vre[c] for c in range(n))
            total += avr * wre[r] + avi * wim[r]
        return total

    brackets = {}
    for i in range(dim_v):
        for j in range(i + 1, dim_v):
            vec = tuple(
                pair(bz, real_vec(i), real_vec(j)) / bz[2] for bz in basis
            )
            if any(vec):
                brackets[(i, j)] = vec
    labels_v = [f"{ch}{a + 1}" for a in range(n) for ch in ("x", "y")]
    return build_two_step(dim_v, dim_z, brackets, labels_v,
                          [bz[3] for bz in basis], require_center_spanned=True)


def direct_sum(a: TwoStepAlgebra, b: TwoStepAlgebra) -> TwoStepAlgebra:
    brackets = {key: vec + (Fraction(0),) * b.dim_z for key, vec in a.brackets}
    for (i, j), vec in b.brackets:
        brackets[(i + a.dim_v, j + a.dim_v)] = (Fraction(0),) * a.dim_z + vec
    return build_two_step(
        a.dim_v + b.dim_v, a.dim_z + b.dim_z, brackets,
        [f"a.{s}" for s in a.v_labels] + [f"b.{s}" for s in b.v_labels],
        [f"a.{s}" for s in a.z_labels] + [f"b.{s}" for s in b.z_labels],
        require_center_spanned=a.center_is_z and b.center_is_z,
    )


def transform_v_basis(alg: TwoStepAlgebra, s) -> TwoStepAlgebra:
    """Pull the brackets back along new v-basis vectors u_i = sum_a s[a][i] v_a."""
    s = [[fr(x) for x in row] for row in s]
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
                    vec = alg.bracket(a, b)
                    coef = s[a][i] * s[b][j]
                    acc = [x + coef * y for x, y in zip(acc, vec)]
            if any(acc):
                brackets[(i, j)] = tuple(acc)
    return build_two_step(n, alg.dim_z, brackets, alg.v_labels, alg.z_labels)


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
        val = sum(a * b for a, b in zip(t, vec))
        mat[i][j] = val
        mat[j][i] = -val
    return mat


def b_form_symbolic(alg: TwoStepAlgebra):
    """B(t) with entries linear polynomials in the center coordinates."""
    n = alg.dim_v
    zero = MultiPoly.zero(alg.dim_z)
    mat = [[zero] * n for _ in range(n)]
    for (i, j), vec in alg.brackets:
        poly = MultiPoly(alg.dim_z, {tuple(int(a == k) for a in range(alg.dim_z)): c
                                     for k, c in enumerate(vec) if c})
        mat[i][j] = poly
        mat[j][i] = -poly
    return mat


def pfaffian(mat):
    """Exact Pfaffian of a skew-symmetric matrix of Fractions.

    Odd dimension gives 0 by convention.  Recursive expansion along the
    first remaining row, memoized on the surviving index set.
    """
    n = len(mat)
    a = [[fr(x) for x in row] for row in mat]
    for i in range(n):
        for j in range(n):
            if a[i][j] != -a[j][i]:
                raise ValueError("matrix is not skew-symmetric")
    if n % 2 == 1:
        return Fraction(0)
    return _pf_recursive(a, tuple(range(n)), {}, Fraction(0), Fraction(1))


def pfaffian_symbolic(mat, nvars: int):
    for i in range(len(mat)):
        for j in range(len(mat)):
            if mat[i][j] != -mat[j][i]:
                raise ValueError("matrix is not skew-symmetric")
    if len(mat) % 2 == 1:
        return MultiPoly.zero(nvars)
    return _pf_recursive(mat, tuple(range(len(mat))), {},
                         MultiPoly.zero(nvars), MultiPoly.const(nvars, 1))


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
        is_zero = entry.is_zero() if hasattr(entry, "is_zero") else entry == 0
        if is_zero:
            continue
        rest = idx[1:pos] + idx[pos + 1:]
        sub = _pf_recursive(a, rest, memo, zero, one)
        term = entry * sub
        total = total + term if pos % 2 == 1 else total - term
    memo[idx] = total
    return total


@dataclass(frozen=True)
class PfaffianPolynomial:
    dim_z: int
    poly: MultiPoly

    def __call__(self, t):
        return self.poly.eval(tuple(fr(x) for x in t))

    def is_zero(self) -> bool:
        return self.poly.is_zero()


def pfaffian_polynomial(alg: TwoStepAlgebra) -> PfaffianPolynomial:
    """Pf(B(t)) as an exact polynomial; vanishes at t = 0 whenever there is
    any flat part, and squares to det B(t)."""
    poly = pfaffian_symbolic(b_form_symbolic(alg), alg.dim_z)
    if alg.dim_v > 0 and not poly.eval((Fraction(0),) * alg.dim_z) == 0:
        raise ArithmeticError("Pfaffian polynomial must vanish at the origin")
    return PfaffianPolynomial(alg.dim_z, poly)


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


def sample_zero_set(alg: TwoStepAlgebra, count: int, seed: int) -> float:
    """Fraction of seeded ``sample_centre_point`` samples where the Pfaffian
    polynomial vanishes exactly."""
    rng = random.Random(seed)
    poly = pfaffian_polynomial(alg)
    zeros = 0
    for _ in range(count):
        if poly(sample_centre_point(rng, alg.dim_z)) == 0:
            zeros += 1
    return zeros / count


def quotient_to_heisenberg(alg: TwoStepAlgebra, t):
    """Symplectic basis of (v, b_t): returns (d, T) with d = dim_v / 2 and T
    the exact change of basis with T^t B T the standard block form
    diag([[0,1],[-1,0]], ...).  Raises on degenerate b_t."""
    if alg.dim_v % 2 == 1:
        raise ValueError("odd flat dimension: b_t is always degenerate")
    b = b_form(alg, t)
    n = alg.dim_v

    def apply(form, u, w):
        return sum(u[i] * sum(form[i][j] * w[j] for j in range(n)) for i in range(n))

    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pairs = []
    remaining = basis
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
    cols = []
    for v, w in pairs:
        cols.append(v)
        cols.append(w)
    T = transpose(cols)
    return len(pairs), T


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def dump_algebra(alg: TwoStepAlgebra) -> str:
    """Text form: header 'dim_v dim_z', then one line 'i j k num/den' per
    nonzero c_ij^k with i < j, zero-based."""
    lines = [f"{alg.dim_v} {alg.dim_z}"]
    for (i, j), vec in alg.brackets:
        for k, c in enumerate(vec):
            if c:
                lines.append(f"{i} {j} {k} {c.numerator}/{c.denominator}")
    return "\n".join(lines) + "\n"


def load_algebra(text: str) -> TwoStepAlgebra:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty algebra definition")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'dim_v dim_z'")
    dim_v, dim_z = int(head[0]), int(head[1])
    brackets: dict = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ValueError(f"bad bracket line: {ln!r}")
        i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
        if not 0 <= k < dim_z:
            raise ValueError(f"center index out of range in {ln!r}")
        vec = list(brackets.get((i, j), (Fraction(0),) * dim_z))
        vec[k] = Fraction(parts[3])
        brackets[(i, j)] = tuple(vec)
    return build_two_step(dim_v, dim_z, brackets)
