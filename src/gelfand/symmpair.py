"""Restricted root data for the classical compact symmetric pairs, class-1
weight generators, and a fully concrete sphere model (harmonic polynomials,
zonal vectors, projection constants).

The eleven pair families are shipped as data: restricted root system type
(A/B/C/D/BC) with root multiplicities as functions of the rank and, where the
family has two size parameters, of their difference.  Class-1 generators are
solved exactly from the defining pairings, including the doubled pairing on
indices whose doubled simple root is again a restricted root.

The sphere model is exact end to end: harmonic polynomials with rational
coefficients, sphere moments as closed-form rationals, zonal vectors from the
kernel of the rotation generators, and projection constants whose squares
are rational numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import numerics
from .exact import MultiPoly, dot, fr, monomials, nullspace, solve
from .exact import unit_vector as _eps

# ---------------------------------------------------------------------------
# restricted pair data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RestrictedPairData:
    family_id: int
    rank: int
    restricted_type: str  # A | B | C | D | BC
    simple_roots: tuple  # exact epsilon vectors
    positive_roots: tuple  # (vector, multiplicity) pairs
    doubled_indices: frozenset  # i with 2*psi_i a restricted root
    class_one_weights: tuple  # exact epsilon vectors


def _restricted_roots(rtype: str, rank: int, mults: dict):
    """Positive restricted roots with multiplicities.

    ``mults`` keys: 'pair' for e_i +- e_j, 'short' for e_i, 'long' for 2e_i
    (A-type uses only 'pair' for e_i - e_j).
    """
    n = rank
    out = []
    if rtype == "A":
        n = rank + 1
        for i in range(n):
            for j in range(i + 1, n):
                out.append((tuple(a - b for a, b in zip(_eps(i, n), _eps(j, n))), mults["pair"]))
        return tuple(out)
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = _eps(i, n), _eps(j, n)
            out.append((tuple(a - b for a, b in zip(ei, ej)), mults["pair"]))
            out.append((tuple(a + b for a, b in zip(ei, ej)), mults["pair"]))
    if rtype in ("B", "BC"):
        for i in range(n):
            out.append((_eps(i, n), mults["short"]))
    if rtype in ("C", "BC"):
        for i in range(n):
            out.append((tuple(2 * x for x in _eps(i, n)), mults["long"]))
    return tuple(out)


def _simple_roots(rtype: str, rank: int):
    n = rank
    if rtype == "A":
        n = rank + 1
        return tuple(
            tuple(a - b for a, b in zip(_eps(i, n), _eps(i + 1, n))) for i in range(rank)
        )
    chain = [tuple(a - b for a, b in zip(_eps(i, n), _eps(i + 1, n))) for i in range(rank - 1)]
    if rtype in ("B", "BC"):
        return tuple(chain + [_eps(rank - 1, n)])
    if rtype == "C":
        return tuple(chain + [tuple(2 * x for x in _eps(rank - 1, n))])
    if rtype == "D":
        if rank < 2:
            raise ValueError("restricted type D needs rank >= 2")
        return tuple(chain + [tuple(a + b for a, b in zip(_eps(rank - 2, n), _eps(rank - 1, n)))])
    raise ValueError(f"unknown restricted type {rtype!r}")


# family rows: given (rank l, excess) return (type, multiplicity dict)
# excess is the difference of the two size parameters where the family has
# two (rows 5, 8, 10), the parity of n for row 9, and unused otherwise.


def _family_data(family_id: int, rank: int, excess: int):
    if family_id == 1:  # group case SU(n): A_{n-1}, all multiplicities 2
        return "A", {"pair": 2}
    if family_id == 2:  # group case Spin(2n+1)
        return "B", {"pair": 2, "short": 2}
    if family_id == 3:  # group case Spin(2n)
        return "D", {"pair": 2}
    if family_id == 4:  # group case Sp(n)
        return "C", {"pair": 2, "long": 2}
    if family_id == 5:  # SU(p+q)/S(U(p)xU(q)), rank min(p,q), excess |q-p|
        if excess == 0:
            return "C", {"pair": 2, "long": 1}
        return "BC", {"pair": 2, "short": 2 * excess, "long": 1}
    if family_id == 6:  # SU(n)/SO(n)
        return "A", {"pair": 1}
    if family_id == 7:  # SU(2n)/Sp(n)
        return "A", {"pair": 4}
    if family_id == 8:  # SO(p+q)/SO(p)xSO(q)
        if excess == 0:
            return "D", {"pair": 1}
        return "B", {"pair": 1, "short": excess}
    if family_id == 9:  # SO(2n)/U(n), rank floor(n/2), excess = n mod 2
        if excess == 0:
            return "C", {"pair": 4, "long": 1}
        return "BC", {"pair": 4, "short": 4, "long": 1}
    if family_id == 10:  # Sp(p+q)/Sp(p)xSp(q)
        if excess == 0:
            return "C", {"pair": 4, "long": 3}
        return "BC", {"pair": 4, "short": 4 * excess, "long": 3}
    if family_id == 11:  # Sp(n)/U(n)
        return "C", {"pair": 1, "long": 1}
    raise ValueError(f"unsupported symmetric-pair family {family_id}")


def build_symmetric_pair(family_id: int, rank: int, excess: int = 1) -> RestrictedPairData:
    """Restricted data for one of the classical rows.

    ``excess`` is the second shape parameter where the row has one (the
    difference q - p for the two-block rows, the parity of n for row 9);
    rows without one ignore it.
    """
    if rank < 0:
        raise ValueError("rank must be >= 0")
    if family_id not in range(1, 12):
        raise ValueError(f"unsupported symmetric-pair family {family_id}")
    if excess < 0:
        raise ValueError("excess must be >= 0")
    if rank == 0:
        # fully degenerate row: no restricted roots, no class-1 generators
        return RestrictedPairData(family_id, 0, "A", (), (), frozenset(), ())
    rtype, mults = _family_data(family_id, rank, excess)
    if rtype == "D" and rank < 2:
        # degenerate fork; realize rank 1 as the single short-rootless A_1
        rtype, mults = "A", {"pair": mults["pair"]}
    simple = _simple_roots(rtype, rank)
    positive = _restricted_roots(rtype, rank, mults)
    rootset = {v for v, _ in positive}
    doubled = frozenset(
        i for i, psi in enumerate(simple) if tuple(2 * x for x in psi) in rootset
    )
    class_one = _solve_class_one(simple, doubled)
    return RestrictedPairData(
        family_id, rank, rtype, simple, positive, doubled, class_one
    )


def _solve_class_one(simple, doubled):
    """Solve <xi_i, psi_j>/<psi_j, psi_j> = delta_ij (2*delta on doubled)."""
    n = len(simple[0])
    rows = [list(psi) for psi in simple]
    # coordinates orthogonal to the span get pinned to zero (A-type ambient)
    complement = nullspace(rows, ncols=n)
    out = []
    for i in range(len(simple)):
        mat = [list(psi) for psi in simple] + [list(v) for v in complement]
        rhs = []
        for j, psi in enumerate(simple):
            target = Fraction(0)
            if i == j:
                target = fr(dot(psi, psi)) * (2 if i in doubled else 1)
            rhs.append(target)
        rhs += [Fraction(0)] * len(complement)
        out.append(tuple(solve(mat, rhs)))
    return tuple(out)


def cartan_helgason_filter(pair: RestrictedPairData, lam) -> bool:
    """Is ``lam`` (restricted epsilon coordinates) a nonnegative integer
    combination of the class-1 generators?"""
    lam = tuple(map(fr, lam))
    cols = list(zip(*pair.class_one_weights))
    try:
        coeffs = solve([list(c) for c in cols], list(lam))
    except ValueError:
        return False
    return all(c.denominator == 1 and c >= 0 for c in coeffs)


# ---------------------------------------------------------------------------
# sphere model: harmonic polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarmonicSpace:
    ambient_dim: int
    degree: int
    basis: tuple  # MultiPoly, rational coefficients
    gram: tuple  # exact Gram matrix under the normalized sphere measure

    @property
    def dim(self) -> int:
        return len(self.basis)


def harmonic_dimension(n_ambient: int, degree: int) -> int:
    if degree == 0:
        return 1
    if degree == 1:
        return n_ambient
    return comb(n_ambient + degree - 1, degree) - comb(n_ambient + degree - 3, degree - 2)


def laplacian(p: MultiPoly) -> MultiPoly:
    out = MultiPoly.zero(p.nvars)
    for i in range(p.nvars):
        out = out + p.diff(i).diff(i)
    return out


@lru_cache(maxsize=None)
def sphere_moment(exponents) -> Fraction:
    """Normalized moment of a monomial over S^{N-1}: zero unless every
    exponent is even, else prod (2c_i - 1)!! / prod_{j<=|c|} (N + 2j - 2)."""
    n = len(exponents)
    if any(e % 2 for e in exponents):
        return Fraction(0)
    cs = [e // 2 for e in exponents]
    total = sum(cs)
    num = 1
    for c in cs:
        for k in range(1, 2 * c, 2):
            num *= k
    den = 1
    for j in range(1, total + 1):
        den *= n + 2 * j - 2
    return Fraction(num, den)


def sphere_inner_product(p: MultiPoly, q: MultiPoly) -> Fraction:
    total = Fraction(0)
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            total += c1 * c2 * sphere_moment(tuple(a + b for a, b in zip(m1, m2)))
    return total


@lru_cache(maxsize=None)
def harmonic_basis(n_ambient: int, degree: int) -> HarmonicSpace:
    """Kernel of the Laplacian on degree-d forms, with its exact sphere Gram."""
    if n_ambient < 1 or degree < 0:
        raise ValueError("need ambient dimension >= 1 and degree >= 0")
    monos = monomials(n_ambient, degree)
    lower = monomials(n_ambient, degree - 2) if degree >= 2 else []
    lower_index = {m: i for i, m in enumerate(lower)}
    # Laplacian as a matrix from degree-d to degree-(d-2) coefficients
    rows = [[Fraction(0)] * len(monos) for _ in lower]
    for col, mono in enumerate(monos):
        lap = laplacian(MultiPoly(n_ambient, {mono: 1}))
        for m, c in lap.terms.items():
            rows[lower_index[m]][col] = c
    kernel = nullspace(rows, ncols=len(monos)) if rows else [
        [Fraction(int(i == j)) for j in range(len(monos))] for i in range(len(monos))
    ]
    basis = tuple(
        MultiPoly(n_ambient, {m: c for m, c in zip(monos, vec) if c}) for vec in kernel
    )
    gram = tuple(
        tuple(sphere_inner_product(p, q) for q in basis) for p in basis
    )
    return HarmonicSpace(n_ambient, degree, basis, gram)


def zonal_vector(space: HarmonicSpace, axis: int = 0) -> MultiPoly:
    """The unique harmonic fixed by the rotations of the non-axis
    coordinates, normalized positive at the pole."""
    if not 0 <= axis < space.ambient_dim:
        raise ValueError("axis is not one of the ambient coordinates")
    others = [i for i in range(space.ambient_dim) if i != axis]
    monos = monomials(space.ambient_dim, space.degree)
    # kernel of the adjacent rotation generators L_ij = x_i d_j - x_j d_i
    # among the non-axis coordinates, stacked into one monomial-coordinate
    # matrix; they generate so(N-1) as a Lie algebra, so their common kernel
    # is that of every L_ij
    big = []
    for i, j in zip(others, others[1:]):
        xi = MultiPoly.variable(space.ambient_dim, i)
        xj = MultiPoly.variable(space.ambient_dim, j)
        images = [xi * p.diff(j) - xj * p.diff(i) for p in space.basis]
        for m in monos:
            row = [img.terms.get(m, Fraction(0)) for img in images]
            if any(row):
                big.append(row)
    if big:
        kern = nullspace(big, ncols=space.dim)
    else:
        kern = [[Fraction(int(i == j)) for j in range(space.dim)] for i in range(space.dim)]
    if len(kern) != 1:
        raise ArithmeticError(f"zonal subspace has dimension {len(kern)}, expected 1")
    coeffs = kern[0]
    zonal = MultiPoly.zero(space.ambient_dim)
    for c, p in zip(coeffs, space.basis):
        zonal = zonal + p.scale(c)
    pole = [Fraction(0)] * space.ambient_dim
    pole[axis] = Fraction(1)
    val = zonal.eval(pole)
    if val == 0:
        raise ArithmeticError("zonal vector vanishes at the pole")
    return zonal.scale(1 / val)


@lru_cache(maxsize=None)
def _zonal_poly(n_sphere: int, degree: int) -> MultiPoly:
    return zonal_vector(harmonic_basis(n_sphere + 1, degree))


def _embed(poly: MultiPoly, n_ambient: int) -> MultiPoly:
    if poly.nvars > n_ambient:
        raise ValueError("cannot embed into fewer variables")
    pad = n_ambient - poly.nvars
    return MultiPoly(n_ambient, {m + (0,) * pad: c for m, c in poly.terms.items()})


def zonal_projection_csq(m_sphere: int, n_sphere: int, degree: int) -> Fraction:
    """Exact square of the projection constant between the unit zonal
    vectors of S^m and S^n (n <= m), with the smaller harmonic space carried
    into the larger one by polynomial inclusion and renormalization."""
    if not (m_sphere >= n_sphere >= 1):
        raise ValueError("need m >= n >= 1")
    if degree == 0:
        return Fraction(1)
    zm = _zonal_poly(m_sphere, degree)
    zn = _embed(_zonal_poly(n_sphere, degree), m_sphere + 1)
    cross = sphere_inner_product(zm, zn)
    nm = sphere_inner_product(zm, zm)
    nn = sphere_inner_product(zn, zn)
    return (cross * cross) / (nm * nn)


def zonal_projection_constant(m_sphere: int, n_sphere: int, degree: int,
                              method: str = "exact") -> float:
    """|<w_m, w_n>| between unit zonal vectors; always in (0, 1].

    method 'exact' squares to a rational number; 'quadrature' integrates on
    S^m with a product rule; 'gegenbauer' reduces to a two-variable weighted
    integral of Gegenbauer polynomials.
    """
    if method == "exact":
        return math.sqrt(float(zonal_projection_csq(m_sphere, n_sphere, degree)))
    if method == "quadrature":
        return _zonal_constant_quadrature(m_sphere, n_sphere, degree)
    if method == "gegenbauer":
        return _zonal_constant_gegenbauer(m_sphere, n_sphere, degree)
    raise ValueError(f"unknown method {method!r}")


def _zonal_constant_quadrature(m_sphere, n_sphere, degree):
    if degree == 0:
        return 1.0
    zm = _zonal_poly(m_sphere, degree)
    zn = _embed(_zonal_poly(n_sphere, degree), m_sphere + 1)
    fm = _poly_to_callable(zm)
    fn = _poly_to_callable(zn)
    order = degree + 2
    cross = numerics.integrate_sphere(lambda p: fm(p) * fn(p), m_sphere + 1, order)
    nm = numerics.integrate_sphere(lambda p: fm(p) ** 2, m_sphere + 1, order)
    nn = numerics.integrate_sphere(lambda p: fn(p) ** 2, m_sphere + 1, order)
    return abs(cross) / math.sqrt(nm * nn)


def _poly_to_callable(p: MultiPoly):
    """Float evaluator of ``p`` over coordinate rows: ``x[i]`` holds
    coordinate i, as a number or as an array of points."""
    terms = [(m, float(c)) for m, c in p.terms.items()]

    def f(x):
        total = 0.0
        for mono, coef in terms:
            v = coef
            for e, xi in zip(mono, x):
                if e:
                    v *= xi ** e
            total += v
        return total

    return f


def _gegenbauer_value(alpha: float, degree: int, x: float) -> float:
    """C_d^{(alpha)}(x) by the three-term recurrence; for alpha = 0 (two-
    dimensional zonal circle case) uses the Chebyshev limit."""
    if degree == 0:
        return 1.0
    if alpha == 0.0:
        return math.cos(degree * math.acos(max(-1.0, min(1.0, x))))
    prev, cur = 1.0, 2 * alpha * x
    for k in range(2, degree + 1):
        prev, cur = cur, (2 * (k + alpha - 1) * x * cur - (k + 2 * alpha - 2) * prev) / k
    return cur


def _zonal_on_sphere(n_sphere: int, degree: int, s: float, rho_sq: float) -> float:
    """Value of the degree-d zonal of S^n at a point with pole coordinate s
    and squared length rho_sq of the remaining n zonal-frame coordinates.

    The zonal polynomial is homogeneous, z(x) = r^d C(x1/r)/C(1) with
    r^2 = s^2 + rho^2, so points of S^m with m > n evaluate through the
    radius of their projection.
    """
    alpha = (n_sphere - 1) / 2.0
    r2 = s * s + rho_sq
    if r2 == 0:
        return 0.0
    r = math.sqrt(r2)
    return (r ** degree) * _gegenbauer_value(alpha, degree, s / r) / _gegenbauer_value(alpha, degree, 1.0)


def _zonal_constant_gegenbauer(m_sphere, n_sphere, degree):
    """Projection constant through the (s, u) reduction.

    On S^m split x = (s, y, w) with y the n zonal-frame coordinates of the
    smaller sphere; with u = |y|^2/(1 - s^2) the normalized measure
    factorizes into Jacobi weights in s and in u.
    """
    if degree == 0:
        return 1.0
    if m_sphere == n_sphere:
        rule = numerics.gauss_jacobi(degree + 4, (m_sphere - 2) / 2.0, (m_sphere - 2) / 2.0)
        zm = lambda s: _zonal_on_sphere(m_sphere, degree, s, 1 - s * s)
        zn = lambda s: _zonal_on_sphere(n_sphere, degree, s, 1 - s * s)
        cross = rule.integrate(lambda s: zm(s) * zn(s))
        nm = rule.integrate(lambda s: zm(s) ** 2)
        nn = rule.integrate(lambda s: zn(s) ** 2)
        return abs(cross) / math.sqrt(nm * nn)
    a = (m_sphere - 2) / 2.0
    srule = numerics.gauss_jacobi(degree + 4, a, a)
    # u = |y|^2 / (1-s^2) in [0, 1]; density u^{n/2-1} (1-u)^{(m-n)/2-1}
    # after v = 2u - 1 this is Gauss-Jacobi with alpha=(m-n)/2-1, beta=n/2-1
    urule = numerics.gauss_jacobi(degree + 4, (m_sphere - n_sphere) / 2.0 - 1, n_sphere / 2.0 - 1)

    def pair_integral(f):
        total = 0.0
        for s, ws in zip(srule.nodes, srule.weights):
            inner = 0.0
            for v, wu in zip(urule.nodes, urule.weights):
                u = (v + 1) / 2.0
                rho_sq = u * (1 - s * s)
                inner += wu * f(s, rho_sq)
            total += ws * inner
        return total

    zm = lambda s, rho_sq: _zonal_on_sphere(m_sphere, degree, s, (1 - s * s))
    zn = lambda s, rho_sq: _zonal_on_sphere(n_sphere, degree, s, rho_sq)
    cross = pair_integral(lambda s, r2: zm(s, r2) * zn(s, r2))
    nm = pair_integral(lambda s, r2: zm(s, r2) ** 2)
    nn = pair_integral(lambda s, r2: zn(s, r2) ** 2)
    return abs(cross) / math.sqrt(nm * nn)


def gram_to_csv(space: HarmonicSpace, path) -> None:
    """Exact Gram matrix as CSV, one row per harmonic basis vector."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in space.gram:
            fh.write(",".join(str(x) for x in row) + "\n")
