"""Restricted root data for the classical compact symmetric pairs, class-1
weight generators, and a fully concrete sphere model (harmonic polynomials,
zonal vectors, projection constants).

The eleven pair families are shipped as data: restricted root system type
(A/B/C/D/BC) with root multiplicities as functions of the rank and, where the
family has two size parameters, of their difference.  Roots, simple roots
and fundamental weights are those of ``rootsys`` (BC is B plus the roots
2e_i); the class-1 generators are twice the fundamental weights, four times
on indices whose doubled simple root is again a restricted root.

The sphere model is exact end to end: harmonic polynomials with rational
coefficients, sphere moments as closed-form rationals, zonal vectors in the
Gegenbauer closed form (a two-term recurrence on rational coefficients), and
projection constants whose squares are rational numbers, read off the
reproducing-kernel closed form.  The two float routes to the constants stay
independent of it: sphere product quadrature of the monomial-expanded zonal
polynomials, which integrates the cross and both norms as three stacked rows
of one rule, and a Gegenbauer reduction to a two-variable Jacobi integral,
which evaluates each zonal once on the flattened (s, u) product grid of two
Gauss-Jacobi rules (a one-node u rule when the spheres agree).  Both routes
sum their rows with numpy's pairwise reduction, never through BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from . import numerics, rootsys
from .exact import MultiPoly, dot, fr, monomials, nullspace, solve

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
    # BC_l is B_l together with the roots 2e_i, the last l positive roots of C_l
    rs = rootsys.build_root_system("B" if rtype == "BC" else rtype, rank)
    roots = rs.positive_roots
    if rtype == "BC":
        roots += rootsys.build_root_system("C", rank).positive_roots[-rank:]
    # squared length 2, 1, 4 reads e_i +- e_j, e_i, 2e_i
    kind = {2: "pair", 1: "short", 4: "long"}
    positive = tuple((alpha, mults[kind[dot(alpha, alpha)]]) for alpha in roots)
    doubled = frozenset(
        i for i, psi in enumerate(rs.simple_roots) if tuple(2 * x for x in psi) in roots
    )
    # <xi_i, psi_j^vee> = 2 delta_ij, doubled to 4 where 2 psi_i is a root
    class_one = tuple(
        tuple((4 if i in doubled else 2) * x for x in omega)
        for i, omega in enumerate(rs.fundamental_weights)
    )
    return RestrictedPairData(
        family_id, rank, rtype, rs.simple_roots, positive, doubled, class_one
    )


def cartan_helgason_filter(pair: RestrictedPairData, lam) -> bool:
    """Is ``lam`` (restricted epsilon coordinates) a nonnegative integer
    combination of the class-1 generators?  On a rank-0 pair only the zero
    weight is."""
    lam = tuple(map(fr, lam))
    if not pair.class_one_weights:
        return not any(lam)
    if len(lam) != len(pair.class_one_weights[0]):
        raise ValueError(f"weight {lam} does not have the length of the class-1 weights")
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
    """Kernel of the Laplacian on degree-d forms."""
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
    kernel = nullspace(rows, ncols=len(monos))
    basis = tuple(
        MultiPoly(n_ambient, {m: c for m, c in zip(monos, vec) if c}) for vec in kernel
    )
    return HarmonicSpace(n_ambient, degree, basis)


def zonal_vector(space: HarmonicSpace, axis: int = 0) -> MultiPoly:
    """The unique harmonic fixed by the rotations of the non-axis
    coordinates, scaled to 1 at the pole: the Gegenbauer closed form of
    ``_zonal_poly`` with variables 0 and ``axis`` swapped."""
    if not 0 <= axis < space.ambient_dim:
        raise ValueError("axis is not one of the ambient coordinates")
    order = list(range(space.ambient_dim))
    order[0], order[axis] = axis, 0
    zonal = _zonal_poly(space.ambient_dim - 1, space.degree)
    return MultiPoly(space.ambient_dim,
                     {tuple(m[i] for i in order): c for m, c in zonal.terms.items()})


@lru_cache(maxsize=None)
def _zonal_poly(n_sphere: int, degree: int) -> MultiPoly:
    """Degree-d zonal harmonic of S^n about x0, scaled to 1 at the pole: the
    Gegenbauer polynomial C_d^((N-2)/2), N = n + 1, made homogeneous,
    sum_k a_k x0^(d-2k) |x'|^(2k) with a_0 = 1 and the recurrence
    a_{k+1} = -a_k (d-2k)(d-2k-1) / (2(k+1)(2k+N-1)) (Stein & Weiss, ch. IV)."""
    n_ambient = n_sphere + 1
    dim = harmonic_dimension(n_ambient, degree)
    if n_ambient <= 2 and dim != 1:  # SO(N-1) is trivial: every harmonic is zonal
        raise ArithmeticError(f"zonal subspace has dimension {dim}, expected 1")
    a = [Fraction(1)]
    for k in range(degree // 2):
        a.append(-a[k] * (degree - 2 * k) * (degree - 2 * k - 1)
                 / (2 * (k + 1) * (2 * k + n_ambient - 1)))
    terms = {}
    for mono in monomials(n_ambient, degree):
        if all(e % 2 == 0 for e in mono[1:]):
            # x0^(d-2k) prod x_i^(2 mu_i), |mu| = k: a_k times a multinomial of |x'|^(2k)
            mu = [e // 2 for e in mono[1:]]
            k = sum(mu)
            terms[mono] = a[k] * (math.factorial(k) // math.prod(map(math.factorial, mu)))
    return MultiPoly(n_ambient, terms)


def _embed(poly: MultiPoly, n_ambient: int) -> MultiPoly:
    if poly.nvars > n_ambient:
        raise ValueError("cannot embed into fewer variables")
    pad = n_ambient - poly.nvars
    return MultiPoly(n_ambient, {m + (0,) * pad: c for m, c in poly.terms.items()})


def _check_zonal_args(m_sphere: int, n_sphere: int, degree: int) -> None:
    """Inputs every zonal-constant route accepts."""
    if not m_sphere >= n_sphere >= 1:
        raise ValueError(f"need m >= n >= 1, got m = {m_sphere}, n = {n_sphere}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree >= 1 and n_sphere < 2:
        raise ValueError("S^1 has no unique zonal vector at degree >= 1; need n >= 2")


def zonal_projection_csq(m_sphere: int, n_sphere: int, degree: int) -> Fraction:
    """Exact square of the projection constant between the unit zonal
    vectors of S^m and S^n (n <= m), with the smaller harmonic space carried
    into the larger one by polynomial inclusion and renormalization.

    Closed form from the reproducing kernel (Stein & Weiss, ch. IV): on
    S^m, <z_m, p> = p(pole) / dim H^d(R^(m+1)) for every degree-d harmonic
    p, the embedded z_n among them, and a degree-2d form in n + 1 variables
    has its S^m moments ((n+1)/2)_d / ((m+1)/2)_d times its S^n ones, so
    csq = dim H^d(R^(n+1)) / dim H^d(R^(m+1)) * ((m+1)/2)_d / ((n+1)/2)_d."""
    _check_zonal_args(m_sphere, n_sphere, degree)
    csq = Fraction(harmonic_dimension(n_sphere + 1, degree),
                   harmonic_dimension(m_sphere + 1, degree))
    for j in range(degree):
        csq *= Fraction(m_sphere + 1 + 2 * j, n_sphere + 1 + 2 * j)
    return csq


def zonal_projection_constant(m_sphere: int, n_sphere: int, degree: int,
                              method: str = "exact") -> float:
    """|<w_m, w_n>| between unit zonal vectors; always in (0, 1].

    method 'exact' squares to a rational number; 'quadrature' integrates on
    S^m with a product rule; 'gegenbauer' reduces to a two-variable weighted
    integral of Gegenbauer polynomials.
    """
    if method not in ("exact", "quadrature", "gegenbauer"):
        raise ValueError(f"unknown method {method!r}")
    _check_zonal_args(m_sphere, n_sphere, degree)
    if degree == 0:
        return 1.0
    if method == "exact":
        return math.sqrt(float(zonal_projection_csq(m_sphere, n_sphere, degree)))
    if method == "quadrature":
        return _zonal_constant_quadrature(m_sphere, n_sphere, degree)
    return _zonal_constant_gegenbauer(m_sphere, n_sphere, degree)


def _zonal_constant_quadrature(m_sphere, n_sphere, degree):
    """The overlap on one product rule of S^m, each zonal evaluated once:
    the rows vm*vn, vm*vm, vn*vn integrate together."""
    fm = _poly_to_callable(_zonal_poly(m_sphere, degree))
    fn = _poly_to_callable(_embed(_zonal_poly(n_sphere, degree), m_sphere + 1))

    def rows(x):
        vm, vn = fm(x), fn(x)
        return [vm * vn, vm * vm, vn * vn]

    cross, nm, nn = numerics.integrate_sphere(rows, m_sphere + 1, degree + 2)
    return abs(cross) / math.sqrt(nm * nn)


def _poly_to_callable(p: MultiPoly):
    """Float evaluator of ``p`` over coordinate rows: ``x[i]`` holds
    coordinate i, as a number or as an array of points.

    A monomial is its coefficient times its variables, each repeated as
    often as its exponent: numpy sends a float array to a power e >= 3
    through libm ``pow``, about a hundred times the cost of one product.
    After the first product each term is multiplied in place, so an array
    evaluation holds one term and the running sum at a time."""
    terms = [(float(c), [i for i, e in enumerate(m) for _ in range(e)])
             for m, c in p.terms.items()]

    def f(x):
        total = 0.0
        for coef, factors in terms:
            v = coef
            for i in factors:
                v *= x[i]
            total += v
        return total

    return f


def _gegenbauer_value(alpha: float, degree: int, x, r_sq):
    """r^d C_d^{(alpha)}(x/r) with r^2 = r_sq, alpha > 0, by the three-term
    recurrence in homogeneous form (r^2 where the plain recurrence has 1);
    ``x`` and ``r_sq`` may be arrays."""
    if degree == 0:
        return 1.0
    prev, cur = 1.0, 2 * alpha * x
    for k in range(2, degree + 1):
        prev, cur = cur, (2 * (k + alpha - 1) * x * cur - (k + 2 * alpha - 2) * r_sq * prev) / k
    return cur


def _zonal_on_sphere(n_sphere: int, degree: int, s, rho_sq):
    """Values of the degree-d zonal of S^n at points with pole coordinates s
    and squared lengths rho_sq of the remaining n zonal-frame coordinates.

    The zonal polynomial is homogeneous, z(x) = r^d C(x1/r)/C(1) with
    r^2 = s^2 + rho_sq, so points of S^m with m > n evaluate through the
    radius of their projection, with no square root taken.
    """
    alpha = (n_sphere - 1) / 2.0
    return (_gegenbauer_value(alpha, degree, s, s * s + rho_sq)
            / _gegenbauer_value(alpha, degree, 1.0, 1.0))


def _zonal_constant_gegenbauer(m_sphere, n_sphere, degree):
    """Projection constant through the (s, u) reduction.

    On S^m split x = (s, y, w) with y the n zonal-frame coordinates of the
    smaller sphere; with u = |y|^2/(1 - s^2) the normalized measure
    factorizes into Jacobi weights in s and in u; when m = n, u = 1 is the
    one node.  Each zonal is evaluated once on the flattened (s, u) grid, and
    the rows are summed as ``numerics.integrate_sphere`` sums them.
    """
    order = degree + 4
    a = (m_sphere - 2) / 2.0
    s_nodes, s_wts = numerics.gauss_jacobi(order, a, a)
    if m_sphere == n_sphere:
        u_nodes, u_wts = np.ones(1), np.ones(1)
    else:
        # density u^{n/2-1} (1-u)^{(m-n)/2-1} on [0, 1]; after v = 2u - 1
        # this is Gauss-Jacobi with alpha=(m-n)/2-1, beta=n/2-1
        v, u_wts = numerics.gauss_jacobi(order, (m_sphere - n_sphere) / 2.0 - 1,
                                         n_sphere / 2.0 - 1)
        u_nodes = (v + 1) / 2.0
    s = np.repeat(s_nodes, len(u_nodes))
    wts = np.outer(s_wts, u_wts).ravel()
    zm = _zonal_on_sphere(m_sphere, degree, s, 1 - s * s)
    zn = _zonal_on_sphere(n_sphere, degree, s, np.tile(u_nodes, len(s_nodes)) * (1 - s * s))
    cross, nm, nn = (float(np.add.reduce(wts * row)) for row in (zm * zn, zm * zm, zn * zn))
    return abs(cross) / math.sqrt(nm * nn)
