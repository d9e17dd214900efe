"""Bargmann space model of the square-integrable Heisenberg representations:
group arithmetic, truncated displacement operators, matrix coefficients by
the normal-ordered series, orthogonality integrals, and the weighted-monomial
regular functions with their exact norms.

Conventions.  A group element is (z, w) with z real (the central coordinate)
and w in C^n, multiplying as (z,w)(z',w') = (z + z' + Im<w,w'>, w + w') where
<w,w'> = sum_j w_j conj(w'_j).  For the central parameter t != 0 the
normalized monomials mu_m = |t|^{|m|/2} w^m / sqrt(m!) are orthonormal, and
in that basis the ladder matrices are t-independent; the operator for (z,w)
is the central phase e^{itz} times exp(alpha . a^+ - conj(alpha) . a) with
alpha = sqrt(t) w for t > 0 and sqrt(|t|) conj(w) for t < 0.

The truncation |m| <= cutoff is invariant under the substitution action
Gamma(U) of U(n) (a_j^+ -> sum_i U_ij a_i^+), which preserves degree.  So
with r = |alpha| and U unitary with U e_1 = alpha/r the truncated operator
is Gamma(U) exp(r(a_1^+ - a_1)) Gamma(U)^*: the same truncated object as the
exponential of the full truncated generator (Perelomov, Generalized Coherent
States and Their Applications, ch. 1).  E = exp(r(a_1^+ - a_1)) acts on
one-mode chains (k, tail); each chain length L has a cached eigenbasis of the
Hermite Jacobi matrix a + a^+, so exp(r(a^+ - a)) = W diag(e^{-i r lam}) W^*
(the discrete variable representation).  U = P O with P = diag(e^{i theta_j})
the phases of alpha and O real, O e_1 = |alpha|/r: Gamma(P) multiplies |m> by
e^{i m.theta}, and R = Gamma(O) E Gamma(O)^T is real.  In float64, Gamma(O) is
gathered row-wise along the creation operators, and R = Gamma(O) (E Gamma(O)^T)
by one row gather per chain length and one pass over contiguous degree rows.

Truncated generators stay exactly skew-Hermitian, so truncated operators are
exactly unitary up to rounding; what truncation limits is the group law,
which is only reproduced on degrees well below the cutoff and for
displacement amplitudes |t| |w|^2 small against the cutoff.  Matrix
coefficients do not go through the truncation: each one factors over the
coordinates into the closed normal-ordered series, exact at any displacement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import numerics
from .exact import Record, monomials


class HeisenbergPoint(Record):
    def __init__(self, z: float, w: tuple):
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return len(self.w)


def heis_mul(g: HeisenbergPoint, h: HeisenbergPoint) -> HeisenbergPoint:
    if g.n != h.n:
        raise ValueError("dimension mismatch")
    cross = sum(a * b.conjugate() for a, b in zip(g.w, h.w))
    return HeisenbergPoint(g.z + h.z + cross.imag, tuple(a + b for a, b in zip(g.w, h.w)))


# ---------------------------------------------------------------------------
# truncated basis and operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def multi_indices(n: int, cutoff: int):
    """All multi-indices with |m| <= cutoff in degree-major order, heads
    descending within a degree (the operator row and column order)."""
    return tuple(m for d in range(cutoff + 1) for m in monomials(n, d))


@lru_cache(maxsize=None)
def _ladder_matrices(length: int):
    """Creation matrix a^+ on the one-mode chain of the given length, sqrt(k)
    on the subdiagonal (annihilation is the transpose): the chain generator
    behind ``_chain_eigen``."""
    return _frozen(np.diag(np.sqrt(np.arange(1.0, length)), -1))


def _frozen(a):
    """``a`` made read-only in place: a cached array is shared by every
    later call, so no caller may write into it."""
    a.flags.writeable = False
    return a


class FockOperator(Record):
    def __init__(self, matrix: np.ndarray):
        object.__setattr__(self, "matrix", matrix)


def check_t(t) -> None:
    """Reject a central parameter t that is zero or not finite."""
    if t == 0:
        raise ValueError("t must be nonzero")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")


def _alpha(t: float, w) -> tuple:
    s = math.sqrt(abs(t))
    if t > 0:
        return tuple(s * x for x in w)
    return tuple(s * x.conjugate() for x in w)


def fock_operator(n: int, t: float, g: HeisenbergPoint, cutoff: int) -> FockOperator:
    """Matrix of the representation at g over the truncated monomial basis.

    Central elements come out exactly scalar.  For displaced elements the
    reliable block is degrees <= cutoff - buffer with |t| |w|^2 well below
    the cutoff; the guard below rejects amplitudes past cutoff/2.
    """
    check_t(t)
    if g.n != n:
        raise ValueError("dimension mismatch")
    phase = complex(math.cos(t * g.z), math.sin(t * g.z))
    dim = len(multi_indices(n, cutoff))
    if not any(abs(x) for x in g.w):
        return FockOperator(phase * np.eye(dim, dtype=complex))
    amp = abs(t) * sum(abs(x) ** 2 for x in g.w)
    if amp > cutoff / 2:
        raise ValueError(
            f"displacement amplitude {amp:.3g} too large for cutoff {cutoff}"
        )
    alpha = np.array(_alpha(t, g.w))
    moduli = np.abs(alpha)
    r = math.hypot(*moduli)
    # O e_1 = |alpha| / r by a real division: numpy divides complex numbers
    # through 1/r, which overflows for a subnormal displacement
    bounds, parents, chains, index = _rotation_structure(n, cutoff)
    blocks = _rotation_blocks(_first_column_unitary(moduli / r), parents)
    spans = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    gt = np.zeros((dim, dim))
    for span, gam in zip(spans, blocks):
        gt[span, span] = gam.T
    # R: row (k, tail) of E mixes only the Gamma^T rows of its own chain, so
    # each chain length is one row gather; then Gamma(O) by degree blocks
    mat = np.empty((dim, dim))
    for length, rows in chains:
        lam, w = _chain_eigen(length)
        chain_exp = ((w * np.exp(-1j * r * lam)) @ w.conj().T).real
        mat[rows] = chain_exp @ gt[rows]
    del gt
    for span, gam in zip(spans, blocks):
        mat[span] = gam @ mat[span]
    f = np.exp(1j * (index @ np.angle(alpha)))
    out = np.multiply.outer(phase * f, f.conj())
    out *= mat
    return FockOperator(out)


@lru_cache(maxsize=None)
def _chain_eigen(length):
    """(lam, W) with exp(r (a^+ - a)) = W diag(e^{-i r lam}) W^* on the
    one-mode chain of the given length.

    With D = diag(i^k), D^* (a^+ - a) D = -i X for the Hermite Jacobi matrix
    X = a + a^+, so W = D V for (lam, V) = eigh(X): Golub-Welsch for Hermite,
    the discrete variable representation of Light, Hamilton & Lill (J. Chem.
    Phys. 82, 1985).
    """
    a = _ladder_matrices(length)
    lam, v = np.linalg.eigh(a + a.T)
    # one Newton-Schulz step: eigh leaves V orthogonal to about L eps only
    v = v @ (1.5 * np.eye(length) - 0.5 * (v.T @ v))
    powers = np.array([1, 1j, -1, -1j])[np.arange(length) % 4]
    return _frozen(lam), _frozen(powers[:, None] * v)


@lru_cache(maxsize=None)
def _rotation_structure(n, cutoff):
    """Index structure of the mode-rotation route at (n, cutoff).

    bounds[d]:bounds[d+1] is the degree-d block of ``multi_indices``.
    parents[d-1] holds, for the degree-d monomials m in order, the first
    nonzero mode j of m, the position of m - e_j inside the degree d-1 block
    and sqrt(m_j); then, for each mode i, the position of m - e_i inside the
    degree d-1 block and sqrt(m_i) (position 0 and weight 0 where m_i = 0).
    chains pairs each length L with the positions of (k, tail), k < L, one
    row per tail (m_2, ..., m_n) with cutoff - |tail| + 1 = L.  index holds
    ``multi_indices`` as an integer array.
    """
    idx = multi_indices(n, cutoff)
    pos = {m: i for i, m in enumerate(idx)}
    degrees = [sum(m) for m in idx]
    bounds = [degrees.index(d) for d in range(cutoff + 1)] + [len(idx)]
    parents = []
    for d in range(1, cutoff + 1):
        block = idx[bounds[d]:bounds[d + 1]]
        src = np.zeros((n, len(block)), dtype=np.intp)
        coef = np.zeros((n, len(block)))
        for c, m in enumerate(block):
            for i in range(n):
                if m[i]:
                    src[i, c] = pos[m[:i] + (m[i] - 1,) + m[i + 1:]] - bounds[d - 1]
                    coef[i, c] = math.sqrt(m[i])
        modes = (coef > 0).argmax(axis=0)
        cols = np.arange(len(block))
        parents.append(tuple(map(_frozen, (modes, src[modes, cols], coef[modes, cols],
                                           src, coef))))
    chains = {}
    for m in idx:
        if m[0] == 0:
            length = cutoff - sum(m) + 1
            chains.setdefault(length, []).append(
                [pos[(k,) + m[1:]] for k in range(length)])
    return (tuple(bounds), tuple(parents),
            tuple((length, _frozen(np.array(rows))) for length, rows in sorted(chains.items())),
            _frozen(np.array(idx)))


def _first_column_unitary(v):
    """A real orthogonal O with O e_1 = v for a unit vector v with v_1 >= 0:
    minus the Householder reflection exchanging e_1 and -v."""
    u = np.r_[1 + v[0], v[1:]]
    return np.outer(u, u) / u[0] - np.eye(len(v))


def _rotation_blocks(u, parents):
    """Degree blocks of Gamma(U), the substitution a_j^+ -> sum_i U_ij a_i^+,
    by Gamma|m> = (sum_i U_ij a_i^+) Gamma|m - e_j> / sqrt(m_j) with j the
    first nonzero mode of m.  a_i^+ sends row p - e_i of degree d-1 to row p
    of degree d with weight sqrt(p_i), so each term is a row gather."""
    blocks = [np.ones((1, 1), dtype=u.dtype)]
    for modes, ups, roots, src, coef in parents:
        prev = blocks[-1][:, ups]
        weights = u[:, modes] / roots
        blocks.append(sum(c[:, None] * prev[s] * wt
                          for s, c, wt in zip(src, coef, weights)))
    return blocks


# ---------------------------------------------------------------------------
# matrix coefficients (normal-ordered series)
# ---------------------------------------------------------------------------


def matrix_coefficient(t: float, left, right, g: HeisenbergPoint) -> complex:
    """<mu_left, pi_t(g) mu_right> by the normal-ordered series: the central
    phase times, per coordinate, e^{-|alpha_j|^2/2} G(alpha_j) (Cahill &
    Glauber, Phys. Rev. 177, 1969), exact at any displacement."""
    if len(left) != g.n or len(right) != g.n:
        raise ValueError("index length must match the point dimension")
    check_t(t)
    val = complex(math.cos(t * g.z), math.sin(t * g.z))
    for l, m, al in zip(left, right, _alpha(t, g.w)):
        val *= math.exp(-abs(al) ** 2 / 2) * _displacement_polypart(l, m, al)
    return val


def _displacement_polypart(l: int, m: int, alpha: complex) -> complex:
    """G with <l| D(alpha) |m> = e^{-|alpha|^2/2} G(alpha); a finite sum from
    the normally ordered exponentials."""
    total = 0.0 + 0.0j
    sql = math.sqrt(math.factorial(l) * math.factorial(m))
    for j in range(max(0, m - l), m + 1):
        total += (
            ((-alpha.conjugate()) ** j)
            * (alpha ** (l - m + j))
            / (math.factorial(j) * math.factorial(l - m + j) * math.factorial(m - j))
        )
    return sql * total


# ---------------------------------------------------------------------------
# orthogonality integrals
# ---------------------------------------------------------------------------


def coefficient_inner_product(t: float, pair_left, pair_right) -> complex:
    """L^2 pairing of two matrix coefficients over C^n (the group modulo its
    center), by Gauss-Hermite product quadrature.

    pair_left and pair_right are ((l, m)) index pairs; the integrand
    factorizes over coordinates, so each coordinate contributes one plane
    integral, run through the node-doubling protocol.
    """
    (l1, m1), (l2, m2) = pair_left, pair_right
    n = len(l1)
    if not (len(m1) == len(l2) == len(m2) == n):
        raise ValueError("index lengths disagree")
    check_t(t)
    total = 1.0 + 0.0j
    for j in range(n):
        total *= _coordinate_pairing(t, l1[j], m1[j], l2[j], m2[j])
    return total


def _coordinate_pairing(t, l1, m1, l2, m2):
    """integral_C d_{l1 m1}(alpha(w)) conj(d_{l2 m2}(alpha(w))) dw.

    Substituting u = alpha(w) makes the Gaussian weight exactly the Hermite
    weight, leaving the polynomial parts G, and turns dw into du / |t|: each
    order's value is a t-free grid sum (``_grid_pairing``) over |t|.
    """

    def at_order(order):
        return _grid_pairing(l1, m1, l2, m2, order) / abs(t), 0.0

    # pairings are bounded by the diagonal value ~ pi/|t| (Cauchy-Schwarz),
    # so agreement is judged against that scale; a vanishing integral would
    # otherwise never stabilize in purely relative terms
    return numerics._doubling(at_order, max_order=256, floor=1.0 / abs(t))


@lru_cache(maxsize=None)
def _grid_pairing(l1, m1, l2, m2, order):
    """sum over the order x order Hermite grid u = x + iy of
    G_{l1 m1}(u) conj(G_{l2 m2}(u)), weighted by w_x w_y."""
    x, w = numerics.gauss_hermite(order)
    u = x[:, None] + 1j * x[None, :]
    vals = _displacement_polypart(l1, m1, u) * \
        _displacement_polypart(l2, m2, u).conjugate()
    return complex(w @ vals @ w)


# ---------------------------------------------------------------------------
# regular functions
# ---------------------------------------------------------------------------


def regular_norm_sq(n: int, k: int):
    """(quadrature, exact) values of (k+n)!/2^{k+n}, in the order of
    ``numerics.gamma_moment``."""
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    return numerics.gamma_moment(k + n)


def _add_into(acc, key, coeffs):
    """Add the coefficient tuple ``coeffs`` to ``acc[key]``, padding the
    shorter of the two with zeros."""
    merged = list(acc.get(key, ()))
    merged += [0] * (len(coeffs) - len(merged))
    for i, c in enumerate(coeffs):
        merged[i] = merged[i] + c
    acc[key] = tuple(merged)


class RegularFunction(Record):
    """Finite combination of e^{-|t|} p(t) mu_m (x) conj(mu_{m'}).

    terms maps (m, m') index pairs to polynomial coefficient tuples in t.
    """

    def __init__(self, n: int, terms: tuple):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)  # ((m, m'), coeffs) pairs, exact or float

    @classmethod
    def zero(cls, n):
        return cls(n, ())

    @classmethod
    def from_term(cls, n, poly_coeffs, m, mprime):
        m, mprime = tuple(m), tuple(mprime)
        if len(m) != n or len(mprime) != n:
            raise ValueError("index length mismatch")
        return cls(n, (((m, mprime), tuple(poly_coeffs)),))

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        acc = {}
        for key, coeffs in self.terms + other.terms:
            _add_into(acc, key, coeffs)
        return RegularFunction(self.n, tuple(sorted(acc.items())))

    def eval(self, t: float, g: HeisenbergPoint) -> complex:
        if g.n != self.n:
            raise ValueError("dimension mismatch")
        total = 0.0 + 0.0j
        damp = math.exp(-abs(t))
        for (m, mprime), coeffs in self.terms:
            p = sum(float(c) * t ** i for i, c in enumerate(coeffs))
            total += damp * p * matrix_coefficient(t, m, mprime, g)
        return total


def regular_gram(n: int, monomial_terms):
    """Exact Gram matrix of e^{-|t|} t^k mu_m (x) conj(mu_{m'}) functions in
    the weighted central integral.

    monomial_terms is a list of (k, m, m'); distinct (m, m') pairs are
    orthogonal, and within a pair the entries are the signed moments
    integral e^{-2|t|} t^{k+j} |t|^n dt (zero for odd k+j).
    """
    size = len(monomial_terms)
    gram = [[Fraction(0)] * size for _ in range(size)]
    for i, (k1, m1, p1) in enumerate(monomial_terms):
        for j, (k2, m2, p2) in enumerate(monomial_terms):
            if (tuple(m1), tuple(p1)) != (tuple(m2), tuple(p2)):
                continue
            power = k1 + k2
            if power % 2 == 1:
                continue
            gram[i][j] = Fraction(math.factorial(power + n), 2 ** (power + n))
    return gram
