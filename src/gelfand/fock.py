"""Truncated Bargmann space model of the square-integrable Heisenberg
representations: group arithmetic, displacement operators, matrix
coefficients, orthogonality integrals, and the weighted-monomial regular
functions with their exact norms.

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
(the discrete variable representation).  The degree blocks of Gamma(U) are
built by row gathers along the creation operators, and the product is taken
as Gamma(U) (E Gamma(U)^*): one row gather per chain length, then one dense
pass over contiguous degree rows.

Truncated generators stay exactly skew-Hermitian, so truncated operators are
exactly unitary up to rounding; what truncation limits is the group law,
which is only reproduced on degrees well below the cutoff and for
displacement amplitudes |t| |w|^2 small against the cutoff.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import numerics
from .exact import gram_schmidt_norms, monomials


@dataclass(frozen=True)
class HeisenbergPoint:
    z: float
    w: tuple

    @property
    def n(self) -> int:
        return len(self.w)


def heis_identity(n: int) -> HeisenbergPoint:
    return HeisenbergPoint(0.0, (0j,) * n)


def heis_mul(g: HeisenbergPoint, h: HeisenbergPoint) -> HeisenbergPoint:
    if g.n != h.n:
        raise ValueError("dimension mismatch")
    cross = sum(a * b.conjugate() for a, b in zip(g.w, h.w))
    return HeisenbergPoint(g.z + h.z + cross.imag, tuple(a + b for a, b in zip(g.w, h.w)))


def heis_inv(g: HeisenbergPoint) -> HeisenbergPoint:
    return HeisenbergPoint(-g.z, tuple(-a for a in g.w))


# ---------------------------------------------------------------------------
# truncated basis and operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def multi_indices(n: int, cutoff: int):
    """All multi-indices with |m| <= cutoff in degree-major order, heads
    descending within a degree (the CSV row/column order)."""
    return tuple(m for d in range(cutoff + 1) for m in monomials(n, d))


@lru_cache(maxsize=None)
def _index_positions(n, cutoff):
    return {m: i for i, m in enumerate(multi_indices(n, cutoff))}


@lru_cache(maxsize=None)
def _ladder_matrices(n: int, cutoff: int):
    """Creation matrices a_j^+ on the truncated basis (annihilation is the
    conjugate transpose).

    The library reads only the one-mode matrix, the chain generator behind
    ``_chain_eigen``; the n-mode matrices serve the tests' full-generator
    oracle."""
    idx = multi_indices(n, cutoff)
    pos = _index_positions(n, cutoff)
    mats = []
    for j in range(n):
        a = np.zeros((len(idx), len(idx)))
        for col, m in enumerate(idx):
            if sum(m) == cutoff:
                continue
            up = list(m)
            up[j] += 1
            a[pos[tuple(up)], col] = math.sqrt(up[j])
        mats.append(a)
    return mats


@dataclass(frozen=True)
class FockVector:
    """Truncated coefficient vector over the normalized monomial basis."""

    n: int
    cutoff: int
    coeffs: np.ndarray

    @classmethod
    def basis_vector(cls, n, cutoff, index):
        pos = _index_positions(n, cutoff)
        if tuple(index) not in pos:
            raise ValueError("index beyond cutoff")
        arr = np.zeros(len(pos), dtype=complex)
        arr[pos[tuple(index)]] = 1.0
        return cls(n, cutoff, arr)

    @classmethod
    def from_coeffs(cls, n, cutoff, mapping):
        pos = _index_positions(n, cutoff)
        arr = np.zeros(len(pos), dtype=complex)
        for idx, val in dict(mapping).items():
            if tuple(idx) not in pos:
                raise ValueError("index beyond cutoff")
            arr[pos[tuple(idx)]] = val
        return cls(n, cutoff, arr)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def inner(self, other) -> complex:
        if (self.n, self.cutoff) != (other.n, other.cutoff):
            raise ValueError("vectors live in different truncations")
        return complex(np.vdot(self.coeffs, other.coeffs))


@dataclass(frozen=True)
class FockOperator:
    matrix: np.ndarray
    n: int
    t: float
    g: HeisenbergPoint
    cutoff: int

    def entry(self, left, right) -> complex:
        pos = _index_positions(self.n, self.cutoff)
        if tuple(left) not in pos or tuple(right) not in pos:
            raise ValueError("index beyond cutoff")
        return complex(self.matrix[pos[tuple(left)], pos[tuple(right)]])

    def apply(self, vec: FockVector) -> FockVector:
        if (vec.n, vec.cutoff) != (self.n, self.cutoff):
            raise ValueError("vector does not match the operator truncation")
        return FockVector(self.n, self.cutoff, self.matrix @ vec.coeffs)


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
    if t == 0:
        raise ValueError("t must be nonzero")
    if g.n != n:
        raise ValueError("dimension mismatch")
    phase = complex(math.cos(t * g.z), math.sin(t * g.z))
    dim = len(multi_indices(n, cutoff))
    if not any(abs(x) for x in g.w):
        return FockOperator(phase * np.eye(dim, dtype=complex), n, t, g, cutoff)
    amp = abs(t) * sum(abs(x) ** 2 for x in g.w)
    if amp > cutoff / 2:
        raise ValueError(
            f"displacement amplitude {amp:.3g} too large for cutoff {cutoff}"
        )
    alpha = np.array(_alpha(t, g.w))
    r = math.hypot(*np.abs(alpha))
    # real divisions: numpy divides complex numbers through 1/r, which
    # overflows for a subnormal displacement
    unit = alpha.real / r + 1j * (alpha.imag / r)
    bounds, parents, chains = _rotation_structure(n, cutoff)
    blocks = _rotation_blocks(_first_column_unitary(unit), parents)
    spans = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    gstar = np.zeros((dim, dim), dtype=complex)
    for span, gam in zip(spans, blocks):
        gstar[span, span] = gam.conj().T
    # E Gamma(U)^* with E = phase exp(r (a_1^+ - a_1)): row (k, tail) of E
    # mixes only the Gamma^* rows of its own chain, so each chain length
    # is one row gather; then Gamma(U) over contiguous degree row blocks
    mat = np.empty((dim, dim), dtype=complex)
    for length, rows in chains:
        lam, w = _chain_eigen(length)
        chain_exp = (w * (phase * np.exp(-1j * r * lam))) @ w.conj().T
        mat[rows] = chain_exp @ gstar[rows]
    for span, gam in zip(spans, blocks):
        mat[span] = gam @ mat[span]
    return FockOperator(mat, n, t, g, cutoff)


@lru_cache(maxsize=None)
def _chain_eigen(length):
    """(lam, W) with exp(r (a^+ - a)) = W diag(e^{-i r lam}) W^* on the
    one-mode chain of the given length.

    With D = diag(i^k), D^* (a^+ - a) D = -i X for the Hermite Jacobi matrix
    X = a + a^+, so W = D V for (lam, V) = eigh(X): Golub-Welsch for Hermite,
    the discrete variable representation of Light, Hamilton & Lill (J. Chem.
    Phys. 82, 1985).
    """
    a = _ladder_matrices(1, length - 1)[0]
    lam, v = np.linalg.eigh(a + a.T)
    # one Newton-Schulz step: eigh leaves V orthogonal to about L eps only
    v = v @ (1.5 * np.eye(length) - 0.5 * (v.T @ v))
    powers = np.array([1, 1j, -1, -1j])[np.arange(length) % 4]
    return lam, powers[:, None] * v


@lru_cache(maxsize=None)
def _rotation_structure(n, cutoff):
    """Index structure of the mode-rotation route at (n, cutoff).

    bounds[d]:bounds[d+1] is the degree-d block of ``multi_indices``.
    parents[d-1] holds, for the degree-d monomials m in order, the first
    nonzero mode j of m, the position of m - e_j inside the degree d-1 block
    and sqrt(m_j); then, for each mode i, the position of m - e_i inside the
    degree d-1 block and sqrt(m_i) (position 0 and weight 0 where m_i = 0).
    chains pairs each length L with the positions of (k, tail), k < L, one
    row per tail (m_2, ..., m_n) with cutoff - |tail| + 1 = L.
    """
    idx = multi_indices(n, cutoff)
    pos = _index_positions(n, cutoff)
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
        parents.append((modes, src[modes, cols], coef[modes, cols], src, coef))
    chains = {}
    for m in idx:
        if m[0] == 0:
            length = cutoff - sum(m) + 1
            chains.setdefault(length, []).append(
                [pos[(k,) + m[1:]] for k in range(length)])
    return (tuple(bounds), tuple(parents),
            tuple((length, np.array(rows)) for length, rows in sorted(chains.items())))


def _first_column_unitary(v):
    """A unitary U with U e_1 = v for a unit vector v: the Householder
    reflection exchanging e_1 and -w, w = v / phase(v_1), times -phase(v_1)."""
    phase = cmath.exp(1j * cmath.phase(v[0]))
    u = v * phase.conjugate()
    u[0] = 1 + abs(v[0])
    return -phase * (np.eye(len(v)) - np.outer(u, u.conj()) / u[0].real)


def _rotation_blocks(u, parents):
    """Degree blocks of Gamma(U), the substitution a_j^+ -> sum_i U_ij a_i^+,
    by Gamma|m> = (sum_i U_ij a_i^+) Gamma|m - e_j> / sqrt(m_j) with j the
    first nonzero mode of m.  a_i^+ sends row p - e_i of degree d-1 to row p
    of degree d with weight sqrt(p_i), so each term is a row gather."""
    blocks = [np.ones((1, 1), dtype=complex)]
    for modes, ups, roots, src, coef in parents:
        prev = blocks[-1][:, ups]
        weights = u[:, modes] / roots
        blocks.append(sum(c[:, None] * prev[s] * wt
                          for s, c, wt in zip(src, coef, weights)))
    return blocks


def matrix_coefficient(t: float, left, right, g: HeisenbergPoint,
                       cutoff: int | None = None) -> complex:
    """<mu_left, pi_t(g) mu_right> read off the truncated operator."""
    n = g.n
    if len(left) != n or len(right) != n:
        raise ValueError("index length must match the point dimension")
    if cutoff is None:
        cutoff = max(sum(left), sum(right)) * 2 + 12
    op = fock_operator(n, t, g, cutoff)
    return op.entry(tuple(left), tuple(right))


# ---------------------------------------------------------------------------
# normal-ordered series route (exact Gaussian factor)
# ---------------------------------------------------------------------------


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


def displacement_series_element(alpha: complex, l: int, m: int) -> complex:
    return math.exp(-abs(alpha) ** 2 / 2) * _displacement_polypart(l, m, alpha)


def coefficient_series(t: float, left, right, g: HeisenbergPoint) -> complex:
    """Same matrix coefficient through the closed normal-ordered series;
    stable at any displacement size, used under the orthogonality
    integrals where the truncated operator cannot reach."""
    if t == 0:
        raise ValueError("t must be nonzero")
    alpha = _alpha(t, g.w)
    val = complex(math.cos(t * g.z), math.sin(t * g.z))
    for l, m, al in zip(left, right, alpha):
        val *= displacement_series_element(al, l, m)
    return val


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
    if n > 2:
        raise ValueError("plane-product quadrature is limited to n <= 2")
    if t == 0:
        raise ValueError("t must be nonzero")
    total = 1.0 + 0.0j
    for j in range(n):
        total *= _coordinate_pairing(t, l1[j], m1[j], l2[j], m2[j])
    return total


def _coordinate_pairing(t, l1, m1, l2, m2):
    """integral_C d_{l1 m1}(alpha(w)) conj(d_{l2 m2}(alpha(w))) dw.

    Substituting u = alpha(w) makes the Gaussian weight exactly the Hermite
    weight, leaving the polynomial parts G.
    """

    def at_order(order):
        rule = numerics.gauss_hermite(order)
        x = np.array(rule.nodes)
        w = np.array(rule.weights)
        # the whole node grid u = x + iy at once
        u = x[:, None] + 1j * x[None, :]
        vals = _displacement_polypart(l1, m1, u) * \
            _displacement_polypart(l2, m2, u).conjugate()
        return complex(w @ vals @ w) / abs(t), 0.0

    # pairings are bounded by the diagonal value ~ pi/|t| (Cauchy-Schwarz),
    # so agreement is judged against that scale; a vanishing integral would
    # otherwise never stabilize in purely relative terms
    return numerics._doubling(at_order, max_order=256, floor=1.0 / abs(t))


# ---------------------------------------------------------------------------
# regular functions
# ---------------------------------------------------------------------------


def regular_norm_sq(n: int, k: int):
    """Exact (k+n)!/2^{k+n} with its quadrature companion."""
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    quad, exact = numerics.gamma_moment(k + n)
    return exact, quad


@dataclass(frozen=True)
class RegularFunction:
    """Finite combination of e^{-|t|} p(t) mu_m (x) conj(mu_{m'}).

    terms maps (m, m') index pairs to polynomial coefficient tuples in t.
    """

    n: int
    terms: tuple  # ((m, m'), coeff tuple) pairs, coeffs exact or float

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
        for key, coeffs in list(self.terms) + list(other.terms):
            cur = list(acc.get(key, ()))
            merged = [0] * max(len(cur), len(coeffs))
            for i, c in enumerate(cur):
                merged[i] = c
            for i, c in enumerate(coeffs):
                merged[i] = merged[i] + c
            acc[key] = tuple(merged)
        return RegularFunction(self.n, tuple(sorted(acc.items())))

    def __mul__(self, other):
        """Ring product: polynomial parts multiply, indices add."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        acc = {}
        for (m1, p1), c1 in self.terms:
            for (m2, p2), c2 in other.terms:
                key = (tuple(a + b for a, b in zip(m1, m2)),
                       tuple(a + b for a, b in zip(p1, p2)))
                conv = [0] * (len(c1) + len(c2) - 1)
                for i, a in enumerate(c1):
                    for j, b in enumerate(c2):
                        conv[i + j] = conv[i + j] + a * b
                cur = acc.get(key)
                if cur is None:
                    acc[key] = tuple(conv)
                else:
                    merged = [0] * max(len(cur), len(conv))
                    for i, c in enumerate(cur):
                        merged[i] = c
                    for i, c in enumerate(conv):
                        merged[i] = merged[i] + c
                    acc[key] = tuple(merged)
        return RegularFunction(self.n, tuple(sorted(acc.items())))

    def eval(self, t: float, g: HeisenbergPoint) -> complex:
        total = 0.0 + 0.0j
        damp = math.exp(-abs(t))
        for (m, mprime), coeffs in self.terms:
            p = sum(float(c) * t ** i for i, c in enumerate(coeffs))
            total += damp * p * coefficient_series(t, m, mprime, g)
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


def regular_gram_rank(n: int, monomial_terms) -> int:
    gram = regular_gram(n, monomial_terms)
    norms = gram_schmidt_norms(gram)
    return sum(1 for x in norms if x != 0)


def operator_to_csv(op: FockOperator, path) -> None:
    """Operator matrix as CSV; rows and columns follow multi_indices order."""
    with open(path, "w", encoding="utf-8") as fh:
        header = ";".join("|".join(map(str, m)) for m in multi_indices(op.n, op.cutoff))
        fh.write("# " + header + "\n")
        for row in op.matrix:
            fh.write(",".join(f"{x.real:.17g}{x.imag:+.17g}j" for x in row) + "\n")
