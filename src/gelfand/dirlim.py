"""Degree ladders of direct systems and the system map nu on functions.

A DegreeLadder carries, per level, a formal degree, and per level pair the
squared projection constant c(m,n)^2 of the distinguished invariant vectors.
The one identity asserted here is the cocycle c(m,k)^2 = c(m,n)^2 c(n,k)^2:
the commuting square is the cocycle at (m, n, base), and the limit pairing
survives promotion from level n to m iff the cocycle holds there too.
Squares are stored because the cocycle is an identity between products of
positive quantities, so it holds iff it holds for the squares, and the
squares are rational for the exact backends while the constants themselves
are surds.

Functions at a level are finite coefficient lists over matrix coefficients
against the unit invariant vector of the level, with a squared scalar
prefactor: the restriction-inverse system map nu_{m,n} leaves the list alone
and divides the prefactor by c(m,n)^2.

Backends supplied: binomial ladders for the unitary polynomial model, zonal
ladders for spheres, and central-parameter ladders for the flat model, in
exact and quadrature-measured variants.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations_with_replacement
from math import comb

from . import fock, numerics, symmpair
from .exact import Record, check_int


class DegreeLadder(Record):
    # csq_pairs: (m, n) with m > n -> squared constant
    def __init__(self, backend: str, levels: tuple, degrees: dict, csq_pairs: dict):
        self._store(backend, levels, degrees, csq_pairs)
        if any(a >= b for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        for n in levels:
            # NaN fails both comparisons
            if n not in degrees or not 0 < degrees[n] < math.inf:
                raise ValueError(f"level {n} has no finite positive degree")
        for m, n in _pairs(levels):
            csq = self.csq(m, n)
            if not 0 < csq <= 1:
                raise ValueError(f"c({m},{n})^2 = {csq} outside (0, 1]")

    @cached_property
    def exact(self) -> bool:
        """Whether the ladder's one number type is Fraction: residuals exactly 0."""
        return all(isinstance(x, Fraction) for x in self.degrees.values())

    @property
    def base(self):
        return self.levels[0]

    def deg(self, n):
        if n not in self.degrees:
            raise KeyError(f"level {n} not in ladder")
        return self.degrees[n]

    def csq(self, m, n):
        if m < n:
            raise ValueError("need m >= n")
        if m == n:
            return Fraction(1) if self.exact else 1.0
        got = self.csq_pairs.get((m, n))
        if got is None:
            raise KeyError(f"no constant for levels ({m}, {n})")
        return got


def make_ladder(backend, levels, degrees, csq_pairs) -> DegreeLadder:
    """The one place a ladder's number type is decided: Fractions when every
    degree and constant is an int or a Fraction, floats otherwise."""
    values = chain(degrees.values(), csq_pairs.values())
    number = Fraction if all(isinstance(x, (int, Fraction)) for x in values) else float
    return DegreeLadder(backend, tuple(sorted(levels)),
                        {n: number(x) for n, x in degrees.items()},
                        {p: number(x) for p, x in csq_pairs.items()})


def _pairs(levels):
    """Every level pair (m, n) with m > n."""
    return [(m, n) for n in levels for m in levels if m > n]


# ---------------------------------------------------------------------------
# laddered functions
# ---------------------------------------------------------------------------


class LadderedFunction(Record):
    """A finite coefficient list, ``coeffs``: sorted (key, value) pairs, over the
    invariant matrix coefficients of its level plus a positive scalar prefactor,
    stored squared so the system maps stay exact on rational ladders."""

    def __init__(self, backend: str, level: int, coeffs: tuple, scale_sq=Fraction(1)):
        self._store(backend, level, coeffs, scale_sq)

    @classmethod
    def make(cls, backend, level, coeffs, kind="invariant"):
        if kind != "invariant":
            raise ValueError(f"kind must be 'invariant', got {kind!r}")
        items = tuple(sorted((k, v) for k, v in dict(coeffs).items() if v != 0))
        return cls(backend, level, items)


def apply_nu(ladder: DegreeLadder, f: LadderedFunction, m) -> LadderedFunction:
    """Promote a function without changing it as a function: the
    coefficient list is re-targeted untouched, and the unit invariant vector
    of the higher level contributes 1/c(m,n) through the squared prefactor."""
    if f.backend != ladder.backend:
        raise ValueError("function belongs to a different backend")
    if f.level not in ladder.levels:
        raise ValueError(f"level {f.level} not in ladder")
    if f.level > m:
        raise ValueError(f"level {m} is below level {f.level}")
    return LadderedFunction(f.backend, m, f.coeffs, f.scale_sq / ladder.csq(m, f.level))


def limit_inner_product(ladder: DegreeLadder, f: LadderedFunction,
                        g: LadderedFunction):
    """Pairing through the comparison maps: both functions are carried into
    the square-integrable completion with the tilde scaling of their level.

    The composed scalar is csq(level, base): the degree from the comparison
    map cancels against the orthogonality normalization of the coefficient
    functions, and the invariant vector of the level contributes its squared
    length 1/csq(level, base) once against the base normalization.
    """
    if f.backend != g.backend or f.level != g.level:
        raise ValueError("functions must share backend and level")
    gd = dict(g.coeffs)
    pairing = sum(v * gd[k].conjugate() for k, v in f.coeffs if k in gd)
    return ladder.csq(f.level, ladder.base) * _sqrt_product(f.scale_sq, g.scale_sq) * pairing


def _sqrt_product(a, b):
    """sqrt(a*b), exact when the product is a perfect rational square."""
    prod = a * b
    if isinstance(prod, Fraction):
        rn = math.isqrt(prod.numerator)
        rd = math.isqrt(prod.denominator)
        if rn * rn == prod.numerator and rd * rd == prod.denominator:
            return Fraction(rn, rd)
    return math.sqrt(float(prod))


# ---------------------------------------------------------------------------
# verifications
# ---------------------------------------------------------------------------


def verify_commuting_square(ladder: DegreeLadder, m, n):
    """The commuting square of the comparison maps at levels m >= n, in
    squared form, with the degree factors cancelled: it is the cocycle at
    the triple (m, n, base), csq(m,base) = csq(m,n) csq(n,base).

    Returns (ok, residual); exact ladders must come back with residual 0.
    """
    base = ladder.base
    return _verdict(ladder, [_rel_residual(ladder.csq(m, base),
                                           ladder.csq(m, n) * ladder.csq(n, base))])


def verify_cocycle(ladder: DegreeLadder):
    """c(m,n) c(n,k) = c(m,k) over every triple, in squared form."""
    return _verdict(ladder, [
        _rel_residual(ladder.csq(m, n) * ladder.csq(n, k), ladder.csq(m, k))
        for k, n, m in combinations_with_replacement(ladder.levels, 3)])


def _verdict(ladder, residuals):
    """(ok, the largest residual): 0 exactly on an exact ladder, else
    within ``exact_identity``."""
    worst = max(residuals, key=abs, default=0)
    if ladder.exact:
        return worst == 0, worst
    return abs(worst) <= numerics.DEFAULT_TOLERANCES.exact_identity, worst


def _rel_residual(a, b):
    diff = a - b
    return diff and diff / max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------


def un_polynomial_ladder(d: int, levels=(1, 2, 3, 4)) -> DegreeLadder:
    """Degree-d polynomial model of the unitary direct system: degrees are
    the binomial dimensions q(n) = C(n+d-1, d) and csq(m,n) = q(n)/q(m),
    confirmed against the basis-projection count in
    :func:`un_csq_by_enumeration`."""
    check_int(d, 0, "degree must be an int >= 0")
    degrees = {n: Fraction(comb(n + d - 1, d)) for n in levels}
    csq = {(m, n): degrees[n] / degrees[m] for m, n in _pairs(levels)}
    return make_ladder("un-poly", levels, degrees, csq)


def un_csq_by_enumeration(d: int, n: int, m: int) -> Fraction:
    """Independent route to csq(m,n): the invariant vector is the sum of
    x_A (x) x_A* over the orthonormal monomial basis; orthogonal projection
    keeps the multi-indices supported on the first n variables, so the
    squared overlap of the unit invariant vectors is the count ratio."""
    check_int(d, 0, "degree must be an int >= 0")
    check_int(n, 1, "need an int level n >= 1")
    check_int(m, n, "need m >= n")
    small = set(combinations_with_replacement(range(n), d))
    big = set(combinations_with_replacement(range(m), d))
    overlap = sum(1 for a in big if a in small)
    return Fraction(overlap * overlap, len(small) * len(big))


def sphere_ladder(d: int, levels=(2, 3, 4, 5), method: str = "exact") -> DegreeLadder:
    """Zonal ladder of the spheres: degrees are the harmonic dimensions and
    the constants the zonal overlaps, exact or quadrature-measured."""
    if method not in ("exact", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    degrees = {n: Fraction(symmpair.harmonic_dimension(n + 1, d)) for n in levels}
    if method == "exact":
        csq = {(m, n): symmpair.zonal_projection_csq(m, n, d) for m, n in _pairs(levels)}
    else:
        csq = {(m, n): symmpair.zonal_projection_constant(m, n, d, "quadrature") ** 2
               for m, n in _pairs(levels)}
    return make_ladder("sphere", levels, degrees, csq)


def heisenberg_ladder(t, d: int = 1, levels=(1, 2), method: str = "exact") -> DegreeLadder:
    """Central-parameter ladder at fixed t: formal degrees |t|^n deg(kappa)
    with the unitary polynomial constants riding along.

    method 'quadrature' replaces |t|^n by the measured reciprocal diagonal
    coefficient pairing at every level.  That pairing is (pi/|t|)^n under
    Lebesgue measure on C^n, so the quadrature degrees are q(n) (|t|/pi)^n,
    pi^n below the exact method's q(n) |t|^n, with q(n) = deg(n) of the
    unitary polynomial ladder.  The constants are the unitary polynomial
    ones either way, and the ladder identities read only those: no ladder
    verdict reads a degree.
    """
    fock.check_t(t)
    poly = un_polynomial_ladder(d, levels)
    csq = poly.csq_pairs
    if method == "exact":
        degrees = {n: abs(t) ** n * poly.deg(n) for n in levels}
    elif method == "quadrature":
        degrees = {}
        for n in levels:
            zero = (0,) * n
            diag = fock.coefficient_inner_product(t, (zero, zero), (zero, zero))
            degrees[n] = poly.deg(n) / diag.real
    else:
        raise ValueError(f"unknown method {method!r}")
    return make_ladder("heisenberg", levels, degrees, csq)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def ladder_to_json(ladder: DegreeLadder) -> str:
    """``deg`` per level and the level x level ``csq`` matrix, null above the
    diagonal: "p/q" strings on an exact ladder and numbers on a float one,
    so the file reads back as the same ladder."""
    levels = ladder.levels
    return json.dumps({"backend": ladder.backend, "levels": levels,
                       "deg": [ladder.deg(n) for n in levels],
                       "csq": [[ladder.csq(m, n) if m >= n else None for n in levels]
                               for m in levels]}, sort_keys=True, default=str)

