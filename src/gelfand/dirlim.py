"""Degree ladders and the rescaled map algebra of direct systems.

A DegreeLadder carries, per level, a formal degree, and per level pair the
squared projection constant c(m,n)^2 of the distinguished invariant vectors.
Squares are stored because every identity asserted here (commuting squares,
cocycles, promotion consistency) is an identity between products of positive
quantities, so it holds iff it holds for the squares, and the squares are
rational for the exact backends while the constants themselves are surds.

Functions at a level are finite coefficient lists.  Two encodings appear:

* kind 'coeff': coefficients over the orthonormal coefficient functions of
  the level (the square-integrable normalization absorbed), so the rescaled
  inclusion is literally the identity on coefficients;
* kind 'invariant': coefficients over matrix coefficients against the unit
  invariant vector of the level; the restriction-inverse system map then
  divides by c(m,n), and restriction multiplies it back.

Backends supplied: binomial ladders for the unitary polynomial model, zonal
ladders for spheres, and central-parameter ladders for the flat model, in
exact and quadrature-measured variants.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations_with_replacement
from math import comb

from . import fock, numerics, symmpair
from .exact import fr


@dataclass(frozen=True)
class DegreeLadder:
    backend: str
    levels: tuple
    degrees: dict
    csq_pairs: dict  # (m, n) with m > n -> squared constant

    def __post_init__(self):
        if tuple(sorted(self.levels)) != self.levels:
            raise ValueError("levels must be sorted")
        for n in self.levels:
            # NaN fails both comparisons
            if n not in self.degrees or not 0 < self.degrees[n] < math.inf:
                raise ValueError(f"level {n} has no finite positive degree")
        for m, n in _pairs(self.levels):
            csq = self.csq(m, n)
            if not 0 < csq <= 1:
                raise ValueError(f"c({m},{n})^2 = {csq} outside (0, 1]")

    @cached_property
    def exact(self) -> bool:
        """Whether every degree and squared constant is rational, so that
        the identities are checked with residual exactly 0."""
        return all(isinstance(x, (int, Fraction))
                   for x in chain(self.degrees.values(), self.csq_pairs.values()))

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

    def c(self, m, n) -> float:
        return math.sqrt(float(self.csq(m, n)))


def make_ladder(backend, levels, degrees, csq_pairs) -> DegreeLadder:
    return DegreeLadder(backend, tuple(sorted(levels)), dict(degrees), dict(csq_pairs))


def _pairs(levels):
    """Every level pair (m, n) with m > n."""
    return [(m, n) for n in levels for m in levels if m > n]


# ---------------------------------------------------------------------------
# scalar maps
# ---------------------------------------------------------------------------


def zeta_scale(ladder: DegreeLadder, m, n) -> float:
    """sqrt(deg m / deg n), the rescaling of the coefficient inclusion."""
    if m < n:
        raise ValueError("need m >= n")
    return math.sqrt(float(ladder.deg(m)) / float(ladder.deg(n)))


def eta_scale(ladder: DegreeLadder, n) -> float:
    """sqrt(deg n), the comparison into the square-integrable completion."""
    return math.sqrt(float(ladder.deg(n)))


# ---------------------------------------------------------------------------
# laddered functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderedFunction:
    """A finite coefficient list plus a positive scalar prefactor, stored
    squared so the system maps stay exact on rational ladders."""

    backend: str
    level: int
    kind: str  # 'coeff' | 'invariant'
    coeffs: tuple  # sorted (key, value) pairs
    scale_sq: object = Fraction(1)

    @classmethod
    def make(cls, backend, level, coeffs, kind="coeff"):
        if kind not in ("coeff", "invariant"):
            raise ValueError("kind must be 'coeff' or 'invariant'")
        items = tuple(sorted((k, v) for k, v in dict(coeffs).items() if v != 0))
        return cls(backend, level, kind, items)


def apply_zeta(ladder: DegreeLadder, f: LadderedFunction, m) -> LadderedFunction:
    """Promote a coefficient-encoded function; in the orthonormal coefficient
    encoding the rescaled inclusion leaves the coefficients alone, which is
    exactly its isometry."""
    _check(ladder, f, "coeff", f.level, m)
    return replace(f, level=m)


def apply_nu(ladder: DegreeLadder, f: LadderedFunction, m) -> LadderedFunction:
    """Promote an invariant-encoded function without changing it as a
    function: the coefficient list is re-targeted untouched, and the unit
    invariant vector of the higher level contributes 1/c(m,n) through the
    squared prefactor."""
    _check(ladder, f, "invariant", f.level, m)
    return replace(f, level=m, scale_sq=f.scale_sq / ladder.csq(m, f.level))


def backend_restrict(ladder: DegreeLadder, f: LadderedFunction, n) -> LadderedFunction:
    """Restriction of an invariant-encoded function down to level n."""
    _check(ladder, f, "invariant", n, f.level)
    return replace(f, level=n, scale_sq=f.scale_sq * ladder.csq(f.level, n))


def _check(ladder, f, kind, low, high):
    """``f`` is a ``kind`` function of the ladder's backend at one of its
    levels, and the map runs between levels ``low`` <= ``high``."""
    if f.backend != ladder.backend:
        raise ValueError("function belongs to a different backend")
    if f.kind != kind:
        raise ValueError(f"operation needs kind {kind!r}")
    if f.level not in ladder.levels:
        raise ValueError(f"level {f.level} not in ladder")
    if low > high:
        raise ValueError(f"level {high} is below level {low}")


def limit_inner_product(ladder: DegreeLadder, f: LadderedFunction,
                        g: LadderedFunction):
    """Pairing through the comparison maps: both functions are carried into
    the square-integrable completion with the tilde scaling of their level.

    The composed scalar is csq(level, base): the degree from the comparison
    map cancels against the orthogonality normalization of the coefficient
    functions, and the invariant vector of the level contributes its squared
    length 1/csq(level, base) once against the base normalization.
    """
    if f.backend != g.backend or f.level != g.level or f.kind != g.kind:
        raise ValueError("functions must share backend, level and kind")
    if f.kind != "invariant":
        raise ValueError("the limit pairing is defined on invariant-encoded functions")
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
    """Squared form of the two comparison identities:

      deg(m) = (deg(m)/deg(n)) deg(n)
      csq(m,base) deg(m) = csq(m,n) (deg(m)/deg(n)) csq(n,base) deg(n)

    Returns (ok, residual); exact ladders must come back with residual 0.
    It can fail on no ladder that ``verify_cocycle`` passes: the plain
    residual is 0 by construction, since ratio * deg(n) = deg(m), and on an
    exact ladder the tilde residual is the cocycle residual at the triple
    (base, n, m) with its sign flipped, deg(m) cancelling.
    """
    if m < n:
        raise ValueError("need m >= n")
    degm, degn = ladder.deg(m), ladder.deg(n)
    ratio = fr(degm) / degn
    plain = _rel_residual(degm, ratio * degn)
    tilde = _rel_residual(
        ladder.csq(m, ladder.base) * degm,
        ladder.csq(m, n) * ratio * ladder.csq(n, ladder.base) * degn,
    )
    return _verdict(ladder, [plain, tilde])


def verify_cocycle(ladder: DegreeLadder):
    """c(m,n) c(n,k) = c(m,k) over every triple, in squared form."""
    return _verdict(ladder, [
        _rel_residual(ladder.csq(m, n) * ladder.csq(n, k), ladder.csq(m, k))
        for k, n, m in combinations_with_replacement(ladder.levels, 3)])


def _verdict(ladder, residuals):
    """(ok, the largest residual): 0 exactly on an exact ladder, else
    within ``exact_identity``."""
    worst = max(residuals, key=lambda x: float(abs(x)), default=0)
    if ladder.exact:
        return worst == 0, worst
    return float(abs(worst)) <= numerics.DEFAULT_TOLERANCES.exact_identity, worst


def _rel_residual(a, b):
    diff = a - b
    if diff == 0:
        return diff
    scale = max(abs(a), abs(b))
    if isinstance(diff, Fraction) and isinstance(scale, Fraction):
        return diff / scale
    return float(diff) / float(scale)


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------


def un_polynomial_ladder(d: int, levels=(1, 2, 3, 4)) -> DegreeLadder:
    """Degree-d polynomial model of the unitary direct system: degrees are
    the binomial dimensions q(n) = C(n+d-1, d) and csq(m,n) = q(n)/q(m),
    confirmed against the basis-projection count in
    :func:`un_csq_by_enumeration`."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    degrees = {n: Fraction(comb(n + d - 1, d)) for n in levels}
    csq = {(m, n): degrees[n] / degrees[m] for m, n in _pairs(levels)}
    return make_ladder("un-poly", levels, degrees, csq)


def un_csq_by_enumeration(d: int, n: int, m: int) -> Fraction:
    """Independent route to csq(m,n): the invariant vector is the sum of
    x_A (x) x_A* over the orthonormal monomial basis; orthogonal projection
    keeps the multi-indices supported on the first n variables, so the
    squared overlap of the unit invariant vectors is the count ratio."""
    if m < n:
        raise ValueError("need m >= n")
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
        degrees = {n: float(v) for n, v in degrees.items()}
    return make_ladder("sphere", levels, degrees, csq)


def heisenberg_ladder(t, d: int = 1, levels=(1, 2), method: str = "exact") -> DegreeLadder:
    """Central-parameter ladder at fixed t: formal degrees |t|^n deg(kappa)
    with the unitary polynomial constants riding along.

    method 'quadrature' replaces |t|^n by the measured reciprocal diagonal
    coefficient pairing (available for the plane-integrable levels only), so
    the ladder identities check the quadrature against the closed forms.
    """
    fock.check_t(t)
    poly = un_polynomial_ladder(d, levels)
    csq = poly.csq_pairs
    if method == "exact":
        ts = abs(fr(t)) if isinstance(t, (int, Fraction)) else abs(t)
        degrees = {n: ts ** n * poly.deg(n) for n in levels}
    elif method == "quadrature":
        degrees = {}
        for n in levels:
            zero = (0,) * n
            diag = fock.coefficient_inner_product(float(t), (zero, zero), (zero, zero))
            degrees[n] = poly.deg(n) / diag.real
        csq = {k: float(v) for k, v in csq.items()}
    else:
        raise ValueError(f"unknown method {method!r}")
    return make_ladder("heisenberg", levels, degrees, csq)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def ladder_to_json(ladder: DegreeLadder) -> str:
    """Float ladders store ``deg`` and ``c`` as numbers; exact ladders store
    ``"exact": true`` with ``deg`` and ``csq`` as "p/q" strings, so they
    read back as the same Fractions."""
    levels = list(ladder.levels)
    doc = {"backend": ladder.backend, "levels": levels}
    if ladder.exact:
        doc["exact"] = True
        doc["deg"] = [str(ladder.deg(n)) for n in levels]
        doc["csq"] = [[str(ladder.csq(m, n)) if m >= n else None for n in levels]
                      for m in levels]
    else:
        doc["deg"] = [float(ladder.deg(n)) for n in levels]
        doc["c"] = [[ladder.c(m, n) if m >= n else None for n in levels] for m in levels]
    return json.dumps(doc, sort_keys=True)


def ladder_from_json(text: str) -> DegreeLadder:
    doc = json.loads(text)
    levels = doc["levels"]
    pos = {n: i for i, n in enumerate(levels)}
    if doc.get("exact"):
        degrees = {n: Fraction(x) for n, x in zip(levels, doc["deg"])}
        csq = {(m, n): Fraction(doc["csq"][pos[m]][pos[n]]) for m, n in _pairs(levels)}
    else:
        degrees = {n: float(x) for n, x in zip(levels, doc["deg"])}
        csq = {(m, n): doc["c"][pos[m]][pos[n]] ** 2 for m, n in _pairs(levels)}
    return make_ladder(doc["backend"], levels, degrees, csq)
