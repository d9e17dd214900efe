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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from . import fock, numerics, symmpair
from .exact import fr


@dataclass(frozen=True)
class DegreeLadder:
    backend: str
    levels: tuple
    degrees: dict
    csq_pairs: dict  # (m, n) with m >= n -> squared constant
    exact: bool

    def __post_init__(self):
        if tuple(sorted(self.levels)) != self.levels:
            raise ValueError("levels must be sorted")
        for n in self.levels:
            if n not in self.degrees or self.degrees[n] <= 0:
                raise ValueError(f"missing or nonpositive degree at level {n}")
        for m in self.levels:
            for n in self.levels:
                if m >= n:
                    csq = self.csq(m, n)
                    if not 0 < csq <= 1:
                        raise ValueError(f"c({m},{n})^2 = {csq} outside (0, 1]")

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


def make_ladder(backend, levels, degrees, csq_pairs, exact) -> DegreeLadder:
    return DegreeLadder(backend, tuple(sorted(levels)), dict(degrees),
                        dict(csq_pairs), exact)


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


def tilde_zeta_scale(ladder: DegreeLadder, m, n) -> float:
    return ladder.c(m, n) * zeta_scale(ladder, m, n)


def tilde_eta_scale(ladder: DegreeLadder, n) -> float:
    return ladder.c(n, ladder.base) * eta_scale(ladder, n)


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

    def norm_sq(self):
        return self.scale_sq * sum(abs(v) ** 2 for _, v in self.coeffs)


def apply_zeta(ladder: DegreeLadder, f: LadderedFunction, m) -> LadderedFunction:
    """Promote a coefficient-encoded function; in the orthonormal coefficient
    encoding the rescaled inclusion leaves the coefficients alone, which is
    exactly its isometry."""
    _check(ladder, f, "coeff")
    if m < f.level:
        raise ValueError("can only promote to a higher level")
    return LadderedFunction(f.backend, m, f.kind, f.coeffs, f.scale_sq)


def apply_nu(ladder: DegreeLadder, f: LadderedFunction, m) -> LadderedFunction:
    """Promote an invariant-encoded function without changing it as a
    function: the coefficient list is re-targeted untouched, and the unit
    invariant vector of the higher level contributes 1/c(m,n) through the
    squared prefactor."""
    _check(ladder, f, "invariant")
    if m < f.level:
        raise ValueError("can only promote to a higher level")
    return LadderedFunction(f.backend, m, f.kind, f.coeffs,
                            f.scale_sq / ladder.csq(m, f.level))


def backend_restrict(ladder: DegreeLadder, f: LadderedFunction, n) -> LadderedFunction:
    """Restriction of an invariant-encoded function down to level n."""
    _check(ladder, f, "invariant")
    if n > f.level:
        raise ValueError("can only restrict to a lower level")
    return LadderedFunction(f.backend, n, f.kind, f.coeffs,
                            f.scale_sq * ladder.csq(f.level, n))


def _check(ladder, f, kind):
    if f.backend != ladder.backend:
        raise ValueError("function belongs to a different backend")
    if f.kind != kind:
        raise ValueError(f"operation needs kind {kind!r}")
    if f.level not in ladder.levels:
        raise ValueError(f"level {f.level} not in ladder")


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
    pairing = sum(v * _conj(gd[k]) for k, v in f.coeffs if k in gd)
    return ladder.csq(f.level, ladder.base) * _sqrt_product(f.scale_sq, g.scale_sq) * pairing


def _conj(x):
    return x.conjugate() if isinstance(x, complex) else x


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
    """
    if m < n:
        raise ValueError("need m >= n")
    degm, degn = ladder.deg(m), ladder.deg(n)
    ratio = degm / degn
    plain = _rel_residual(degm, ratio * degn)
    tilde = _rel_residual(
        ladder.csq(m, ladder.base) * degm,
        ladder.csq(m, n) * ratio * ladder.csq(n, ladder.base) * degn,
    )
    residual = max(plain, tilde, key=lambda x: float(abs(x)))
    tol = numerics.DEFAULT_TOLERANCES.exact_identity
    ok = residual == 0 if ladder.exact else float(abs(residual)) <= tol
    return ok, residual


def verify_cocycle(ladder: DegreeLadder):
    """c(m,n) c(n,k) = c(m,k) over every triple, in squared form."""
    worst = Fraction(0) if ladder.exact else 0.0
    for k, n, m in combinations_with_replacement(ladder.levels, 3):
        res = _rel_residual(ladder.csq(m, n) * ladder.csq(n, k), ladder.csq(m, k))
        if float(abs(res)) > float(abs(worst)):
            worst = res
    tol = numerics.DEFAULT_TOLERANCES.exact_identity
    ok = worst == 0 if ladder.exact else float(abs(worst)) <= tol
    return ok, worst


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
    csq = {}
    for n in levels:
        for m in levels:
            if m > n:
                csq[(m, n)] = Fraction(comb(n + d - 1, d), comb(m + d - 1, d))
    return make_ladder("un-poly", levels, degrees, csq, exact=True)


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
    degrees = {n: Fraction(symmpair.harmonic_dimension(n + 1, d)) for n in levels}
    csq = {}
    for n in levels:
        for m in levels:
            if m > n:
                if method == "exact":
                    csq[(m, n)] = symmpair.zonal_projection_csq(m, n, d)
                elif method == "quadrature":
                    csq[(m, n)] = symmpair.zonal_projection_constant(m, n, d, "quadrature") ** 2
                else:
                    raise ValueError(f"unknown method {method!r}")
    if method == "quadrature":
        degrees = {n: float(v) for n, v in degrees.items()}
    return make_ladder("sphere", levels, degrees, csq, exact=method == "exact")


def heisenberg_ladder(t, d: int = 1, levels=(1, 2), method: str = "exact") -> DegreeLadder:
    """Central-parameter ladder at fixed t: formal degrees |t|^n deg(kappa)
    with the unitary polynomial constants riding along.

    method 'quadrature' replaces |t|^n by the measured reciprocal diagonal
    coefficient pairing (available for the plane-integrable levels only), so
    the ladder identities check the quadrature against the closed forms.
    """
    if t == 0:
        raise ValueError("t must be nonzero")
    csq = {}
    for n in levels:
        for m in levels:
            if m > n:
                csq[(m, n)] = Fraction(comb(n + d - 1, d), comb(m + d - 1, d))
    if method == "exact":
        ts = abs(fr(t)) if isinstance(t, (int, Fraction)) else abs(t)
        degrees = {n: ts ** n * comb(n + d - 1, d) for n in levels}
        exact = isinstance(ts, Fraction)
    elif method == "quadrature":
        degrees = {}
        for n in levels:
            zero = (0,) * n
            diag = fock.coefficient_inner_product(float(t), (zero, zero), (zero, zero))
            degrees[n] = comb(n + d - 1, d) / diag.real
        csq = {k: float(v) for k, v in csq.items()}
        exact = False
    else:
        raise ValueError(f"unknown method {method!r}")
    return make_ladder("heisenberg", levels, degrees, csq, exact=exact)


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
    levels = tuple(doc["levels"])
    exact = doc.get("exact", False)
    number = Fraction if exact else float
    degrees = {n: number(d) for n, d in zip(levels, doc["deg"])}
    csq = {}
    for i, m in enumerate(levels):
        for j, n in enumerate(levels):
            if m > n:
                csq[(m, n)] = Fraction(doc["csq"][i][j]) if exact else doc["c"][i][j] ** 2
    return make_ladder(doc["backend"], levels, degrees, csq, exact=exact)
