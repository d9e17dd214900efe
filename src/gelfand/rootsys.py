"""Classical root systems (families A-D) in exact rational arithmetic.

Roots and weights live in the usual orthonormal-coordinate realization
(ambient R^{l+1} for A_l, R^l otherwise); the invariant form is the Euclidean
dot product there, so coroot pairings are exact Fractions; roots and 2 rho
are integral, so Weyl dimension products are taken in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import mul

from .exact import fr
from .exact import unit_vector as _eps

FAMILIES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class RootSystemData:
    family: str
    rank: int
    ambient_dim: int
    simple_roots: tuple
    positive_roots: tuple
    fundamental_weights: tuple

    @cached_property
    def rho(self):
        amb = self.ambient_dim
        acc = [Fraction(0)] * amb
        for alpha in self.positive_roots:
            acc = [a + x / 2 for a, x in zip(acc, alpha)]
        return tuple(acc)

    @cached_property
    def integral_positive_roots(self):
        """The positive roots as integer tuples (every root is integral)."""
        return tuple(tuple(int(x) for x in alpha) for alpha in self.positive_roots)

    @cached_property
    def two_rho(self):
        """2 rho, the sum of the positive roots, as an integer tuple."""
        return tuple(map(sum, zip(*self.integral_positive_roots)))


@dataclass(frozen=True)
class DominantWeight:
    family: str
    rank: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.rank:
            raise ValueError("coefficient count must equal the rank")
        if any((not isinstance(k, int)) or k < 0 for k in self.coeffs):
            raise ValueError("dominant weights need nonnegative integer coefficients")


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _vec_scale(u, c):
    c = fr(c)
    return tuple(a * c for a in u)


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystemData:
    """Exact simple roots, positive roots and fundamental weights.

    D needs rank >= 2 (D_1 has no root data in this realization); A-C accept
    any rank >= 1.  The result is immutable, so each system is built once.
    """
    if family not in FAMILIES:
        raise ValueError(f"unsupported family {family!r}")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if family == "D" and rank < 2:
        raise ValueError("family D needs rank >= 2")

    if family == "A":
        n = rank + 1
        simple = tuple(_vec_sub(_eps(i, n), _eps(i + 1, n)) for i in range(rank))
        positive = tuple(
            _vec_sub(_eps(i, n), _eps(j, n)) for i in range(n) for j in range(i + 1, n)
        )
        funds = []
        for k in range(1, rank + 1):
            v = [Fraction(1) if i < k else Fraction(0) for i in range(n)]
            shift = Fraction(k, n)
            funds.append(tuple(x - shift for x in v))
        return RootSystemData("A", rank, n, simple, positive, tuple(funds))

    n = rank
    chain = [_vec_sub(_eps(i, n), _eps(i + 1, n)) for i in range(rank - 1)]
    if family == "B":
        simple = tuple(chain + [_eps(rank - 1, n)])
        positive = [
            v
            for i in range(n)
            for j in range(i + 1, n)
            for v in (_vec_sub(_eps(i, n), _eps(j, n)), _vec_add(_eps(i, n), _eps(j, n)))
        ] + [_eps(i, n) for i in range(n)]
        funds = [tuple(Fraction(1) if i < k else Fraction(0) for i in range(n)) for k in range(1, rank)]
        funds.append(tuple(Fraction(1, 2) for _ in range(n)))
    elif family == "C":
        simple = tuple(chain + [_vec_scale(_eps(rank - 1, n), 2)])
        positive = [
            v
            for i in range(n)
            for j in range(i + 1, n)
            for v in (_vec_sub(_eps(i, n), _eps(j, n)), _vec_add(_eps(i, n), _eps(j, n)))
        ] + [_vec_scale(_eps(i, n), 2) for i in range(n)]
        funds = [tuple(Fraction(1) if i < k else Fraction(0) for i in range(n)) for k in range(1, rank + 1)]
    else:  # D
        simple = tuple(chain + [_vec_add(_eps(rank - 2, n), _eps(rank - 1, n))])
        positive = [
            v
            for i in range(n)
            for j in range(i + 1, n)
            for v in (_vec_sub(_eps(i, n), _eps(j, n)), _vec_add(_eps(i, n), _eps(j, n)))
        ]
        funds = [tuple(Fraction(1) if i < k else Fraction(0) for i in range(n)) for k in range(1, rank - 1)]
        half = Fraction(1, 2)
        funds.append(tuple([half] * (rank - 1) + [-half]))
        funds.append(tuple([half] * rank))
    return RootSystemData(family, rank, n, tuple(simple), tuple(positive), tuple(funds))


def check_weight(rs: RootSystemData, weight: DominantWeight) -> None:
    """Raise unless ``weight`` is labelled by ``rs``'s family and rank
    (``DominantWeight`` itself enforces dominance)."""
    if (weight.family, weight.rank) != (rs.family, rs.rank):
        raise ValueError(f"weight of {weight.family}{weight.rank} does not belong to "
                         f"the root system {rs.family}{rs.rank}")


def weight_to_eps(rs: RootSystemData, weight: DominantWeight):
    acc = [Fraction(0)] * rs.ambient_dim
    for k, xi in zip(weight.coeffs, rs.fundamental_weights):
        if k:
            acc = [a + k * x for a, x in zip(acc, xi)]
    return tuple(acc)


def weyl_dimension_eps(rs: RootSystemData, lam_eps) -> int:
    """Product over positive roots of <lam+rho, alpha>/<rho, alpha>, in
    integers: with s clearing the denominators of lam, each factor is
    <2s lam + 2s rho, alpha>/<2s rho, alpha>."""
    lam = tuple(map(fr, lam_eps))
    s = lcm(*(x.denominator for x in lam))
    two_rho = tuple(s * x for x in rs.two_rho)
    top = tuple(int(2 * s * x) + r for x, r in zip(lam, two_rho))
    num = den = 1
    for alpha in rs.integral_positive_roots:
        num *= sum(map(mul, top, alpha))
        den *= sum(map(mul, two_rho, alpha))
    val, rem = divmod(num, den)
    if rem or val <= 0:
        raise ValueError(f"Weyl product is not a positive integer: {Fraction(num, den)}")
    return val


def weyl_dimension(rs: RootSystemData, weight: DominantWeight) -> int:
    """Product over positive roots of <lam+rho, alpha>/<rho, alpha>."""
    check_weight(rs, weight)
    return weyl_dimension_eps(rs, weight_to_eps(rs, weight))

