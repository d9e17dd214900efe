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


def _vec(n, entries):
    """The vector of Q^n with the given {index: value} entries, zero elsewhere."""
    v = [Fraction(0)] * n
    for i, x in entries.items():
        v[i] = Fraction(x)
    return tuple(v)


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystemData:
    """Exact simple roots, positive roots and fundamental weights.

    D needs rank >= 2 (D_1 has no root data in this realization); A-C accept
    any rank >= 1.  The result is immutable, so each system is built once.
    Every family is read off one pattern: the roots e_i - e_j (i < j), each
    followed by e_i + e_j outside A, then e_i for B or 2 e_i for C; the simple
    chain e_i - e_(i+1) closed by one family-specific root; the fundamental
    weights e_1 + ... + e_k (traceless for A), with the last one (B) or two
    (D) replaced by the spin weights.
    """
    if family not in FAMILIES:
        raise ValueError(f"unsupported family {family!r}")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if family == "D" and rank < 2:
        raise ValueError("family D needs rank >= 2")

    n = rank + 1 if family == "A" else rank
    signs = (-1,) if family == "A" else (-1, 1)
    positive = [_vec(n, {i: 1, j: s}) for i in range(n) for j in range(i + 1, n) for s in signs]
    if family in ("B", "C"):
        positive += [_vec(n, {i: 1 if family == "B" else 2}) for i in range(n)]
    last = {"A": {rank - 1: 1, rank: -1}, "B": {rank - 1: 1}, "C": {rank - 1: 2},
            "D": {rank - 2: 1, rank - 1: 1}}[family]
    simple = [_vec(n, {i: 1, i + 1: -1}) for i in range(rank - 1)] + [_vec(n, last)]
    trace = Fraction(1, n) if family == "A" else 0
    funds = [_vec(n, {i: (i < k) - k * trace for i in range(n)}) for k in range(1, rank + 1)]
    spin = dict.fromkeys(range(n), Fraction(1, 2))
    if family == "B":
        funds[-1] = _vec(n, spin)
    elif family == "D":
        funds[-2:] = [_vec(n, {**spin, n - 1: Fraction(-1, 2)}), _vec(n, spin)]
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

