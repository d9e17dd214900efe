"""Classical root systems (families A-D) in exact rational arithmetic.

Roots and weights live in the usual orthonormal-coordinate realization
(ambient R^{l+1} for A_l, R^l otherwise); the invariant form is the Euclidean
dot product there, so coroot pairings are exact Fractions; roots and 2 rho
are integral.  A dominant weight enters the integer kernels once, as
``weight_lattice`` reads it: (scale, integer tuple), its epsilon coordinates
times their least common denominator, cached per weight; Weyl dimension
products are then taken in integers, each positive root read through its
at most two nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import mul

from .exact import Record, fr

FAMILIES = ("A", "B", "C", "D")


class RootSystemData(Record):
    def __init__(self, family: str, rank: int, ambient_dim: int, simple_roots: tuple,
                 positive_roots: tuple, fundamental_weights: tuple):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "simple_roots", simple_roots)
        object.__setattr__(self, "positive_roots", positive_roots)
        object.__setattr__(self, "fundamental_weights", fundamental_weights)

    @cached_property
    def integral_positive_roots(self):
        """The positive roots as integer tuples (every root is integral)."""
        return tuple(tuple(int(x) for x in alpha) for alpha in self.positive_roots)

    @cached_property
    def sparse_positive_roots(self):
        """Each positive root as its two nonzero entries ((i, a), (j, b)), so a
        pairing with it is top[i] * a + top[j] * b: e_i -+ e_j for every
        family; a root with one nonzero entry (e_i for B, 2 e_i for C) repeats
        its index with b = 0."""
        out = []
        for alpha in self.integral_positive_roots:
            (i, a), *rest = [(i, x) for i, x in enumerate(alpha) if x]
            out.append(((i, a), rest[0] if rest else (i, 0)))
        return tuple(out)

    @cached_property
    def two_rho(self):
        """2 rho, the sum of the positive roots, as an integer tuple."""
        return tuple(map(sum, zip(*self.integral_positive_roots)))

    @cached_property
    def weyl_denominator(self) -> int:
        """The product over positive roots of <2 rho, alpha>."""
        return prod(sum(map(mul, self.two_rho, alpha)) for alpha in self.integral_positive_roots)

    @cached_property
    def integral_fundamental_weights(self):
        """(D, the fundamental weights times D as integer tuples), D the least
        common denominator of their entries: rank + 1 for A, 2 for B and D,
        1 for C."""
        d = lcm(*(x.denominator for xi in self.fundamental_weights for x in xi))
        return d, tuple(tuple(int(d * x) for x in xi) for xi in self.fundamental_weights)


class DominantWeight(Record):
    def __init__(self, family: str, rank: int, coeffs: tuple):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != rank:
            raise ValueError("coefficient count must equal the rank")
        # bool is an int subclass, but True is not a coefficient
        if any(isinstance(k, bool) or not isinstance(k, int) or k < 0 for k in coeffs):
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


def check_eps(rs: RootSystemData, lam_eps) -> None:
    """Raise unless ``lam_eps`` has ``rs.ambient_dim`` entries, none a bool."""
    if len(lam_eps) != rs.ambient_dim or any(type(x) is bool for x in lam_eps):
        raise ValueError(f"a weight of {rs.family}{rs.rank} has {rs.ambient_dim} "
                         f"epsilon entries and no bool, not {tuple(lam_eps)}")


def weight_lattice(rs: RootSystemData, weight: DominantWeight):
    """(scale, integer tuple): the epsilon coordinates of ``weight`` times
    scale, their least common denominator.  The sum of k_i times the
    fundamental weights is taken on D times them, then divided by
    g = gcd(D, entries), so scale = D / g."""
    return _lattice(rs.family, rs.rank, weight.coeffs)


@lru_cache(maxsize=None)
def _lattice(family: str, rank: int, coeffs: tuple):
    """``weight_lattice`` once per weight: the Weyl dimension and the weight
    system of one weight both ask for it."""
    d, funds = build_root_system(family, rank).integral_fundamental_weights
    acc = [sum(map(mul, coeffs, column)) for column in zip(*funds)]
    g = gcd(d, *acc)
    return d // g, tuple(a // g for a in acc)


def _weyl_product(rs: RootSystemData, s: int, lam) -> int:
    """Product over positive roots of <lam/s + rho, alpha>/<rho, alpha> for
    the integer tuple ``lam``, in integers: each factor is
    <2 lam + 2s rho, alpha>/<2s rho, alpha>, so the denominator is
    s^N times the system's ``weyl_denominator``, N the number of roots."""
    roots = rs.sparse_positive_roots
    top = [2 * x + s * r for x, r in zip(lam, rs.two_rho)]
    num = prod(top[i] * a + top[j] * b for (i, a), (j, b) in roots)
    den = s ** len(roots) * rs.weyl_denominator
    val, rem = divmod(num, den)
    if rem or val <= 0:
        raise ValueError(f"Weyl product is not a positive integer: {Fraction(num, den)}")
    return val


def weyl_dimension_eps(rs: RootSystemData, lam_eps) -> int:
    """Product over positive roots of <lam+rho, alpha>/<rho, alpha> for the
    epsilon tuple ``lam_eps``, s clearing its denominators (s = 1, and no
    Fraction is made, when every entry is an int)."""
    check_eps(rs, lam_eps)
    if all(type(x) is int for x in lam_eps):
        return _weyl_product(rs, 1, lam_eps)
    lam = tuple(map(fr, lam_eps))
    s = lcm(*(x.denominator for x in lam))
    return _weyl_product(rs, s, tuple(int(s * x) for x in lam))


def weyl_dimension(rs: RootSystemData, weight: DominantWeight) -> int:
    """Product over positive roots of <lam+rho, alpha>/<rho, alpha>."""
    check_weight(rs, weight)
    return _weyl_product(rs, *weight_lattice(rs, weight))
