"""Classical root systems (families A-D) in exact rational arithmetic.

Roots and weights live in the usual orthonormal-coordinate realization
(ambient R^{l+1} for A_l, R^l otherwise); the invariant form is the Euclidean
dot product there, so coroot pairings are exact Fractions; roots and 2 rho
are integral.  Each system's integer tables are built once (``_tables``),
and its record and every reader share them.  A dominant weight enters the
integer kernels once, as ``weight_lattice`` reads it: (scale, integer
tuple), its epsilon coordinates times their least common denominator,
cached per weight; Weyl dimension products are then taken in integers,
each positive root read through its at most two nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, count, repeat
from math import gcd, lcm, prod
from operator import add, mul, neg
from types import MappingProxyType

from .exact import Record, check_int, fr

FAMILIES = ("A", "B", "C", "D")


class RootSystemData(Record):
    """The exact fields of a root system, and its ``_tables`` as attributes."""

    def __init__(self, family: str, rank: int, ambient_dim: int, simple_roots: tuple,
                 positive_roots: tuple, fundamental_weights: tuple):
        self._store(family, rank, ambient_dim, simple_roots, positive_roots, fundamental_weights)
        self.__dict__.update(_tables(family, rank))


class DominantWeight(Record):
    """A dominant weight by its coefficients on the fundamental weights,
    stored as a tuple, so that the weight is a cache key."""

    def __init__(self, family: str, rank: int, coeffs: tuple):
        if family not in FAMILIES:
            raise ValueError(f"no dominant weights of family {family!r}")
        self._store(family, check_int(rank, 0, "a dominant weight has an int rank"),
                    coeffs := tuple(coeffs))
        if len(coeffs) != rank:
            raise ValueError("coefficient count must equal the rank")
        for k in coeffs:
            check_int(k, 0, "dominant weights need nonnegative integer coefficients")


@lru_cache(maxsize=None, typed=True)
def build_root_system(family: str, rank: int) -> RootSystemData:
    """Exact simple roots, positive roots and fundamental weights, made once
    per system from its integer tables (``_tables``).  D needs rank >= 2
    (D_1 has no root data in this realization), A-C an int rank >= 1.  The
    cache is typed, so True is not filed as 1: it misses, and is refused."""
    if family not in FAMILIES:
        raise ValueError(f"unsupported family {family!r}")
    check_int(rank, least := 1 + (family == "D"), f"{family} needs an int rank >= {least}")
    t = _tables(family, rank)
    d, funds = t["integral_fundamental_weights"]
    return RootSystemData(family, rank, len(t["two_rho"]), _fractions(t["integral_simple_roots"]),
                          _fractions(t["integral_positive_roots"]), _fractions(funds, d))


def _fractions(vectors, d=1):
    """The integer ``vectors`` over ``d`` as Fractions, one made per value."""
    value = {x: Fraction(x, d) for x in set(chain.from_iterable(vectors))}
    return tuple(tuple(map(value.__getitem__, v)) for v in vectors)


@lru_cache(maxsize=None)
def _tables(family: str, rank: int) -> MappingProxyType:
    """The integer tables of a system ``build_root_system`` accepts, by name,
    read off one pattern (Bourbaki, Lie Groups, ch. VI, plates I-IV).  The
    positive roots e_i - e_j (i < j), each followed by e_i + e_j outside A,
    then e_i (B) or 2 e_i (C): ``sparse_positive_roots`` ((i, a), (j, b)),
    b = 0 repeating i, and ``integral_positive_roots``; then the
    ``integral_simple_roots``, ``two_rho`` in closed form, ``root_heights``
    <alpha, 2 rho> and their product ``weyl_denominator``;
    ``integral_fundamental_weights`` (D, e_1 + ... + e_k times D: traceless
    for A, D = rank + 1; the last one (B) or two (D) spin, D = 2) and its
    ``fundamental_columns``; per root, ``pairing_rows`` <alpha, alpha_i>,
    ``positive_pairings`` (i, pairing > 0) and ``positive_masks`` (those i
    as bits); per s_i, ``reflections``: its permutation of the roots up to sign."""
    n = rank + 1 if family == "A" else rank
    signs = (-1,) if family == "A" else (-1, 1)
    sparse = [((i, 1), (j, s)) for i in range(n) for j in range(i + 1, n) for s in signs]
    if family in ("B", "C"):
        sparse += [((i, 1 if family == "B" else 2), (i, 0)) for i in range(n)]
    # the last positive root closes the chain: e_l - e_(l+1), e_l, 2 e_l or e_(l-1) + e_l
    simple = [((i, 1), (i + 1, -1)) for i in range(rank - 1)] + sparse[-1:]
    roots = _dense(n, sparse)
    two_rho = tuple(n - 1 - 2 * k if family == "A" else 2 * (n - k) - "CBD".index(family)
                    for k in range(n))
    heights = tuple(two_rho[i] * a + two_rho[j] * b for (i, a), (j, b) in sparse)
    d = {"A": n, "C": 1}.get(family, 2)
    funds = [tuple(d * (i < k) - (k if family == "A" else 0) for i in range(n))
             for k in range(1, rank + 1)]
    if family == "B":
        funds[-1] = (1,) * n
    elif family == "D":
        funds[-2:] = [(1,) * (n - 1) + (-1,), (1,) * n]
    # over the root columns, per simple root psi = a e_p + b e_q: <alpha, psi>, and s_psi,
    # which swaps coordinates p and q, negating both where ab >= 0 (just p where b = 0)
    cols = list(zip(*roots))
    flipped = [tuple(map(neg, col)) for col in cols]
    index = dict(zip(roots, count()))
    index.update(zip(zip(*flipped), count()))
    rows = tuple(zip(*(map(add, map(mul, cols[p], repeat(a)), map(mul, cols[q], repeat(b)))
                       for (p, a), (q, b) in simple)))
    reflections = []
    for (p, a), (q, b) in simple:
        image, swap = cols.copy(), flipped if a * b >= 0 else cols
        image[p], image[q] = swap[q], swap[p]
        reflections.append(tuple(map(index.__getitem__, zip(*image))))
    positive = tuple(tuple((i, x) for i, x in enumerate(row) if x > 0) for row in rows)
    return MappingProxyType(dict(
        sparse_positive_roots=tuple(sparse), integral_positive_roots=roots,
        integral_simple_roots=_dense(n, simple), two_rho=two_rho, root_heights=heights,
        weyl_denominator=prod(heights), integral_fundamental_weights=(d, tuple(funds)),
        fundamental_columns=tuple(zip(*funds)), pairing_rows=rows, positive_pairings=positive,
        reflections=tuple(reflections),
        positive_masks=tuple(sum(1 << i for i, _ in pos) for pos in positive)))


def _dense(n, sparse):
    """The integer n-tuples written by the sparse ((i, a), (j, b)) vectors."""
    out = []
    for (i, a), (j, b) in sparse:
        v = [0] * n
        v[j], v[i] = b, a  # b = 0 where j = i
        out.append(tuple(v))
    return tuple(out)


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
    t = _tables(family, rank)
    d = t["integral_fundamental_weights"][0]
    acc = [sum(map(mul, coeffs, column)) for column in t["fundamental_columns"]]
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
