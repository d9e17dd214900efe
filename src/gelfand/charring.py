"""Character-ring computations for the compact groups acting on the flat
pieces of the nilmanifold constructions.

Two layers live here.  The lower one works with a single classical root
system: Freudenthal weight multiplicities, Brauer-Klimyk tensor products.
The upper one handles product groups (classical factors plus circle factors)
acting on a complex module through one of the constructions standard / S^2 /
Lambda^2 / outer tensor, and decomposes symmetric powers of the dual module,
which is what degree-d polynomials transform by.  Their weight multisets
come from the complete homogeneous recursion h_d, run once per (factors,
construction) for every degree up to the highest one asked; the torus
quotient is left out of that key because it only shifts the labels
afterwards.

Weights are kept in orthonormal epsilon coordinates, an integer tuple per
factor: the full gl weight (one entry per column) for unitary factors, one
entry per epsilon for so/sp factors, and a 1-tuple for circle factors.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, combinations_with_replacement, product, repeat
from math import comb, factorial, lcm, prod
from operator import add, mul, sub
from types import MappingProxyType

from . import rootsys
from .exact import fr

# ---------------------------------------------------------------------------
# single root system: Freudenthal and Brauer-Klimyk
# ---------------------------------------------------------------------------


def weight_system(rs: rootsys.RootSystemData, weight: rootsys.DominantWeight):
    """Weight multiplicities of the irreducible module, by Freudenthal's
    recursion: a read-only {epsilon tuple: multiplicity} mapping."""
    rootsys.check_weight(rs, weight)
    return WeightSystem(rs.family, *_freudenthal(rs, rootsys.weight_to_eps(rs, weight)))


class WeightSystem(Mapping):
    """A weight system held as its dominant multiplicities and read over the
    Weyl orbits on demand (Moody-Patera).

    ``dominant`` maps each dominant weight, as an integer tuple multiplied by
    ``scale``, to its multiplicity, as ``_freudenthal`` returns them.  Keys
    are epsilon tuples of ``Fraction``s, in ``_weyl_orbit`` order within each
    dominant weight.  ``len`` and ``values`` come from the orbit sizes, and
    only ``lattice_items`` lists an orbit.
    """

    __slots__ = ("family", "scale", "dominant")

    def __init__(self, family: str, scale: int, dominant):
        self.family, self.scale, self.dominant = family, scale, dominant

    def __getitem__(self, weight):
        scaled = [Fraction(x) * self.scale for x in weight]
        if (len(scaled) != len(next(iter(self.dominant)))
                or any(x.denominator != 1 for x in scaled)):
            raise KeyError(weight)
        m = self.dominant.get(_dominant(self.family, tuple(map(int, scaled))))
        if m is None:
            raise KeyError(weight)
        return m

    def __len__(self):
        return sum(_orbit_size(self.family, mu) for mu in self.dominant)

    def __iter__(self):
        return (nu for nu, _ in self.items())

    def lattice_items(self):
        """(integer tuple, multiplicity) for every weight, each tuple being
        an epsilon-coordinate weight multiplied by ``scale``."""
        for mu, m in self.dominant.items():
            for nu in _weyl_orbit(self.family, mu):
                yield nu, m

    def items(self):
        return _WeightItems(self)

    def values(self):
        return _WeightValues(self)


class _WeightItems(ItemsView):
    def __iter__(self):
        ws = self._mapping
        frac = {x: Fraction(x, ws.scale) for mu in ws.dominant for a in mu for x in (a, -a)}
        for nu, m in ws.lattice_items():
            yield tuple(map(frac.__getitem__, nu)), m


class _WeightValues(ValuesView):
    def __iter__(self):
        ws = self._mapping
        for mu, m in ws.dominant.items():
            yield from repeat(m, _orbit_size(ws.family, mu))


def _freudenthal(rs: rootsys.RootSystemData, lam):
    """Freudenthal recursion on the dominant weights of the integer lattice.

    Uses |lam+rho|^2 - |mu+rho|^2 = |lam|^2 - |mu|^2 + <lam - mu, 2 rho>;
    roots and 2 rho are integral, so only the denominators of ``lam`` are
    cleared.  The weight system is Weyl-invariant, so multiplicities are
    computed on dominant weights only, each root-string term being read at
    its dominant conjugate (Moody-Patera).  Returns
    (scale, {dominant integer tuple: multiplicity}), the keys being the
    weights multiplied by ``scale``; ``WeightSystem`` reads them over their
    Weyl orbits.
    """
    family = rs.family
    scale = lcm(*(fr(x).denominator for x in lam))
    lam_i = tuple(int(x * scale) for x in lam)
    roots_i = [tuple(x * scale for x in alpha) for alpha in rs.integral_positive_roots]
    shift = tuple(x * scale for x in rs.two_rho)
    # Stembridge: every dominant weight of the module is reached from lam by
    # subtracting positive roots through dominant weights
    dominant = [lam_i]
    seen = {lam_i}
    for mu in dominant:
        for alpha in roots_i:
            nu = tuple(map(sub, mu, alpha))
            if nu not in seen and _dominant(family, nu) == nu:
                seen.add(nu)
                dominant.append(nu)
    # every string term mu + k alpha, and so its dominant conjugate, pairs
    # higher with 2 rho than mu does: its multiplicity is known before mu's
    dominant.sort(key=lambda mu: sum(map(mul, mu, shift)), reverse=True)
    top = sum(a * (a + c) for a, c in zip(lam_i, shift))
    mults = {lam_i: 1}
    for mu in dominant[1:]:
        total = 0
        for alpha in roots_i:
            nu = tuple(map(add, mu, alpha))
            while (m := mults.get(_dominant(family, nu))) is not None:
                total += m * sum(map(mul, nu, alpha))
                nu = tuple(map(add, nu, alpha))
        num = 2 * total
        denom = top - sum(a * (a + c) for a, c in zip(mu, shift))
        if denom <= 0 or num % denom != 0 or num <= 0:
            raise ArithmeticError(f"Freudenthal produced a bad multiplicity {num}/{denom}")
        mults[mu] = num // denom
    return scale, mults


def _weyl_orbit(family: str, mu):
    """Weyl orbit of the dominant ``mu``: its distinct permutations for A,
    distinct signed permutations for B and C; for D the same with an even
    number of sign changes, unless ``mu`` has a zero entry."""
    if family == "A":
        return _distinct_permutations(mu)
    parity = sum(x < 0 for x in mu) % 2
    any_signs = family != "D" or 0 in mu
    return [
        nu
        for p in _distinct_permutations(map(abs, mu))
        for nu in product(*((x, -x) if x else (0,) for x in p))
        if any_signs or sum(x < 0 for x in nu) % 2 == parity
    ]


def _distinct_permutations(values):
    """Each distinct ordering of the multiset ``values`` once, in
    lexicographic order (next-permutation steps, so the cost follows the
    number of orderings, not n!)."""
    a = sorted(values)
    out = [tuple(a)]
    while True:
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]
        out.append(tuple(a))


def _orbit_size(family: str, mu) -> int:
    """Size of the Weyl orbit of the dominant ``mu``, without listing it: the
    multinomial of the entries for A; for B and C the distinct orderings of
    the absolute values times 2^(nonzero entries); for D the same, except
    that with no zero entry only the even sign changes count, 2^(n-1)."""
    size = factorial(len(mu))
    for count in Counter(mu if family == "A" else map(abs, mu)).values():
        size //= factorial(count)
    if family == "A":
        return size
    signs = sum(1 for x in mu if x)
    if family == "D" and signs == len(mu):
        signs -= 1
    return size << signs


def _dominant(family: str, v):
    """Dominant Weyl conjugate of ``v`` (no rho shift; singular or not): the
    one statement of the chambers.  A sorts the entries; B, C and D sort
    their absolute values, D keeping the sign parity on the smallest."""
    if family == "A":
        return tuple(sorted(v, reverse=True))
    out = sorted(map(abs, v), reverse=True)
    if family == "D" and out[-1] and sum(x < 0 for x in v) % 2:
        out[-1] = -out[-1]
    return tuple(out)


def _reflect_to_dominant(family: str, vec):
    """Weyl-reflect ``vec`` into the closed dominant chamber.

    Returns (dominant tuple, sign) or None when the vector is singular
    (fixed by some nontrivial Weyl element): repeated entries for A,
    repeated absolute values for B-D, or a zero entry for B and C.  The sign
    is the determinant of the Weyl element: the sign of the sorting
    permutation, times -1 per negative entry for B and C.
    """
    size = list(vec) if family == "A" else [abs(x) for x in vec]
    if len(set(size)) < len(size) or (family in ("B", "C") and 0 in size):
        return None
    sign = _perm_sign(sorted(range(len(size)), key=size.__getitem__, reverse=True))
    if family in ("B", "C") and sum(x < 0 for x in vec) % 2:
        sign = -sign
    return _dominant(family, vec), sign


def _perm_sign(order):
    seen = [False] * len(order)
    sign = 1
    for i in range(len(order)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def tensor_decompose(rs: rootsys.RootSystemData, lam: rootsys.DominantWeight,
                     mu: rootsys.DominantWeight):
    """Brauer-Klimyk: run the weight system of mu against lam + rho.

    Works on the integer lattice scaled by s = lcm(2 scale, denominators of
    lam), ``scale`` being that of mu's weight system: s(lam + rho) + s nu
    is an integer tuple, its dominant conjugate less s rho is s times the
    target weight, and the target's coefficients are the coroot pairings
    2<target, alpha_i> / (s <alpha_i, alpha_i>), which must divide exactly.
    Returns {DominantWeight: multiplicity}.
    """
    rootsys.check_weight(rs, lam)
    rootsys.check_weight(rs, mu)
    mults = WeightSystem(rs.family, *_freudenthal(rs, rootsys.weight_to_eps(rs, mu)))
    scale = mults.scale
    lam_eps = rootsys.weight_to_eps(rs, lam)
    s = lcm(2 * scale, *(x.denominator for x in lam_eps))
    step = s // scale
    shift = tuple(s // 2 * r for r in rs.two_rho)
    base = tuple(int(s * x) + r for x, r in zip(lam_eps, shift))
    simple = [tuple(map(int, alpha)) for alpha in rs.simple_roots]
    pairings = [(alpha, s * sum(map(mul, alpha, alpha))) for alpha in simple]
    out: dict = {}
    for nu, m in mults.lattice_items():
        res = _reflect_to_dominant(rs.family, tuple(b + step * x for b, x in zip(base, nu)))
        if res is None:
            continue
        dom, sign = res
        target = tuple(map(sub, dom, shift))
        coeffs = []
        for alpha, denom in pairings:
            c, rem = divmod(2 * sum(map(mul, target, alpha)), denom)
            if rem or c < 0:
                raise ArithmeticError("Brauer-Klimyk left the dominant lattice")
            coeffs.append(c)
        key = rootsys.DominantWeight(rs.family, rs.rank, tuple(coeffs))
        out[key] = out.get(key, 0) + sign * m
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# product groups and polynomial modules
# ---------------------------------------------------------------------------

GL, SO, SP, U1 = "gl", "so", "sp", "u1"
_SYM_POWERS: dict = {}  # (factors, construction) -> Decompositions of degree 0, 1, ...


@dataclass(frozen=True)
class Factor:
    """One factor of the acting group.

    kind 'gl' with size n: the unitary group on C^n (weights are full
    integer n-tuples); 'so' with size n: SO(n); 'sp' with size n: Sp(n)
    acting on C^{2n}; 'u1': a circle acting by scalars.
    """

    kind: str
    size: int = 0

    @property
    def eps_rank(self) -> int:
        if self.kind == GL:
            return self.size
        if self.kind == SO:
            return self.size // 2
        if self.kind == SP:
            return self.size
        return 1

    def standard_weights(self):
        """Weights of the defining module (the space the factor acts on)."""
        if self.kind == U1:
            return [(1,)]  # u1 scaling: weight one per coordinate
        r = self.eps_rank
        units = [_unit(r, i, 1) for i in range(r)]
        if self.kind == GL:
            return units
        # so/sp: +-e_i, and the zero weight for odd orthogonal groups
        units += [_unit(r, i, -1) for i in range(r)]
        return units + [(0,) * r] if self.kind == SO and self.size % 2 else units

    def _root_type(self):
        """(family, rank) of the factor's root system; None for a torus."""
        if self.kind == GL:
            return ("A", self.size - 1) if self.size >= 2 else None
        if self.kind == SO:
            if self.size == 2:
                return None
            return ("D" if self.size % 2 == 0 else "B", self.size // 2)
        if self.kind == SP:
            return ("C", self.size)
        return None

    def dim(self, w) -> int:
        # gl weights go to A_{n-1} ambient coordinates unchanged (the Weyl
        # product only sees differences, so the trace part is harmless)
        rt = self._root_type()
        return 1 if rt is None else _weyl_dimension_cached(*rt, tuple(w))

    def dominant_multiplicities(self, w):
        """Dominant weights {weight tuple: multiplicity} of the irreducible
        with highest weight ``w``: a read-only view of the cached kernel
        result, the rest of the weight system being their Weyl orbits."""
        rt = self._root_type()
        if rt is None:
            return {w: 1}
        # the polynomial-module machinery lives on the integral lattice; a
        # half-integral (spin) label here would be a caller bug
        if any(fr(x).denominator != 1 for x in w):
            raise ValueError(f"non-integral factor weight {w}")
        return _freudenthal_cached(*rt, tuple(map(int, w)))

    def rho_strict(self):
        """A strictly dominant integer functional, used to pick off highest
        weights in a Weyl-invariant multiset (strictly decreasing, so also
        strictly D-dominant); zero on a circle or SO(2)."""
        if self.kind == U1 or (self.kind == SO and self.size == 2):
            return (0,) * self.eps_rank
        return tuple(range(self.eps_rank, 0, -1))


def _unit(n, i, sign):
    return tuple(sign if j == i else 0 for j in range(n))


@lru_cache(maxsize=None)
def _weyl_dimension_cached(family, rank, w):
    """Weyl dimension of the epsilon weight ``w``; labels repeat it often."""
    return rootsys.weyl_dimension_eps(rootsys.build_root_system(family, rank), w)


@lru_cache(maxsize=None)
def _freudenthal_cached(family, rank, w):
    """Dominant weight multiplicities of the integral highest weight ``w``,
    integer keys, behind a read-only view (the dict is shared)."""
    return MappingProxyType(_freudenthal(rootsys.build_root_system(family, rank), w)[1])


@dataclass(frozen=True)
class Construction:
    """How the group acts on the module: tag plus the factor indices used."""

    tag: str  # standard | sym2 | lambda2 | tensor | dsum
    args: tuple = ()
    parts: tuple = ()  # for dsum: sub-constructions


@dataclass(frozen=True)
class GroupDatum:
    """A table row instance: factors, module construction, and the torus
    quotient that labels are read modulo.

    Each entry of ``quotient`` is a group of gl factor indices whose
    determinant characters are quotiented together: ``(i,)`` reads factor i
    as SU, ``(i, j)`` as S(U x U), one shift by the last entry of factor j
    across both.  Empty: every factor keeps its full character data.
    """

    factors: tuple
    construction: Construction
    quotient: tuple = ()

    def __post_init__(self):
        seen = set()
        for group in self.quotient:
            if not group:
                raise ValueError("an empty quotient group")
            for i in group:
                if not 0 <= i < len(self.factors):
                    raise ValueError(f"quotient index {i} is out of range")
                if self.factors[i].kind != GL:
                    raise ValueError(f"quotient index {i} is not a gl factor")
                if i in seen:
                    raise ValueError(f"quotient index {i} appears twice")
                seen.add(i)


def _construction_weights(factors, con: Construction):
    """Per-coordinate weight tuples of the module (one entry per factor).

    Each construction yields cells {factor index: weight}; every factor a
    cell leaves out acts by its default, weight one for a scalar circle and
    zero otherwise.  On ``trivial`` coordinates circles act trivially too.
    """
    if con.tag == "dsum":
        return [row for part in con.parts for row in _construction_weights(factors, part)]
    if con.tag == "trivial":
        (dim,) = con.args
        return [tuple((0,) * f.eps_rank for f in factors)] * dim
    if con.tag == "standard":
        (i,) = con.args
        cells = [{i: w} for w in factors[i].standard_weights()]
    elif con.tag in ("sym2", "lambda2"):
        (i,) = con.args
        pairs = combinations_with_replacement if con.tag == "sym2" else combinations
        cells = [{i: tuple(map(add, a, b))} for a, b in pairs(factors[i].standard_weights(), 2)]
    elif con.tag == "tensor":
        i, j = con.args
        cells = [{i: a, j: b} for a, b in product(factors[i].standard_weights(),
                                                   factors[j].standard_weights())]
    else:
        raise ValueError(f"unsupported construction {con.tag!r}")
    default = [(1,) if f.kind == U1 else (0,) * f.eps_rank for f in factors]
    return [tuple(cell.get(k, w) for k, w in enumerate(default)) for cell in cells]


@dataclass(frozen=True)
class Decomposition:
    """List of (label, multiplicity) with the total dimension it must carry.

    A label is a tuple holding one dominant weight per factor.
    """

    entries: tuple
    dimension: int


def _label_dim(factors, label) -> int:
    d = 1
    for f, w in zip(factors, label):
        d *= f.dim(w)
    return d


def decompose_weight_multiset(factors, multiset) -> tuple:
    """Peel highest weights off a Weyl-invariant weight multiset.

    Only labels dominant in every factor are read.  Taken in decreasing
    order of the strictly-dominant pairing, each label still present is the
    highest weight of a constituent; the dominant part of its weight system
    is subtracted from the labels after it.
    """
    rhos = [f.rho_strict() for f in factors]
    chambers = [(i, rt[0]) for i, f in enumerate(factors) if (rt := f._root_type())]
    remaining = {
        lab: m for lab, m in multiset.items()
        if all(_dominant(fam, lab[i]) == lab[i] for i, fam in chambers)
    }
    entries = []
    for best in sorted(remaining, key=lambda lab: (_extract_score(lab, rhos), lab),
                       reverse=True):
        mult = remaining[best]
        if mult < 0:
            raise ArithmeticError("negative multiplicity during extraction")
        if not mult:
            continue
        entries.append((best, mult))
        parts = [f.dominant_multiplicities(w).items() for f, w in zip(factors, best)]
        for combo in product(*parts):
            key = tuple(w for w, _ in combo)
            newv = remaining.get(key, 0) - mult * prod(m for _, m in combo)
            if newv < 0:
                raise ArithmeticError("negative multiplicity during extraction")
            remaining[key] = newv
    return tuple(entries)


def _extract_score(label, rhos):
    return sum(a * b for w, rho in zip(label, rhos) for a, b in zip(w, rho))


def sym_power_decompose(datum: GroupDatum, d: int) -> Decomposition:
    """Decompose degree-d polynomials on the module under the group.

    Polynomials transform by the d-th symmetric power of the dual module,
    whose weight multiset is the complete homogeneous h_d of the dual
    coordinate weights.  The result is checked for exact dimension
    conservation and kept in one list per (factors, construction): the torus
    quotient only shifts labels afterwards (``canonical_label``), so data
    that differ only there share one ``Decomposition``.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    done = _SYM_POWERS.setdefault((datum.factors, datum.construction), [])
    if len(done) <= d:
        done.extend(_sym_powers(datum.factors, datum.construction, len(done), d))
    return done[d]


def _sym_powers(factors, construction, lo, hi):
    """Yield the decompositions of degrees lo..hi from one run of
    h_d(x_1..x_k) = h_d(x_1..x_{k-1}) + x_k h_{d-1}(x_1..x_k), the
    coefficient of t^d in prod_i 1/(1 - t e^{w_i}) (Macdonald I.2), on flat
    integer weights, eps_rank slots per factor.  Only keys dominant in every
    factor are cut into labels."""
    coords = _construction_weights(factors, construction)
    ends = list(accumulate((f.eps_rank for f in factors), initial=0))
    h = [{(0,) * ends[-1]: 1}] + [{} for _ in range(hi)]
    for row in coords:
        w = tuple(-x for v in row for x in v)
        for lower, upper in zip(h, h[1:]):  # lower already holds this weight
            for mu, m in lower.items():
                key = tuple(map(add, mu, w))
                upper[key] = upper.get(key, 0) + m
    cuts = list(zip(ends, ends[1:]))
    chambers = [(rt[0], a, b) for f, (a, b) in zip(factors, cuts) if (rt := f._root_type())]
    for d in range(lo, hi + 1):
        items = h[d].items()
        for fam, a, b in chambers:
            items = [(key, m) for key, m in items if _dominant(fam, key[a:b]) == key[a:b]]
        multiset = {tuple(key[a:b] for a, b in cuts): m for key, m in items}
        entries = decompose_weight_multiset(factors, multiset)
        expected = comb(len(coords) + d - 1, d)
        total = sum(m * _label_dim(factors, lab) for lab, m in entries)
        if total != expected:
            raise ArithmeticError(f"dimension conservation failed: {total} != {expected}"
                                  f" at degree {d}")
        yield Decomposition(entries, expected)


# ---------------------------------------------------------------------------
# label canonicalization (torus normalizations) and multiplicity-freeness
# ---------------------------------------------------------------------------


def canonical_label(datum: GroupDatum, label):
    """Quotient the label by the datum's torus quotient: each group's gl
    weights are shifted together so that the last entry of its last factor
    is zero."""
    if not datum.quotient:
        return label
    out = list(label)
    for group in datum.quotient:
        shift = label[group[-1]][-1]
        for i in group:
            out[i] = tuple(x - shift for x in label[i])
    return tuple(out)


def is_multiplicity_free_polynomial_action(datum: GroupDatum, degree_bound: int):
    """Joint multiplicity-freeness of degrees 0..D.

    Returns (flag, first_violation); the violation reports the degree at
    which a label repeated and the label itself.  Degree D is decomposed
    first (one h recursion), so a failure above the first repeat raises.
    """
    if degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    sym_power_decompose(datum, degree_bound)  # fills the list up to D
    seen: dict = {}
    for d, dec in enumerate(_SYM_POWERS[datum.factors, datum.construction][:degree_bound + 1]):
        for label, mult in dec.entries:
            key = canonical_label(datum, label)
            if mult > 1 or key in seen:
                return False, {"degree": d, "label": key, "multiplicity": mult,
                               "first_degree": seen.get(key, d)}
            seen[key] = d
    return True, None


def highest_weight_set(datum: GroupDatum, d: int) -> frozenset:
    """Labels occurring in degree-d polynomials on the module."""
    return frozenset(canonical_label(datum, lab) for lab, _ in sym_power_decompose(datum, d).entries)


def _stabilize_factor_weight(factor: Factor, bigger: Factor, w):
    """Pad a weight into the bigger factor of the same kind.

    so/sp epsilon tuples gain zeros on the right; gl tuples gain zeros as a
    sorted multiset (the consistent enumeration for unitary direct systems
    runs from the opposite end of the diagram, so zero-padding happens at
    the top of the column weights).
    """
    if factor.kind != bigger.kind:
        raise ValueError("stabilization needs matching factor kinds")
    extra = bigger.eps_rank - factor.eps_rank
    if extra < 0:
        raise ValueError("target factor is smaller than the source")
    if factor.kind == GL:
        return tuple(sorted(list(w) + [0] * extra, reverse=True))
    return tuple(list(w) + [0] * extra)


def stabilize_label(small: GroupDatum, big: GroupDatum, label):
    return tuple(
        _stabilize_factor_weight(f, g, w)
        for f, g, w in zip(small.factors, big.factors, label)
    )


def check_stability(small: GroupDatum, big: GroupDatum, d: int):
    """Do the degree-d highest weights at the small rank survive, after
    stabilization, into the set at the big rank?

    Stabilization acts on the raw constituent labels (where zero-padding is
    the shared-highest-weight-vector map); any character quotient is applied
    only afterwards, since shifting and padding do not commute.

    Returns (flag, missing labels).
    """
    if len(small.factors) != len(big.factors) or any(
        f.kind != g.kind for f, g in zip(small.factors, big.factors)
    ):
        raise ValueError("rows have different factor shapes")
    x_big = highest_weight_set(big, d)
    missing = []
    for label, _ in sym_power_decompose(small, d).entries:
        target = canonical_label(big, stabilize_label(small, big, label))
        if target not in x_big:
            missing.append((canonical_label(small, label), target))
    return not missing, missing
