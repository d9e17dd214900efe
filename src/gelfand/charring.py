"""Character-ring computations for the compact groups acting on the flat
pieces of the nilmanifold constructions.

Two layers live here.  The lower one works with a single classical root
system: Freudenthal weight multiplicities, Brauer-Klimyk tensor products.
Highest weights enter it as ``rootsys.weight_lattice`` gives them,
(scale, integer tuple), and Freudenthal sums one root string per class of
roots under the stabilizer W_mu of each dominant weight mu.
The upper one handles product groups (classical factors plus circle factors)
acting on a complex module through one of the constructions standard / S^2 /
Lambda^2 / outer tensor, and decomposes symmetric powers of the dual module,
which is what degree-d polynomials transform by.  Their weight multisets
come from the complete homogeneous recursion h_d, run once per (factors,
construction) for every degree up to the highest one asked; the torus
quotient only shifts labels afterwards, so it stays out of that key.  The
recursion packs each partial weight into one int, a biased bit field per
slot, and drops it as soon as its finished slots (those no later
coordinate touches) leave the dominant chamber (``_sym_powers``).

Weights are kept in orthonormal epsilon coordinates, an integer tuple per
factor: the full gl weight (one entry per column) for unitary factors, one
entry per epsilon for so/sp factors, and a 1-tuple for circle factors.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from fractions import Fraction
from functools import lru_cache
from itertools import (accumulate, chain, combinations, combinations_with_replacement, count,
                       groupby, product, repeat)
from math import comb, factorial, lcm, prod
from operator import add, ge, mul, sub
from types import MappingProxyType

from . import rootsys
from .exact import Record, fr

# ---------------------------------------------------------------------------
# single root system: Freudenthal and Brauer-Klimyk
# ---------------------------------------------------------------------------


def weight_system(rs: rootsys.RootSystemData, weight: rootsys.DominantWeight):
    """Weight multiplicities of the irreducible module, by Freudenthal's
    recursion: a read-only {epsilon tuple: multiplicity} mapping."""
    rootsys.check_weight(rs, weight)
    return WeightSystem(rs.family, *_freudenthal(rs, *rootsys.weight_lattice(rs, weight)))


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
        return chain.from_iterable(repeat(m, _orbit_size(ws.family, mu))
                                   for mu, m in ws.dominant.items())


def _freudenthal(rs: rootsys.RootSystemData, scale: int, lam):
    """Freudenthal recursion on the dominant weights of the integer lattice.

    ``lam`` is the highest weight's epsilon tuple times ``scale``, in
    integers, as ``rootsys.weight_lattice`` gives it.  Uses
    |lam+rho|^2 - |mu+rho|^2 = |lam|^2 - |mu|^2 + <lam - mu, 2 rho>; roots
    and 2 rho are integral, so they are only multiplied by ``scale``.  The
    weight system is Weyl-invariant, so multiplicities are computed on
    dominant weights only, each root-string term being read at its dominant
    conjugate, and the string sum is the same for every root of a W_mu class
    (Moody-Patera): one string is read per class and weighted by its size.

    Two prunings skip only checks whose answer is already known.  Where
    <mu, alpha_i> = 0, mu - alpha is dominant only if <alpha, alpha_i> <= 0,
    so the search for dominant weights tries only the roots that pair
    positively with no simple root of mu's zero set.  Every weight nu of the
    module lies in the convex hull of W lam, so |nu|^2 <= |lam|^2 (Humphreys,
    Introduction to Lie Algebras and Representation Theory, 13.4 and 21.3;
    Moody-Patera 1982): a root string stops once |mu + k alpha|^2 passes
    |lam|^2, tested before the point mu + k alpha is built.

    Roots are read through their two nonzero entries, <mu, alpha> =
    mu_i a + mu_j b, and the search carries the levels of nu = mu - alpha
    from mu: <nu, 2 rho> = <mu, 2 rho> - <alpha, 2 rho> and
    |nu|^2 = |mu|^2 - 2 <mu, alpha> + |alpha|^2.

    Each string point nu = mu + k alpha has its dominant conjugate looked up
    once per call: a memo keeps the multiplicity, or 0 where nu is not a
    weight.  That is exact: dom(nu) pairs strictly higher with 2 rho than mu,
    and mu is reached in decreasing order of that pairing, so whether dom(nu)
    is a weight, and with what multiplicity, is final when nu is first read.
    Returns (scale, {dominant integer tuple: multiplicity}), the keys being
    the weights multiplied by ``scale``; ``WeightSystem`` reads them over
    their Weyl orbits.
    """
    family, rank = rs.family, rs.rank
    simple = _root_tables(family, rank)[0]
    roots, steps, shift, open_steps = _scaled_tables(family, rank, scale)
    # Stembridge: every dominant weight of the module is reached from lam by
    # subtracting positive roots through dominant weights
    dominant = [lam]
    # each weight's pairings with the simple roots, <mu, 2 rho> and |mu|^2
    seen = {lam: (tuple(sum(map(mul, lam, psi)) for psi in simple), sum(map(mul, lam, shift)),
                  sum(a * a for a in lam))}
    classes = {}
    for mu in dominant:
        p, level, sq = seen[mu]
        fixed = tuple(i for i, x in enumerate(p) if not x)
        # lam reads no string: its zero set's classes wait for a weight below
        if (entry := open_steps.get(fixed)) is None or (entry[1] is None and mu is not lam):
            entry = open_steps[fixed] = (
                tuple(step for step in steps if all(i not in fixed for i, _ in step[-1])),
                None if mu is lam else
                tuple((size, *roots[k]) for k, size in _root_classes(family, rank, fixed)))
        classes[mu] = entry[1]
        for alpha, i, a, j, b, alpha_sq, height, row, positive in entry[0]:
            for k, c in positive:
                if p[k] < c:
                    break
            else:
                nu = tuple(map(sub, mu, alpha))
                if nu not in seen:
                    seen[nu] = (tuple(map(sub, p, row)), level - height,
                                sq - 2 * (mu[i] * a + mu[j] * b) + alpha_sq)
                    dominant.append(nu)
    # every string term mu + k alpha, and so its dominant conjugate, pairs
    # higher with 2 rho than mu does: its multiplicity is known before mu's
    dominant.sort(key=lambda mu: seen[mu][1], reverse=True)
    _, top, lam_sq = seen[lam]
    top += lam_sq
    mults = {lam: 1}
    point = {}  # string point -> multiplicity of its dominant conjugate, 0 off the module
    for mu in dominant[1:]:
        _, level, mu_sq = seen[mu]
        total = 0
        for size, alpha, i, a, j, b, alpha_sq in classes[mu]:
            pair = mu[i] * a + mu[j] * b + alpha_sq  # <mu + alpha, alpha>
            gap = lam_sq - mu_sq - 2 * pair + alpha_sq  # |lam|^2 - |mu + alpha|^2
            string, nu = 0, mu
            while gap >= 0:
                nu = tuple(map(add, nu, alpha))
                if (m := point.get(nu)) is None:
                    m = point[nu] = mults.get(_dominant(family, nu), 0)
                if not m:
                    break
                string += m * pair
                gap -= 2 * pair + alpha_sq
                pair += alpha_sq
            total += size * string
        num = 2 * total
        denom = top - mu_sq - level
        if denom <= 0 or num % denom != 0 or num <= 0:
            raise ArithmeticError(f"Freudenthal produced a bad multiplicity {num}/{denom}")
        mults[mu] = num // denom
    return scale, mults


@lru_cache(maxsize=None)
def _root_tables(family: str, rank: int):
    """Integer tables of the root system: the simple roots; per positive
    root alpha (in ``integral_positive_roots`` order) its pairings
    <alpha, alpha_i> with them; per simple reflection s_i the permutation
    it makes of the positive roots taken up to sign, as root indices."""
    rs = rootsys.build_root_system(family, rank)
    roots = rs.integral_positive_roots
    simple = tuple(tuple(map(int, psi)) for psi in rs.simple_roots)
    rows = tuple(tuple(sum(map(mul, alpha, psi)) for psi in simple) for alpha in roots)
    index = {alpha: k for k, alpha in enumerate(roots)}
    index.update({tuple(-x for x in alpha): k for k, alpha in enumerate(roots)})
    reflections = []
    for i, psi in enumerate(simple):
        norm = sum(map(mul, psi, psi))
        images = (tuple(a - 2 * row[i] // norm * x for a, x in zip(alpha, psi))
                  for alpha, row in zip(roots, rows))
        reflections.append(tuple(map(index.__getitem__, images)))
    return simple, rows, tuple(reflections)


@lru_cache(maxsize=None)
def _scaled_tables(family: str, rank: int, scale: int):
    """``_freudenthal``'s tables at one lattice scale, all times ``scale``:
    per positive root the root, its two nonzero entries (i, a, j, b) of
    ``rootsys.sparse_positive_roots`` and |root|^2; per root a step (those
    fields, <root, 2 rho>, the pairings with the simple roots, the positive
    ones as (i, pairing)); 2 rho; and a dict, filled by ``_freudenthal``, of
    the steps open at each zero set of pairings and its root classes."""
    rs = rootsys.build_root_system(family, rank)
    rows = _root_tables(family, rank)[1]
    shift = tuple(scale * x for x in rs.two_rho)
    roots = tuple((tuple(scale * x for x in alpha), i, scale * a, j, scale * b,
                   scale * scale * (a * a + b * b)) for alpha, ((i, a), (j, b))
                  in zip(rs.integral_positive_roots, rs.sparse_positive_roots))
    # mu - alpha is dominant iff mu pairs with each simple root at least as
    # alpha does, which needs checking only where alpha pairs positively
    steps = tuple((*root, sum(map(mul, root[0], shift)), tuple(scale * c for c in row),
                   tuple((i, scale * c) for i, c in enumerate(row) if c > 0))
                  for root, row in zip(roots, rows))
    return roots, steps, shift, {}


@lru_cache(maxsize=None)
def _root_classes(family: str, rank: int, fixed: tuple):
    """The classes of positive roots, taken up to sign, under the group W_mu
    generated by the simple reflections s_i, i in ``fixed`` (the stabilizer
    of a dominant mu whose zero pairings are ``fixed``, Humphreys 10.3):
    (index of the first root of each class, class size), in root order.

    The string sum S(alpha) = sum_k m(mu + k alpha) <mu + k alpha, alpha>
    is W_mu-invariant, and S(-beta) = S(beta) when <mu, beta> = 0, so it is
    constant on each class."""
    reflections = _root_tables(family, rank)[2]
    perms = [reflections[i] for i in fixed]
    classes, seen = [], set()
    for k in range(len(reflections[0])):
        if k in seen:
            continue
        orbit = [k]
        seen.add(k)
        for j in orbit:
            for perm in perms:
                if perm[j] not in seen:
                    seen.add(perm[j])
                    orbit.append(perm[j])
        classes.append((k, len(orbit)))
    return tuple(classes)


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


@lru_cache(maxsize=None)
def _orbit_size(family: str, mu) -> int:
    """Size of the Weyl orbit of the dominant ``mu``, without listing it: the
    multinomial of the entries for A; for B and C the distinct orderings of
    the absolute values times 2^(nonzero entries); for D the same, except
    that with no zero entry only the even sign changes count, 2^(n-1)."""
    size = factorial(len(mu))
    # mu is dominant, so equal entries (equal absolute values outside A) are
    # adjacent: each run is one repeated value
    for _, run in groupby(mu if family == "A" else map(abs, mu)):
        size //= factorial(len(tuple(run)))
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


def _is_dominant(family: str, v) -> bool:
    """Whether ``_dominant(family, v) == v``, as one chain v[0] >= ... >=
    v[-1], then >= 0 for B and C; for D the chain ends v[-2] >= |v[-1]|."""
    if family == "D":
        v = (*v[:-1], abs(v[-1]))
    elif family != "A":
        v = (*v, 0)
    return all(map(ge, v, v[1:]))


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
    """(-1)^(n - number of cycles): the sign of the permutation ``order``."""
    seen, cycles = [False] * len(order), 0
    for i in order:
        cycles += not seen[i]
        while not seen[i]:
            seen[i] = True
            i = order[i]
    return -1 if (len(order) - cycles) % 2 else 1


def tensor_decompose(rs: rootsys.RootSystemData, lam: rootsys.DominantWeight,
                     mu: rootsys.DominantWeight):
    """Brauer-Klimyk: run the weight system of mu against lam + rho.

    Works on the integer lattice scaled by s = lcm(2 scale, scale of lam),
    ``scale`` being that of mu's weight system: s(lam + rho) + s nu
    is an integer tuple, its dominant conjugate less s rho is s times the
    target weight, and the target's coefficients are the coroot pairings
    2<target, alpha_i> / (s <alpha_i, alpha_i>), which must divide exactly.
    Returns {DominantWeight: multiplicity}.
    """
    rootsys.check_weight(rs, lam)
    mults = weight_system(rs, mu)
    scale = mults.scale
    lam_scale, lam_i = rootsys.weight_lattice(rs, lam)
    s = lcm(2 * scale, lam_scale)
    step = s // scale
    shift = tuple(s // 2 * r for r in rs.two_rho)
    base = tuple(s // lam_scale * x + r for x, r in zip(lam_i, shift))
    simple = _root_tables(rs.family, rs.rank)[0]
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
_MIN_SIZE = {GL: 1, SO: 2, SP: 1, U1: 0}
_SYM_POWERS: dict = {}  # module key -> Decompositions of degree 0, 1, ...
_KEYS = count()  # never reset, so no key is reissued after a cache clear


@lru_cache(maxsize=None)
def _module_key(factors, construction) -> int:
    """One int per distinct (factors, construction), taken once per datum:
    the torus quotient only shifts labels afterwards, so it stays out."""
    return next(_KEYS)


class Factor(Record):
    """One factor of the acting group.

    kind 'gl' with size n >= 1: the unitary group on C^n (weights are full
    integer n-tuples); 'so' with size n >= 2: SO(n); 'sp' with size n >= 1:
    Sp(n) acting on C^{2n}; 'u1', size left at 0: a circle acting by scalars.
    """

    def __init__(self, kind: str, size: int = 0):
        if (kind not in _MIN_SIZE or type(size) is not int or size < _MIN_SIZE[kind]
                or (kind == U1 and size)):
            raise ValueError(f"no factor of kind {kind!r} and size {size!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "size", size)

    @property
    def eps_rank(self) -> int:
        return self.size // 2 if self.kind == SO else self.size or 1

    def standard_weights(self):
        """Weights of the defining module (the space the factor acts on)."""
        if self.kind == U1:
            return [(1,)]  # u1 scaling: weight one per coordinate
        r = self.eps_rank
        units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        if self.kind == GL:
            return units
        # so/sp: +-e_i, and the zero weight for odd orthogonal groups
        units += [tuple(-x for x in e) for e in units]
        return units + [(0,) * r] if self.kind == SO and self.size % 2 else units

    def _root_type(self):
        """(family, rank) of the factor's root system, the key of its label
        kernels; (None, 1) for a torus (a circle, U(1) or SO(2))."""
        if self.kind == GL and self.size >= 2:
            return "A", self.size - 1
        if self.kind == SO and self.size > 2:
            return "D" if self.size % 2 == 0 else "B", self.size // 2
        return ("C", self.size) if self.kind == SP else (None, 1)

    def dim(self, w) -> int:
        # gl weights go to A_{n-1} ambient coordinates unchanged (the Weyl
        # product only sees differences, so the trace part is harmless)
        return _weyl_dimension_cached(*self._root_type(), _label(w))

    def dominant_multiplicities(self, w):
        """Dominant weights {weight tuple: multiplicity} of the irreducible
        with highest weight ``w``: a read-only view of the cached kernel
        result, the rest of the weight system being their Weyl orbits."""
        return _freudenthal_cached(*self._root_type(), _label(w))

    def rho_strict(self):
        """A strictly dominant integer functional, used to pick off highest
        weights in a Weyl-invariant multiset (strictly decreasing, so also
        strictly D-dominant); zero on a circle or SO(2)."""
        if self.kind == U1 or (self.kind == SO and self.size == 2):
            return (0,) * self.eps_rank
        return tuple(range(self.eps_rank, 0, -1))


def _label(w) -> tuple:
    """``w`` as a kernel cache key, a bool refused before the cache is read:
    True == 1 and hashes alike, so a cached int twin would answer for it."""
    if bool in map(type, w := tuple(w)):
        raise ValueError(f"a factor weight has no bool entry, not {w}")
    return w


def _kernel_label(family, rank, w):
    """(root system or None on a torus, ``w`` as ints); raises unless ``w`` has
    one entry per epsilon coordinate (one on a torus), no bool and integral
    entries.  Run on each cache miss, so a bad label raises on every call."""
    rs = family and rootsys.build_root_system(family, rank)
    if len(w) != (rs.ambient_dim if rs else 1) or bool in map(type, w):
        raise ValueError(f"wrong number of entries, or a bool, in the factor weight {w}")
    if not all(type(x) is int or fr(x).denominator == 1 for x in w):
        raise ValueError(f"non-integral factor weight {w}")
    return rs, tuple(map(int, w))


@lru_cache(maxsize=None)
def _weyl_dimension_cached(family, rank, w):
    """Weyl dimension of the epsilon weight ``w``, 1 on a torus (family None)."""
    rs, w = _kernel_label(family, rank, w)
    return rootsys.weyl_dimension_eps(rs, w) if rs else 1


@lru_cache(maxsize=None)
def _freudenthal_cached(family, rank, w):
    """Dominant weight multiplicities of the integral highest weight ``w`` (on
    a torus, family None, ``w`` alone), int keys, behind one shared read-only
    view.  An integral Fraction hashes as its int and shares the entry; a
    half-integral (spin) label is refused: polynomials are integral."""
    rs, w = _kernel_label(family, rank, w)
    return MappingProxyType(_freudenthal(rs, 1, w)[1] if rs else {w: 1})


class Construction(Record):
    """How the group acts on the module: tag plus the factor indices used."""

    def __init__(self, tag: str, args: tuple = (), parts: tuple = ()):
        object.__setattr__(self, "tag", tag)  # standard | sym2 | lambda2 | tensor | trivial | dsum
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "parts", parts)  # for dsum: sub-constructions


def _check_construction(con: Construction, n_factors: int) -> None:
    """Raise ValueError unless ``con`` and each dsum part is a known tag with
    its args: distinct factor indices below ``n_factors``, a dimension >= 0."""
    counts = {"standard": 1, "sym2": 1, "lambda2": 1, "tensor": 2, "trivial": 1, "dsum": 0}
    if con.tag not in counts:
        raise ValueError(f"unknown construction {con.tag!r}")
    indices = () if con.tag in ("trivial", "dsum") else con.args
    if (len(con.args) != counts[con.tag] or len(set(indices)) < len(indices)
            or (con.parts and con.tag != "dsum") or min(con.args, default=0) < 0):
        raise ValueError(f"construction {con.tag!r} cannot take args {con.args}"
                         f" and {len(con.parts)} parts")
    if any(i >= n_factors for i in indices):
        raise ValueError(f"construction {con.tag!r} has a factor index out of range"
                         f" in {con.args} for {n_factors} factors")
    for part in con.parts:
        _check_construction(part, n_factors)


class GroupDatum(Record):
    """A table row instance: factors, module construction, and the torus
    quotient that labels are read modulo.

    Each entry of ``quotient`` is a group of gl factor indices whose
    determinant characters are quotiented together: ``(i,)`` reads factor i
    as SU, ``(i, j)`` as S(U x U), one shift by the last entry of factor j
    across both.  Empty: every factor keeps its full character data."""

    def __init__(self, factors: tuple, construction: Construction, quotient: tuple = ()):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "construction", construction)
        object.__setattr__(self, "quotient", quotient)
        _check_construction(construction, len(factors))
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
        object.__setattr__(self, "_key", _module_key(factors, construction))


def _construction_weights(factors, con: Construction):
    """Per-coordinate weight tuples of the module (one entry per factor).

    Each construction yields cells {factor index: weight}; every factor a
    cell leaves out acts by its default, weight one for a scalar circle and
    zero otherwise.  On ``trivial`` coordinates circles act trivially too."""
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
    else:  # tensor
        i, j = con.args
        cells = [{i: a, j: b} for a, b in product(factors[i].standard_weights(),
                                                   factors[j].standard_weights())]
    default = [(1,) if f.kind == U1 else (0,) * f.eps_rank for f in factors]
    return [tuple(cell.get(k, w) for k, w in enumerate(default)) for cell in cells]


class Decomposition(Record):
    """List of (label, multiplicity) with the total dimension it must carry;
    a label is a tuple holding one dominant weight per factor."""

    def __init__(self, entries: tuple, dimension: int):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "dimension", dimension)


def _label_dim(factors, label) -> int:
    return prod(f.dim(w) for f, w in zip(factors, label))


def decompose_weight_multiset(factors, multiset) -> tuple:
    """Peel highest weights off a Weyl-invariant weight multiset.

    Only labels dominant in every factor are read; ``_peel`` takes them with
    their pairings with the strictly dominant functional.
    """
    rhos = [f.rho_strict() for f in factors]
    chambers = [(i, fam) for i, f in enumerate(factors) if (fam := f._root_type()[0])]
    return _peel(factors, [
        (sum(a * b for w, rho in zip(lab, rhos) for a, b in zip(w, rho)), lab, m)
        for lab, m in multiset.items()
        if all(_is_dominant(fam, lab[i]) for i, fam in chambers)], {})


def _peel(factors, triples, memo):
    """Peel the dominant part of a Weyl-invariant weight multiset, given as
    (pairing with ``rho_strict``, label, multiplicity) triples.

    Taken in decreasing order of (pairing, label), each label still present
    is the highest weight of a constituent; the dominant part of its weight
    system, the product over the factors, is subtracted from the labels
    after it.  ``memo`` keeps that product per label, for later calls.
    """
    remaining = {lab: m for _, lab, m in triples}
    entries = []
    for _, best, _ in sorted(triples, reverse=True):
        mult = remaining[best]
        if mult < 0:
            raise ArithmeticError("negative multiplicity during extraction")
        if not mult:
            continue
        entries.append((best, mult))
        if (combined := memo.get(best)) is None:
            doms = [f.dominant_multiplicities(w) for f, w in zip(factors, best)]
            combined = memo[best] = list(zip(
                product(*doms), map(prod, product(*(p.values() for p in doms)))))
        for key, c in combined:
            newv = remaining.get(key, 0) - mult * c
            if newv < 0:
                raise ArithmeticError("negative multiplicity during extraction")
            remaining[key] = newv
    return tuple(entries)


def sym_power_decompose(datum: GroupDatum, d: int) -> Decomposition:
    """Decompose degree-d polynomials on the module under the group.

    Polynomials transform by the d-th symmetric power of the dual module,
    whose weight multiset is the complete homogeneous h_d of the dual
    coordinate weights.  The result is checked for exact dimension
    conservation and kept in one list per module key (``_module_key``): the
    torus quotient only shifts labels afterwards (``canonical_label``), so
    data that differ only there share one ``Decomposition``."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    done = _SYM_POWERS.setdefault(datum._key, [])
    if len(done) <= d:
        done.extend(_sym_powers(datum.factors, datum.construction, len(done), d))
    return done[d]


def _sym_powers(factors, construction, lo, hi):
    """Yield the decompositions of degrees lo..hi from one run of
    h_d(x_1..x_k) = h_d(x_1..x_{k-1}) + x_k h_{d-1}(x_1..x_k), the
    coefficient of t^d in prod_i 1/(1 - t e^{w_i}) (Macdonald I.2), on flat
    integer weights, eps_rank slots per factor.

    A weight is one int: slot i at bits [b i, b (i + 1)), biased by 2^(b-1).
    No slot of a degree <= hi weight exceeds hi max|coordinate entry| in
    size, and b is one bit more than that takes, so each biased slot stays
    in [0, 2^b) and adding a coordinate is one int addition with no carry.

    Only keys dominant in every factor are kept, from the start.  The
    coordinates run low slots first; once no later coordinate touches slots
    a..end of a factor, those slots are final, and a key whose slots a..end
    are not dominant is dropped from every level.  That is exact, since the
    leading slots of a dominant A-D weight are dominant themselves.  The
    check reads only the newly final slots and the one before them
    (``_finished_dominant``): a chamber is a chain v[i-1] >= v[i] with a
    condition on its last slot (``_is_dominant``), every key left passed the
    earlier links, and the new chain implies the old last-slot condition.
    At the end every slot is final: what is left is the dominant part of
    each h_d, and only its degree lo..hi keys are read back, once each, as
    (pairing with ``rho_strict``, label, multiplicity) triples for ``_peel``."""
    ends = list(accumulate((f.eps_rank for f in factors), initial=0))
    cuts = list(zip(ends, ends[1:]))
    chambers = [(fam, a, b) for f, (a, b) in zip(factors, cuts) if (fam := f._root_type()[0])]
    coords = [tuple(-x for v in row for x in v)
              for row in _construction_weights(factors, construction)]
    # each coordinate's touched slots, read once: its sort key is the last
    # one in each chamber, and each slot's last coordinate follows the sort
    touched = {w: [i for i, x in enumerate(w) if x] for w in coords}
    coords.sort(key=lambda w: [max((i - a for i in touched[w] if a <= i < b), default=-1)
                               for _, a, b in chambers])
    last = {i: k for k, w in enumerate(coords) for i in touched[w]}
    moves: dict = {}  # k -> {chamber: end of the slots final once coordinate k is in}
    for c, (_, a, b) in enumerate(chambers):
        for end, k in enumerate(accumulate((last.get(i, 0) for i in range(a, b)), max), a + 1):
            moves.setdefault(k, {})[c] = end
    width = (hi * max(map(abs, chain(*coords)), default=0)).bit_length() + 1
    zero = sum(1 << width * i + width - 1 for i in range(ends[-1]))  # every slot at its bias
    finished = [a for _, a, _ in chambers]  # each chamber's finished slots end here
    h = [{zero: 1}] + [{} for _ in range(hi)]
    for k, w in enumerate(coords):
        w = sum(x << width * i for i, x in enumerate(w))
        for lower, upper in zip(h, h[1:]):  # lower already holds this weight
            for mu, m in lower.items():
                key = mu + w
                upper[key] = upper.get(key, 0) + m
        for c, end in moves.get(k, {}).items():
            fam, a, _ = chambers[c]
            shift, mask, judge = _finished_dominant(fam, a, finished[c], end, width)
            finished[c] = end
            h[1:] = [{mu: m for mu, m in level.items() if judge(mu >> shift & mask)}
                     for level in h[1:]]
    rho = [x for f in factors for x in f.rho_strict()]
    memo: dict = {}  # constituent label -> its dominant parts, for every degree
    for d in range(lo, hi + 1):
        triples = [(sum(map(mul, v, rho)), tuple([v[a:b] for a, b in cuts]), m) for v, m in zip(
            map(_unpack, h[d], repeat(ends[-1]), repeat(width)), h[d].values())]
        entries = _peel(factors, triples, memo)
        expected = comb(len(coords) + d - 1, d)
        total = sum(m * _label_dim(factors, lab) for lab, m in entries)
        if total != expected:
            raise ArithmeticError(f"dimension conservation failed: {total} != {expected}"
                                  f" at degree {d}")
        yield Decomposition(entries, expected)


def _unpack(key, n, width):
    """The first n slots of a packed key (``_sym_powers``), unbiased."""
    mask, bias = (1 << width) - 1, 1 << width - 1
    return tuple([(key >> s & mask) - bias for s in range(0, n * width, width)])


def _finished_dominant(family, a, old, end, width):
    """(shift, mask, judge) for the slots a..end of a chamber whose slots
    a..old (none if old = a) are known dominant: judge(key >> shift & mask)
    says whether the packed key's slots a..end are, reading slots old-1..end."""
    start = max(old - 1, a)
    return width * start, (1 << width * (end - start)) - 1, _window_judge(family, end - start, width)


@lru_cache(maxsize=None)
def _window_judge(family, n, width):
    """``_is_dominant`` on n-slot packed windows, memoized: windows recur."""
    return lru_cache(maxsize=None)(lambda window: _is_dominant(family, _unpack(window, n, width)))


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
    sym_power_decompose(datum, degree_bound)  # fills the list up to D, read once below
    done = _SYM_POWERS[datum._key]
    seen: dict = {}
    for d in range(degree_bound + 1):
        for label, mult in done[d].entries:
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
    the top of the column weights)."""
    if factor.kind != bigger.kind:
        raise ValueError("stabilization needs matching factor kinds")
    extra = bigger.eps_rank - factor.eps_rank
    if extra < 0:
        raise ValueError("target factor is smaller than the source")
    padded = tuple(w) + (0,) * extra
    return tuple(sorted(padded, reverse=True)) if factor.kind == GL else padded


def stabilize_label(small: GroupDatum, big: GroupDatum, label):
    return tuple(map(_stabilize_factor_weight, small.factors, big.factors, label))


def check_stability(small: GroupDatum, big: GroupDatum, d: int):
    """Do the degree-d highest weights at the small rank survive, after
    stabilization, into the set at the big rank?

    Stabilization acts on the raw constituent labels (where zero-padding is
    the shared-highest-weight-vector map); any character quotient is applied
    only afterwards, since shifting and padding do not commute.

    Returns (flag, missing labels).
    """
    if [f.kind for f in small.factors] != [g.kind for g in big.factors]:
        raise ValueError("rows have different factor shapes")
    x_big = highest_weight_set(big, d)
    missing = []
    for label, _ in sym_power_decompose(small, d).entries:
        target = canonical_label(big, stabilize_label(small, big, label))
        if target not in x_big:
            missing.append((canonical_label(small, label), target))
    return not missing, missing
