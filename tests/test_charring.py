"""Character-ring checks: weight systems, tensor products, symmetric powers,
multiplicity-freeness, and cross-rank stability of highest-weight sets."""

import random
from fractions import Fraction
from itertools import (accumulate, combinations, combinations_with_replacement, permutations,
                       product)
from math import comb, lcm
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gelfand import charring, rootsys, tables
from gelfand.charring import GL, SO, SP, U1, Construction, Factor, GroupDatum
from gelfand.exact import dot


def dw(family, rank, coeffs):
    return rootsys.DominantWeight(family, rank, tuple(coeffs))


# ---------------------------------------------------------------------------
# weight systems
# ---------------------------------------------------------------------------


def test_sl2_string():
    rs = rootsys.build_root_system("A", 1)
    sys = charring.weight_system(rs, dw("A", 1, (2,)))
    # eps coordinates in ambient R^2; weights 2, 0, -2 along (1,-1)/... axis
    assert sorted(m for m in sys.values()) == [1, 1, 1]
    assert len(sys) == 3


def test_a2_adjoint_zero_weight_multiplicity():
    rs = rootsys.build_root_system("A", 2)
    sys = charring.weight_system(rs, dw("A", 2, (1, 1)))
    zero = tuple([0] * 3)
    zero = tuple(map(lambda x: x * 0, next(iter(sys))))
    assert sys[zero] == 2
    assert sum(sys.values()) == 8


def test_trivial_weight_system():
    rs = rootsys.build_root_system("C", 2)
    sys = charring.weight_system(rs, dw("C", 2, (0, 0)))
    assert list(sys.values()) == [1]


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                         ("B", 3), ("C", 2), ("C", 3), ("D", 2), ("D", 3)])
def test_weyl_dimension_matches_freudenthal_totals(family, rank):
    rs = rootsys.build_root_system(family, rank)
    for coeffs in _grid(rank, 2):
        w = dw(family, rank, coeffs)
        total = sum(charring.weight_system(rs, w).values())
        assert total == rootsys.weyl_dimension(rs, w)


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
@pytest.mark.parametrize("rank", [4, 5, 6])
def test_weyl_vs_freudenthal_spot_checks_high_rank(family, rank):
    # the full coefficient grid is astronomically out of reach at these
    # ranks (coefficient vectors of twos give dimensions like 3^36), so the
    # agreement is sampled on every weight with coefficient sum <= 2
    rs = rootsys.build_root_system(family, rank)
    coeff_vectors = [(0,) * rank]
    for i in range(rank):
        one = [0] * rank
        one[i] = 1
        coeff_vectors.append(tuple(one))
        two = [0] * rank
        two[i] = 2
        coeff_vectors.append(tuple(two))
        for j in range(i + 1, rank):
            mixed = [0] * rank
            mixed[i] = mixed[j] = 1
            coeff_vectors.append(tuple(mixed))
    for coeffs in coeff_vectors:
        w = dw(family, rank, coeffs)
        total = sum(charring.weight_system(rs, w).values())
        assert total == rootsys.weyl_dimension(rs, w)


@pytest.mark.parametrize("family,rank,coeffs", [
    ("B", 2, (1, 1)), ("D", 3, (1, 0, 1)), ("C", 2, (0, 2)),
])
def test_weight_system_weyl_symmetric_under_simple_reflections(family, rank, coeffs):
    rs = rootsys.build_root_system(family, rank)
    sys = charring.weight_system(rs, dw(family, rank, coeffs))
    for psi in rs.simple_roots:
        for mu, m in sys.items():
            pairing = dot(mu, _coroot(psi))
            refl = tuple(a - pairing * b for a, b in zip(mu, psi))
            assert sys.get(refl) == m


def _grid(rank, bound):
    if rank == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in _grid(rank - 1, bound):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# the dominant-weight kernel against the full-lattice recursion
# ---------------------------------------------------------------------------


def _full_lattice_freudenthal(rs, lam):
    """Reference: Freudenthal's recursion on every weight of the module,
    breadth-first by height from ``lam``, on the same integer lattice and
    with the same (scale, {integer tuple: multiplicity}) result."""
    scale = lcm(*(Fraction(x).denominator for x in lam))
    lam_i = tuple(int(x * scale) for x in lam)
    roots_i = [tuple(int(x) * scale for x in alpha) for alpha in rs.positive_roots]
    simple_i = [tuple(int(x) * scale for x in psi) for psi in rs.simple_roots]
    shift = tuple(map(sum, zip(*roots_i)))
    top = sum(a * (a + c) for a, c in zip(lam_i, shift))
    mults = {lam_i: 1}
    # every weight of the module is reachable from a higher weight by
    # subtracting one simple root
    frontier = [lam_i]
    while frontier:
        next_frontier = []
        seen_layer = set()
        for mu in frontier:
            for psi in simple_i:
                cand = tuple(a - b for a, b in zip(mu, psi))
                if cand in seen_layer or cand in mults:
                    continue
                seen_layer.add(cand)
                denom = top - sum(a * (a + c) for a, c in zip(cand, shift))
                if denom == 0:
                    continue
                total = 0
                for alpha in roots_i:
                    shifted = tuple(a + b for a, b in zip(cand, alpha))
                    while shifted in mults:
                        total += mults[shifted] * sum(a * b for a, b in zip(shifted, alpha))
                        shifted = tuple(a + b for a, b in zip(shifted, alpha))
                assert (2 * total) % denom == 0 and total >= 0
                if total:
                    mults[cand] = 2 * total // denom
                    next_frontier.append(cand)
        frontier = next_frontier
    return scale, mults


def _assert_kernels_agree(family, rank, lam):
    # the kernel keeps dominant weights only; their Weyl orbits are the rest
    rs = rootsys.build_root_system(family, rank)
    scale, dominant = charring._freudenthal(rs, lam)
    assert all(charring._dominant(family, mu) == mu for mu in dominant)
    mults = {nu: m for mu, m in dominant.items() for nu in charring._weyl_orbit(family, mu)}
    assert (scale, mults) == _full_lattice_freudenthal(rs, lam)
    assert all(isinstance(x, int) for mu in mults for x in mu)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dominant_freudenthal_matches_full_lattice(data):
    family = data.draw(st.sampled_from("ABCD"))
    rank = data.draw(st.integers(min_value=2 if family == "D" else 1, max_value=3))
    coeffs = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                min_size=rank, max_size=rank).filter(lambda c: sum(c) <= 4))
    rs = rootsys.build_root_system(family, rank)
    _assert_kernels_agree(family, rank, rootsys.weight_to_eps(rs, dw(family, rank, coeffs)))


@pytest.mark.parametrize("family,rank,coeffs", [
    # spin weights, scale 2
    ("B", 2, (0, 1)), ("B", 3, (0, 0, 1)), ("B", 3, (1, 0, 1)), ("B", 3, (0, 1, 3)),
    ("D", 3, (0, 0, 1)), ("D", 4, (0, 0, 0, 1)), ("D", 4, (1, 0, 0, 1)),
    # negative last coordinate: (1/2, 1/2, -1/2), (1, 1, -1), (2, 1, 1, -1),
    # (1, -1), (2, -1)
    ("D", 3, (0, 1, 0)), ("D", 3, (0, 2, 0)), ("D", 4, (1, 0, 2, 0)),
    ("D", 2, (2, 0)), ("D", 2, (3, 1)),
    # fractional ambient coordinates: (2/3, -1/3, -1/3), (1/2, 1/2, -1/2, -1/2)
    ("A", 2, (1, 0)), ("A", 2, (2, 1)), ("A", 3, (0, 1, 0)), ("A", 3, (2, 0, 1)),
])
def test_dominant_freudenthal_special_weights(family, rank, coeffs):
    rs = rootsys.build_root_system(family, rank)
    _assert_kernels_agree(family, rank, rootsys.weight_to_eps(rs, dw(family, rank, coeffs)))


@pytest.mark.parametrize("lam", [(2, 1, 0), (1, 1, -2), (3, 0, 0)])
def test_dominant_freudenthal_gl_weights_with_a_trace(lam):
    # Factor.dominant_multiplicities hands full gl weights to the A kernel
    _assert_kernels_agree("A", 2, lam)


# ---------------------------------------------------------------------------
# Weyl chambers against the whole Weyl group
# ---------------------------------------------------------------------------


def _weyl_group(family, n):
    """Every Weyl group element on R^n as (permutation, signs, determinant),
    acting by v -> (signs[k] * v[perm[k]])_k: all permutations for A, all
    signed permutations for B and C, those with an even number of sign
    changes for D."""
    sign_choices = [(1,) * n] if family == "A" else product((1, -1), repeat=n)
    for signs in sign_choices:
        if family == "D" and signs.count(-1) % 2:
            continue
        for perm in permutations(range(n)):
            inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
            yield perm, signs, (-1) ** inversions * (-1) ** signs.count(-1)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 2),
                                         ("B", 3), ("C", 1), ("C", 2), ("C", 3), ("D", 2),
                                         ("D", 3)])
def test_reflect_to_dominant_matches_weyl_group_enumeration(family, rank):
    # half-integral entries in -3/2..3/2, singular vectors included: a vector
    # is singular when a nontrivial element fixes it, and otherwise exactly
    # one element carries it into the closed dominant chamber
    rs = rootsys.build_root_system(family, rank)
    group = list(_weyl_group(family, rs.ambient_dim))
    values = [Fraction(k, 2) for k in range(-3, 4)]
    for vec in product(values, repeat=rs.ambient_dim):
        images = [(tuple(s * vec[p] for p, s in zip(perm, signs)), det)
                  for perm, signs, det in group]
        if sum(img == vec for img, _ in images) > 1:
            expected = None
        else:
            (expected,) = [(img, det) for img, det in images
                           if all(dot(img, psi) >= 0 for psi in rs.simple_roots)]
        assert charring._reflect_to_dominant(family, vec) == expected, vec


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------


def test_tensor_with_trivial():
    rs = rootsys.build_root_system("B", 2)
    lam = dw("B", 2, (1, 1))
    out = charring.tensor_decompose(rs, lam, dw("B", 2, (0, 0)))
    assert out == {lam: 1}


def test_a1_clebsch_gordan():
    rs = rootsys.build_root_system("A", 1)
    out = charring.tensor_decompose(rs, dw("A", 1, (1,)), dw("A", 1, (1,)))
    assert out == {dw("A", 1, (2,)): 1, dw("A", 1, (0,)): 1}


def test_a2_standard_times_dual():
    rs = rootsys.build_root_system("A", 2)
    out = charring.tensor_decompose(rs, dw("A", 2, (1, 0)), dw("A", 2, (0, 1)))
    assert out == {dw("A", 2, (1, 1)): 1, dw("A", 2, (0, 0)): 1}


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("D", 2)])
def test_tensor_against_weight_convolution_oracle(family, rank):
    """The decomposition's summed weight systems must reproduce the
    convolution of the factors' weight systems, exactly."""
    rs = rootsys.build_root_system(family, rank)
    weights = [c for c in _grid(rank, 2) if sum(c) <= 2][:6]
    for c1 in weights:
        for c2 in weights:
            lam, mu = dw(family, rank, c1), dw(family, rank, c2)
            conv = {}
            for w1, m1 in charring.weight_system(rs, lam).items():
                for w2, m2 in charring.weight_system(rs, mu).items():
                    key = tuple(a + b for a, b in zip(w1, w2))
                    conv[key] = conv.get(key, 0) + m1 * m2
            total = {}
            for nu, mult in charring.tensor_decompose(rs, lam, mu).items():
                assert mult > 0
                for w, m in charring.weight_system(rs, nu).items():
                    total[w] = total.get(w, 0) + mult * m
            assert total == conv


@pytest.mark.parametrize("family,c1,c2", [
    ("B", (1, 0, 1), (0, 1, 0)),
    ("C", (0, 1, 1), (1, 0, 0)),
    ("D", (1, 0, 1), (0, 1, 1)),
    ("D", (0, 1, 1), (0, 1, 1)),
])
def test_tensor_convolution_oracle_rank_three(family, c1, c2):
    rs = rootsys.build_root_system(family, 3)
    lam, mu = dw(family, 3, c1), dw(family, 3, c2)
    conv = {}
    for w1, m1 in charring.weight_system(rs, lam).items():
        for w2, m2 in charring.weight_system(rs, mu).items():
            key = tuple(a + b for a, b in zip(w1, w2))
            conv[key] = conv.get(key, 0) + m1 * m2
    total = {}
    for nu, mult in charring.tensor_decompose(rs, lam, mu).items():
        assert mult > 0
        for w, m in charring.weight_system(rs, nu).items():
            total[w] = total.get(w, 0) + mult * m
    assert total == conv


def test_tensor_symmetry_and_dimension():
    rs = rootsys.build_root_system("A", 2)
    lam, mu = dw("A", 2, (2, 0)), dw("A", 2, (1, 1))
    ab = charring.tensor_decompose(rs, lam, mu)
    ba = charring.tensor_decompose(rs, mu, lam)
    assert ab == ba
    total = sum(m * rootsys.weyl_dimension(rs, nu) for nu, m in ab.items())
    assert total == rootsys.weyl_dimension(rs, lam) * rootsys.weyl_dimension(rs, mu)


def _coroot(alpha):
    nn = dot(alpha, alpha)
    return tuple(2 * a / nn for a in alpha)


def _eps_to_coeffs(rs, vec):
    """Coefficients of ``vec`` in the fundamental-weight basis: the pairings
    with the simple coroots."""
    return tuple(dot(vec, _coroot(psi)) for psi in rs.simple_roots)


def _rho(rs):
    """Half the sum of the positive roots, in Fractions."""
    return tuple(sum(col, Fraction(0)) / 2 for col in zip(*rs.positive_roots))


def _fraction_brauer_klimyk(rs, lam, mu):
    """Brauer-Klimyk in Fractions, one ``_eps_to_coeffs`` per weight of mu:
    the reference for the integer-lattice ``tensor_decompose``."""
    lam_eps = rootsys.weight_to_eps(rs, lam)
    rho = _rho(rs)
    out = {}
    for nu, m in charring.weight_system(rs, mu).items():
        shifted = tuple(a + b + c for a, b, c in zip(lam_eps, nu, rho))
        res = charring._reflect_to_dominant(rs.family, shifted)
        if res is None:
            continue
        dom, sign = res
        target = tuple(a - b for a, b in zip(dom, rho))
        coeffs = [Fraction(c) for c in _eps_to_coeffs(rs, target)]
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)
        key = dw(rs.family, rs.rank, [int(c) for c in coeffs])
        out[key] = out.get(key, 0) + sign * m
    return {k: v for k, v in out.items() if v}


ORACLE_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                  ("C", 2), ("C", 3), ("D", 2), ("D", 3)]


def _small_weights(family, rank):
    return [dw(family, rank, c) for c in _grid(rank, 2) if sum(c) <= 2]


@pytest.mark.parametrize("family,rank", ORACLE_SYSTEMS)
def test_tensor_decompose_matches_fraction_oracle(family, rank):
    rs = rootsys.build_root_system(family, rank)
    weights = _small_weights(family, rank)
    for lam in weights:
        for mu in weights:
            expected = _fraction_brauer_klimyk(rs, lam, mu)
            assert charring.tensor_decompose(rs, lam, mu) == expected, (lam, mu)


def _eager_weight_system(rs, weight):
    """Reference: every Weyl orbit of the Freudenthal dominant weights listed
    into one dict on the integer lattice, then its keys made ``Fraction``
    epsilon tuples."""
    rootsys.check_weight(rs, weight)
    scale, dominant = charring._freudenthal(rs, rootsys.weight_to_eps(rs, weight))
    mults = {nu: m for mu, m in dominant.items() for nu in charring._weyl_orbit(rs.family, mu)}
    frac = {x: Fraction(x, scale) for x in {x for mu in mults for x in mu}}
    return {tuple(map(frac.__getitem__, mu)): m for mu, m in mults.items()}


VIEW_SYSTEMS = ([("A", n) for n in range(1, 6)]
                + [(family, n) for family in "BCD" for n in range(2, 6)])


@pytest.mark.parametrize("family,rank", VIEW_SYSTEMS)
def test_weight_count_sums_the_weight_system(family, rank):
    # the view reads the dominant multiplicities over their orbits: the same
    # items in the same order, the same size and weight count, the same
    # lookups as the weight system listed out
    rs = rootsys.build_root_system(family, rank)
    for w in _small_weights(family, rank):
        view, oracle = charring.weight_system(rs, w), _eager_weight_system(rs, w)
        assert list(view.items()) == list(oracle.items()), w
        assert len(view) == len(oracle)
        assert sum(view.values()) == sum(oracle.values())
        assert view == oracle
        assert all(view[k] == m for k, m in oracle.items())


@pytest.mark.parametrize("family,rank", VIEW_SYSTEMS)
def test_orbit_size_matches_enumeration(family, rank):
    rs = rootsys.build_root_system(family, rank)
    seen_zero = seen_negative = False
    for w in _small_weights(family, rank):
        for mu in charring.weight_system(rs, w).dominant:
            assert charring._orbit_size(family, mu) == len(charring._weyl_orbit(family, mu)), mu
            seen_zero |= 0 in mu
            seen_negative |= mu[-1] < 0
    # the grid reaches zero entries, and D weights with a negative last entry
    assert seen_zero and (seen_negative or family != "D")


def test_weight_system_lookup_misses():
    c2 = rootsys.build_root_system("C", 2)
    view = charring.weight_system(c2, dw("C", 2, (0, 1)))  # (1, 1) and its orbit
    half = (Fraction(1, 2), Fraction(1, 2))
    for key in (half, (1,), (1, 1, 0), (2, 0), (3, 1)):
        with pytest.raises(KeyError):
            view[key]
        assert view.get(key) is None
        assert key not in view
    assert view[(-1, 1)] == 1 and view[(0, 0)] == 1


def test_weight_system_size_lists_no_orbit(monkeypatch):
    b3 = rootsys.build_root_system("B", 3)
    view = charring.weight_system(b3, dw("B", 3, (1, 0, 1)))
    expected = (len(view), list(view.values()))

    def refuse(family, mu):
        raise AssertionError("an orbit was listed")

    monkeypatch.setattr(charring, "_weyl_orbit", refuse)
    assert (len(view), list(view.values())) == expected
    assert sum(view.values()) == rootsys.weyl_dimension(b3, dw("B", 3, (1, 0, 1)))


def test_tensor_rank_mismatch():
    rs = rootsys.build_root_system("A", 2)
    with pytest.raises(ValueError):
        charring.tensor_decompose(rs, dw("A", 2, (1, 0)), dw("A", 1, (1,)))


def test_weight_from_another_root_system_is_rejected():
    a2, b2, c2 = (rootsys.build_root_system(f, 2) for f in "ABC")
    b2_weight, c2_weight = dw("B", 2, (1, 0)), dw("C", 2, (0, 1))
    assert sum(charring.weight_system(c2, c2_weight).values()) == 5
    for call in (charring.weight_system, rootsys.weyl_dimension):
        with pytest.raises(ValueError):
            call(b2, c2_weight)
    with pytest.raises(ValueError):
        charring.tensor_decompose(a2, b2_weight, b2_weight)
    with pytest.raises(ValueError):
        charring.tensor_decompose(b2, c2_weight, b2_weight)
    with pytest.raises(ValueError):
        charring.tensor_decompose(b2, b2_weight, c2_weight)


# ---------------------------------------------------------------------------
# factor weight systems against the root-system ones
# ---------------------------------------------------------------------------

# (kind, size, family, rank) for gl(2..4), so(3..6), sp(1..3)
_FACTOR_ROOT_SYSTEMS = (
    [(GL, n, "A", n - 1) for n in (2, 3, 4)]
    + [(SO, n, "D" if n % 2 == 0 else "B", n // 2) for n in (3, 4, 5, 6)]
    + [(SP, n, "C", n) for n in (1, 2, 3)]
)


@settings(max_examples=80, deadline=None)
@given(shape=st.sampled_from(_FACTOR_ROOT_SYSTEMS), data=st.data())
def test_factor_weight_multiplicities_match_weight_system(shape, data):
    kind, size, family, rank = shape
    f = Factor(kind, size)
    entries = st.integers(min_value=-2 if kind == GL else 0, max_value=2)
    w = tuple(sorted(data.draw(st.lists(entries, min_size=f.eps_rank,
                                        max_size=f.eps_rank)), reverse=True))
    if family == "D" and data.draw(st.booleans()):
        w = w[:-1] + (-w[-1],)
    assert charring._dominant(family, w) == w
    dominant = f.dominant_multiplicities(w)
    assert all(charring._dominant(family, mu) == mu for mu in dominant)
    mults = {nu: m for mu, m in dominant.items() for nu in charring._weyl_orbit(family, mu)}
    assert all(isinstance(x, int) for mu in mults for x in mu)
    assert sum(mults.values()) == f.dim(w)
    rs = rootsys.build_root_system(family, rank)
    coeffs = _eps_to_coeffs(rs, w)
    expected = charring.weight_system(rs, dw(family, rank, [int(c) for c in coeffs]))
    # gl weights carry a trace that the A_{n-1} ambient coordinates drop
    trace = Fraction(sum(w), size) if kind == GL else 0
    assert {tuple(x - trace for x in mu): m for mu, m in mults.items()} == expected


# ---------------------------------------------------------------------------
# group data and symmetric powers
# ---------------------------------------------------------------------------


def sp_row(m):
    return GroupDatum((Factor(SP, m),), Construction("standard", (0,)))


def un_row(n):
    return GroupDatum((Factor(GL, n),), Construction("standard", (0,)))


def sun_row(n):
    return GroupDatum((Factor(GL, n),), Construction("standard", (0,)), ((0,),))


def u1_so_row(n):
    return GroupDatum((Factor(U1), Factor(SO, n)), Construction("standard", (1,)))


def test_sym_power_dimensions():
    datum = u1_so_row(4)
    for d in range(5):
        dec = charring.sym_power_decompose(datum, d)
        assert dec.dimension == charring.comb(4 + d - 1, d)


def test_sp_degree_powers_are_single_irreps():
    # degree-q polynomials on C^{2m} under Sp(m): one irreducible with
    # highest weight q*xi_1, i.e. eps tuple (q, 0, ..., 0)
    for m in (1, 2):
        datum = sp_row(m)
        for q in range(5):
            dec = charring.sym_power_decompose(datum, q)
            assert len(dec.entries) == 1
            label, mult = dec.entries[0]
            assert mult == 1
            assert label[0] == tuple([q] + [0] * (m - 1))


def test_u1_so_sym_power_is_harmonic_ladder():
    # U(1) x SO(n) on degree-q polynomials: multiplicity-free sum of the
    # representations with highest weights q, q-2, ... times xi_1
    datum = u1_so_row(5)
    for q in range(5):
        dec = charring.sym_power_decompose(datum, q)
        labels = sorted(lab[1] for lab, m in dec.entries)
        expected = sorted(tuple([j] + [0]) for j in range(q % 2, q + 1, 2))
        assert labels == expected
        assert all(m == 1 for _, m in dec.entries)
        assert all(lab[0] == (-q,) for lab, _ in dec.entries)


_KAC_JAW_ROWS = [rid for rid in sorted(tables.registry()) if rid.startswith(("kac:", "jaw:"))]


@settings(max_examples=60, deadline=None)
@given(row_id=st.sampled_from(_KAC_JAW_ROWS), r=st.integers(min_value=1, max_value=4),
       s=st.integers(min_value=1, max_value=4), d=st.integers(min_value=0, max_value=3))
def test_sym_power_dimension_on_random_rows(row_id, r, s, d):
    try:
        datum = tables.group_datum(row_id, r, s)
    except ValueError:
        assume(False)  # ranks outside the row's constraints
    dec = charring.sym_power_decompose(datum, d)
    n = len(_module_weights(datum))
    assert dec.dimension == comb(n + d - 1, d)
    assert all(m > 0 for _, m in dec.entries)
    assert sum(m * charring._label_dim(datum.factors, lab)
               for lab, m in dec.entries) == comb(n + d - 1, d)


def test_decompose_rejects_a_multiset_that_is_not_weyl_invariant():
    # V(2,0) of U(2) has weights (2,0), (1,1), (0,2); the multiset holds
    # only the first, so peeling it drives (1,1) negative
    with pytest.raises(ArithmeticError):
        charring.decompose_weight_multiset((Factor(GL, 2),), {((2, 0),): 1})


def test_sym_power_degree_zero_trivial():
    datum = un_row(3)
    dec = charring.sym_power_decompose(datum, 0)
    assert len(dec.entries) == 1
    label, mult = dec.entries[0]
    assert mult == 1 and label[0] == (0, 0, 0)


def _module_weights(datum):
    return charring._construction_weights(datum.factors, datum.construction)


def _enumerated_sym_power_multiset(datum, d):
    """Weight multiset of S^d of the dual module, one multi-index at a time:
    the oracle for the h_d recursion."""
    dual = [tuple(tuple(-x for x in w) for w in row) for row in _module_weights(datum)]
    multiset = {}
    for combo in combinations_with_replacement(dual, d):
        acc = tuple((0,) * f.eps_rank for f in datum.factors)
        for row in combo:
            acc = tuple(tuple(map(add, a, w)) for a, w in zip(acc, row))
        multiset[acc] = multiset.get(acc, 0) + 1
    return multiset


def _row_data(row_id):
    """Each distinct instance of the row at ranks <= 4 within its constraints."""
    out = {}
    for r in range(1, 5):
        for s in (None, 1, 2, 3, 4):
            try:
                datum = tables.group_datum(row_id, r, s)
            except ValueError:
                continue
            out.setdefault((datum.factors, datum.construction), datum)
    return list(out.values())


def _doubled_standard(quotient):
    return GroupDatum((Factor(GL, 2),), Construction("dsum", parts=(
        Construction("standard", (0,)), Construction("standard", (0,)))), quotient)


_SMALL_CONSTRUCTIONS = [
    GroupDatum((), Construction("trivial", (3,))),
    GroupDatum((Factor(GL, 2), Factor(U1)), Construction("trivial", (2,))),
    _doubled_standard(((0,),)),
    GroupDatum((Factor(U1), Factor(SO, 3)), Construction("dsum", parts=(
        Construction("standard", (1,)), Construction("trivial", (1,))))),
    # one determinant quotient over two gl factors whose labels end apart
    # (on a tensor module their last entries agree)
    GroupDatum((Factor(GL, 2), Factor(GL, 3)), Construction("dsum", parts=(
        Construction("standard", (0,)), Construction("standard", (1,)))), ((0, 1),)),
]


def _assert_recursion_matches_enumeration(datum, degrees):
    for d in degrees:
        oracle = _enumerated_sym_power_multiset(datum, d)
        dec = charring.sym_power_decompose(datum, d)
        assert dec.entries == charring.decompose_weight_multiset(datum.factors, oracle), d
        assert dec.dimension == sum(oracle.values())


@pytest.mark.parametrize("row_id", _KAC_JAW_ROWS)
def test_sym_power_recursion_matches_enumeration_on_rows(row_id):
    data = _row_data(row_id)
    assert data, row_id
    for datum in data:
        _assert_recursion_matches_enumeration(datum, range(5))


@pytest.mark.parametrize("datum", _SMALL_CONSTRUCTIONS, ids=lambda datum: datum.construction.tag)
def test_sym_power_recursion_matches_enumeration_on_small_constructions(datum):
    _assert_recursion_matches_enumeration(datum, range(5))


def test_sym_power_cache_shared_across_torus_modes():
    # torus mode only quotients labels, so it stays out of the cache key;
    # each datum still reads the shared decomposition in its own terms
    for n in (1, 3):
        full, su = un_row(n), sun_row(n)
        for d in range(4):
            assert charring.sym_power_decompose(full, d) is charring.sym_power_decompose(su, d)
        assert charring.highest_weight_set(full, 2) == {((0,) * (n - 1) + (-2,),)}
        assert charring.highest_weight_set(su, 2) == {((2,) * (n - 1) + (0,),)}
    # U(1) on C: labels -d never repeat; SU(1) is trivial, so its one label
    # repeats in degree 1
    assert charring.is_multiplicity_free_polynomial_action(un_row(1), 2) == (True, None)
    ok, violation = charring.is_multiplicity_free_polynomial_action(sun_row(1), 2)
    assert not ok and violation["degree"] == 1
    assert charring.sym_power_decompose(_doubled_standard(((0,),)), 2) is \
        charring.sym_power_decompose(_doubled_standard(()), 2)
    with pytest.raises(ValueError):
        charring.sym_power_decompose(un_row(2), -1)


def _sym_power_oracle(factors, construction, d):
    """One h recursion per degree, every h_d key cut into labels before the
    dominance filter: the per-degree route the shared recursion replaced."""
    coords = charring._construction_weights(factors, construction)
    ends = list(accumulate((f.eps_rank for f in factors), initial=0))
    h = [{(0,) * ends[-1]: 1}] + [{} for _ in range(d)]
    for row in coords:
        w = tuple(-x for v in row for x in v)
        for lower, upper in zip(h, h[1:]):
            for mu, m in lower.items():
                key = tuple(map(add, mu, w))
                upper[key] = upper.get(key, 0) + m
    multiset = {tuple(key[a:b] for a, b in zip(ends, ends[1:])): m
                for key, m in h[d].items()}
    entries = charring.decompose_weight_multiset(factors, multiset)
    expected = comb(len(coords) + d - 1, d)
    assert sum(m * charring._label_dim(factors, lab) for lab, m in entries) == expected
    return charring.Decomposition(entries, expected)


def _ladder_grid():
    """Each distinct (factors, construction) of a kac/jaw row at any ranks
    with module dimension <= 8."""
    out = {}
    for rid in _KAC_JAW_ROWS:
        for r in range(1, 9):
            for s in (None, *range(1, 9)):
                try:
                    datum = tables.group_datum(rid, r, s)
                except ValueError:
                    continue
                if len(_module_weights(datum)) <= 8:
                    out.setdefault((datum.factors, datum.construction), datum)
    return list(out.values())


def test_sym_power_degrees_from_one_recursion_match_the_oracle(monkeypatch):
    grid = _ladder_grid()
    assert len(grid) == 50
    oracle = {(datum.factors, datum.construction, d):
              _sym_power_oracle(datum.factors, datum.construction, d)
              for datum in grid for d in range(6)}
    shuffled = random.Random(20)
    orders = {"ascending": lambda: list(range(6)),
              "descending": lambda: list(range(5, -1, -1)),
              "shuffled": lambda: shuffled.sample(range(6), 6)}
    for name, order in orders.items():
        monkeypatch.setattr(charring, "_SYM_POWERS", {})  # a cold cache
        for datum in grid:
            for d in order():
                dec = charring.sym_power_decompose(datum, d)
                want = oracle[datum.factors, datum.construction, d]
                assert (dec.entries, dec.dimension) == (want.entries, want.dimension), \
                    (name, datum, d)


def test_label_dimensions_compute_each_weyl_dimension_once(monkeypatch, cold_caches):
    # U(2) x Sp(2) on C^2 (x) C^4: the labels of degrees 0..5 ask for 40
    # factor dimensions on 24 distinct (root system, weight) pairs
    calls = []
    real = rootsys.weyl_dimension_eps

    def counting(rs, w):
        calls.append((rs.family, rs.rank, tuple(w)))
        return real(rs, w)

    monkeypatch.setattr(rootsys, "weyl_dimension_eps", counting)
    datum = tables.group_datum("kac:11", 2, 2)
    assert charring.is_multiplicity_free_polynomial_action(datum, 5) == (True, None)
    asked = [(*f._root_type(), w)
             for dec in charring._SYM_POWERS[datum.factors, datum.construction]
             for lab, _ in dec.entries for f, w in zip(datum.factors, lab) if f._root_type()]
    assert (len(asked), len(set(asked))) == (40, 24)
    assert sorted(calls) == sorted(set(asked))


def test_freeness_and_stability_share_one_recursion_per_datum(monkeypatch):
    runs = []
    real = charring._sym_powers

    def counting(factors, construction, lo, hi):
        runs.append((lo, hi))
        return real(factors, construction, lo, hi)

    monkeypatch.setattr(charring, "_sym_powers", counting)
    monkeypatch.setattr(charring, "_SYM_POWERS", {})
    small, big = tables.group_datum("jaw:2", 2), tables.group_datum("jaw:2", 3)
    for datum in (small, big):
        assert charring.is_multiplicity_free_polynomial_action(datum, 5) == (True, None)
    assert runs == [(0, 5), (0, 5)]
    for d in range(6):
        assert charring.check_stability(small, big, d) == (True, [])
    assert runs == [(0, 5), (0, 5)]


def test_freeness_verdict_is_the_first_repeat(monkeypatch):
    # det is an invariant of degree 2 of S(U(2) x U(2)) on C^2 (x) C^2, so the
    # trivial label of degree 0 repeats in degree 2; degrees 3..5 are now
    # decomposed as well, and the verdict stays that of degree 2
    datum = tables.group_datum("jaw:10", 2, 2)
    violation = {"degree": 2, "label": ((0, 0), (0, 0)), "multiplicity": 1,
                 "first_degree": 0}
    assert charring.is_multiplicity_free_polynomial_action(datum, 5) == (False, violation)
    # a dimension conservation failure above the repeat raises
    real_comb = charring.comb
    monkeypatch.setattr(charring, "comb", lambda n, k: real_comb(n, k) + (k == 5))
    monkeypatch.setattr(charring, "_SYM_POWERS", {})
    with pytest.raises(ArithmeticError, match="at degree 5"):
        charring.is_multiplicity_free_polynomial_action(datum, 5)


# ---------------------------------------------------------------------------
# multiplicity-freeness
# ---------------------------------------------------------------------------


def test_un_standard_multiplicity_free():
    ok, violation = charring.is_multiplicity_free_polynomial_action(un_row(2), 4)
    assert ok and violation is None


def test_su2_diagonal_double_copy_fails():
    datum = GroupDatum(
        (Factor(GL, 2),),
        Construction("dsum", parts=(Construction("standard", (0,)),
                                    Construction("standard", (0,)))),
        ((0,),),
    )
    ok, violation = charring.is_multiplicity_free_polynomial_action(datum, 1)
    assert not ok
    assert violation["degree"] == 1


def test_trivial_group_repeats_trivial_character():
    datum = GroupDatum((), Construction("trivial", (1,)))
    ok, violation = charring.is_multiplicity_free_polynomial_action(datum, 2)
    assert not ok
    assert violation["degree"] >= 1


# ---------------------------------------------------------------------------
# invariant dimensions
# ---------------------------------------------------------------------------


def _dual(f, w):
    """Highest weight of the dual of the factor's irreducible ``w``."""
    if f.kind in (GL, U1) or (f.kind == SO and f.size == 2):
        return tuple(-x for x in reversed(w))
    if f.kind == SO and f.size % 2 == 0 and (f.size // 2) % 2 == 1:
        return w[:-1] + (-w[-1],)
    return w


def _invariant_dimension(datum, kappa, decomposition):
    """Multiplicity of the dual of ``kappa`` in the decomposition, which is
    the dimension of the invariants in kappa (x) rho."""
    dual = tuple(_dual(f, w) for f, w in zip(datum.factors, kappa))
    return dict(decomposition.entries).get(dual, 0)


def test_invariant_dimension_trivial_pair():
    datum = un_row(2)
    dec = charring.sym_power_decompose(datum, 0)
    triv = ((0, 0),)
    assert _invariant_dimension(datum, triv, dec) == 1


def test_invariant_dimension_un_polynomials():
    # kappa dual to the degree-d polynomial representation occurs once
    datum = un_row(3)
    for d in range(4):
        dec = charring.sym_power_decompose(datum, d)
        label = dec.entries[0][0]
        kappa = tuple(_dual(datum.factors[0], w) for w in label)
        assert _invariant_dimension(datum, (kappa[0],), dec) == 1


def test_invariant_dimension_absent_is_zero():
    datum = un_row(2)
    dec = charring.sym_power_decompose(datum, 2)
    assert _invariant_dimension(datum, ((5, 0),), dec) == 0


def test_invariant_dimension_bounded_by_one_when_multiplicity_free():
    datum = sp_row(2)
    for d in range(5):
        dec = charring.sym_power_decompose(datum, d)
        for label, _ in dec.entries:
            kappa = tuple(_dual(f, w) for f, w in zip(datum.factors, label))
            assert _invariant_dimension(datum, kappa, dec) <= 1


# ---------------------------------------------------------------------------
# stability of highest-weight sets
# ---------------------------------------------------------------------------


def test_sp_row_stability():
    for d in range(5):
        ok, missing = charring.check_stability(sp_row(2), sp_row(3), d)
        assert ok, missing


def test_un_row_stability():
    for d in range(5):
        ok, missing = charring.check_stability(un_row(2), un_row(3), d)
        assert ok, missing


def test_u1_so_even_row_stability():
    # SO(6) -> SO(8)
    for d in range(5):
        ok, missing = charring.check_stability(u1_so_row(6), u1_so_row(8), d)
        assert ok, missing


def test_u1_so_small_even_step():
    # SO(4) -> SO(6) crosses the degenerate fork; the epsilon-padded map
    # still lands inside the bigger set
    for d in range(5):
        ok, missing = charring.check_stability(u1_so_row(4), u1_so_row(6), d)
        assert ok, missing


def test_stability_degree_zero():
    ok, missing = charring.check_stability(un_row(2), un_row(4), 0)
    assert ok and not missing


def test_stability_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        charring.check_stability(un_row(2), sp_row(2), 1)


# ---------------------------------------------------------------------------
# torus-normalization variants for the two-factor tensor rows
# ---------------------------------------------------------------------------


_TENSOR_QUOTIENTS = {"su_both": ((0,), (1,)), "u_first": ((1,),), "det_one": ((0, 1),),
                     "full": ()}


def tensor_row(l, m, mode):
    return GroupDatum((Factor(GL, l), Factor(GL, m)), Construction("tensor", (0, 1)),
                      _TENSOR_QUOTIENTS[mode])


JAW_SWEEP = [
    ("jaw:1", (2, None), (3, None)),
    ("jaw:2", (1, None), (2, None)),
    ("jaw:3", (1, None), (2, None)),
    ("jaw:4", (1, None), (2, None)),
    ("jaw:5a", (4, None), (6, None)),
    ("jaw:5b", (3, None), (5, None)),
    ("jaw:6", (2, None), (3, None)),
    ("jaw:7", (3, None), (5, None)),
    ("jaw:8", (2, None), (3, None)),
    ("jaw:9", (2, 3), (2, 4)),
    ("jaw:10", (1, 2), (1, 3)),
    ("jaw:11", (2, 1), (2, 2)),
]


@pytest.mark.parametrize("row_id,small,big", JAW_SWEEP)
def test_jaw_rows_free_and_stable_at_consecutive_ranks(row_id, small, big):
    a = tables.group_datum(row_id, *small)
    b = tables.group_datum(row_id, *big)
    for datum in (a, b):
        ok, violation = charring.is_multiplicity_free_polynomial_action(datum, 4)
        assert ok, (row_id, violation)
    for d in range(5):
        ok, missing = charring.check_stability(a, b, d)
        assert ok, (row_id, d, missing)


def test_tensor_row_variant_findings():
    """Recorded outcome of the torus-normalization comparison at (2,2)/(2,3).

    With equal factors the determinant-one and double-special variants repeat
    labels; keeping one full unitary factor restores freeness.  These are
    findings, frozen after the fact, not assumptions.
    """
    results = {}
    for l, m in [(2, 2), (2, 3)]:
        for mode in ("su_both", "det_one", "u_first", "full"):
            ok, _ = charring.is_multiplicity_free_polynomial_action(
                tensor_row(l, m, mode), 4)
            results[(l, m, mode)] = ok
    assert results[(2, 2, "su_both")] is False
    assert results[(2, 2, "det_one")] is False
    assert results[(2, 2, "u_first")] is True
    assert results[(2, 2, "full")] is True
    assert results[(2, 3, "su_both")] is True
    assert results[(2, 3, "det_one")] is True
    assert results[(2, 3, "u_first")] is True
    assert results[(2, 3, "full")] is True


# ---------------------------------------------------------------------------
# the torus quotient and the row builder against the three-mode encoding
# ---------------------------------------------------------------------------


def _legacy_canonical_label(factors, torus_mode, su_flags, label):
    """The three-mode quotient a datum once carried as ``torus_mode`` plus
    ``su_flags``: 'su' shifts each flagged gl weight so its last entry is
    zero, 'det_one' applies one shift across the two gl factors."""
    if torus_mode == "full":
        return label
    if torus_mode == "su":
        out = []
        for flag, f, w in zip(su_flags, factors, label):
            if flag and f.kind == GL:
                out.append(tuple(x - w[-1] for x in w))
            else:
                out.append(w)
        return tuple(out)
    if torus_mode == "det_one":
        gls = [i for i, f in enumerate(factors) if f.kind == GL]
        if len(gls) != 2:
            raise ValueError("det_one mode expects exactly two gl factors")
        shift = label[gls[1]][-1]
        out = list(label)
        for i in gls:
            out[i] = tuple(x - shift for x in label[i])
        return tuple(out)
    raise ValueError(f"unknown torus mode {torus_mode!r}")


def _legacy_construction_weights(factors, con):
    """Module weights built row by row from a zero row, the scalar circles
    filled in by a second pass."""
    zero = [(0,) * f.eps_rank for f in factors]
    if con.tag == "dsum":
        out = []
        for part in con.parts:
            out.extend(_legacy_construction_weights(factors, part))
        return out
    if con.tag == "trivial":
        (dim,) = con.args
        return [tuple(zero)] * dim
    if con.tag == "standard":
        (i,) = con.args
        std = factors[i].standard_weights()
        coords = []
        for w in std:
            row = list(zero)
            row[i] = w
            coords.append(tuple(row))
    elif con.tag in ("sym2", "lambda2"):
        (i,) = con.args
        std = factors[i].standard_weights()
        pairs = (
            combinations_with_replacement(range(len(std)), 2)
            if con.tag == "sym2"
            else combinations(range(len(std)), 2)
        )
        coords = []
        for a, b in pairs:
            row = list(zero)
            row[i] = tuple(map(add, std[a], std[b]))
            coords.append(tuple(row))
    elif con.tag == "tensor":
        i, j = con.args
        coords = []
        for wa in factors[i].standard_weights():
            for wb in factors[j].standard_weights():
                row = list(zero)
                row[i] = wa
                row[j] = wb
                coords.append(tuple(row))
    else:
        raise ValueError(f"unsupported construction {con.tag!r}")
    out = []
    for row in coords:
        row = list(row)
        for k, f in enumerate(factors):
            if f.kind == U1 and k not in con.args:
                row[k] = (1,)
        out.append(tuple(row))
    return out


def _legacy_torus(row_id):
    """(torus_mode, su_flags) as the row's factor list once set them: an
    S(U x U) factor made the row 'det_one', an SU factor made it 'su' with
    one flag per factor."""
    tokens = [t.strip() for t in tables.registry()[row_id].factor_spec.split(",")]
    if any(t.startswith("S(") for t in tokens):
        return "det_one", ()
    if any(t.startswith("SU(") for t in tokens):
        return "su", tuple(t.startswith("SU(") for t in tokens)
    return "full", ()


_SMALL_LEGACY = [("full", ()), ("full", ()), ("su", (True,)), ("full", ()), ("det_one", ())]
_TENSOR_LEGACY = {"su_both": ("su", (True, True)), "u_first": ("su", (False, True)),
                  "det_one": ("det_one", ()), "full": ("full", ())}


def _assert_matches_legacy(datum, torus_mode, su_flags):
    assert (charring._construction_weights(datum.factors, datum.construction)
            == _legacy_construction_weights(datum.factors, datum.construction))
    for d in range(5):
        for label, _ in charring.sym_power_decompose(datum, d).entries:
            assert (charring.canonical_label(datum, label)
                    == _legacy_canonical_label(datum.factors, torus_mode, su_flags, label)), d


@pytest.mark.parametrize("row_id", _KAC_JAW_ROWS)
def test_quotient_matches_the_three_mode_encoding_on_rows(row_id):
    data = _row_data(row_id)
    assert data, row_id
    for datum in data:
        _assert_matches_legacy(datum, *_legacy_torus(row_id))


def test_quotient_matches_the_three_mode_encoding_on_small_constructions():
    assert len(_SMALL_LEGACY) == len(_SMALL_CONSTRUCTIONS)
    for datum, legacy in zip(_SMALL_CONSTRUCTIONS, _SMALL_LEGACY):
        _assert_matches_legacy(datum, *legacy)


@pytest.mark.parametrize("mode", sorted(_TENSOR_QUOTIENTS))
def test_quotient_matches_the_three_mode_encoding_on_tensor_variants(mode):
    for l, m in [(2, 2), (2, 3)]:
        _assert_matches_legacy(tensor_row(l, m, mode), *_TENSOR_LEGACY[mode])


@pytest.mark.parametrize("factors,quotient", [
    ((Factor(GL, 2),), ((1,),)),                   # out of range
    ((Factor(GL, 2),), ((-1,),)),                  # out of range, from the end
    ((Factor(U1), Factor(SP, 2)), ((1,),)),        # not a gl factor
    ((Factor(GL, 2), Factor(GL, 3)), ((0,), (0, 1))),  # index twice
    ((Factor(GL, 2),), ((0, 0),)),                 # index twice in one group
    ((Factor(GL, 2),), ((),)),                     # empty group
])
def test_group_datum_rejects_a_bad_quotient(factors, quotient):
    with pytest.raises(ValueError):
        GroupDatum(factors, Construction("standard", (0,)), quotient)
