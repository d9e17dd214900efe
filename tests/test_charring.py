"""Character-ring checks: weight systems, tensor products, symmetric powers,
multiplicity-freeness, and cross-rank stability of highest-weight sets."""

import random
from fractions import Fraction
from itertools import (accumulate, combinations, combinations_with_replacement, permutations,
                       product)
from math import comb, gcd, lcm, prod
from operator import add, mul, sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gelfand import charring, exact, rootsys, tables
from gelfand.charring import GL, SO, SP, U1, Construction, Factor, GroupDatum
from gelfand.exact import dot, fr


def dw(family, rank, coeffs):
    return rootsys.DominantWeight(family, rank, tuple(coeffs))


def _weight_to_eps(rs, weight):
    """Reference: the epsilon coordinates of ``weight`` in Fractions, the
    sum of its coefficients times the fundamental weights."""
    acc = [Fraction(0)] * rs.ambient_dim
    for k, xi in zip(weight.coeffs, rs.fundamental_weights):
        if k:
            acc = [a + k * x for a, x in zip(acc, xi)]
    return tuple(acc)


def _lattice(lam):
    """(scale, integer tuple) of the epsilon tuple ``lam``, scale the least
    common denominator of its entries."""
    scale = lcm(*(Fraction(x).denominator for x in lam))
    return scale, tuple(int(x * scale) for x in lam)


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
    scale, lam_i = _lattice(lam)
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
    scale, dominant = charring._freudenthal(rs, *_lattice(lam))
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
    _assert_kernels_agree(family, rank, _weight_to_eps(rs, dw(family, rank, coeffs)))


SPECIAL_WEIGHTS = [
    # spin weights, scale 2
    ("B", 2, (0, 1)), ("B", 3, (0, 0, 1)), ("B", 3, (1, 0, 1)), ("B", 3, (0, 1, 3)),
    ("D", 3, (0, 0, 1)), ("D", 4, (0, 0, 0, 1)), ("D", 4, (1, 0, 0, 1)),
    # negative last coordinate: (1/2, 1/2, -1/2), (1, 1, -1), (2, 1, 1, -1),
    # (1, -1), (2, -1)
    ("D", 3, (0, 1, 0)), ("D", 3, (0, 2, 0)), ("D", 4, (1, 0, 2, 0)),
    ("D", 2, (2, 0)), ("D", 2, (3, 1)),
    # fractional ambient coordinates: (2/3, -1/3, -1/3), (1/2, 1/2, -1/2, -1/2)
    ("A", 2, (1, 0)), ("A", 2, (2, 1)), ("A", 3, (0, 1, 0)), ("A", 3, (2, 0, 1)),
]
GL_WEIGHTS = [(2, 1, 0), (1, 1, -2), (3, 0, 0)]


@pytest.mark.parametrize("family,rank,coeffs", SPECIAL_WEIGHTS)
def test_dominant_freudenthal_special_weights(family, rank, coeffs):
    rs = rootsys.build_root_system(family, rank)
    _assert_kernels_agree(family, rank, _weight_to_eps(rs, dw(family, rank, coeffs)))


@pytest.mark.parametrize("lam", GL_WEIGHTS)
def test_dominant_freudenthal_gl_weights_with_a_trace(lam):
    # Factor.dominant_multiplicities hands full gl weights to the A kernel
    _assert_kernels_agree("A", 2, lam)


# ---------------------------------------------------------------------------
# the integer kernel against the one it replaced
# ---------------------------------------------------------------------------


def _unreduced_freudenthal(rs, lam):
    """Reference: the dominant-weight kernel as it stood with ``Fraction``
    weights, on the epsilon tuple ``lam``: dominance tested by
    ``_dominant`` on each candidate, every positive root tried as a step
    from every dominant weight, and every positive root's string read for
    every dominant weight up to its first miss, with no norm bound."""
    family = rs.family
    scale = lcm(*(fr(x).denominator for x in lam))
    lam_i = tuple(int(x * scale) for x in lam)
    roots_i = [tuple(x * scale for x in alpha) for alpha in rs.integral_positive_roots]
    shift = tuple(x * scale for x in rs.two_rho)
    dominant = [lam_i]
    seen = {lam_i}
    for mu in dominant:
        for alpha in roots_i:
            nu = tuple(map(sub, mu, alpha))
            if nu not in seen and charring._dominant(family, nu) == nu:
                seen.add(nu)
                dominant.append(nu)
    dominant.sort(key=lambda mu: sum(map(mul, mu, shift)), reverse=True)
    top = sum(a * (a + c) for a, c in zip(lam_i, shift))
    mults = {lam_i: 1}
    for mu in dominant[1:]:
        total = 0
        for alpha in roots_i:
            nu = tuple(map(add, mu, alpha))
            while (m := mults.get(charring._dominant(family, nu))) is not None:
                total += m * sum(map(mul, nu, alpha))
                nu = tuple(map(add, nu, alpha))
        num = 2 * total
        denom = top - sum(a * (a + c) for a, c in zip(mu, shift))
        if denom <= 0 or num % denom != 0 or num <= 0:
            raise ArithmeticError(f"Freudenthal produced a bad multiplicity {num}/{denom}")
        mults[mu] = num // denom
    return scale, mults


KERNEL_SYSTEMS = [("A", n) for n in range(1, 7)] + [(f, n) for f in "BCD" for n in range(2, 7)]


def _kernel_grid(family, rank):
    """Every dominant weight with coefficient sum <= 3 up to rank 4 and
    <= 2 at ranks 5-6, then the special weights of the system."""
    bound = 3 if rank <= 4 else 2
    grid = [dw(family, rank, c) for c in _grid(rank, bound) if sum(c) <= bound]
    return grid + [dw(f, r, c) for f, r, c in SPECIAL_WEIGHTS if (f, r) == (family, rank)]


@pytest.mark.parametrize("family,rank", KERNEL_SYSTEMS)
def test_kernel_matches_the_unreduced_recursion(family, rank, cold_caches):
    # the same scale, multiplicities and dominant-weight order, so the same
    # weight systems in the same key order; the oracle of both prunings, the
    # zero-set steps and the norm bound on strings
    rs = rootsys.build_root_system(family, rank)
    cases = [(rootsys.weight_lattice(rs, w), _weight_to_eps(rs, w))
             for w in _kernel_grid(family, rank)]
    if (family, rank) == ("A", 2):
        cases += [((1, lam), lam) for lam in GL_WEIGHTS]
    for (scale, lam), eps in cases:
        got, want = charring._freudenthal(rs, scale, lam), _unreduced_freudenthal(rs, eps)
        assert got == want and list(got[1]) == list(want[1]), eps


@pytest.mark.parametrize("family,rank", [(f, n) for f in "ABCD"
                                         for n in range(2 if f == "D" else 1, 5)])
def test_weights_lie_in_the_ball_of_the_highest_weight(family, rank):
    # the invariant the norm bound on root strings relies on: |nu| <= |lam|,
    # with equality exactly on the Weyl orbit of lam
    rs = rootsys.build_root_system(family, rank)
    for w in _kernel_grid(family, rank):
        lam = rootsys.weight_lattice(rs, w)[1]
        top = sum(a * a for a in lam)
        norms = {nu: sum(a * a for a in nu)
                 for nu, _ in charring.weight_system(rs, w).lattice_items()}
        assert max(norms.values()) <= top, w
        on_sphere = {nu for nu, n in norms.items() if n == top}
        assert on_sphere == set(charring._weyl_orbit(family, lam)), w


@pytest.mark.parametrize("family,rank", KERNEL_SYSTEMS)
def test_weight_lattice_matches_the_fraction_route(family, rank):
    rs = rootsys.build_root_system(family, rank)
    rho = _rho(rs)
    for w in _kernel_grid(family, rank):
        scale, ints = rootsys.weight_lattice(rs, w)
        eps = _weight_to_eps(rs, w)
        assert tuple(Fraction(a, scale) for a in ints) == eps
        assert gcd(scale, *ints) == 1
        shifted = tuple(a + r for a, r in zip(eps, rho))
        weyl = prod(dot(shifted, alpha) / dot(rho, alpha) for alpha in rs.positive_roots)
        assert rootsys.weyl_dimension(rs, w) == weyl == rootsys.weyl_dimension_eps(rs, eps)
    with pytest.raises(ValueError):
        rootsys.weyl_dimension(rootsys.build_root_system("C", 2), dw("B", 2, (0, 1)))


@pytest.mark.parametrize("family,rank", [(f, n) for f in "ABCD"
                                         for n in range(2 if f == "D" else 1, 7)])
def test_root_classes_partition_the_positive_roots(family, rank):
    count = len(rootsys.build_root_system(family, rank).positive_roots)
    for size in range(rank + 1):
        for fixed in combinations(range(rank), size):
            classes = charring._root_classes(family, rank, fixed)
            assert sum(n for _, n in classes) == count, fixed
            assert [k for k, _ in classes] == sorted({k for k, _ in classes})
    assert charring._root_classes(family, rank, ()) == tuple((k, 1) for k in range(count))
    # the whole Weyl group: one orbit per root length
    orbits = sorted(n for _, n in charring._root_classes(family, rank, tuple(range(rank))))
    expected = {"A": [count], "B": [rank, rank * (rank - 1)], "C": [rank, rank * (rank - 1)],
                "D": [count] if rank >= 3 else [1, 1]}[family]
    assert orbits == sorted(n for n in expected if n)


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
    lam_eps = _weight_to_eps(rs, lam)
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
    scale, dominant = charring._freudenthal(rs, *rootsys.weight_lattice(rs, weight))
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
             for dec in charring._SYM_POWERS[datum._key]
             for lab, _ in dec.entries for f, w in zip(datum.factors, lab) if f._root_type()[0]]
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


def test_pruned_recursion_hands_the_peel_the_dominant_multiset(monkeypatch, cold_caches):
    # the recursion drops partial weights whose finished slots are not
    # dominant; what reaches the peel must be the dominant part of the full
    # h_d, key for key, on a D chamber, an odd SO with its zero weight and
    # a tensor of two chambered factors among the rest
    seen = []
    real = charring._peel

    def recording(factors, triples, memo):
        seen.append({lab: m for _, lab, m in triples})
        return real(factors, triples, memo)

    monkeypatch.setattr(charring, "_peel", recording)
    data = _ladder_grid() + _SMALL_CONSTRUCTIONS
    keys = {(datum.factors, datum.construction) for datum in data}
    for rid, r, s in (("jaw:5a", 4, None), ("jaw:5b", 3, None), ("kac:11", 2, 2)):
        datum = tables.group_datum(rid, r, s)
        assert (datum.factors, datum.construction) in keys, rid
    for datum in data:
        charring._SYM_POWERS.clear()
        seen.clear()
        charring.sym_power_decompose(datum, 5)
        chambers = [(i, fam) for i, f in enumerate(datum.factors) if (fam := f._root_type()[0])]
        assert len(seen) == 6
        for d, got in enumerate(seen):
            want = {lab: m for lab, m in _enumerated_sym_power_multiset(datum, d).items()
                    if all(charring._dominant(fam, lab[i]) == lab[i] for i, fam in chambers)}
            assert got == want, (datum, d)


def test_the_public_peel_on_a_full_multiset_matches_the_library_path():
    # decompose_weight_multiset filters the full h_d multiset down to its
    # dominant labels and peels it with the library's own peel: the entries,
    # in order, must be those the pruned recursion hands straight to it
    non_dominant = 0
    for datum in _ladder_grid():
        chambers = [(i, fam) for i, f in enumerate(datum.factors) if (fam := f._root_type()[0])]
        for d in range(6):
            full = _enumerated_sym_power_multiset(datum, d)
            non_dominant += any(not charring._is_dominant(fam, lab[i])
                                for lab in full for i, fam in chambers)
            assert charring.decompose_weight_multiset(datum.factors, full) == \
                charring.sym_power_decompose(datum, d).entries, (datum, d)
    assert non_dominant > 200


def test_equal_data_share_one_list_and_compare_no_record_when_warm(monkeypatch, cold_caches):
    # jaw:10 and kac:10 at (2, 2) differ only in their torus quotient, and
    # the third datum is built by hand from equal records: one module key,
    # one list, and a warm lookup neither hashes nor compares a record
    first, second = tables.group_datum("jaw:10", 2, 2), tables.group_datum("kac:10", 2, 2)
    con = first.construction
    by_hand = GroupDatum(tuple(Factor(f.kind, f.size) for f in first.factors),
                         Construction(con.tag, con.args))
    data = (first, second, by_hand)
    assert len({first.quotient, second.quotient, by_hand.quotient}) == 3
    assert len({datum._key for datum in data}) == 1
    want = [charring.sym_power_decompose(first, d) for d in range(5)]
    compared = []
    real_eq = exact.Record.__eq__
    monkeypatch.setattr(exact.Record, "__eq__",
                        lambda self, other: compared.append(self) or real_eq(self, other))
    for datum in data:
        assert [charring.sym_power_decompose(datum, d) for d in range(5)] == want
        assert all(got is dec for got, dec in zip(charring._SYM_POWERS[datum._key], want))
        charring.is_multiplicity_free_polynomial_action(datum, 4)
    assert compared == []


def test_a_module_key_is_never_reissued_after_the_caches_are_cleared(cold_caches):
    # a datum built before the clear keeps its key; a different datum built
    # after it must take a new one, or the old datum would read its list
    before = tables.group_datum("jaw:2", 2)
    want = charring.sym_power_decompose(before, 3)
    other = charring.sym_power_decompose(tables.group_datum("jaw:3", 2), 3)
    assert want != other
    cold_caches()
    after = tables.group_datum("jaw:3", 2)
    assert after._key != before._key
    assert charring.sym_power_decompose(after, 3) == other
    assert charring.sym_power_decompose(before, 3) == want
    assert charring._SYM_POWERS[before._key] is not charring._SYM_POWERS[after._key]


@pytest.mark.parametrize("family", "ABCD")
def test_incremental_chamber_check_agrees_with_the_full_prefix_test(family):
    # random packed keys whose chamber slots a..old are dominant: the check
    # that reads only slots old-1..end must agree with _dominant on slots
    # a..end, whatever the slots of the other factors around the chamber hold
    rng = random.Random(35)
    width, a, n = 4, 2, 5
    outcomes = set()
    for _ in range(3000):
        old = rng.randrange(a, a + n)
        end = rng.randrange(old + 1, a + n + 1)
        v = [rng.randint(-3, 3) for _ in range(a + n + 2)]
        if old > a:
            v[a:old] = charring._dominant(family, v[a:old])
        key = sum(x + 8 << width * i for i, x in enumerate(v))
        shift, mask, judge = charring._finished_dominant(family, a, old, end, width)
        want = charring._dominant(family, v[a:end]) == tuple(v[a:end])
        assert judge(key >> shift & mask) == want, (v, old, end)
        assert charring._is_dominant(family, tuple(v[a:end])) == want, v[a:end]
        outcomes.add((want, v[end - 1] < 0))
    # a negative last slot is dominant for A and D only
    assert outcomes == {(True, False), (False, False), (False, True)} | (
        {(True, True)} if family in "AD" else set())


_SLOT_WIDTH_ROWS = [GroupDatum((Factor(SO, 3),), Construction("sym2", (0,))),  # entries +-2, 0
                    un_row(4),  # dual entries -1, 0
                    GroupDatum((Factor(U1),), Construction("standard", (0,)))]


@pytest.mark.parametrize("datum", _SLOT_WIDTH_ROWS, ids=["sym2", "gl", "u1"])
def test_packed_slots_hold_every_weight_up_to_the_top_degree(datum, monkeypatch):
    # each top degree d sizes the slots from d max|entry|: the extreme slot
    # values -d max|entry| (and +2d on sym2) must neither borrow from nor
    # carry into a neighbour; ascending degrees on a cold cache run one
    # recursion per top degree
    monkeypatch.setattr(charring, "_SYM_POWERS", {})
    assert max(abs(x) for row in _module_weights(datum) for w in row for x in w) == (
        2 if datum.construction.tag == "sym2" else 1)
    _assert_recursion_matches_enumeration(datum, range(11))


def test_repeated_lookups_hash_each_record_once(monkeypatch):
    # records never change, so a record's field tuple is hashed once, when
    # the datum takes its module key: the symmetric-power cache, the freeness
    # check and the label sets look the datum up again and again without
    # rehashing its factors or construction
    factors, construction = (Factor(GL, 2), Factor(SP, 1)), Construction("tensor", (0, 1))
    hashed = []
    monkeypatch.setattr(exact, "hash", lambda fields: hashed.append(fields) or hash(fields),
                        raising=False)
    datum = GroupDatum(factors, construction)
    first = charring.sym_power_decompose(datum, 3)
    for d in (3, 1, 3, 2, 3):
        assert charring.sym_power_decompose(datum, d) is charring._SYM_POWERS[datum._key][d]
    assert charring.sym_power_decompose(datum, 3) is first
    assert charring.is_multiplicity_free_polynomial_action(datum, 3) == (True, None)
    assert charring.highest_weight_set(datum, 2)
    assert sorted(map(repr, hashed)) == sorted(repr(r._values(r)) for r in (*factors, construction))


def test_freudenthal_cache_checks_integrality_on_every_call(cold_caches):
    f = Factor(GL, 2)
    # an lru cache keeps no exception, so the check runs on each call
    for _ in range(2):
        with pytest.raises(ValueError, match="non-integral"):
            f.dominant_multiplicities((Fraction(1, 2), 0))
    # Fraction(2) hashes as 2: one cache entry serves both spellings
    assert f.dominant_multiplicities((Fraction(2), 0)) is f.dominant_multiplicities((2, 0))
    assert dict(f.dominant_multiplicities((2, 0))) == {(2, 0): 1, (1, 1): 1}


WRONG_LENGTH = [(Factor(SO, 5), (1, 0, 0)), (Factor(SP, 2), (1,)), (Factor(U1), (1, 2)),
                (Factor(GL, 3), (1, 0, 0, 7)), (Factor(SO, 2), ()), (Factor(GL, 1), (0, 0))]


@pytest.mark.parametrize("factor,w", WRONG_LENGTH, ids=repr)
def test_a_weight_of_the_wrong_length_is_refused_on_every_call(factor, w, cold_caches):
    # an lru cache keeps no exception, so each call raises again; SO(5)
    # used to take (1, 0, 0) as (1, 0), and the tori any length
    for _ in range(2):
        for method in (factor.dim, factor.dominant_multiplicities):
            with pytest.raises(ValueError, match="entr"):
                method(w)
    right = (0,) * factor.eps_rank
    assert factor.dim(right) == 1 and dict(factor.dominant_multiplicities(right)) == {right: 1}


TORI = [Factor(U1), Factor(GL, 1), Factor(SO, 2)]


@pytest.mark.parametrize("factor", TORI, ids=repr)
def test_a_torus_reads_its_label_through_the_kernel_caches(factor, cold_caches):
    # a circle takes a list label as every other factor does, and gets the
    # same shared read-only view on each call
    assert factor.dim([1]) == 1
    view = factor.dominant_multiplicities([1])
    assert dict(view) == {(1,): 1}
    assert factor.dominant_multiplicities((1,)) is view
    with pytest.raises(TypeError):
        view[(2,)] = 1


@pytest.mark.parametrize("factor", TORI, ids=repr)
@pytest.mark.parametrize("w,match", [((0.5,), "non-integral"), ((Fraction(1, 2),), "non-integral"),
                                     ((True,), "bool")], ids=repr)
def test_a_torus_refuses_a_bool_or_fractional_label_on_every_call(factor, w, match, cold_caches):
    # (1,) is cached first: True hashes as 1, so only a check ahead of the
    # cache refuses it
    assert factor.dim((1,)) == 1 and dict(factor.dominant_multiplicities((1,))) == {(1,): 1}
    for _ in range(2):
        for method in (factor.dim, factor.dominant_multiplicities):
            with pytest.raises(ValueError, match=match):
                method(w)


def test_a_half_integral_label_is_refused_by_both_kernels(cold_caches):
    # the Weyl product of the spin label is an integer (4), but no
    # polynomial carries it, and the Freudenthal kernel never took it
    f = Factor(SO, 5)
    for _ in range(2):
        for method in (f.dim, f.dominant_multiplicities):
            with pytest.raises(ValueError, match="non-integral"):
                method((Fraction(1, 2), Fraction(1, 2)))


def test_a_bool_label_is_refused_with_its_int_twin_cached(cold_caches):
    f = Factor(SO, 5)
    assert f.dim((1, 0)) == 5
    assert dict(f.dominant_multiplicities((1, 0))) == {(1, 0): 1, (0, 0): 1}
    for method in (f.dim, f.dominant_multiplicities):
        with pytest.raises(ValueError, match="bool"):
            method((True, False))


@pytest.mark.parametrize("family,rank", KERNEL_SYSTEMS)
def test_scaled_root_entries_give_every_pairing(family, rank):
    # each root's two stored entries, times scale, pair it with any integer
    # weight; its step repeats those fields and adds <root, 2 rho>
    rs = rootsys.build_root_system(family, rank)
    rng = random.Random(f"{family}{rank}")
    for scale in range(1, 7):
        roots, steps, shift, _ = charring._scaled_tables(family, rank, scale)
        assert shift == tuple(scale * x for x in rs.two_rho)
        nus = [tuple(rng.randint(-9, 9) for _ in range(rs.ambient_dim)) for _ in range(20)]
        for alpha, root, step in zip(rs.integral_positive_roots, roots, steps, strict=True):
            scaled, i, a, j, b, alpha_sq = root
            assert scaled == tuple(scale * x for x in alpha)
            assert alpha_sq == sum(x * x for x in scaled)
            assert step[:6] == root and step[6] == sum(map(mul, scaled, shift))
            for nu in nus:
                assert nu[i] * a + nu[j] * b == scale * sum(map(mul, nu, alpha)), (alpha, nu)


def test_scaled_tables_are_built_once_per_root_system(cold_caches):
    rs = rootsys.build_root_system("C", 2)
    for coeffs in ((1, 0), (0, 1)):
        charring.weight_system(rs, dw("C", 2, coeffs))
    info = charring._scaled_tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _string_reads(rs, scale, lam, mults, dominant):
    """The string points Freudenthal's reading must look up, read off the
    finished multiplicities, with repeats: per dominant mu below lam and per
    W_mu root class, mu + k alpha for k = 1, 2, ... inside the norm bound, up
    to and including the first point off the module.  Returns (point, on the
    module) pairs."""
    family, rank = rs.family, rs.rank
    simple = rs.integral_simple_roots
    roots = charring._scaled_tables(family, rank, scale)[0]
    top = sum(a * a for a in lam)
    reads = []
    for mu in list(mults)[1:]:
        fixed = tuple(i for i, psi in enumerate(simple) if not sum(map(mul, mu, psi)))
        for k, _ in charring._root_classes(family, rank, fixed):
            alpha = roots[k][0]
            nu = tuple(map(add, mu, alpha))
            while sum(a * a for a in nu) <= top:
                reads.append((nu, dominant(family, nu) in mults))
                if not reads[-1][1]:
                    break
                nu = tuple(map(add, nu, alpha))
    return reads


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("B", 4), ("D", 4)])
def test_freudenthal_reads_each_string_point_once(family, rank, monkeypatch):
    # every string point's dominant conjugate is computed once per call, a
    # point off the module included, and a string stops at its first such
    # point: the memo is exact because those multiplicities are final
    rs = rootsys.build_root_system(family, rank)
    real = charring._dominant
    asked = []
    monkeypatch.setattr(charring, "_dominant", lambda fam, v: asked.append(v) or real(fam, v))
    repeated_misses = 0
    for w in _kernel_grid(family, rank):
        scale, lam = rootsys.weight_lattice(rs, w)
        asked.clear()
        mults = charring._freudenthal(rs, scale, lam)[1]
        reads = _string_reads(rs, scale, lam, mults, real)
        assert len(asked) == len(set(asked)), w
        assert set(asked) == {nu for nu, _ in reads}, w
        misses = [nu for nu, on in reads if not on]
        repeated_misses += len(misses) - len(set(misses))
    # strings of different weights meet at points off the module, so the
    # memo's record of a miss is read again
    assert repeated_misses > 0


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


@pytest.mark.parametrize("kind,size", [
    ("bogus", 3), ("GL", 2), ("so", -2), ("so", 1), ("so", 0), ("gl", 0), ("sp", 0),
    ("gl", -1), ("u1", 1), ("gl", True), ("gl", 2.0), ("sp", "2"),
])
def test_factor_rejects_an_unknown_kind_or_size(kind, size):
    # unchecked, an unknown kind gets a multiplicity-free verdict and a size
    # below the kind's least one crashes deep in the weight code
    with pytest.raises(ValueError):
        Factor(kind, size)


def test_factor_accepts_the_smallest_sizes_the_tables_build():
    for kind, size in [(GL, 1), (SO, 2), (SO, 3), (SP, 1), (U1, 0)]:
        assert Factor(kind, size).size == size
    assert Factor(U1) == Factor(U1, 0)
    datum = GroupDatum((Factor(GL, 1),), Construction("standard", (0,)))
    assert charring.is_multiplicity_free_polynomial_action(datum, 3)[0]


_U2_U3 = (Factor(GL, 2), Factor(GL, 3))


@pytest.mark.parametrize("construction,message", [
    (Construction("bogus", (0,)), "unknown construction 'bogus'"),
    (Construction("standard", (-1,)), r"cannot take args \(-1,\)"),
    (Construction("standard", (2,)), r"index out of range in \(2,\)"),
    (Construction("standard", (0, 1)), "cannot take args"),
    (Construction("sym2", ()), "cannot take args"),
    (Construction("lambda2", (0,), parts=(Construction("standard", (0,)),)),
     "cannot take args \\(0,\\) and 1 parts"),
    (Construction("tensor", (0, 0)), "cannot take args"),
    (Construction("tensor", (0,)), "cannot take args"),
    (Construction("tensor", (0, 2)), "index out of range"),
    (Construction("trivial", (-1,)), "cannot take args"),
    (Construction("trivial", (1, 2)), "cannot take args"),
    (Construction("dsum", (0,)), "cannot take args"),
    (Construction("dsum", parts=(Construction("standard", (0,)),
                                 Construction("dsum", parts=(Construction("sym2", (5,)),)))),
     "'sym2' has a factor index out of range"),
], ids=["unknown-tag", "negative-index", "index-past-end", "standard-two-indices",
        "sym2-no-index", "parts-outside-dsum", "tensor-repeated-index", "tensor-one-index",
        "tensor-index-past-end", "negative-trivial", "trivial-two-dims", "dsum-with-args",
        "nested-dsum-part"])
def test_group_datum_rejects_a_bad_construction(construction, message):
    with pytest.raises(ValueError, match=message):
        GroupDatum(_U2_U3, construction)


@pytest.mark.parametrize("row_id", _KAC_JAW_ROWS)
def test_every_row_instance_passes_the_construction_check(row_id):
    # _row_data skips every ValueError, so a rejected construction would hide
    # among the rank-constraint errors
    for r in range(1, 5):
        for s in (None, 1, 2, 3, 4):
            try:
                tables.group_datum(row_id, r, s)
            except ValueError as exc:
                assert "rank constraint violated" in str(exc) or "needs a second rank" in str(exc)
    assert _row_data(row_id)
