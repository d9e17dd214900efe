"""Root-system invariants checked in exact arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelfand import charring, rootsys
from gelfand.exact import dot, solve


def closure_positive_roots(simple):
    """Oracle: grow the positive system from the simple roots alone, using
    root strings (q - p = <gamma, psi_v>)."""
    roots = set(simple)
    changed = True
    while changed:
        changed = False
        for gamma in list(roots):
            for psi in simple:
                # p = how far the string extends downward from gamma
                p = 0
                cur = tuple(a - b for a, b in zip(gamma, psi))
                while cur in roots:
                    p += 1
                    cur = tuple(a - b for a, b in zip(cur, psi))
                pairing = 2 * dot(gamma, psi) / dot(psi, psi)
                if p - pairing > 0:
                    up = tuple(a + b for a, b in zip(gamma, psi))
                    if up != tuple(Fraction(0) for _ in up) and up not in roots:
                        roots.add(up)
                        changed = True
    return roots


CASES = [("A", r) for r in range(1, 5)] + [("B", r) for r in range(1, 5)] + [
    ("C", r) for r in range(1, 5)
] + [("D", r) for r in range(2, 5)]


@pytest.mark.parametrize("family,rank", CASES)
def test_positive_root_count(family, rank):
    rs = rootsys.build_root_system(family, rank)
    expected = {
        "A": rank * (rank + 1) // 2,
        "B": rank * rank,
        "C": rank * rank,
        "D": rank * (rank - 1),
    }[family]
    assert len(rs.positive_roots) == expected


@pytest.mark.parametrize("family,rank", CASES)
def test_closure_oracle_agrees(family, rank):
    rs = rootsys.build_root_system(family, rank)
    assert set(rs.positive_roots) == closure_positive_roots(rs.simple_roots)


@pytest.mark.parametrize("family,rank", CASES)
def test_fundamental_weight_pairings_exact(family, rank):
    rs = rootsys.build_root_system(family, rank)
    for i, xi in enumerate(rs.fundamental_weights):
        for j, psi in enumerate(rs.simple_roots):
            # <xi_i, psi_j^vee> = 2 <xi_i, psi_j> / <psi_j, psi_j>
            assert 2 * dot(xi, psi) == (dot(psi, psi) if i == j else 0)


@pytest.mark.parametrize("family,rank", CASES)
def test_positive_roots_are_nonnegative_simple_combinations(family, rank):
    rs = rootsys.build_root_system(family, rank)
    cols = list(zip(*rs.simple_roots))
    for alpha in rs.positive_roots:
        coeffs = solve(cols, list(alpha))
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)


def test_rank_one_forced_values():
    rs = rootsys.build_root_system("A", 1)
    assert len(rs.positive_roots) == 1
    # xi_1 = psi_1 / 2
    assert rs.fundamental_weights[0] == tuple(x / 2 for x in rs.simple_roots[0])


def test_a2_has_three_positive_roots():
    assert len(rootsys.build_root_system("A", 2).positive_roots) == 3


def test_d1_rejected():
    with pytest.raises(ValueError):
        rootsys.build_root_system("D", 1)


def test_weyl_dimension_rank_one_closed_form():
    rs = rootsys.build_root_system("A", 1)
    for k in range(6):
        w = rootsys.DominantWeight("A", 1, (k,))
        assert rootsys.weyl_dimension(rs, w) == k + 1


def test_weyl_dimension_trivial_weight():
    for family, rank in CASES:
        rs = rootsys.build_root_system(family, rank)
        w = rootsys.DominantWeight(family, rank, (0,) * rank)
        assert rootsys.weyl_dimension(rs, w) == 1


def test_weyl_dimension_a2_adjoint():
    # frozen from the Freudenthal oracle run in test_charring
    rs = rootsys.build_root_system("A", 2)
    assert rootsys.weyl_dimension(rs, rootsys.DominantWeight("A", 2, (1, 1))) == 8


def test_weyl_dimension_rejects_non_dominant():
    rs = rootsys.build_root_system("A", 2)
    with pytest.raises(ValueError):
        rootsys.DominantWeight("A", 2, (-1, 0))


def test_is_dominant():
    assert rootsys.DominantWeight("A", 2, (0, 0)).coeffs == (0, 0)
    assert rootsys.DominantWeight("A", 2, (2, 1)).coeffs == (2, 1)
    with pytest.raises(ValueError):
        rootsys.DominantWeight("A", 2, (-1, 0))


def _stabilize(weight, target_rank):
    """The weight's coefficients padded with zeros up to ``target_rank``."""
    coeffs = weight.coeffs + (0,) * (target_rank - weight.rank)
    return rootsys.DominantWeight(weight.family, target_rank, coeffs)


def test_stabilize_identity_and_padding():
    w = rootsys.DominantWeight("A", 2, (1, 0))
    assert _stabilize(w, 2) == w
    assert _stabilize(w, 3).coeffs == (1, 0, 0)
    with pytest.raises(ValueError):
        _stabilize(w, 1)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["A", "B", "C", "D"]),
    rank=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_stabilized_weights_stay_dominant(family, rank, data):
    coeffs = tuple(
        data.draw(st.integers(min_value=0, max_value=3)) for _ in range(rank)
    )
    w = rootsys.DominantWeight(family, rank, coeffs)
    target = data.draw(st.integers(min_value=rank, max_value=rank + 3))
    out = _stabilize(w, target)
    assert all(k >= 0 for k in out.coeffs)
    assert rootsys.weyl_dimension(rootsys.build_root_system(family, target), out) > 0


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                           ("C", 2), ("C", 3), ("D", 2), ("D", 3)]),
    data=st.data(),
)
def test_brauer_klimyk_conserves_dimension(shape, data):
    family, rank = shape
    coeffs = st.lists(st.integers(min_value=0, max_value=2), min_size=rank, max_size=rank)
    rs = rootsys.build_root_system(family, rank)
    lam = rootsys.DominantWeight(family, rank, tuple(data.draw(coeffs)))
    mu = rootsys.DominantWeight(family, rank, tuple(data.draw(coeffs)))
    parts = charring.tensor_decompose(rs, lam, mu)
    assert all(m > 0 for m in parts.values())
    total = sum(m * rootsys.weyl_dimension(rs, nu) for nu, m in parts.items())
    assert total == rootsys.weyl_dimension(rs, lam) * rootsys.weyl_dimension(rs, mu)


def test_stabilization_does_not_shrink_dimension():
    # recorded property: on this grid the padded weight never has smaller
    # Weyl dimension; violations would be collected here rather than assumed
    violations = []
    for family, rank in [("A", 2), ("B", 2), ("C", 2), ("D", 2), ("A", 3)]:
        rs_small = rootsys.build_root_system(family, rank)
        for target in (rank + 1, rank + 2):
            if family == "D" and target < 2:
                continue
            rs_big = rootsys.build_root_system(family, target)
            for coeffs in _coeff_grid(rank, 2):
                w = rootsys.DominantWeight(family, rank, coeffs)
                big = _stabilize(w, target)
                if rootsys.weyl_dimension(rs_big, big) < rootsys.weyl_dimension(rs_small, w):
                    violations.append((family, rank, target, coeffs))
    assert violations == []


def _coeff_grid(rank, bound):
    if rank == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in _coeff_grid(rank - 1, bound):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# the one-pass construction against the family-by-family one
# ---------------------------------------------------------------------------


def _root_system_oracle(family, rank):
    """(ambient_dim, simple, positive, fundamental weights) with e_i +- e_j
    written out once per family, from unit vectors."""

    def eps(i, n):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))

    def add(u, v):
        return tuple(a + b for a, b in zip(u, v))

    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))

    def scale(u, c):
        return tuple(a * Fraction(c) for a in u)

    if family == "A":
        n = rank + 1
        simple = tuple(sub(eps(i, n), eps(i + 1, n)) for i in range(rank))
        positive = tuple(sub(eps(i, n), eps(j, n)) for i in range(n) for j in range(i + 1, n))
        funds = []
        for k in range(1, rank + 1):
            v = [Fraction(1) if i < k else Fraction(0) for i in range(n)]
            shift = Fraction(k, n)
            funds.append(tuple(x - shift for x in v))
        return n, simple, positive, tuple(funds)

    n = rank
    chain = [sub(eps(i, n), eps(i + 1, n)) for i in range(rank - 1)]
    pairs = [v for i in range(n) for j in range(i + 1, n)
             for v in (sub(eps(i, n), eps(j, n)), add(eps(i, n), eps(j, n)))]
    if family == "B":
        simple = tuple(chain + [eps(rank - 1, n)])
        positive = pairs + [eps(i, n) for i in range(n)]
        funds = [tuple(Fraction(1) if i < k else Fraction(0) for i in range(n))
                 for k in range(1, rank)]
        funds.append(tuple(Fraction(1, 2) for _ in range(n)))
    elif family == "C":
        simple = tuple(chain + [scale(eps(rank - 1, n), 2)])
        positive = pairs + [scale(eps(i, n), 2) for i in range(n)]
        funds = [tuple(Fraction(1) if i < k else Fraction(0) for i in range(n))
                 for k in range(1, rank + 1)]
    else:  # D
        simple = tuple(chain + [add(eps(rank - 2, n), eps(rank - 1, n))])
        positive = pairs
        funds = [tuple(Fraction(1) if i < k else Fraction(0) for i in range(n))
                 for k in range(1, rank - 1)]
        half = Fraction(1, 2)
        funds.append(tuple([half] * (rank - 1) + [-half]))
        funds.append(tuple([half] * rank))
    return n, simple, tuple(positive), tuple(funds)


ORACLE_CASES = [(f, r) for f in "ABC" for r in range(1, 9)] + [("D", r) for r in range(2, 9)]


def _entry_types(vectors):
    return [[type(x) for x in v] for v in vectors]


@pytest.mark.parametrize("family,rank", ORACLE_CASES)
def test_build_matches_the_family_by_family_oracle(family, rank):
    rs = rootsys.build_root_system(family, rank)
    n, simple, positive, funds = _root_system_oracle(family, rank)
    assert rs.ambient_dim == n
    for got, want in [(rs.simple_roots, simple), (rs.positive_roots, positive),
                      (rs.fundamental_weights, funds)]:
        assert got == want  # the same vectors in the same order
        assert _entry_types(got) == _entry_types(want)
        assert all(t is Fraction for row in _entry_types(got) for t in row)
