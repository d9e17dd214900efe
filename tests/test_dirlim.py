"""Ladder algebra: scalar maps, commuting squares, cocycles, and the limit
pairing's invariance under level promotion."""

import json
import math
import random
from fractions import Fraction

import pytest

from gelfand.dirlim import (
    LadderedFunction,
    apply_nu,
    apply_zeta,
    backend_restrict,
    eta_scale,
    heisenberg_ladder,
    ladder_from_json,
    ladder_to_json,
    limit_inner_product,
    make_ladder,
    sphere_ladder,
    un_csq_by_enumeration,
    un_polynomial_ladder,
    verify_cocycle,
    verify_commuting_square,
    zeta_scale,
)


# ---------------------------------------------------------------------------
# scalar maps
# ---------------------------------------------------------------------------


def test_zeta_scale_identity_level():
    L = un_polynomial_ladder(2)
    assert zeta_scale(L, 3, 3) == 1.0


def test_heisenberg_zeta_scale_is_power_of_t():
    for t in (Fraction(1, 2), Fraction(2), Fraction(3)):
        L = heisenberg_ladder(t, d=0, levels=(1, 2))
        assert math.isclose(zeta_scale(L, 2, 1), math.sqrt(float(t)), rel_tol=1e-12)


def test_tilde_bounded_by_plain():
    L = sphere_ladder(2, levels=(2, 3, 4))
    for m in (3, 4):
        for n in (2, 3):
            if m >= n:
                assert L.c(m, n) * zeta_scale(L, m, n) <= zeta_scale(L, m, n) + 1e-15
    assert L.c(4, L.base) * eta_scale(L, 4) <= eta_scale(L, 4)


def test_missing_level_errors():
    L = un_polynomial_ladder(1, levels=(1, 2))
    with pytest.raises(KeyError):
        L.deg(5)
    with pytest.raises(ValueError):
        zeta_scale(L, 1, 2)


# ---------------------------------------------------------------------------
# function maps
# ---------------------------------------------------------------------------


def test_apply_zeta_is_coefficient_isometry():
    L = un_polynomial_ladder(2)
    f = LadderedFunction.make("un-poly", 2, {"a": 1.0, "b": -2.5j})
    g = apply_zeta(L, f, 4)
    assert g.level == 4
    norms = [h.scale_sq * sum(abs(v) ** 2 for _, v in h.coeffs) for h in (f, g)]
    assert norms[1] == norms[0]
    assert apply_zeta(L, f, 2) == f


def test_apply_nu_then_restrict_is_identity():
    L = sphere_ladder(3, levels=(2, 3, 4))
    f = LadderedFunction.make("sphere", 2, {0: Fraction(2), 1: Fraction(-1)},
                              kind="invariant")
    up = apply_nu(L, f, 4)
    back = backend_restrict(L, up, 2)
    assert back == f


def test_level_order_enforced():
    L = un_polynomial_ladder(1)
    f = LadderedFunction.make("un-poly", 3, {"a": 1.0}, kind="invariant")
    with pytest.raises(ValueError):
        apply_nu(L, f, 2)
    with pytest.raises(ValueError):
        apply_zeta(L, LadderedFunction.make("un-poly", 3, {"a": 1.0}), 2)
    low = LadderedFunction.make("un-poly", 2, {"a": 1.0}, kind="invariant")
    with pytest.raises(ValueError, match="is below level"):
        backend_restrict(L, low, 3)


def test_backend_mismatch_rejected():
    L = un_polynomial_ladder(1)
    f = LadderedFunction.make("sphere", 2, {"a": 1.0}, kind="invariant")
    with pytest.raises(ValueError):
        apply_nu(L, f, 3)


# ---------------------------------------------------------------------------
# commuting squares and cocycles
# ---------------------------------------------------------------------------


def test_un_ladder_exact_zero_residuals():
    for d in range(4):
        L = un_polynomial_ladder(d)
        for m in L.levels:
            for n in L.levels:
                if m >= n:
                    ok, res = verify_commuting_square(L, m, n)
                    assert ok and res == 0
        ok, res = verify_cocycle(L)
        assert ok and res == 0


def test_un_csq_two_routes_agree_exactly():
    for d in range(4):
        L = un_polynomial_ladder(d)
        for m in L.levels:
            for n in L.levels:
                if m > n:
                    assert L.csq(m, n) == un_csq_by_enumeration(d, n, m)


def test_sphere_exact_ladder_zero_residuals():
    L = sphere_ladder(3, levels=(2, 3, 4, 5))
    ok, res = verify_cocycle(L)
    assert ok and res == 0
    ok, res = verify_commuting_square(L, 5, 3)
    assert ok and res == 0


def test_sphere_quadrature_cocycle_within_1e9():
    for d in (1, 2, 3, 4):
        L = sphere_ladder(d, levels=(2, 3, 4, 5), method="quadrature")
        ok, res = verify_cocycle(L)
        assert abs(float(res)) <= 1e-9, (d, res)


@pytest.mark.parametrize("levels", [(2,), (2, 3)])
def test_sphere_ladder_rejects_an_unknown_method_before_any_work(levels, monkeypatch):
    from gelfand import symmpair

    def no_work(*args):
        raise AssertionError("the method is checked before any work")

    monkeypatch.setattr(symmpair, "harmonic_dimension", no_work)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        sphere_ladder(2, levels=levels, method="bogus")


def _seeded_exact_ladder(seed):
    """Levels 1..5 with random int degrees and random squared constants in
    (0, 1], not tied to each other, so the cocycle mostly fails."""
    rng = random.Random(seed)
    levels = (1, 2, 3, 4, 5)
    degrees = {n: rng.randint(1, 50) for n in levels}
    csq = {(m, n): Fraction(rng.randint(1, 9), 9) for n in levels for m in levels if m > n}
    return make_ladder("toy", levels, degrees, csq)


def test_commuting_square_is_the_cocycle_at_the_base_triple():
    # the plain residual is 0 by construction (ratio * deg n = deg m), and
    # the tilde residual is the cocycle residual at (base, n, m) with its
    # sign flipped, the degree cancelling: the square adds no failing power
    failing = 0
    for seed in range(20):
        ladder = _seeded_exact_ladder(seed)
        base = ladder.base
        for n in ladder.levels:
            for m in ladder.levels:
                if m < n:
                    continue
                ok, res = verify_commuting_square(ladder, m, n)
                triple = make_ladder("toy", tuple(sorted({base, n, m})),
                                     {k: ladder.deg(k) for k in (base, n, m)},
                                     {(a, b): ladder.csq(a, b) for a in (base, n, m)
                                      for b in (base, n, m) if a > b})
                cocycle_ok, cocycle_res = verify_cocycle(triple)
                assert (ok, res) == (cocycle_ok, -cocycle_res)
                failing += not ok
    assert failing >= 100


def test_single_level_ladder_trivial():
    L = make_ladder("toy", (3,), {3: 7.0}, {})
    assert not L.exact
    ok, res = verify_commuting_square(L, 3, 3)
    assert ok and res == 0


# ---------------------------------------------------------------------------
# limit inner product
# ---------------------------------------------------------------------------


def test_limit_pairing_positive_definite():
    L = un_polynomial_ladder(2)
    f = LadderedFunction.make("un-poly", 2, {0: Fraction(3), 5: Fraction(-2)},
                              kind="invariant")
    z = LadderedFunction.make("un-poly", 2, {}, kind="invariant")
    assert limit_inner_product(L, f, f) > 0
    assert limit_inner_product(L, z, z) == 0


def _un_promotions_hold(ladder):
    """Whether the pairing of two functions at level 2 survives promotion to
    levels 3 and 4.  From the base level the pairing would be
    csq(m, 1) / csq(m, 1) whatever the constants are; from level 2 it needs
    csq(m, 1) = csq(m, 2) csq(2, 1)."""
    f = LadderedFunction.make("un-poly", 2, {0: Fraction(1), 1: Fraction(2)},
                              kind="invariant")
    g = LadderedFunction.make("un-poly", 2, {0: Fraction(-1), 1: Fraction(5)},
                              kind="invariant")
    base_val = limit_inner_product(ladder, f, g)
    return [limit_inner_product(ladder, apply_nu(ladder, f, m), apply_nu(ladder, g, m))
            == base_val for m in (3, 4)]


def test_promotion_consistency_exact_un_ladder():
    assert _un_promotions_hold(un_polynomial_ladder(3, levels=(1, 2, 3, 4))) == [True, True]


def test_promotion_consistency_fails_on_a_broken_un_cocycle():
    ladder = un_polynomial_ladder(3, levels=(1, 2, 3, 4))
    pairs = dict(ladder.csq_pairs)
    pairs[(3, 1)] /= 2
    broken = make_ladder(ladder.backend, ladder.levels, ladder.degrees, pairs)
    assert broken.exact
    assert verify_cocycle(broken)[0] is False
    assert _un_promotions_hold(broken) == [False, True]


def test_promotion_consistency_sphere_quadrature():
    # from level 3, above the base 2, the pairing needs csq(4, 2) = csq(4, 3) csq(3, 2)
    L = sphere_ladder(2, levels=(2, 3, 4), method="quadrature")
    f = LadderedFunction.make("sphere", 3, {0: 1.0, 1: 0.5}, kind="invariant")
    val3 = limit_inner_product(L, f, f)
    val4 = limit_inner_product(L, apply_nu(L, f, 4), apply_nu(L, f, 4))
    assert abs(val3 - val4) <= 1e-9 * abs(val3)


def test_promotion_consistency_heisenberg_quadrature():
    # the plane-product quadrature stops at n = 2, so the quadrature ladder
    # has no level above its base to promote from: this checks rounding
    # only, and the constants it shares with the un-poly ladder are checked
    # above
    L = heisenberg_ladder(1.0, d=1, levels=(1, 2), method="quadrature")
    f = LadderedFunction.make("heisenberg", 1, {0: 1.0, 1: -2.0}, kind="invariant")
    val1 = limit_inner_product(L, f, f)
    val2 = limit_inner_product(L, apply_nu(L, f, 2), apply_nu(L, f, 2))
    assert abs(val1 - val2) <= 1e-9 * abs(val1)


def test_heisenberg_quadrature_degree_ratio_matches_closed_form():
    # measured degrees: ratio deg(2)/deg(1) must reproduce q(2)/q(1) * t/pi
    t = 1.5
    L = heisenberg_ladder(t, d=1, levels=(1, 2), method="quadrature")
    assert math.isclose(L.deg(2) / L.deg(1), 2 * t / math.pi, rel_tol=1e-8)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_roundtrip():
    L = sphere_ladder(2, levels=(2, 3, 4))
    text = ladder_to_json(L)
    back = ladder_from_json(text)
    assert back.backend == L.backend
    assert back.levels == L.levels
    for m in L.levels:
        for n in L.levels:
            if m >= n:
                assert math.isclose(back.c(m, n), L.c(m, n), rel_tol=1e-12)
    ok, res = verify_cocycle(back)
    assert abs(float(res)) < 1e-12


@pytest.mark.parametrize("make", [lambda: sphere_ladder(2), lambda: un_polynomial_ladder(3)],
                         ids=["sphere-2", "un-poly-3"])
def test_exact_json_roundtrip(make):
    ladder = make()
    back = ladder_from_json(ladder_to_json(ladder))
    assert back.exact
    assert back == ladder
    assert all(type(v) is Fraction for v in back.csq_pairs.values())
    assert verify_cocycle(back) == (True, Fraction(0))



def test_float_json_keeps_float_fields():
    ladder = heisenberg_ladder(0.5)
    assert not ladder.exact
    text = ladder_to_json(ladder)
    assert set(json.loads(text)) == {"backend", "levels", "deg", "c"}
    back = ladder_from_json(text)
    assert not back.exact
    assert math.isclose(back.c(2, 1), ladder.c(2, 1), rel_tol=1e-15)
    assert back.deg(2) == ladder.deg(2)


_TOY_DEGREES = {1: 1, 2: Fraction(3), 3: 6}
_TOY_CSQ = {(2, 1): Fraction(1, 4), (3, 1): Fraction(1, 16), (3, 2): Fraction(1, 4)}


def test_ladder_of_ints_and_fractions_is_exact():
    ladder = make_ladder("toy", (1, 2, 3), _TOY_DEGREES, _TOY_CSQ)
    assert ladder.exact
    assert type(ladder.csq(2, 2)) is Fraction
    assert verify_cocycle(ladder) == (True, Fraction(0))
    assert verify_commuting_square(ladder, 3, 2) == (True, Fraction(0))
    ok, res = verify_commuting_square(ladder, 3, 1)  # int degrees, Fraction ratio
    assert ok and type(res) is Fraction


@pytest.mark.parametrize("where", ["degree", "constant"])
def test_one_float_makes_a_ladder_inexact(where):
    degrees, csq = dict(_TOY_DEGREES), dict(_TOY_CSQ)
    if where == "degree":
        degrees[3] = 6.0
    else:
        csq[(3, 2)] = 0.25
    ladder = make_ladder("toy", (1, 2, 3), degrees, csq)
    assert not ladder.exact
    assert type(ladder.csq(2, 2)) is float
    ok, res = verify_cocycle(ladder)
    assert ok and res == 0


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_json_roundtrip_returns_an_equal_ladder(exact):
    # quarter powers: c = sqrt(csq) and its square are exact in binary too
    number = Fraction if exact else float
    ladder = make_ladder("toy", (1, 2, 3), _TOY_DEGREES,
                         {p: number(v) for p, v in _TOY_CSQ.items()})
    text = ladder_to_json(ladder)
    assert ("csq" in json.loads(text)) is exact
    back = ladder_from_json(text)
    assert back == ladder
    assert back.exact is exact

def test_ladder_validation():
    with pytest.raises(ValueError):
        make_ladder("bad", (1, 2), {1: 1, 2: -1}, {(2, 1): Fraction(1, 2)})
    with pytest.raises(ValueError):
        make_ladder("bad", (1, 2), {1: 1, 2: 1}, {(2, 1): Fraction(3, 2)})
