"""Ladder algebra: degrees and constants, the system map nu, commuting
squares, cocycles, the limit pairing's invariance under level promotion, and
the export-ladder file read back as the ladder it was written from."""

import json
import math
import random
from fractions import Fraction

import pytest

from gelfand import cli
from gelfand.dirlim import (
    LadderedFunction,
    _pairs,
    apply_nu,
    heisenberg_ladder,
    ladder_to_json,
    limit_inner_product,
    make_ladder,
    sphere_ladder,
    un_csq_by_enumeration,
    un_polynomial_ladder,
    verify_cocycle,
    verify_commuting_square,
)


def _c(ladder, m, n):
    """The projection constant c(m, n) itself, a surd on the exact ladders."""
    return math.sqrt(float(ladder.csq(m, n)))


def ladder_from_json(text: str):
    """The export-ladder file read back: "p/q" strings as Fractions and
    numbers as floats."""
    doc = json.loads(text)
    levels = doc["levels"]
    pos = {n: i for i, n in enumerate(levels)}

    def number(x):
        return Fraction(x) if isinstance(x, str) else float(x)

    degrees = {n: number(x) for n, x in zip(levels, doc["deg"])}
    csq = {(m, n): number(doc["csq"][pos[m]][pos[n]]) for m, n in _pairs(levels)}
    return make_ladder(doc["backend"], levels, degrees, csq)


# ---------------------------------------------------------------------------
# degrees and constants
# ---------------------------------------------------------------------------


def test_same_level_constant_is_one():
    for L, number in ((un_polynomial_ladder(2), Fraction), (heisenberg_ladder(0.5, d=2), float)):
        for n in L.levels:
            assert L.csq(n, n) == 1 and type(L.csq(n, n)) is number


def test_heisenberg_degree_ratio_is_t():
    # at d = 0 the degrees are |t|^n, so one level up multiplies by t exactly
    for t in (Fraction(1, 2), Fraction(2), Fraction(3)):
        L = heisenberg_ladder(t, d=0, levels=(1, 2))
        assert L.deg(2) / L.deg(1) == t


def test_tilde_bounded_by_plain():
    # the tilde map is c(m, n) times the plain one, a contraction iff c <= 1
    L = sphere_ladder(2, levels=(2, 3, 4))
    for m, n in _pairs(L.levels):
        assert 0 < L.csq(m, n) <= 1


def test_missing_level_errors():
    L = un_polynomial_ladder(1, levels=(1, 2))
    with pytest.raises(KeyError):
        L.deg(5)
    with pytest.raises(ValueError, match="need m >= n"):
        L.csq(1, 2)


# ---------------------------------------------------------------------------
# function maps
# ---------------------------------------------------------------------------


def test_only_the_invariant_encoding_is_made():
    f = LadderedFunction.make("sphere", 2, {0: 1}, kind="invariant")
    assert f == LadderedFunction.make("sphere", 2, {0: 1})
    assert (f.backend, f.level, f.coeffs, f.scale_sq) == ("sphere", 2, ((0, 1),), 1)
    with pytest.raises(ValueError, match="kind must be 'invariant'"):
        LadderedFunction.make("sphere", 2, {0: 1}, kind="coeff")


def test_apply_nu_then_restrict_is_identity():
    # restriction back to level 2 multiplies the prefactor by c(4, 2)^2
    L = sphere_ladder(3, levels=(2, 3, 4))
    f = LadderedFunction.make("sphere", 2, {0: Fraction(2), 1: Fraction(-1)},
                              kind="invariant")
    up = apply_nu(L, f, 4)
    assert (up.level, up.coeffs) == (4, f.coeffs)
    back = LadderedFunction(up.backend, 2, up.coeffs, up.scale_sq * L.csq(4, 2))
    assert back == f


def test_level_order_enforced():
    L = un_polynomial_ladder(1)
    f = LadderedFunction.make("un-poly", 3, {"a": 1.0}, kind="invariant")
    with pytest.raises(ValueError, match="level 2 is below level 3"):
        apply_nu(L, f, 2)


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
    # from level 2, above the base 1, the pairing needs csq(3, 1) = csq(3, 2) csq(2, 1)
    L = heisenberg_ladder(1.0, d=1, levels=(1, 2, 3), method="quadrature")
    f = LadderedFunction.make("heisenberg", 2, {0: 1.0, 1: -2.0}, kind="invariant")
    val2 = limit_inner_product(L, f, f)
    val3 = limit_inner_product(L, apply_nu(L, f, 3), apply_nu(L, f, 3))
    assert abs(val2 - val3) <= 1e-9 * abs(val2)


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
                assert math.isclose(_c(back, m, n), _c(L, m, n), rel_tol=1e-12)
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
    assert set(json.loads(text)) == {"backend", "levels", "deg", "csq"}
    back = ladder_from_json(text)
    assert not back.exact
    assert _c(back, 2, 1) == _c(ladder, 2, 1)
    assert back.deg(2) == ladder.deg(2)


_TOY_DEGREES = {1: 1, 2: Fraction(3), 3: 6}
_TOY_CSQ = {(2, 1): Fraction(1, 4), (3, 1): Fraction(1, 16), (3, 2): Fraction(1, 4)}


def test_ladder_of_ints_and_fractions_is_exact():
    ladder = make_ladder("toy", (1, 2, 3), _TOY_DEGREES, _TOY_CSQ)
    assert ladder.exact
    assert type(ladder.csq(2, 2)) is Fraction
    assert verify_cocycle(ladder) == (True, Fraction(0))
    assert verify_commuting_square(ladder, 3, 2) == (True, Fraction(0))
    ok, res = verify_commuting_square(ladder, 3, 1)  # int degrees stored as Fractions
    assert ok and type(res) is Fraction
    assert all(type(v) is Fraction for v in ladder.degrees.values())


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
    assert all(type(v) is float for v in (*ladder.degrees.values(), *ladder.csq_pairs.values()))
    ok, res = verify_cocycle(ladder)
    assert ok and res == 0


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_json_roundtrip_returns_an_equal_ladder(exact):
    # quarter powers: c = sqrt(csq) and its square are exact in binary too
    number = Fraction if exact else float
    ladder = make_ladder("toy", (1, 2, 3), _TOY_DEGREES,
                         {p: number(v) for p, v in _TOY_CSQ.items()})
    text = ladder_to_json(ladder)
    doc = json.loads(text)
    assert set(doc) == {"backend", "levels", "deg", "csq"}
    assert all(isinstance(x, str) is exact for x in doc["deg"])
    back = ladder_from_json(text)
    assert back == ladder
    assert back.exact is exact


_TS = (1, Fraction(1, 2), -3, 0.7, 1.0, 2.0)
_BUILDERS = ([(f"un-poly-{d}", lambda d=d: un_polynomial_ladder(d)) for d in range(6)]
             + [(f"sphere-{m}-{d}", lambda d=d, m=m: sphere_ladder(d, method=m))
                for m in ("exact", "quadrature") for d in range(6)]
             + [(f"heisenberg-{m}-{str(t).replace('/', ':')}-{d}",
                 lambda d=d, m=m, t=t: heisenberg_ladder(t, d, method=m))
                for m in ("exact", "quadrature") for t in _TS for d in range(6)])


@pytest.mark.parametrize("make", [make for _, make in _BUILDERS],
                         ids=[name for name, _ in _BUILDERS])
def test_every_builder_ladder_reads_back_as_itself(make):
    ladder = make()
    back = ladder_from_json(ladder_to_json(ladder))
    assert back == ladder
    assert back.exact is ladder.exact
    number = Fraction if ladder.exact else float
    assert all(type(v) is number for v in (*back.degrees.values(), *back.csq_pairs.values()))


@pytest.mark.parametrize("backend, build", [
    ("un-poly", lambda: un_polynomial_ladder(2)),
    ("sphere", lambda: sphere_ladder(2)),
    ("heisenberg", lambda: heisenberg_ladder(1.0, d=2)),
], ids=["un-poly", "sphere", "heisenberg"])
def test_export_ladder_file_reads_back_as_the_builder_ladder(backend, build, tmp_path):
    out = tmp_path / "ladder.json"
    assert cli.main(["export-ladder", "--backend", backend, "--out", str(out)]) == 0
    assert ladder_from_json(out.read_text()) == build()


def test_ladder_validation():
    with pytest.raises(ValueError):
        make_ladder("bad", (1, 2), {1: 1, 2: -1}, {(2, 1): Fraction(1, 2)})
    with pytest.raises(ValueError):
        make_ladder("bad", (1, 2), {1: 1, 2: 1}, {(2, 1): Fraction(3, 2)})
    with pytest.raises(ValueError, match="levels must be strictly increasing"):
        make_ladder("bad", (1, 1, 2), {1: 1, 2: 2}, {(2, 1): Fraction(1, 2)})
