"""Symmetric-pair data and the exact sphere model."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gelfand import numerics, symmpair
from gelfand.exact import MultiPoly, dot, monomials, nullspace, solve
from gelfand.symmpair import (
    build_symmetric_pair,
    cartan_helgason_filter,
    harmonic_basis,
    harmonic_dimension,
    laplacian,
    sphere_inner_product,
    sphere_moment,
    zonal_projection_constant,
    zonal_projection_csq,
    zonal_vector,
)


# ---------------------------------------------------------------------------
# restricted data
# ---------------------------------------------------------------------------


def test_group_case_su_is_a_type_mult_two():
    pair = build_symmetric_pair(1, 3)
    assert pair.restricted_type == "A"
    assert all(m == 2 for _, m in pair.positive_roots)
    assert len(pair.positive_roots) == 6  # A_3
    assert pair.doubled_indices == frozenset()


def test_sphere_family_rank_one():
    pair = build_symmetric_pair(8, 1, excess=2)  # S^3-ish block shape
    assert pair.restricted_type == "B"
    assert pair.rank == 1
    assert len(pair.class_one_weights) == 1


def test_grassmannian_equal_blocks_is_type_c():
    # recorded from the standard restricted-root tables: p = q gives C_p,
    # whose doubled-index set is empty; the factor-two behavior shows up in
    # the class-1 generators instead
    pair = build_symmetric_pair(5, 2, excess=0)
    assert pair.restricted_type == "C"
    assert pair.doubled_indices == frozenset()
    assert pair.class_one_weights[0] == (Fraction(2), Fraction(0))
    assert pair.class_one_weights[1] == (Fraction(2), Fraction(2))


def test_grassmannian_unequal_blocks_is_bc_with_doubled_end():
    pair = build_symmetric_pair(5, 2, excess=1)
    assert pair.restricted_type == "BC"
    assert pair.doubled_indices == frozenset({1})


@pytest.mark.parametrize("family_id,rank,excess", [
    (1, 2, 0), (2, 2, 0), (3, 3, 0), (4, 2, 0),
    (5, 2, 0), (5, 2, 2), (6, 3, 0), (7, 2, 0),
    (8, 2, 0), (8, 2, 3), (9, 2, 0), (9, 2, 1),
    (10, 2, 0), (10, 2, 1), (11, 3, 0),
])
def test_class_one_pairings_exact(family_id, rank, excess):
    pair = build_symmetric_pair(family_id, rank, excess=excess)
    for i, xi in enumerate(pair.class_one_weights):
        for j, psi in enumerate(pair.simple_roots):
            ratio = dot(xi, psi) / dot(psi, psi)
            expected = 0
            if i == j:
                expected = 2 if i in pair.doubled_indices else 1
            assert ratio == expected


def _solve_class_one(simple, doubled):
    """Reference: solve <xi_i, psi_j>/<psi_j, psi_j> = delta_ij (2 delta_ij on
    doubled indices) exactly, pinning the coordinates orthogonal to the span
    of the simple roots (the A-type ambient direction) to zero."""
    complement = nullspace([list(psi) for psi in simple], ncols=len(simple[0]))
    mat = [list(psi) for psi in simple] + [list(v) for v in complement]
    out = []
    for i in range(len(simple)):
        rhs = [Fraction(dot(psi, psi)) * (2 if i in doubled else 1) if i == j else Fraction(0)
               for j, psi in enumerate(simple)]
        out.append(tuple(solve(mat, rhs + [Fraction(0)] * len(complement))))
    return tuple(out)


@pytest.mark.parametrize("family_id", range(1, 12))
def test_class_one_weights_match_the_solved_pairings(family_id):
    for rank in range(1, 6):
        for excess in range(3):
            pair = build_symmetric_pair(family_id, rank, excess)
            solved = _solve_class_one(pair.simple_roots, pair.doubled_indices)
            assert pair.class_one_weights == solved, (rank, excess)
            assert all(isinstance(x, Fraction) for xi in pair.class_one_weights for x in xi)


def test_group_case_class_one_generators_are_doubled_fundamentals():
    # diagonal pair: the class-1 cone is generated by twice the usual
    # fundamental weights of the restricted system (frozen from the
    # diagonal-invariant computation in test_charring: every lambda (x)
    # dual(lambda) carries exactly one invariant)
    pair = build_symmetric_pair(1, 2)
    from gelfand import rootsys
    rs = rootsys.build_root_system("A", 2)
    for xi_cl, xi in zip(pair.class_one_weights, rs.fundamental_weights):
        assert xi_cl == tuple(2 * x for x in xi)


def test_cartan_helgason_filter():
    pair = build_symmetric_pair(8, 1, excess=2)
    xi = pair.class_one_weights[0]
    assert cartan_helgason_filter(pair, tuple(0 * x for x in xi))
    for d in range(4):
        assert cartan_helgason_filter(pair, tuple(d * x for x in xi))
    assert not cartan_helgason_filter(pair, tuple(x / 2 for x in xi))
    assert not cartan_helgason_filter(pair, tuple(-x for x in xi))


def test_unsupported_rows_rejected():
    with pytest.raises(ValueError):
        build_symmetric_pair(12, 2)
    with pytest.raises(ValueError):
        build_symmetric_pair(0, 2)
    with pytest.raises(ValueError):
        build_symmetric_pair(5, -1)


def test_rank_zero_pair_is_degenerate():
    pair = build_symmetric_pair(5, 0)
    assert pair.class_one_weights == ()
    assert pair.positive_roots == ()


def test_cartan_helgason_filter_on_rank_zero_pair():
    # no generators: only the zero weight is class-1
    pair = build_symmetric_pair(5, 0)
    assert cartan_helgason_filter(pair, ())
    assert cartan_helgason_filter(pair, (0,))
    assert not cartan_helgason_filter(pair, (1,))


def test_cartan_helgason_filter_rejects_weight_of_wrong_length():
    pair = build_symmetric_pair(6, 2)
    assert len(pair.class_one_weights[0]) == 3
    assert cartan_helgason_filter(pair, pair.class_one_weights[0])
    for lam in ((2, 0), (2, 0, 0, 0)):
        with pytest.raises(ValueError):
            cartan_helgason_filter(pair, lam)


# ---------------------------------------------------------------------------
# harmonic spaces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (3, 4), (4, 3), (5, 2), (8, 2)])
def test_harmonic_dimension_formula(n, d):
    space = harmonic_basis(n, d)
    assert space.dim == harmonic_dimension(n, d)


@pytest.mark.parametrize("n,d", [(3, 3), (4, 2), (5, 3)])
def test_harmonics_are_laplacian_kernel_exact(n, d):
    space = harmonic_basis(n, d)
    for p in space.basis:
        assert laplacian(p).is_zero()


@pytest.mark.parametrize("args", [(True, 1), (3, True), (3.0, 1), (3, 1.0)], ids=repr)
def test_harmonic_basis_refuses_a_bool_or_non_int_on_a_cold_and_a_warm_cache(args, cold_caches):
    # True == 1 and hashes alike, so an untyped cache would hand the bool
    # call the int record, or file a bool record under the int key
    for _ in range(2):
        with pytest.raises(ValueError):
            harmonic_basis(*args)
        space = harmonic_basis(*(int(x) for x in args))
        assert type(space.ambient_dim) is int and type(space.degree) is int
        with pytest.raises(ValueError):
            harmonic_basis(*args)


def test_sphere_moments_match_quadrature():
    from gelfand import numerics
    for expo in [(2, 0, 0), (2, 2, 0), (4, 0, 2), (1, 1, 2)]:
        exact = float(sphere_moment(expo))
        quad = numerics.integrate_sphere(
            lambda x: x[0] ** expo[0] * x[1] ** expo[1] * x[2] ** expo[2], 3, 6
        )
        assert abs(exact - quad) < 1e-12


def test_constant_and_degree_one_moments():
    assert sphere_moment((0, 0)) == 1
    assert sphere_moment((2, 0)) == Fraction(1, 2)
    assert sphere_moment((2, 0, 0)) == Fraction(1, 3)
    assert sphere_moment((4, 0, 0)) == Fraction(1, 5)


def _fraction_sphere_inner_product(p, q):
    """The pairing as one Fraction sum over term pairs: the route the
    integer pairing replaced, kept as its oracle."""
    total = Fraction(0)
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            total += c1 * c2 * sphere_moment(tuple(a + b for a, b in zip(m1, m2)))
    return total


def _random_poly(rng, n, max_degree=4, nterms=6):
    """A rational polynomial in n variables with terms of mixed degrees."""
    terms = {}
    for _ in range(nterms):
        mono = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(n)] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
    return MultiPoly(n, terms)


def _assert_pairing_matches_oracle(p, q):
    got = sphere_inner_product(p, q)
    assert type(got) is Fraction
    assert got == _fraction_sphere_inner_product(p, q), (p.terms, q.terms)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_integer_pairing_matches_fraction_oracle_on_harmonic_bases(n):
    for d in range(5):
        basis = harmonic_basis(n, d).basis
        for p in basis:
            for q in basis:
                _assert_pairing_matches_oracle(p, q)
    # across degrees, and on sums that mix them
    mixed = [sum(harmonic_basis(n, d).basis, MultiPoly.zero(n)) for d in range(5)]
    for p in mixed:
        for q in mixed + [sum(mixed, MultiPoly.zero(n))]:
            _assert_pairing_matches_oracle(p, q)


def test_integer_pairing_matches_fraction_oracle_on_zonals():
    for m in range(2, 7):
        for n in range(2, m + 1):
            for d in range(6):
                zm = symmpair._zonal_poly(m, d)
                zn = symmpair._embed(symmpair._zonal_poly(n, d), m + 1)
                for p, q in ((zm, zn), (zn, zn), (zm, zm)):
                    _assert_pairing_matches_oracle(p, q)


def test_integer_pairing_matches_fraction_oracle_on_random_polynomials():
    rng = random.Random(28)
    for _ in range(60):
        n = rng.randint(1, 5)
        _assert_pairing_matches_oracle(_random_poly(rng, n), _random_poly(rng, n))


def test_pairing_with_the_zero_polynomial_is_zero():
    rng = random.Random(3)
    for n in (1, 3, 5):
        zero = MultiPoly.zero(n)
        for p in (zero, _random_poly(rng, n)):
            for got in (sphere_inner_product(zero, p), sphere_inner_product(p, zero)):
                assert got == 0 and type(got) is Fraction


def test_pairing_refuses_polynomials_in_different_variable_counts():
    # x0^2 in 3 variables against x3^2 in 4: truncating the exponents would
    # pair x0^2 with x0^2 on S^2 and give 1/3
    p = MultiPoly(3, {(2, 0, 0): 1})
    q = MultiPoly(4, {(0, 0, 0, 2): 1})
    with pytest.raises(ValueError, match="variables"):
        sphere_inner_product(p, q)
    with pytest.raises(ValueError, match="variables"):
        sphere_inner_product(q, p)
    assert sphere_inner_product(symmpair._embed(p, 4), q) == Fraction(1, 24)


@pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (3, 4), (4, 3), (5, 2), (6, 2)])
def test_zonal_vector_unique_and_positive_at_pole(n, d):
    space = harmonic_basis(n, d)
    z = zonal_vector(space)
    pole = tuple([Fraction(1)] + [Fraction(0)] * (n - 1))
    assert z.eval(pole) > 0
    assert laplacian(z).is_zero()


def _zonal_by_generator_kernel(space, axis=0):
    """Reference route: the common kernel, inside the Laplacian-kernel basis,
    of the adjacent rotation generators L_ij = x_i d_j - x_j d_i of the
    non-axis coordinates (they generate so(N-1)), scaled to 1 at the pole."""
    others = [i for i in range(space.ambient_dim) if i != axis]
    monos = monomials(space.ambient_dim, space.degree)
    big = []
    for i, j in zip(others, others[1:]):
        xi = MultiPoly.variable(space.ambient_dim, i)
        xj = MultiPoly.variable(space.ambient_dim, j)
        images = [xi * p.diff(j) - xj * p.diff(i) for p in space.basis]
        for m in monos:
            row = [img.terms.get(m, Fraction(0)) for img in images]
            if any(row):
                big.append(row)
    kern = nullspace(big, ncols=space.dim)
    if len(kern) != 1:
        raise ArithmeticError(f"zonal subspace has dimension {len(kern)}, expected 1")
    zonal = MultiPoly.zero(space.ambient_dim)
    for c, p in zip(kern[0], space.basis):
        zonal = zonal + p.scale(c)
    pole = [Fraction(0)] * space.ambient_dim
    pole[axis] = Fraction(1)
    return zonal.scale(1 / zonal.eval(pole))


_ZONAL_REFERENCE_GRID = sorted(
    {(n, d, 0) for n in range(1, 6) for d in range(6)}
    | {(6, d, 0) for d in range(4)}
    | {(4, d, axis) for d in range(6) for axis in range(4)}
)


@pytest.mark.parametrize("n,d,axis", _ZONAL_REFERENCE_GRID)
def test_zonal_closed_form_matches_generator_kernel(n, d, axis):
    space = harmonic_basis(n, d)
    try:
        expected = _zonal_by_generator_kernel(space, axis)
    except ArithmeticError as exc:
        assert n <= 2
        with pytest.raises(ArithmeticError) as raised:
            zonal_vector(space, axis)
        assert str(raised.value) == str(exc)
        return
    assert zonal_vector(space, axis) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_zonal_poly_killed_by_every_rotation_of_the_non_axis_coordinates(n):
    # the kernel is built from the adjacent generators only; this checks the
    # full set L_ij = x_i d_j - x_j d_i, 1 <= i < j <= n
    for d in range(5):
        z = symmpair._zonal_poly(n, d)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                xi = MultiPoly.variable(n + 1, i)
                xj = MultiPoly.variable(n + 1, j)
                assert (xi * z.diff(j) - xj * z.diff(i)).is_zero(), (n, d, i, j)


def test_sphere_quadrature_of_zonal_products_matches_exact_at_s5():
    # S^5: N = 6, order 6, 31104 points, integrands of degree <= 8
    pts, _ = numerics.sphere_product_rule(6, 6)
    assert len(pts) == 31104
    for d in range(5):
        zm = symmpair._zonal_poly(5, d)
        fm = symmpair._poly_to_callable(zm)
        for n in range(2, 6):
            zn = symmpair._embed(symmpair._zonal_poly(n, d), 6)
            fn = symmpair._poly_to_callable(zn)
            for (p, fp), (q, fq) in (((zm, fm), (zn, fn)), ((zm, fm), (zm, fm)),
                                     ((zn, fn), (zn, fn))):
                quad = numerics.integrate_sphere(lambda x: fp(x) * fq(x), 6, 6)
                exact = float(sphere_inner_product(p, q))
                assert abs(quad - exact) < 1e-12, (d, n, quad, exact)

def test_zonal_axis_out_of_range():
    space = harmonic_basis(3, 2)
    with pytest.raises(ValueError):
        zonal_vector(space, axis=3)


# ---------------------------------------------------------------------------
# projection constants
# ---------------------------------------------------------------------------


def test_self_projection_is_one():
    for d in range(4):
        assert zonal_projection_csq(3, 3, d) == 1


def _csq_by_inner_products(m, n, d):
    """Reference route: the squared overlap of z_m and the embedded z_n from
    three exact polynomial inner products on S^m."""
    zm = symmpair._zonal_poly(m, d)
    zn = symmpair._embed(symmpair._zonal_poly(n, d), m + 1)
    cross = sphere_inner_product(zm, zn)
    return cross * cross / (sphere_inner_product(zm, zm) * sphere_inner_product(zn, zn))


@pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 9) for n in range(2, m + 1)]
                         + [(m, 1) for m in range(1, 5)])
def test_closed_form_csq_matches_inner_products(m, n):
    for d in range(7 if n >= 2 else 1):
        csq = zonal_projection_csq(m, n, d)
        assert type(csq) is Fraction
        assert csq == _csq_by_inner_products(m, n, d), (m, n, d)


@pytest.mark.parametrize("n", range(2, 9))
def test_zonal_norm_is_reciprocal_dimension(n):
    # the identity the zonal suite's self-projection cases check
    for d in range(7):
        z = symmpair._zonal_poly(n, d)
        assert sphere_inner_product(z, z) == Fraction(1, harmonic_dimension(n + 1, d))


def test_constants_in_unit_interval():
    for m in range(2, 6):
        for n in range(2, m + 1):
            for d in range(5):
                csq = zonal_projection_csq(m, n, d)
                assert 0 < csq <= 1


def test_three_routes_agree_on_3_2_1():
    exact = zonal_projection_constant(3, 2, 1, method="exact")
    quad = zonal_projection_constant(3, 2, 1, method="quadrature")
    geg = zonal_projection_constant(3, 2, 1, method="gegenbauer")
    assert abs(exact - quad) < 1e-10
    assert abs(exact - geg) < 1e-10


_METHODS = ("exact", "quadrature", "gegenbauer")


@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("m,n,d", [(3, 1, 2), (3, 1, 1), (3, 2, -1), (2, 3, 1),
                                   (0, 0, 0), (3, 0, 0)])
def test_every_route_rejects_the_same_bad_inputs(method, m, n, d):
    with pytest.raises(ValueError):
        zonal_projection_constant(m, n, d, method=method)
    with pytest.raises(ValueError):
        zonal_projection_csq(m, n, d)


@pytest.mark.parametrize("method", _METHODS)
def test_degree_zero_on_the_circle_is_one(method):
    assert zonal_projection_constant(2, 1, 0, method=method) == 1.0


@pytest.mark.parametrize("d", [0, 2])
def test_unknown_method_is_rejected_before_any_work(d, monkeypatch):
    def no_work(*args):
        raise AssertionError("the method is checked before any work")

    monkeypatch.setattr(symmpair, "_check_zonal_args", no_work)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        zonal_projection_constant(3, 2, d, "bogus")


def test_quadrature_route_integrates_once(monkeypatch, cold_caches):
    calls = []
    integrate = numerics.integrate_sphere

    def counted(*args):
        calls.append(args[1:])
        return integrate(*args)

    monkeypatch.setattr(numerics, "integrate_sphere", counted)
    quad = symmpair._zonal_constant_quadrature(5, 3, 4)
    assert calls == [(6, 6)]
    assert abs(quad - zonal_projection_constant(5, 3, 4)) < 1e-10
    # the overlap is memoized per (m, n, d): asked again, it is not integrated again
    again = [zonal_projection_constant(5, 3, 4, "quadrature") for _ in range(3)]
    assert calls == [(6, 6)]
    assert all(value is quad for value in again)


def test_each_gegenbauer_overlap_evaluates_its_zonals_once(monkeypatch, cold_caches):
    calls = []
    evaluate = symmpair._zonal_on_sphere

    def counted(n_sphere, degree, s, rho_sq):
        calls.append((n_sphere, degree))
        return evaluate(n_sphere, degree, s, rho_sq)

    monkeypatch.setattr(symmpair, "_zonal_on_sphere", counted)
    first = zonal_projection_constant(4, 2, 3, "gegenbauer")
    assert zonal_projection_constant(4, 2, 3, "gegenbauer") is first
    assert calls == [(4, 3), (2, 3)]


_NOT_INTS = [(3.5, 2, 1), (3.0, 2, 1), (3, 2.0, 1), (3, 2, 1.0), (3, 2, 1.5),
             (True, True, 0), (3, 2, True), (3, True, 1), ("3", 2, 1), (3, 2, None)]


@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("args", _NOT_INTS, ids=repr)
def test_every_route_rejects_a_bool_or_non_int_argument(method, args, monkeypatch):
    # checked before any route or memo is reached
    def no_work(*args):
        raise AssertionError("the arguments are checked before any work")

    for name in ("_zonal_constant_quadrature", "_zonal_constant_gegenbauer",
                 "harmonic_dimension"):
        monkeypatch.setattr(symmpair, name, no_work)
    with pytest.raises(ValueError, match="m, n and degree must be ints"):
        zonal_projection_constant(*args, method=method)
    with pytest.raises(ValueError, match="m, n and degree must be ints"):
        zonal_projection_csq(*args)


@pytest.mark.parametrize("method", _METHODS)
def test_a_float_argument_does_not_read_the_cached_int_value(method, cold_caches):
    # 3.0 == 3 and hash(3.0) == hash(3): an lru key would not tell them apart
    assert 0 < zonal_projection_constant(3, 2, 2, method) < 1
    for args in [(3.0, 2, 2), (3, 2, 2.0), (3, 2, True)]:
        with pytest.raises(ValueError, match="must be ints"):
            zonal_projection_constant(*args, method=method)


def test_poly_evaluator_matches_exact_evaluation():
    # exponents up to 8, mixed signs; dyadic points are exact as floats, and
    # the evaluation error is bounded relative to the absolute mass
    # sum |c| prod |x_i|^e_i of the terms
    rng = random.Random(8)
    terms = {}
    for _ in range(40):
        mono = tuple(rng.randint(0, 8) for _ in range(4))
        terms[mono] = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 30))
    terms[(8, 0, 0, 0)] = Fraction(3, 7)
    terms[(0, 0, 0, 0)] = Fraction(-2)
    p = MultiPoly(4, terms)
    f = symmpair._poly_to_callable(p)
    mass = MultiPoly(4, {m: abs(c) for m, c in terms.items()})
    points = [tuple(Fraction(rng.randint(-40, 40), 2 ** rng.randint(0, 5)) for _ in range(4))
              for _ in range(20)]
    for pt in points:
        exact = p.eval(pt)
        bound = mass.eval(tuple(abs(x) for x in pt))
        got = f(tuple(float(x) for x in pt))
        assert abs(Fraction(got) - exact) <= Fraction(1e-14) * bound, pt
    # one array call gives the scalar values
    cols = np.array([[float(x) for x in pt] for pt in points]).T
    assert np.array_equal(f(cols), [f(tuple(float(x) for x in pt)) for pt in points])


@pytest.mark.parametrize("m,n,d", [(3, 2, 2), (4, 2, 3), (5, 3, 4), (4, 3, 1), (5, 2, 2)])
def test_quadrature_vs_gegenbauer(m, n, d):
    quad = zonal_projection_constant(m, n, d, method="quadrature")
    geg = zonal_projection_constant(m, n, d, method="gegenbauer")
    assert abs(quad - geg) < 1e-10
    assert abs(quad - zonal_projection_constant(m, n, d)) < 1e-10


def _scalar_gegenbauer_constant(m, n, d):
    """The (s, u) reduction as a scalar double loop, each zonal evaluated per
    node through r = sqrt(s^2 + rho^2) and the plain Gegenbauer recurrence:
    the route the array evaluation replaced, kept as its oracle (m > n)."""
    def gegenbauer(alpha, x):
        if d == 0:
            return 1.0
        prev, cur = 1.0, 2 * alpha * x
        for k in range(2, d + 1):
            prev, cur = cur, (2 * (k + alpha - 1) * x * cur - (k + 2 * alpha - 2) * prev) / k
        return cur

    def zonal(sphere, s, rho_sq):
        alpha = (sphere - 1) / 2.0
        r2 = s * s + rho_sq
        if r2 == 0:
            return 0.0
        r = math.sqrt(r2)
        return (r ** d) * gegenbauer(alpha, s / r) / gegenbauer(alpha, 1.0)

    a = (m - 2) / 2.0
    s_nodes, s_wts = numerics.gauss_jacobi(d + 4, a, a)
    v_nodes, v_wts = numerics.gauss_jacobi(d + 4, (m - n) / 2.0 - 1, n / 2.0 - 1)

    def pair_integral(f):
        total = 0.0
        for s, ws in zip(s_nodes.tolist(), s_wts.tolist()):
            inner = 0.0
            for v, wu in zip(v_nodes.tolist(), v_wts.tolist()):
                u = (v + 1) / 2.0
                inner += wu * f(s, u * (1 - s * s))
            total += ws * inner
        return total

    zm = lambda s, rho_sq: zonal(m, s, 1 - s * s)
    zn = lambda s, rho_sq: zonal(n, s, rho_sq)
    cross = pair_integral(lambda s, rho_sq: zm(s, rho_sq) * zn(s, rho_sq))
    nm = pair_integral(lambda s, rho_sq: zm(s, rho_sq) ** 2)
    nn = pair_integral(lambda s, rho_sq: zn(s, rho_sq) ** 2)
    return abs(cross) / math.sqrt(nm * nn)


@pytest.mark.parametrize("m,n,d", [(3, 2, 1), (3, 2, 2), (4, 2, 3), (5, 3, 4), (4, 3, 1),
                                   (5, 2, 2)])
def test_gegenbauer_route_matches_the_scalar_loop_oracle(m, n, d):
    geg = zonal_projection_constant(m, n, d, method="gegenbauer")
    assert abs(geg - _scalar_gegenbauer_constant(m, n, d)) < 1e-14


@pytest.mark.parametrize("m", range(2, 6))
def test_gegenbauer_route_on_one_sphere_is_one(m):
    # m = n: the u rule is the single node u = 1
    for d in range(1, 5):
        assert abs(zonal_projection_constant(m, m, d, method="gegenbauer") - 1.0) < 1e-14


def test_cocycle_identity_exact_on_squares():
    for d in range(1, 5):
        for k in range(2, 5):
            for n in range(k, 6):
                for m in range(n, 6):
                    lhs = zonal_projection_csq(m, n, d) * zonal_projection_csq(n, k, d)
                    assert lhs == zonal_projection_csq(m, k, d)


def _gram(space):
    """Exact Gram matrix of a harmonic basis under the normalized sphere
    measure."""
    return tuple(tuple(sphere_inner_product(p, q) for q in space.basis) for p in space.basis)


def test_gram_csv_roundtrip():
    # one exact row per harmonic basis vector
    space = harmonic_basis(3, 2)
    gram = _gram(space)
    assert len(gram) == space.dim
    for row in gram:
        assert len(row) == space.dim
        assert all(isinstance(x, Fraction) for x in row)
