"""Symmetric-pair data and the exact sphere model."""

from fractions import Fraction

import pytest

from gelfand import numerics, symmpair
from gelfand.exact import MultiPoly, dot
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


@pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (3, 4), (4, 3), (5, 2), (6, 2)])
def test_zonal_vector_unique_and_positive_at_pole(n, d):
    space = harmonic_basis(n, d)
    z = zonal_vector(space)
    pole = tuple([Fraction(1)] + [Fraction(0)] * (n - 1))
    assert z.eval(pole) > 0
    assert laplacian(z).is_zero()



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


@pytest.mark.parametrize("m,n,d", [(3, 2, 2), (4, 2, 3), (5, 3, 4), (4, 3, 1), (5, 2, 2)])
def test_quadrature_vs_gegenbauer(m, n, d):
    quad = zonal_projection_constant(m, n, d, method="quadrature")
    geg = zonal_projection_constant(m, n, d, method="gegenbauer")
    assert abs(quad - geg) < 1e-10
    assert abs(quad - zonal_projection_constant(m, n, d)) < 1e-10


def test_cocycle_identity_exact_on_squares():
    for d in range(1, 5):
        for k in range(2, 5):
            for n in range(k, 6):
                for m in range(n, 6):
                    lhs = zonal_projection_csq(m, n, d) * zonal_projection_csq(n, k, d)
                    assert lhs == zonal_projection_csq(m, k, d)


def test_gram_csv_roundtrip(tmp_path):
    space = harmonic_basis(3, 2)
    path = tmp_path / "gram.csv"
    symmpair.gram_to_csv(space, path)
    rows = [line.split(",") for line in path.read_text().strip().splitlines()]
    assert len(rows) == space.dim
    assert Fraction(rows[0][0]) == space.gram[0][0]
