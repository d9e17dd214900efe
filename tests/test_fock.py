"""Heisenberg group arithmetic and the truncated Bargmann-space model."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from gelfand import fock, numerics
from gelfand.fock import (
    HeisenbergPoint,
    RegularFunction,
    coefficient_inner_product,
    coefficient_series,
    fock_operator,
    heis_mul,
    matrix_coefficient,
    multi_indices,
    regular_gram,
    regular_norm_sq,
)
from gelfand.exact import _echelon


def rank(matrix):
    """Rank of an exact matrix: the pivot count of its echelon form."""
    return len(_echelon(matrix)[1])


ints = st.integers(min_value=-4, max_value=4)


def heis_identity(n):
    return HeisenbergPoint(0.0, (0j,) * n)


def heis_inv(g):
    return HeisenbergPoint(-g.z, tuple(-a for a in g.w))


def int_point(z, reals, imags):
    return HeisenbergPoint(float(z), tuple(complex(a, b) for a, b in zip(reals, imags)))


# ---------------------------------------------------------------------------
# group arithmetic (exact on integer coordinates)
# ---------------------------------------------------------------------------


@given(z=ints, xs=st.tuples(ints, ints), ys=st.tuples(ints, ints))
def test_identity_and_inverse(z, xs, ys):
    g = int_point(z, xs, ys)
    e = heis_identity(2)
    assert heis_mul(g, e) == g
    assert heis_mul(e, g) == g
    assert heis_mul(g, heis_inv(g)) == e


@settings(max_examples=80)
@given(
    data=st.tuples(*(ints for _ in range(9))),
)
def test_associativity_exact_on_integers(data):
    z1, x1, y1, z2, x2, y2, z3, x3, y3 = data
    g1 = int_point(z1, (x1,), (y1,))
    g2 = int_point(z2, (x2,), (y2,))
    g3 = int_point(z3, (x3,), (y3,))
    assert heis_mul(heis_mul(g1, g2), g3) == heis_mul(g1, heis_mul(g2, g3))


@given(xs=st.tuples(ints, ints), ys=st.tuples(ints, ints),
       xs2=st.tuples(ints, ints), ys2=st.tuples(ints, ints))
def test_commutator_is_central_with_doubled_symplectic_form(xs, ys, xs2, ys2):
    g = int_point(0, xs, ys)
    h = int_point(0, xs2, ys2)
    comm = heis_mul(heis_mul(g, h), heis_mul(heis_inv(g), heis_inv(h)))
    pairing = sum(a * b.conjugate() for a, b in zip(g.w, h.w))
    assert comm.w == (0j, 0j)
    assert comm.z == 2 * pairing.imag


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        heis_mul(heis_identity(1), heis_identity(2))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def test_identity_element_gives_identity_matrix():
    op = fock_operator(1, 1.0, heis_identity(1), 8)
    assert np.array_equal(op.matrix, np.eye(9, dtype=complex))


def test_central_elements_act_by_exact_phase():
    z = 0.73
    for t in (0.5, 1.0, -2.0):
        op = fock_operator(1, t, HeisenbergPoint(z, (0j,)), 6)
        expected = complex(math.cos(t * z), math.sin(t * z)) * np.eye(7)
        assert np.array_equal(op.matrix, expected)


def test_rejects_t_zero_and_mismatch():
    with pytest.raises(ValueError):
        fock_operator(1, 0.0, heis_identity(1), 8)
    with pytest.raises(ValueError):
        fock_operator(2, 1.0, heis_identity(1), 8)
    with pytest.raises(ValueError):
        fock_operator(1, 1.0, HeisenbergPoint(0.0, (40 + 0j,)), 8)


def test_matrix_entries_are_graded_lex_contract():
    idx = multi_indices(2, 2)
    assert idx == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_truncated_operator_is_unitary():
    g = HeisenbergPoint(0.3, (0.4 - 0.2j,))
    for t in (0.5, 2.0, -1.0):
        op = fock_operator(1, t, g, 20)
        err = np.linalg.norm(op.matrix.conj().T @ op.matrix - np.eye(21))
        assert err < 1e-12


def test_coherent_overlap_matches_series_oracle():
    # operator route vs the normal-ordered series at small displacement
    for t in (0.5, 1.0, 2.0, -1.0):
        for v in (0.5, 0.3 + 0.2j, 0.1 - 0.45j):
            g = HeisenbergPoint(0.0, (v,))
            got = matrix_coefficient(t, (0,), (0,), g, cutoff=20)
            want = coefficient_series(t, (0,), (0,), g)
            assert abs(got - want) < 1e-10
            assert abs(want - math.exp(-abs(t) * abs(v) ** 2 / 2)) < 1e-12


def test_matrix_coefficient_identity_and_center():
    assert matrix_coefficient(1.0, (1,), (1,), heis_identity(1)) == 1.0
    assert matrix_coefficient(1.0, (1,), (2,), heis_identity(1)) == 0.0
    val = matrix_coefficient(1.5, (2,), (2,), HeisenbergPoint(0.9, (0j,)))
    assert abs(val - complex(math.cos(1.35), math.sin(1.35))) < 1e-15


def test_index_beyond_cutoff_rejected():
    op = fock_operator(1, 1.0, heis_identity(1), 4)
    with pytest.raises(ValueError):
        op.entry((5,), (0,))


def test_conjugate_symmetry_under_inverse():
    g = HeisenbergPoint(0.2, (0.3 + 0.1j,))
    for (l, m) in [((0,), (1,)), ((2,), (3,)), ((1,), (1,))]:
        a = matrix_coefficient(1.0, l, m, heis_inv(g), cutoff=20)
        b = matrix_coefficient(1.0, m, l, g, cutoff=20)
        assert abs(a - b.conjugate()) < 1e-10


@pytest.mark.parametrize("t", [1.0, 0.5, -1.0])
def test_representation_property_small_displacements(t):
    # the group law holds on the protected block (degrees <= cutoff/2 in and
    # out); outside it the truncated exponentials are allowed to disagree.
    # negative t exercises the conjugate-variable branch of the action
    cutoff = 20
    g = HeisenbergPoint(0.15, (0.3 + 0.4j,))
    h = HeisenbergPoint(-0.4, (-0.3 - 0.4j,))
    u = fock_operator(1, t, g, cutoff).matrix
    v = fock_operator(1, t, h, cutoff).matrix
    w = fock_operator(1, t, heis_mul(g, h), cutoff).matrix
    keep = [i for i, m in enumerate(multi_indices(1, cutoff)) if sum(m) <= 10]
    diff = (u @ v - w)[np.ix_(keep, keep)]
    assert np.linalg.norm(diff, 2) < 1e-6


def test_two_coordinate_operator_factorizes():
    t = 1.0
    g = HeisenbergPoint(0.0, (0.3 + 0.1j, -0.2 + 0.25j))
    got = matrix_coefficient(t, (1, 0), (0, 1), g, cutoff=12)
    want = coefficient_series(t, (1, 0), (0, 1), g)
    assert abs(got - want) < 1e-9


def _full_generator_expm(n, t, g, cutoff):
    """The operator as one dense exponential of the truncated generator
    sum_j alpha_j a_j^+ - conj(alpha_j) a_j, times the central phase."""
    alpha = fock._alpha(t, g.w)
    gen = sum(al * a - np.conjugate(al) * a.T
              for a, al in zip(fock._ladder_matrices(n, cutoff), alpha))
    return complex(math.cos(t * g.z), math.sin(t * g.z)) * scipy_expm(gen)


def _oracle_points(n, t, cutoff, seed):
    """Seeded points inside the amplitude guard: alpha along the last axis,
    and alpha with every component nonzero at a small and a near-guard
    amplitude."""
    rng = np.random.default_rng(seed)
    last = np.zeros(n, dtype=complex)
    last[-1] = 0.6 - 0.3j
    points = [last]
    for frac in (0.05, 0.45):
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        points.append(w * math.sqrt(frac * cutoff / abs(t)) / np.linalg.norm(w))
    return [HeisenbergPoint(float(rng.uniform(-1, 1)), tuple(complex(x) for x in w))
            for w in points]


@pytest.mark.parametrize("t", [0.5, -0.5, 1.0, -1.0, 2.0])
@pytest.mark.parametrize("n,cutoff", [(1, 10), (1, 30), (2, 8), (2, 16), (3, 5), (3, 8)])
def test_mode_rotation_matches_full_generator_expm(n, cutoff, t):
    for g in _oracle_points(n, t, cutoff, seed=97 * n + cutoff):
        got = fock_operator(n, t, g, cutoff).matrix
        want = _full_generator_expm(n, t, g, cutoff)
        assert np.abs(got - want).max() < 1e-12


def _complex_rotation_operator(n, t, g, cutoff):
    """The operator by complex mode rotations: Gamma(U) E Gamma(U)^* with U
    the complex Householder unitary, U e_1 = alpha / |alpha|, and E the
    one-mode exponential times the central phase."""
    phase = complex(math.cos(t * g.z), math.sin(t * g.z))
    alpha = np.array(fock._alpha(t, g.w))
    r = math.hypot(*np.abs(alpha))
    unit = alpha.real / r + 1j * (alpha.imag / r)
    head = cmath.exp(1j * cmath.phase(unit[0]))
    u = unit * head.conjugate()
    u[0] = 1 + abs(unit[0])
    unitary = -head * (np.eye(n) - np.outer(u, u.conj()) / u[0].real)
    bounds, parents, chains, _ = fock._rotation_structure(n, cutoff)
    blocks = fock._rotation_blocks(unitary, parents)
    spans = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    dim = bounds[-1]
    gstar = np.zeros((dim, dim), dtype=complex)
    for span, gam in zip(spans, blocks):
        gstar[span, span] = gam.conj().T
    mat = np.empty((dim, dim), dtype=complex)
    for length, rows in chains:
        lam, w = fock._chain_eigen(length)
        mat[rows] = ((w * (phase * np.exp(-1j * r * lam))) @ w.conj().T) @ gstar[rows]
    for span, gam in zip(spans, blocks):
        mat[span] = gam @ mat[span]
    return mat


@pytest.mark.parametrize("t", [0.7, -1.3])
@pytest.mark.parametrize("n,cutoff", [(1, 24), (2, 14), (3, 9), (4, 6)])
def test_real_rotations_match_complex_route(n, cutoff, t):
    points = _oracle_points(n, t, cutoff, seed=31 * n + cutoff)
    # alpha with a zero component, first and last
    w = [complex(0.3, -0.2 * j) for j in range(n)]
    points.append(HeisenbergPoint(0.4, tuple([0j] + w[1:] if n > 1 else w)))
    points.append(HeisenbergPoint(-0.2, tuple(w[:-1] + [0j] if n > 1 else w)))
    for g in points:
        got = fock_operator(n, t, g, cutoff).matrix
        assert np.abs(got - _complex_rotation_operator(n, t, g, cutoff)).max() < 1e-13


@pytest.mark.parametrize("t", [1.0, -1.0])
def test_real_rotations_match_complex_route_on_tiny_displacements(t):
    for w in ((1e-320 + 0j,), (0j, 3e-320j, 0j), (1e-310 + 1e-310j, 0.3j),
              (1e-310 + 0j, 0.3 + 0j, -0.2j)):
        g = HeisenbergPoint(0.2, w)
        got = fock_operator(len(w), t, g, 6).matrix
        assert np.abs(got - _complex_rotation_operator(len(w), t, g, 6)).max() < 1e-13


def test_rotation_blocks_follow_the_dtype_of_the_rotation():
    v = np.array([0.6, 0.0, 0.8])
    o = fock._first_column_unitary(v)
    assert o.dtype == np.float64
    assert np.abs(o[:, 0] - v).max() < 1e-15
    assert np.abs(o @ o.T - np.eye(3)).max() < 1e-15
    parents = fock._rotation_structure(3, 6)[1]
    assert all(b.dtype == np.float64 for b in fock._rotation_blocks(o, parents))
    assert all(b.dtype == complex for b in fock._rotation_blocks(1j * o, parents))


@pytest.mark.parametrize("n,cutoff", [(2, 16), (3, 8)])
def test_truncated_operator_is_unitary_in_several_modes(n, cutoff):
    for t in (0.5, -1.0, 2.0):
        for g in _oracle_points(n, t, cutoff, seed=5):
            op = fock_operator(n, t, g, cutoff).matrix
            err = np.linalg.norm(op.conj().T @ op - np.eye(len(op)))
            assert err < 1e-12


def test_chain_exponentials_keep_unitarity_to_rounding():
    # scipy's expm on a real chain generator drifts to ~1e-13 here (length
    # 21); on the complex generator the residual stays at a few 1e-15
    for v in (0.5, 1.0, 2.0):
        op = fock_operator(1, 1.0, HeisenbergPoint(0.0, (v + 0j,)), 20).matrix
        assert np.linalg.norm(op.conj().T @ op - np.eye(21)) < 2e-14


def test_chain_eigenbasis_matches_pade_exponential():
    for length in range(1, 45):
        lam, w = fock._chain_eigen(length)
        a = fock._ladder_matrices(1, length - 1)[0]
        for r in (0.05, 0.5, 1.0, 2.0, 4.5):
            got = (w * np.exp(-1j * r * lam)) @ w.conj().T
            assert np.abs(got - numerics.matrix_exp(r * (a - a.T))).max() < 1e-14


def test_operator_builds_only_one_mode_ladders():
    # the n-mode ladder matrices (11 MB at (3, 14)) stay off the call path
    for cached in (fock._ladder_matrices, fock._chain_eigen):
        cached.cache_clear()
    fock_operator(3, 1.0, HeisenbergPoint(0.1, (0.2j, -0.1 + 0j, 0.05 + 0.1j)), 14)
    assert fock._ladder_matrices.cache_info().currsize == 15
    for length in range(1, 16):
        fock._ladder_matrices(1, length - 1)
    info = fock._ladder_matrices.cache_info()
    assert (info.hits, info.misses, info.currsize) == (15, 15, 15)


def test_tiny_displacement_components_match_full_generator_expm():
    # subnormal displacements, and a subnormal first component of alpha
    for w in ((1e-320 + 0j,), (0j, 3e-320j, 0j), (1e-310 + 1e-310j, 0.3j),
              (1e-310 + 0j, 0.3 + 0j, -0.2j)):
        g = HeisenbergPoint(0.2, w)
        got = fock_operator(len(w), 1.0, g, 6).matrix
        assert np.abs(got - _full_generator_expm(len(w), 1.0, g, 6)).max() < 1e-12


def test_amplitude_guard_in_three_modes():
    # |t| |w|^2 = 2 * 2 = 4 > cutoff / 2
    g = HeisenbergPoint(0.0, (1.0 + 0j, 1.0j, 0j))
    with pytest.raises(ValueError, match="too large"):
        fock_operator(3, 2.0, g, 6)
    # the same point is accepted once the cutoff covers it
    assert fock_operator(3, 2.0, g, 8).matrix.shape == (165, 165)


# ---------------------------------------------------------------------------
# orthogonality integrals
# ---------------------------------------------------------------------------


def test_off_diagonal_coefficients_orthogonal():
    pairs = [((0,), (0,)), ((1,), (0,)), ((2,), (1,)), ((3,), (3,))]
    for t in (0.5, 1.0, 2.0):
        for i, p in enumerate(pairs):
            for q in pairs[i + 1:]:
                val = coefficient_inner_product(t, p, q)
                assert abs(val) < 1e-8


def test_diagonal_value_times_degree_is_constant():
    pairs = [((0,), (0,)), ((1,), (0,)), ((2,), (2,)), ((4,), (1,))]
    values = []
    for t in (0.5, 1.0, 2.0, -1.5):
        for p in pairs:
            val = coefficient_inner_product(t, p, p)
            assert abs(val.imag) < 1e-12
            values.append(val.real * abs(t))
    mean = sum(values) / len(values)
    assert all(abs(v - mean) <= 1e-6 * abs(mean) for v in values)
    # with Lebesgue measure on C the constant is pi
    assert abs(mean - math.pi) < 1e-8


def test_n_two_inner_product_and_pre():
    val = coefficient_inner_product(1.0, ((0, 0), (0, 0)), ((0, 0), (0, 0)))
    assert abs(val - math.pi ** 2) < 1e-6
    with pytest.raises(ValueError):
        coefficient_inner_product(1.0, ((0, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, 0, 0)))


# acceptance criterion 3's index pairs
_CRITERION_3_PAIRS = [((0,), (0,)), ((1,), (0,)), ((2,), (1,)), ((3,), (3,)),
                      ((4,), (2,)), ((8,), (8,))]


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_cached_pairings_equal_cold_ones_bit_for_bit(cold_caches):
    cases = [(t, p, q) for t in (0.5, 1.0, 2.0, -1.0, -0.5)
             for i, p in enumerate(_CRITERION_3_PAIRS) for q in _CRITERION_3_PAIRS[i:]]
    cold = {}
    for t, p, q in cases:
        cold_caches()
        cold[t, p, q] = _bits(coefficient_inner_product(t, p, q))
    cold_caches()
    random.Random(23).shuffle(cases)
    assert {case: _bits(coefficient_inner_product(*case)) for case in cases} == cold


def test_a_second_t_reuses_the_grid_sums(cold_caches):
    pairs = [(p, q) for i, p in enumerate(_CRITERION_3_PAIRS) for q in _CRITERION_3_PAIRS[i:]]
    for p, q in pairs:
        coefficient_inner_product(0.5, p, q)
    misses = fock._grid_pairing.cache_info().misses
    for t in (1.0, 2.0, -1.0, -0.5):
        for p, q in pairs:
            coefficient_inner_product(t, p, q)
        assert fock._grid_pairing.cache_info().misses == misses


# ---------------------------------------------------------------------------
# regular functions
# ---------------------------------------------------------------------------


def test_regular_norm_values():
    exact, quad = regular_norm_sq(1, 0)
    assert exact == Fraction(1, 2)
    assert abs(quad - 0.5) < 1e-10
    exact, quad = regular_norm_sq(0, 0)
    assert exact == 1
    exact, quad = regular_norm_sq(1, 3)
    assert exact == Fraction(3, 2)
    assert abs(quad - 1.5) < 1e-10


def test_regular_function_eval():
    f = RegularFunction.zero(1)
    assert f.eval(0.7, heis_identity(1)) == 0
    g = RegularFunction.from_term(1, (1,), (2,), (2,))
    assert abs(g.eval(0.7, heis_identity(1)) - math.exp(-0.7)) < 1e-15


def test_regular_function_product_adds_indices():
    a = RegularFunction.from_term(1, (1,), (1,), (0,))
    b = RegularFunction.from_term(1, (0, 1), (2,), (1,))
    prod = a * b
    assert len(prod.terms) == 1
    (key, coeffs), = prod.terms
    assert key == ((3,), (1,))
    assert coeffs == (0, 1)


def test_regular_function_sum_pads_shorter_coefficients():
    a = RegularFunction.from_term(1, (1, 2), (1,), (0,))
    b = RegularFunction.from_term(1, (Fraction(1, 2), 0, 3), (1,), (0,))
    c = RegularFunction.from_term(1, (5,), (0,), (2,))
    total = a + b + c
    assert total.terms == ((((0,), (2,)), (5,)), (((1,), (0,)), (Fraction(3, 2), 2, 3)))
    assert (b + a).terms == (a + b).terms


def test_regular_gram_full_rank_density_proxy():
    terms = []
    for m in range(4):
        for mp in range(4):
            for k in range(5):
                terms.append((k, (m,), (mp,)))
    terms = terms[:50]
    assert rank(regular_gram(1, terms)) == len(terms)


def test_regular_function_eval_wrapper():
    f = fock.RegularFunction.from_term(1, (1,), (0,), (0,))
    got = f.eval(0.3, heis_identity(1))
    assert abs(got - math.exp(-0.3)) < 1e-15


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def test_operator_csv_export():
    op = fock_operator(1, 1.0, HeisenbergPoint(0.1, (0.2 + 0.1j,)), 3)
    # rows and columns follow multi_indices, degree-major
    assert multi_indices(1, 3) == ((0,), (1,), (2,), (3,))
    assert op.matrix.shape == (4, 4)
    for i, left in enumerate(multi_indices(1, 3)):
        for j, right in enumerate(multi_indices(1, 3)):
            assert op.entry(left, right) == op.matrix[i, j]


def test_operator_preserves_inner_products_on_protected_range():
    # unitarity at the vector level: pairings of protected-degree vectors
    # are preserved to well below 1e-8
    t, cutoff = 1.0, 20
    op = fock_operator(1, t, HeisenbergPoint(0.2, (0.4 - 0.1j,)), cutoff)
    pos = {m: i for i, m in enumerate(multi_indices(1, cutoff))}
    u = np.zeros(len(pos), dtype=complex)
    v = np.zeros(len(pos), dtype=complex)
    for vec, coeffs in ((u, {(0,): 1.0, (3,): -0.5j, (9,): 0.25}),
                        (v, {(1,): 2.0, (6,): 1.0 + 1.0j})):
        for m, c in coeffs.items():
            vec[pos[m]] = c
    before = np.vdot(u, v)
    after = np.vdot(op.matrix @ u, op.matrix @ v)
    assert abs(after - before) < 1e-8
    assert abs(np.sum(np.abs(op.matrix @ u) ** 2) - np.sum(np.abs(u) ** 2)) < 1e-10
