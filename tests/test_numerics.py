"""Quadrature exactness, plane integrals, and the matrix exponential."""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.special import roots_jacobi

from gelfand import cli
from gelfand.numerics import (
    QuadratureError,
    gamma_moment,
    gauss_hermite,
    gauss_jacobi,
    gauss_laguerre,
    gaussian_plane_integral,
    half_line_moment,
    integrate_sphere,
    matrix_exp,
    sphere_product_rule,
)


# closed-form moment oracles for the three weights
def _laguerre_moment(k):  # integral x^k e^-x
    return math.factorial(k)


def _hermite_moment(k):  # integral x^k e^{-x^2}
    if k % 2:
        return 0.0
    return math.sqrt(math.pi) * math.factorial(k) / (4 ** (k // 2) * math.factorial(k // 2))


@pytest.mark.parametrize("order", [4, 8, 16])
def test_quadrature_polynomial_exactness(order):
    # zero moments (odd symmetry) are judged against the size of the terms
    # being cancelled, i.e. the neighboring even moment
    lag, herm = gauss_laguerre(order), gauss_hermite(order)
    for k in range(2 * order):
        for (nodes, weights), oracle in ((lag, _laguerre_moment), (herm, _hermite_moment)):
            got = sum(w * x ** k for x, w in zip(nodes.tolist(), weights.tolist()))
            want = oracle(k)
            scale = abs(want) if want else max(abs(oracle(k + 1)), 1.0)
            assert abs(got - want) <= 1e-12 * max(1.0, scale)


def test_gamma_moment_matches_exact():
    for k in range(21):
        quad, exact = gamma_moment(k)
        assert exact == Fraction(math.factorial(k), 2 ** k)
        assert abs(quad - float(exact)) <= 1e-10 * float(exact)


def test_half_line_moment():
    quad, exact = half_line_moment(3)
    assert exact == Fraction(6, 16)
    assert abs(quad - float(exact)) < 1e-12


def test_gamma_moment_rejects_negative():
    with pytest.raises(ValueError):
        gamma_moment(-1)


def test_default_gamma_and_regnorms_compute_each_moment_once(cold_caches):
    # 13 gamma cases and 91 regnorms cases ask for k + n in 0..max_k only
    for suite in ("gamma", "regnorms"):
        report = cli.run_suite(suite, dict(cli.DEFAULTS))
        assert all(case.status == "pass" for case in report.cases)
    assert half_line_moment.cache_info().misses == cli.DEFAULTS["max_k"] + 1
    warm = [gamma_moment(k) for k in range(cli.DEFAULTS["max_k"] + 1)]
    cold_caches()
    assert warm == [gamma_moment(k) for k in range(cli.DEFAULTS["max_k"] + 1)]
    with pytest.raises(ValueError):
        gamma_moment(-1)


def test_gaussian_plane_integral_constant():
    assert abs(gaussian_plane_integral(lambda w: 1.0, 1.0) - math.pi) < 1e-10


def test_gaussian_plane_integral_radial_moment():
    for s in (0.5, 1.0, 2.0):
        got = gaussian_plane_integral(lambda w: abs(w) ** 2, s)
        assert abs(got - math.pi / s ** 2) < 1e-8 * (math.pi / s ** 2)


def test_gaussian_plane_integral_odd_vanishes():
    got = gaussian_plane_integral(lambda w: w ** 3, 1.0)
    assert abs(got) < 1e-12


def test_gaussian_plane_rejects_bad_scale():
    with pytest.raises(ValueError):
        gaussian_plane_integral(lambda w: 1.0, 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sphere_rule_normalized(n):
    total = integrate_sphere(lambda x: 1.0, n, 4)
    assert abs(total - 1.0) < 1e-13


def test_sphere_rule_kills_harmonics():
    # degree >= 1 spherical harmonics integrate to zero
    for f in (lambda x: x[0], lambda x: x[0] * x[1], lambda x: x[0] ** 2 - x[1] ** 2):
        assert abs(integrate_sphere(f, 3, 6)) < 1e-10


def test_sphere_rule_quadratic_moment():
    got = integrate_sphere(lambda x: x[2] ** 2, 4, 5)
    assert abs(got - 0.25) < 1e-12


_ROWS = (lambda x: x[0] ** 2 * x[1] - 0.5, lambda x: 1.0 + x[2] ** 4,
         lambda x: x[0] * x[1] * x[2] ** 3 + x[1] ** 2)


@pytest.mark.parametrize("n,order", [(3, 6), (4, 5), (6, 4)])
def test_stacked_rows_match_one_call_per_row(n, order):
    single = [integrate_sphere(g, n, order) for g in _ROWS]
    assert all(type(v) is float for v in single)
    assert integrate_sphere(lambda x: [g(x) for g in _ROWS], n, order) == single
    assert integrate_sphere(lambda x: [_ROWS[1](x)], n, order) == single[1:2]


def test_scalar_integrand_is_broadcast():
    got = integrate_sphere(lambda x: 2.5, 4, 4)
    assert type(got) is float
    assert abs(got - 2.5) < 1e-13


def test_matrix_exp_zero_is_exact_identity():
    out = matrix_exp(np.zeros((4, 4)))
    assert np.array_equal(out, np.eye(4))


def test_matrix_exp_diagonal():
    d = np.diag([0.2, -1.0, 3.0])
    out = matrix_exp(d)
    assert np.allclose(np.diag(out), np.exp(np.diag(d)), rtol=1e-14)


def test_matrix_exp_skew_adjoint_gives_unitary():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = a - a.conj().T
    u = matrix_exp(a)
    assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < 1e-12


def test_matrix_exp_rejects_bad_input():
    with pytest.raises(ValueError):
        matrix_exp(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        matrix_exp(np.array([[np.inf, 0], [0, 0]]))


def test_matrix_exp_matches_series():
    a = np.array([[0.0, 0.3], [-0.2, 0.1]])
    series = sum(np.linalg.matrix_power(a, j) / math.factorial(j) for j in range(25))
    assert np.linalg.norm(matrix_exp(a) - series) < 1e-14


def test_quadrature_error_on_divergent_integrand():
    # exp(|w|^2) cancels the Gaussian weight, so the quadrature value tracks
    # the covered area and never stabilizes; the exponent cap only prevents
    # float overflow at the outermost nodes
    with pytest.raises(QuadratureError):
        gaussian_plane_integral(lambda w: math.exp(min(700.0, abs(w) ** 2)), 1.0)


# (alpha, beta) pairs the sphere rules and zonal constants use, the corners
# alpha + beta = 0 and -1 where the recurrence takes its reduced k = 0, 1
# terms, and larger parameters
_JACOBI_GRID = [(0.0, 0.0), (0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5),
                (-0.5, 0.0), (0.0, 0.5), (-0.5, 1.0), (1.0, 1.0), (2.0, 0.5),
                (3.5, 3.5)]


def _chebyshev_rule(order, alpha, beta):
    """Closed-form Gauss-Chebyshev rules of the four kinds, (alpha, beta) in
    {-1/2, 1/2}^2, as ascending nodes and weights."""
    k = np.arange(1, order + 1)
    if (alpha, beta) == (-0.5, -0.5):
        theta = (2 * k - 1) * np.pi / (2 * order)
        weights = np.full(order, np.pi / order)
    elif (alpha, beta) == (0.5, 0.5):
        theta = k * np.pi / (order + 1)
        weights = np.pi / (order + 1) * np.sin(theta) ** 2
    elif (alpha, beta) == (0.5, -0.5):
        theta = 2 * k * np.pi / (2 * order + 1)
        weights = 4 * np.pi / (2 * order + 1) * np.sin(theta / 2) ** 2
    else:
        theta = (2 * k - 1) * np.pi / (2 * order + 1)
        weights = 4 * np.pi / (2 * order + 1) * np.cos(theta / 2) ** 2
    return np.cos(theta)[::-1], weights[::-1]


@pytest.mark.parametrize("alpha,beta", _JACOBI_GRID)
def test_gauss_jacobi_matches_scipy(alpha, beta):
    # scipy's own weights at (1/2, -1/2) are off by 1.1e-13 * sum(w) at order
    # 28 against the closed form, so the four Chebyshev pairs check weights
    # against their closed forms below instead
    chebyshev = abs(alpha) == abs(beta) == 0.5
    for order in range(1, 33):
        got_nodes, got_weights = gauss_jacobi(order, alpha, beta)
        nodes, weights = roots_jacobi(order, alpha, beta)
        assert np.abs(got_nodes - nodes).max() <= 1e-14
        if not chebyshev:
            assert np.abs(got_weights - weights).max() <= 1e-13 * weights.sum()


@pytest.mark.parametrize("alpha,beta", [(-0.5, -0.5), (0.5, 0.5), (0.5, -0.5), (-0.5, 0.5)])
def test_gauss_jacobi_matches_chebyshev_closed_forms(alpha, beta):
    for order in range(1, 33):
        got_nodes, got_weights = gauss_jacobi(order, alpha, beta)
        nodes, weights = _chebyshev_rule(order, alpha, beta)
        assert np.abs(got_nodes - nodes).max() <= 1e-14
        assert np.abs(got_weights - weights).max() <= 1e-14 * weights.sum()


@pytest.mark.parametrize("rule", [lambda: gauss_laguerre(5), lambda: gauss_hermite(5),
                                  lambda: gauss_jacobi(5, 0.5, 0.5),
                                  lambda: sphere_product_rule(4, 5)],
                         ids=["laguerre", "hermite", "jacobi", "sphere"])
def test_cached_rule_arrays_cannot_be_written(rule):
    nodes, weights = rule()
    assert nodes.dtype == weights.dtype == np.float64
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0
    assert rule()[0] is nodes and rule()[1] is weights


def _loop_sphere_product_rule(n_ambient, order):
    """The product rule built one Jacobi node at a time, each node's block
    concatenated in a Python loop: the route the broadcast construction
    replaced, kept as its oracle."""
    if n_ambient == 2:
        k = max(4 * order, 8)
        ang = 2 * math.pi * np.arange(k) / k
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return pts, np.full(k, 1.0 / k)
    a = (n_ambient - 3) / 2.0
    nodes, weights = gauss_jacobi(order, a, a)
    nodes, weights = nodes.tolist(), weights.tolist()
    sub_pts, sub_wts = _loop_sphere_product_rule(n_ambient - 1, order)
    pts = []
    wts = []
    total = sum(weights)
    for x, w in zip(nodes, weights):
        r = math.sqrt(max(0.0, 1 - x * x))
        block = np.concatenate([np.full((len(sub_pts), 1), x), r * sub_pts], axis=1)
        pts.append(block)
        wts.append((w / total) * sub_wts)
    return np.concatenate(pts, axis=0), np.concatenate(wts)


@pytest.mark.parametrize("order", [2, 5, 6, 9])
@pytest.mark.parametrize("n", range(2, 8))
def test_sphere_product_rule_is_bit_identical_to_the_loop_oracle(n, order):
    pts, wts = sphere_product_rule(n, order)
    want_pts, want_wts = _loop_sphere_product_rule(n, order)
    assert pts.shape == want_pts.shape and wts.shape == want_wts.shape
    assert pts.tobytes() == want_pts.tobytes()
    assert wts.tobytes() == want_wts.tobytes()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_sphere_rule_points_are_coordinate_major(n):
    pts, _ = sphere_product_rule(n, 4)
    assert pts.T.flags.c_contiguous
    assert all(pts.T[i].flags.c_contiguous for i in range(n))


def test_an_integrand_cannot_corrupt_the_shared_rule():
    before = integrate_sphere(lambda x: x[0] ** 2, 3, 4)

    def scribble(x):
        x[0] *= 2.0
        return x[0]

    with pytest.raises(ValueError):
        integrate_sphere(scribble, 3, 4)
    assert integrate_sphere(lambda x: x[0] ** 2, 3, 4) == before


def test_cold_caches_rebuild_the_sphere_rule(cold_caches):
    pts, wts = sphere_product_rule(4, 3)
    cold_caches()
    again = sphere_product_rule(4, 3)
    assert again[0] is not pts and again[1] is not wts
    assert again[0].tobytes() == pts.tobytes() and again[1].tobytes() == wts.tobytes()


@pytest.mark.parametrize("order", [0, -3, 1.5, 2.0, True, None])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_sphere_rule_rejects_an_order_that_is_not_a_positive_integer(n, order):
    # a valid rule of the same value is cached first: 2.0 and True must
    # not reach it as the keys 2 and 1
    sphere_product_rule(n, 2)
    sphere_product_rule(n, 1)
    with pytest.raises(ValueError, match="order"):
        sphere_product_rule(n, order)
    with pytest.raises(ValueError, match="order"):
        integrate_sphere(lambda x: 1.0, n, order)


def test_gauss_jacobi_rejects_bad_parameters():
    for args in ((0, 0.0, 0.0), (4, -1.0, 0.0), (4, 0.0, -1.5)):
        with pytest.raises(ValueError):
            gauss_jacobi(*args)


@pytest.mark.parametrize("kind,norms", [
    # on real non-normal matrices scipy's expm is itself the less accurate
    # side past a few squarings (2.7e-12 of a 40-digit reference at 1-norm
    # 60, where the Pade route stays at 3e-14), so real input is compared
    # to scipy only below theta_13; real squarings are checked against the
    # symmetric eigendecomposition below
    ("real", (1e-3, 0.7, 5.0)),
    ("complex", (1e-3, 0.7, 5.0, 20.0, 60.0)),
    ("skew-hermitian", (1e-3, 0.7, 5.0, 20.0, 60.0)),
], ids=["real", "complex", "skew-hermitian"])
def test_matrix_exp_matches_scipy(kind, norms):
    rng = np.random.default_rng(11)
    for size in (1, 2, 5, 12, 21):
        for norm in norms:
            a = rng.normal(size=(size, size))
            if kind != "real":
                a = a + 1j * rng.normal(size=(size, size))
            if kind == "skew-hermitian":
                a = a - a.conj().T
            a *= norm / np.linalg.norm(a, 1)
            want = scipy_expm(a)
            got = matrix_exp(a)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_matrix_exp_real_symmetric_matches_eigendecomposition():
    # spectral radius up to 60: several squarings on real input
    rng = np.random.default_rng(11)
    for size in (2, 5, 12, 21):
        for radius in (5.0, 20.0, 60.0):
            q, _ = np.linalg.qr(rng.normal(size=(size, size)))
            lam = rng.uniform(-1.0, 1.0, size)
            lam *= radius / np.abs(lam).max()
            want = (q * np.exp(lam)) @ q.T
            got = matrix_exp((q * lam) @ q.T)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_library_never_imports_scipy():
    # a fresh interpreter, so scipy imported by this test module does not count
    script = """
import contextlib, io, pkgutil, importlib, sys
import gelfand
for info in pkgutil.iter_modules(gelfand.__path__):
    importlib.import_module("gelfand." + info.name)
from gelfand import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "fock-representation"]) == 0
    assert cli.main(["verify", "zonal"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
