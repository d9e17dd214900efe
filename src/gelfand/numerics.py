"""Shared numerical substrate: Gaussian quadrature, sphere product rules,
Gaussian-plane integrals, matrix exponentials, and the tolerance knobs that
every verification suite cites.

Laguerre and Hermite nodes and weights come from numpy's
orthogonal-polynomial routines; Gauss-Jacobi rules are built here by
Golub-Welsch and the matrix exponential by Pade-13 scaling and squaring, so
the library needs numpy alone. The exactness contract (degree <= 2*order - 1
polynomials against closed-form moments) is asserted by the test suite rather
than re-derived here.

Each Gauss rule is computed once and shared as ``(nodes, weights)``, two
read-only float64 arrays.  So is each sphere product rule ``(points,
weights)``, with its points stored coordinate-major: each coordinate over all
points is one contiguous row.  Sphere sums are numpy pairwise reductions, not
BLAS dot products, so they do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss

from .exact import Record, check_int


class Tolerances(Record):
    """Central tolerance configuration.

    quadrature_agreement: two successive quadrature orders must agree to this
        relative tolerance before a value is accepted.
    exact_identity: tolerance for identities that are exact in the underlying
        mathematics but evaluated through floating-point quadrature.
    truncated_operator: tolerance for operator identities limited by Fock
        cutoff truncation rather than by quadrature.
    unitarity: bound on the Frobenius residual U^*U - I of a truncated
        operator.
    orthogonality: bound on a pairing of distinct Fock matrix coefficients.
    formal_degree: bound on the relative spread of |t| <c, c> over the
        diagonal pairings.
    """

    def __init__(self, quadrature_agreement: float = 1e-8, exact_identity: float = 1e-10,
                 truncated_operator: float = 1e-6, unitarity: float = 1e-8,
                 orthogonality: float = 1e-8, formal_degree: float = 1e-6):
        self._store(quadrature_agreement, exact_identity, truncated_operator, unitarity,
                    orthogonality, formal_degree)


DEFAULT_TOLERANCES = Tolerances()


class QuadratureError(RuntimeError):
    """Raised when the node-doubling protocol fails to converge; carries the
    last residual estimate."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _read_only(a):
    """``a`` frozen in place, dtype and memory layout kept: a cached array is
    shared by every later call, so no caller may write into it."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def gauss_laguerre(order: int):
    """(nodes, weights) for integral_0^inf f(x) e^{-x} dx."""
    return tuple(map(_read_only, laggauss(order)))


@lru_cache(maxsize=None)
def gauss_hermite(order: int):
    """(nodes, weights) for integral_R f(x) e^{-x^2} dx."""
    return tuple(map(_read_only, hermgauss(order)))


@lru_cache(maxsize=None, typed=True)
def gauss_jacobi(order: int, alpha: float, beta: float):
    """(nodes, weights) for integral_{-1}^1 f(x) (1-x)^a (1+x)^b dx; typed, so
    an order 2.0 or True misses and is refused."""
    return tuple(map(_read_only, _golub_welsch_jacobi(order, alpha, beta)))


def _golub_welsch_jacobi(order, alpha, beta):
    """Gauss-Jacobi nodes and weights as the eigenvalues and first
    eigenvector components of the Jacobi matrix (Golub & Welsch, Math. Comp.
    23, 1969), from the monic Jacobi three-term recurrence."""
    check_int(order, 1, "quadrature order must be an int >= 1")
    if alpha <= -1 or beta <= -1:
        raise ValueError(f"Jacobi parameters must exceed -1, got ({alpha}, {beta})")
    ab = alpha + beta
    # the k = 0 diagonal and k = 1 off-diagonal terms are written in reduced
    # form: the general ones divide 0 by 0 at alpha + beta = 0 and -1
    k = np.arange(1, order)
    s = 2 * k + ab
    diag = np.empty(order)
    diag[0] = (beta - alpha) / (ab + 2)
    diag[1:] = (beta * beta - alpha * alpha) / (s * (s + 2))
    k, s = k[1:], s[1:]
    off_sq = np.empty(order - 1)
    off_sq[:1] = 4 * (1 + alpha) * (1 + beta) / ((ab + 2) ** 2 * (ab + 3))
    off_sq[1:] = 4 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s + 1) * (s - 1))
    off = np.sqrt(off_sq)
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = (2.0 ** (ab + 1) * math.gamma(alpha + 1) * math.gamma(beta + 1)
           / math.gamma(ab + 2))
    return nodes, mu0 * vecs[0] ** 2


def _doubling(values_at_order, max_order=512, floor=1e-300):
    """Run ``values_at_order`` at orders 8, 16, ... up to ``max_order`` until
    two successive values agree to ``quadrature_agreement`` relative to the
    larger of them and ``floor``.

    ``values_at_order`` returns ``(value, mass)``; the integrand's absolute
    mass joins the scale, so an integral that cancels to zero still
    converges.
    """
    tol = DEFAULT_TOLERANCES.quadrature_agreement
    prev = None
    order = 8
    while order <= max_order:
        cur, mass = values_at_order(order)
        if prev is not None:
            scale = max(abs(prev), abs(cur), mass, floor)
            if abs(cur - prev) <= tol * scale:
                return cur
        prev = cur
        order *= 2
    raise QuadratureError(
        f"quadrature did not converge below rel. {tol} by order {max_order}",
        residual=abs(cur - prev) / scale,
    )


@lru_cache(maxsize=None, typed=True)
def half_line_moment(k: int):
    """integral_0^inf t^k e^{-2t} dt by Gauss-Laguerre, with exact companion
    k!/2^{k+1}."""
    check_int(k, 0, "k must be a nonnegative integer")

    def at_order(order):
        nodes, weights = gauss_laguerre(order)
        # weight e^{-t} is built in; leftover integrand t^k e^{-t}
        return sum(w * (x ** k) * math.exp(-x)
                   for x, w in zip(nodes.tolist(), weights.tolist())), 0.0

    exact = Fraction(math.factorial(k), 2 ** (k + 1))
    return _doubling(at_order), exact


def gamma_moment(k: int):
    """Full-line weighted moment integral_R e^{-2|t|} |t|^k dt with exact
    companion k!/2^k."""
    quad, half = half_line_moment(k)
    return 2.0 * quad, 2 * half


def gaussian_plane_integral(f, scale: float):
    """integral_C f(w) e^{-scale*|w|^2} dw (Lebesgue on C ~ R^2).

    ``f`` must be polynomially bounded; the rule is a Gauss-Hermite product
    with nodes rescaled by 1/sqrt(scale), run through the doubling protocol
    with agreement judged against the integrand's own absolute mass.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    s = math.sqrt(scale)

    def at_order(order):
        # substituting w = (u + iv)/sqrt(scale) folds the Gaussian weight
        # exactly into the Hermite rule
        nodes, weights = gauss_hermite(order)
        xs, ws = nodes.tolist(), weights.tolist()
        total = 0.0
        mass = 0.0
        for xi, wi in zip(xs, ws):
            for yj, wj in zip(xs, ws):
                val = f(complex(xi / s, yj / s))
                total += wi * wj * val
                mass += wi * wj * abs(val)
        return total / scale, mass / scale

    return _doubling(at_order, max_order=256)


@lru_cache(maxsize=None, typed=True)
def sphere_product_rule(n_ambient: int, order: int):
    """Product quadrature on S^{N-1} with the *normalized* measure.

    Returns (points, weights), read-only float64 arrays computed once per
    (N, order) and shared; points has shape (k, N) and is the transpose of a
    C-contiguous (N, k) array, so ``points.T[i]``, coordinate i at every
    point, is contiguous.  Spherical coordinates with Gauss-Jacobi rules in
    each polar angle and a trapezoid-free uniform rule in the final
    azimuthal angle (exact for trigonometric polynomials of degree < #nodes),
    each polar level one broadcast: node j carries the sub-rule, coordinates
    scaled by sqrt(1 - x_j^2) and weights by w_j / sum(w).  A typed cache:
    N must be an int >= 2 and ``order`` one >= 1, and 2.0 or True misses.
    """
    check_int(n_ambient, 2, "need an int ambient dimension >= 2")
    check_int(order, 1, "quadrature order must be an int >= 1")
    if n_ambient == 2:
        k = max(4 * order, 8)
        ang = 2 * math.pi * np.arange(k) / k
        return _read_only(np.stack([np.cos(ang), np.sin(ang)]).T), _read_only(np.full(k, 1.0 / k))
    # x1 = cos(theta) with density (1-x1^2)^{(N-3)/2} on [-1, 1]
    a = (n_ambient - 3) / 2.0
    nodes, weights = gauss_jacobi(order, a, a)
    sub_pts, sub_wts = sphere_product_rule(n_ambient - 1, order)
    coords = np.empty((n_ambient, len(nodes), len(sub_wts)))
    coords[0] = nodes[:, None]
    coords[1:] = np.sqrt(np.maximum(0.0, 1 - nodes * nodes))[None, :, None] * sub_pts.T[:, None, :]
    # left to right, not np.sum's pairwise order: the golden residuals rest on these bits
    total = sum(weights.tolist())
    return (_read_only(coords.reshape(n_ambient, -1).T),
            _read_only(np.outer(weights / total, sub_wts).ravel()))


def integrate_sphere(f, n_ambient: int, order: int):
    """Integrate f over S^{N-1} against the normalized measure.

    ``f`` is called once with the coordinates as a read-only (N, k) array,
    so ``x[i]`` is coordinate i at all k rule points, one contiguous row,
    and returns the k values (a scalar is broadcast) as one float.  It may
    instead return a stack of value rows, a list of r arrays of k values, to
    integrate r functions on one rule; the result is then a list of r
    floats, each row summed with the weights exactly as a single-row call
    would.  Each sum is a pairwise ``np.add.reduce``, not a BLAS dot
    product: the same bits at any thread count.
    """
    pts, wts = sphere_product_rule(n_ambient, order)
    vals = f(pts.T)
    if isinstance(vals, list):
        return [float(np.add.reduce(wts * row)) for row in vals]
    return float(np.add.reduce(wts * np.broadcast_to(vals, wts.shape)))


# Pade-13 coefficients and the 1-norm bound under which the [13/13]
# approximant meets double precision (Higham, SIAM J. Matrix Anal. Appl. 26,
# 2005, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential; exp(0) = I exactly, otherwise Pade-13 scaling and
    squaring (Higham 2005): scale A by 2^-s so its 1-norm is at most
    theta_13, take the [13/13] Pade approximant, square s times.

    No library code calls it: ``fock`` takes its chain exponentials from an
    eigenbasis, and this stays as their oracle; no benchmark workload runs it."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix_exp needs a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix_exp needs finite entries")
    if not a.any():
        return np.eye(a.shape[0], dtype=a.dtype if a.dtype.kind == "c" else float)
    a = a.astype(np.result_type(a.dtype, float))
    norm = float(np.linalg.norm(a, 1))
    s = max(0, math.ceil(math.log2(norm / _THETA13)))
    a = a * 2.0 ** -s
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r
