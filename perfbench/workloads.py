"""The benchmark workloads.  Each one draws its inputs from the benchmark's
seed, calls the library (suites through ``cli.main``, everything else
through module functions) and judges every verdict against the one the
mathematics predicts.  Why each workload exists, and which layer it
stresses, is recorded in NOTES.md next to this file.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import re
from fractions import Fraction

import numpy as np

from gelfand import charring, cli, dirlim, exact, fock, nilpf, numerics, rootsys, tables

# residuals in suite reports are printed with three decimals in e-notation
_RESIDUAL = re.compile(r"(?<![\d.])\d\.\d{3}e[-+]\d{2,3}")


class Checks:
    """Tally of checks.  A check passes only when its verdict equals the
    expected one; a crash counts as a failure, never as a verdict."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.worst_tol_ratio = 0.0  # max residual / tolerance over toleranced checks

    def _record(self, case_id, ok, detail):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{case_id}: {detail}")

    def _residual(self, residual, tol):
        self.worst_tol_ratio = max(self.worst_tol_ratio, residual / tol)

    def expect(self, case_id, expected, thunk):
        try:
            got = thunk()
        except Exception as exc:
            self._record(case_id, False, f"crashed: {exc!r}")
            return
        self._record(case_id, got == expected, f"expected {expected!r}, got {got!r}")

    def within(self, case_id, tol, thunk):
        """``thunk`` returns a nonnegative residual that must be <= tol."""
        try:
            residual = float(thunk())
        except Exception as exc:
            self._record(case_id, False, f"crashed: {exc!r}")
            return
        self._residual(residual, tol)
        self._record(case_id, residual <= tol, f"residual {residual:.3e} > {tol}")

    def suite(self, argv):
        """Run ``gelfand verify <argv>``: every case must pass, the exit code
        must be 0 and a report without cases is a failure."""
        label = "verify " + " ".join(argv)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(["verify", *argv, "--format", "json"])
            cases = json.loads(out.getvalue())["cases"]
        except Exception as exc:
            self._record(label, False, f"crashed: {exc!r}")
            return
        self._record(label, rc == 0 and bool(cases), f"exit {rc} with {len(cases)} cases")
        for case in cases:
            self._record(f"{label}: {case['case_id']}", case["status"] == "pass",
                         case["actual"])
            try:
                tol = float(case["tolerance"])
            except ValueError:
                continue  # exact checks carry no numeric tolerance
            residuals = [float(x) for x in _RESIDUAL.findall(case["actual"])]
            if residuals:
                self._residual(max(residuals), tol)


def _weights(rank, total):
    """Coefficient vectors with nonnegative entries summing to <= total."""
    if rank == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in _weights(rank - 1, total - head):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# weyl-weights
# ---------------------------------------------------------------------------


def weyl_weights(rng, checks):
    """Big, uncached Freudenthal systems at rank 5, Brauer-Klimyk at rank 4
    and the ``weyl`` suite at its defaults."""
    jobs = [(fam, w) for fam in "ABCD" for w in _weights(5, 2)]
    rng.shuffle(jobs)
    for fam, coeffs in jobs:
        def count(fam=fam, coeffs=coeffs):
            rs = rootsys.build_root_system(fam, 5)
            w = rootsys.DominantWeight(fam, 5, coeffs)
            return sum(charring.weight_system(rs, w).values()) == rootsys.weyl_dimension(rs, w)
        checks.expect(f"weight-count-{fam}5-{coeffs}", True, count)

    # the seed picks lam, which only shifts the weights of mu: the cost of a
    # product is set by mu, and every mu with coefficient sum <= 1 is run
    for fam in "ABCD":
        lam = rng.choice([w for w in _weights(4, 3) if sum(w) == 3])
        for mu in _weights(4, 1):
            def conserved(fam=fam, lam=lam, mu=mu):
                rs = rootsys.build_root_system(fam, 4)
                a = rootsys.DominantWeight(fam, 4, lam)
                b = rootsys.DominantWeight(fam, 4, mu)
                parts = charring.tensor_decompose(rs, a, b)
                positive = all(m > 0 for m in parts.values())
                total = sum(m * rootsys.weyl_dimension(rs, nu) for nu, m in parts.items())
                return positive and total == rootsys.weyl_dimension(rs, a) * rootsys.weyl_dimension(rs, b)
            checks.expect(f"brauer-klimyk-{fam}4-{lam}x{mu}", True, conserved)

    checks.suite(["weyl"])


# ---------------------------------------------------------------------------
# row-ladders
# ---------------------------------------------------------------------------

DEGREE = 5

# Every kac/jaw row of the registry on a rank ladder, up to module dimension
# 8.  Instances are (r, s); s is None for rows with one rank.  The rank
# ranges follow the registry constraints; U(2),Sp(s) rows ignore r.
_ONE_RANK = {
    "kac:1": range(2, 9), "jaw:1": range(2, 9),            # SU(r) on C^r
    "kac:2": range(1, 9), "jaw:2": range(1, 9),            # U(r) on C^r
    "kac:3": range(1, 5), "jaw:3": range(1, 5),            # Sp(r) on C^2r
    "kac:4": range(1, 5), "jaw:4": range(1, 5),            # U1 x Sp(r)
    "kac:5": range(2, 9),                                   # U1 x SO(r)
    "jaw:5a": range(2, 9, 2), "jaw:5b": range(3, 8, 2),
    "kac:6": range(2, 4), "jaw:6": range(2, 4),            # S^2 C^r
    "kac:7": (3,), "jaw:7": (3,),                          # Lambda^2 C^r, r odd
    "kac:8": range(2, 5), "jaw:8": range(2, 5),            # Lambda^2 C^r
}
_TWO_RANK = {
    "kac:9": lambda r, s: r >= 2 and s >= 2 and r != s,
    "jaw:9": lambda r, s: r >= 2 and s >= 2 and r != s,
    "kac:10": lambda r, s: s >= 2,
    "jaw:10": lambda r, s: True,
}


def row_ladder():
    out = [(rid, r, None) for rid, ranks in _ONE_RANK.items() for r in ranks]
    for rid, admissible in _TWO_RANK.items():
        out += [(rid, r, s) for r in range(1, 9) for s in range(1, 9)
                if r * s <= 8 and admissible(r, s)]
    out += [(rid, 2, s) for rid in ("kac:11", "jaw:11") for s in (1, 2)]
    return out


def expected_freeness(rid, r, s):
    """(multiplicity free, degree of the first repeat).

    jaw:10 at r = s is not multiplicity free: det is an invariant of degree
    r of S(U(r) x U(r)), so the trivial label repeats in degree r.  Every
    other instance is on the classified lists and is multiplicity free.
    """
    if rid == "jaw:10" and r == s and r <= DEGREE:
        return False, r
    return True, None


# The rank steps at which the library claims stability (the jaw sweep of
# its test suite), each followed by same-size steps above it while the
# bigger module has dimension <= 8.  Steps out of SO(2) (kac:5 2->3,
# jaw:5a 2->4) are not claimed and are left out.
STABILITY_STEPS = (
    [("jaw:1", (r, None), (r + 1, None)) for r in range(2, 8)]
    + [("jaw:2", (r, None), (r + 1, None)) for r in range(1, 8)]
    + [("jaw:3", (r, None), (r + 1, None)) for r in range(1, 4)]
    + [("jaw:4", (r, None), (r + 1, None)) for r in range(1, 4)]
    + [("jaw:5a", (r, None), (r + 2, None)) for r in (4, 6)]
    + [("jaw:5b", (r, None), (r + 2, None)) for r in (3, 5)]
    + [("jaw:6", (2, None), (3, None))]
    + [("jaw:7", (3, None), (5, None))]
    + [("jaw:8", (r, None), (r + 1, None)) for r in (2, 3)]
    + [("jaw:9", (2, 3), (2, 4))]
    + [("jaw:10", (1, s), (1, s + 1)) for s in range(2, 8)]
    + [("jaw:11", (2, 1), (2, 2))]
)


def row_ladders(rng, checks):
    """Many small, cache-shared weight systems feeding symmetric-power
    enumeration and peeling, plus ``carcano`` and ``xstability`` at their
    defaults."""
    ladder = row_ladder()
    rng.shuffle(ladder)
    for rid, r, s in ladder:
        def freeness(rid=rid, r=r, s=s):
            ok, violation = charring.is_multiplicity_free_polynomial_action(
                tables.group_datum(rid, r, s), DEGREE)
            return ok, violation["degree"] if violation else None
        checks.expect(f"multiplicity-free-{rid}-{r}-{s}", expected_freeness(rid, r, s), freeness)

    steps = list(STABILITY_STEPS)
    rng.shuffle(steps)
    for rid, small, big in steps:
        def stable(rid=rid, small=small, big=big):
            a = tables.group_datum(rid, *small)
            b = tables.group_datum(rid, *big)
            return all(charring.check_stability(a, b, d)[0] for d in range(DEGREE + 1))
        checks.expect(f"stability-{rid}-{small}-{big}", True, stable)

    suites = [["carcano"], ["xstability"]]
    rng.shuffle(suites)
    for argv in suites:
        checks.suite(argv)


# ---------------------------------------------------------------------------
# sphere-ladders
# ---------------------------------------------------------------------------


def sphere_ladders(rng, checks):
    """Sphere product quadrature, exact harmonic-basis RREF and the ladder
    algebra: ``ladders`` and ``zonal`` at their defaults, ``zonal`` at rank
    4, and exact promotion of seeded functions on the exact sphere ladder."""
    suites = [["ladders"], ["zonal"], ["zonal", "--rank", "4"]]
    rng.shuffle(suites)
    for argv in suites:
        checks.suite(argv)

    for d in (1, 2, 3):
        coeffs = {k: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for k in range(3)}

        def promotion(d=d, coeffs=coeffs):
            ladder = dirlim.sphere_ladder(d)
            ok, residual = dirlim.verify_cocycle(ladder)
            f = dirlim.LadderedFunction.make("sphere", 2, coeffs, kind="invariant")
            base = dirlim.limit_inner_product(ladder, f, f)
            moved = [dirlim.apply_nu(ladder, f, m) for m in (3, 4, 5)]
            return ok and residual == 0 and all(
                dirlim.limit_inner_product(ladder, g, g) == base for g in moved)
        checks.expect(f"exact-sphere-promotion-d{d}", True, promotion)


# ---------------------------------------------------------------------------
# flat-models
# ---------------------------------------------------------------------------

# acceptance criterion 3's index pairs
_PAIRS = [((0,), (0,)), ((1,), (0,)), ((2,), (1,)), ((3,), (3,)),
          ((4,), (2,)), ((8,), (8,))]


def _random_point(rng, n, radius):
    w = tuple(cmath.rect(radius * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
              for _ in range(n))
    return fock.HeisenbergPoint(rng.uniform(-1, 1), w)


def _skew(rng, n):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            m[i][j], m[j][i] = x, -x
    return m


def _rel_error(got, expected):
    return abs(got - expected) / abs(expected)


def flat_models(rng, checks):
    """Fock coefficient pairings, truncated operators and exact Pfaffians,
    at sizes where they do measurable work."""
    for argv in (["gamma", "--max-k", "40"], ["regnorms", "--max-k", "24"],
                 ["fock-orthogonality"], ["fock-representation", "--cutoff", "40"],
                 ["pfaffian"], ["pfaffian", "--algebra", "un:4"]):
        checks.suite(argv)

    for t in (0.5, 1.0, 2.0):
        for i, p in enumerate(_PAIRS):
            for q in _PAIRS[i + 1:]:
                checks.within(f"orthogonality-t{t}-{p}-{q}", 1e-8,
                              lambda t=t, p=p, q=q: abs(fock.coefficient_inner_product(t, p, q)))

    def degree_spread():
        # t * <c_p, c_p> is the same formal degree for every pair and t
        scaled = [fock.coefficient_inner_product(t, p, p).real * t
                  for t in (0.5, 1.0, 2.0) for p in _PAIRS]
        mean = sum(scaled) / len(scaled)
        return max(abs(v - mean) for v in scaled) / mean if mean > 0 else math.inf
    checks.within("formal-degree-constancy", 1e-6, degree_spread)

    # truncation stays well inside the guard at these radii (cutoff - buffer)
    for n, cutoff, radius, draws in ((2, 24, 0.3, 3), (3, 14, 0.2, 2)):
        for k in range(draws):
            g, h = _random_point(rng, n, radius), _random_point(rng, n, radius)

            def law(n=n, cutoff=cutoff, g=g, h=h):
                keep = [i for i, m in enumerate(fock.multi_indices(n, cutoff))
                        if sum(m) <= cutoff // 2]
                u = fock.fock_operator(n, 1.0, g, cutoff).matrix
                v = fock.fock_operator(n, 1.0, h, cutoff).matrix
                w = fock.fock_operator(n, 1.0, fock.heis_mul(g, h), cutoff).matrix
                return np.linalg.norm((u @ v - w)[np.ix_(keep, keep)], 2)
            checks.within(f"group-law-n{n}-{k}", 1e-6, law)
        z = rng.uniform(-3, 3)

        def central(n=n, cutoff=cutoff, z=z):
            op = fock.fock_operator(n, 1.0, fock.HeisenbergPoint(z, (0j,) * n), cutoff)
            phase = complex(math.cos(z), math.sin(z))
            return bool(np.array_equal(op.matrix, phase * np.eye(op.matrix.shape[0])))
        checks.expect(f"central-character-n{n}", True, central)

    # plane Gaussian integrals against their closed forms, at seeded scales
    for s in (rng.uniform(0.5, 2.0) for _ in range(4)):
        for k in range(13):
            checks.within(f"plane-moment-s{s:.3f}-k{k}", 1e-10, lambda s=s, k=k: _rel_error(
                numerics.gaussian_plane_integral(lambda w: abs(w) ** (2 * k), s),
                math.pi * math.factorial(k) / s ** (k + 1)))
        for a in (rng.uniform(0.5, 3.0) for _ in range(3)):
            checks.within(f"plane-characteristic-s{s:.3f}-a{a:.3f}", 1e-10, lambda s=s, a=a: _rel_error(
                numerics.gaussian_plane_integral(lambda w: math.cos(a * w.real), s),
                math.pi / s * math.exp(-a * a / (4 * s))))

    t = exact.MultiPoly.variable(1, 0)
    for n in range(1, 5):
        checks.expect(f"heisenberg-pfaffian-{n}", t ** n,
                      lambda n=n: nilpf.pfaffian_polynomial(tables.algebra(f"heis:{n}")).poly)
    for n in range(2, 6):
        # a point of the centre u(n), which has dimension n^2
        point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n * n))

        def un_type(n=n, point=point):
            alg = tables.algebra(f"un:{n}")
            pf = nilpf.pfaffian_polynomial(alg)
            return pf.poly.degree(), pf(point) ** 2 == exact.det(nilpf.b_form(alg, point))
        # Pf(B(t)) is a nonzero form of degree n, and squares to det B(t)
        checks.expect(f"un-type-pfaffian-{n}", (n, True), un_type)
    for n in range(2, 19, 2):
        m = _skew(rng, n)
        checks.expect(f"pfaffian-squares-to-det-{n}", True,
                      lambda m=m: nilpf.pfaffian(m) ** 2 == exact.det(m))


WORKLOADS = {
    "weyl-weights": weyl_weights,
    "row-ladders": row_ladders,
    "sphere-ladders": sphere_ladders,
    "flat-models": flat_models,
}
