"""Command-line driver: named verification suites over the library, with
machine-readable reports.

Each suite runs a list of cases; a case records an identifier, the expected
and actual values, the tolerance it was judged at, and a status: pass, fail
(the identity did not hold) or error (the check crashed before it could
say).  Reports are deterministic for a fixed configuration and seed (timings
are only filled in when asked for, so that byte-identical reruns stay
byte-identical).

Exit codes: 0 all cases pass, 1 some case failed, 2 usage or configuration
error, 3 some case errored and none failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import re
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from . import dirlim, fock, nilpf, numerics, rootsys, symmpair, tables
from . import charring
from .exact import MultiPoly, Record, det, dot

REPORT_VERSION = "2"


class Case(Record):
    def __init__(self, case_id: str, status: str, expected: str, actual: str, tolerance: str,
                 runtime_ms: float | None = None):
        self._store(case_id, status, expected, actual, tolerance, runtime_ms)


class VerificationReport(Record):
    def __init__(self, suite: str, anchor: str, cases: list, config: dict):
        self._store(suite, anchor, cases, config)


class _Recorder:
    def __init__(self, timing: bool):
        self.cases = []
        self.timing = timing

    def run(self, case_id, expected, tolerance, thunk):
        start = time.perf_counter()
        try:
            ok, actual = thunk()
            status = "pass" if ok else "fail"
        except Exception as exc:  # a crash is not a verdict on the identity
            status, actual = "error", f"error: {exc}"
        self.cases.append(Case(case_id, status, str(expected), str(actual), str(tolerance),
                               1000 * (time.perf_counter() - start) if self.timing else None))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _closed_form(expected, exact, quad, tol):
    """Verdict on a closed form: the library's exact value must equal
    ``expected`` and its quadrature value must match it to ``tol``."""
    if exact != expected:
        return False, f"exact value {exact}"
    rel = abs(quad - float(exact)) / float(exact)
    return rel <= tol, f"{quad!r} (rel err {rel:.3e})"


def _suite_gamma(cfg, rec):
    tol = numerics.DEFAULT_TOLERANCES.exact_identity
    for k in range(cfg["max_k"] + 1):
        expected = Fraction(math.factorial(k), 2 ** k)
        def thunk(k=k, expected=expected):
            quad, exact = numerics.gamma_moment(k)
            return _closed_form(expected, exact, quad, tol)
        rec.run(f"gamma-moment-k{k}", str(expected), tol, thunk)


def _suite_regnorms(cfg, rec):
    tol = numerics.DEFAULT_TOLERANCES.exact_identity
    for total in range(cfg["max_k"] + 1):
        expected = Fraction(math.factorial(total), 2 ** total)
        for n in range(total + 1):
            def thunk(n=n, k=total - n, expected=expected):
                quad, exact = fock.regular_norm_sq(n, k)
                return _closed_form(expected, exact, quad, tol)
            rec.run(f"regular-norm-n{n}-k{total - n}", str(expected), tol, thunk)


def _suite_fock_orthogonality(cfg, rec, pairs=(((0,), (0,)), ((1,), (0,)),
                                                ((2,), (1,)), ((3,), (3,)))):
    ts = cfg["t_values"]
    if not ts:
        raise ConfigError("fock-orthogonality needs t values")
    for t in ts:
        fock.check_t(t)
    tols = numerics.DEFAULT_TOLERANCES
    off_tol, diag_tol = tols.orthogonality, tols.formal_degree
    for t in ts:
        for i, p in enumerate(pairs):
            for j, q in enumerate(pairs):
                if i < j:
                    def thunk(t=t, p=p, q=q):
                        val = abs(fock.coefficient_inner_product(t, p, q))
                        return val < off_tol, f"{val:.3e}"
                    rec.run(f"orthogonality-t{t}-{p}-{q}", "0", off_tol, thunk)
        for p in pairs:
            def positive(t=t, p=p):
                val = fock.coefficient_inner_product(t, p, p)
                return val.real > 0, f"{val.real:.6e}"
            rec.run(f"diagonal-positive-t{t}-{p}", "> 0", "exact sign", positive)

    def constancy():
        values = [fock.coefficient_inner_product(t, p, p).real * abs(t)
                  for t in ts for p in pairs]
        mean = sum(values) / len(values)
        spread = max(abs(v - mean) for v in values) / abs(mean)
        return spread <= diag_tol, f"{spread:.3e}"

    rec.run("formal-degree-constancy", f"relative spread <= {diag_tol}", diag_tol,
            constancy)


def _suite_fock_representation(cfg, rec):
    t, cutoff = 1.0, cfg["cutoff"]
    tols = numerics.DEFAULT_TOLERANCES
    tol, unit_tol = tols.truncated_operator, tols.unitarity
    g = fock.HeisenbergPoint(0.15, (0.3 + 0.4j,))
    h = fock.HeisenbergPoint(-0.4, (-0.3 - 0.4j,))

    def law():
        u = fock.fock_operator(1, t, g, cutoff).matrix
        v = fock.fock_operator(1, t, h, cutoff).matrix
        w = fock.fock_operator(1, t, fock.heis_mul(g, h), cutoff).matrix
        keep = [i for i, m in enumerate(fock.multi_indices(1, cutoff))
                if sum(m) <= cutoff // 2]
        res = float(np.linalg.norm((u @ v - w)[np.ix_(keep, keep)], 2))
        return res < tol, f"{res:.3e}"

    rec.run("representation-property", f"< {tol}", tol, law)

    def central():
        for z in (0.77, 0.81):
            op = fock.fock_operator(1, t, fock.HeisenbergPoint(z, (0j,)), cutoff)
            expected = complex(math.cos(t * z), math.sin(t * z)) * np.eye(cutoff + 1)
            if not np.array_equal(op.matrix, expected):
                return False, f"not the scalar e^(itz) at z = {z}"
        return True, "exact scalar matrix at z = 0.77, 0.81"

    rec.run("central-character-exact", "e^{itz} I exactly", "exact", central)

    def unitary():
        op = fock.fock_operator(1, t, g, cutoff)
        res = float(np.linalg.norm(op.matrix.conj().T @ op.matrix - np.eye(cutoff + 1)))
        return res < unit_tol, f"{res:.3e}"

    rec.run("unitarity", f"< {unit_tol}", unit_tol, unitary)


def _suite_pfaffian(cfg, rec):
    rng = random.Random(cfg["seed"])
    spec = cfg.get("algebra")
    if spec:
        _algebra_cases(tables.algebra(spec), spec, rng, rec)
        return

    t = MultiPoly.variable(1, 0)
    for n in range(1, 5):
        def thunk(n=n):
            poly = nilpf.pfaffian_polynomial(nilpf.build_heisenberg(n, "C")).poly
            return poly == t ** n, repr(poly)
        rec.run(f"heisenberg-pfaffian-n{n}", f"t^{n}", "exact", thunk)

    for n in (2, 4, 6, 8, 10):
        def thunk(n=n):
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    m[i][j], m[j][i] = x, -x
            return nilpf.pfaffian(m) ** 2 == det(m), "Pf^2 == det"
        rec.run(f"pfaffian-squares-to-det-{n}x{n}", "exact equality", "exact", thunk)

    def free3():
        alg = nilpf.build_free_two_step(3)
        return not nilpf.is_generically_square_integrable(alg), "Pf == 0"

    rec.run("free-two-step-3-not-square-integrable", "not square integrable",
            "exact", free3)

    def covariance():
        alg = nilpf.build_heisenberg(2, "C")
        pf = nilpf.pfaffian_polynomial(alg).poly
        dets = []
        for _ in range(5):
            s = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
            d = det(s)
            if d == 0:
                continue
            if nilpf.pfaffian_polynomial(nilpf.transform_v_basis(alg, s)).poly != pf.scale(d):
                return False, f"Pf does not scale by det = {d}"
            dets.append(str(d))
        if not dets:
            return False, "no invertible transform among 5 draws"
        return True, f"Pf scales by det = {', '.join(dets)}"

    rec.run("basis-change-covariance", "Pf -> det(a) Pf", "exact", covariance)

    def congruence():  # drawn after every other case, so none of their draws move
        for n in (4, 6, 8):
            for _ in range(3):
                b = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        b[i][j] = rng.randint(-3, 3)
                        b[j][i] = -b[i][j]
                s = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                bs = [[dot(row, col) for col in zip(*s)] for row in b]
                sbs = [[dot(si, col) for col in zip(*bs)] for si in zip(*s)]
                if nilpf.pfaffian(sbs) != det(s) * nilpf.pfaffian(b):
                    return False, f"Pf(S^T B S) != det(S) Pf(B) at n = {n}"
        return True, "holds on 3 seeded draws at each n = 4, 6, 8"

    rec.run("pfaffian-congruence", "Pf(S^T B S) = det(S) Pf(B)", "exact", congruence)


def _algebra_cases(alg, spec, rng, rec):
    """The symbolic Pfaffian of ``alg`` and its square-integrability verdict,
    each checked against the exact B(t) at seeded rational centre points."""
    t = nilpf.sample_centre_point(rng, alg.dim_z)

    def poly_case():
        pf = nilpf.pfaffian_polynomial(alg)(t)
        b = nilpf.b_form(alg, t)
        if pf != nilpf.pfaffian(b):
            return False, f"Pf(t) = {pf} differs from Pf(B(t)) at t = {t}"
        if pf * pf != det(b):
            return False, f"Pf(t)^2 != det B(t) at t = {t}"
        return True, f"Pf(t) = {pf} at the seeded centre point"

    rec.run(f"pfaffian-poly-{spec}", "Pf(t) = Pf(B(t)), Pf(t)^2 = det B(t)",
            "exact", poly_case)

    points = [nilpf.sample_centre_point(rng, alg.dim_z) for _ in range(3)]

    def classification_case():
        claimed = nilpf.is_generically_square_integrable(alg)
        nonzero = sum(det(nilpf.b_form(alg, p)) != 0 for p in points)
        actual = f"classified {claimed}; det B(t) != 0 at {nonzero}/{len(points)} points"
        return claimed == (nonzero > 0), actual

    rec.run(f"square-integrable-{spec}", "agrees with det B(t) at seeded points",
            "exact", classification_case)


def _suite_weyl(cfg, rec):
    bound = cfg["rank"]
    for family in ("A", "B", "C", "D"):
        for rank in range(1 if family != "D" else 2, bound + 1):
            rs = rootsys.build_root_system(family, rank)
            def thunk(rs=rs, family=family, rank=rank):
                for coeffs in product(range(3), repeat=rank):
                    w = rootsys.DominantWeight(family, rank, coeffs)
                    total = sum(charring.weight_system(rs, w).values())
                    if total != rootsys.weyl_dimension(rs, w):
                        return False, f"mismatch at {coeffs}"
                return True, "all coefficient vectors <= 2 agree"
            rec.run(f"weyl-vs-weight-count-{family}{rank}", "exact agreement",
                    "exact", thunk)


def _suite_carcano(cfg, rec):
    degree = cfg["degree"]
    if degree < 1:
        raise ConfigError(f"carcano needs degree >= 1, got {degree}")
    row_id = cfg.get("row")
    if row_id:
        rows = [(row_id, cfg["rank"], cfg.get("rank2"))]
    else:
        rows = [("kac:1", 2, None), ("kac:2", 1, None), ("kac:3", 1, None),
                ("kac:5", 2, None), ("kac:6", 2, None), ("kac:8", 2, None)]
    # rows resolve before any case runs: a bad row or rank is a config error
    jobs = [(rid, rank, tables.group_datum(rid, rank, rank2)) for rid, rank, rank2 in rows]
    for rid, rank, datum in jobs:
        def thunk(datum=datum):
            ok, violation = charring.is_multiplicity_free_polynomial_action(datum, degree)
            return ok, "multiplicity free" if ok else f"violation {violation}"
        rec.run(f"multiplicity-free-{rid}-rank{rank}", "multiplicity free",
                f"degrees <= {degree}", thunk)
    if not row_id:
        def negative():
            datum = charring.GroupDatum(
                (charring.Factor(charring.GL, 2),),
                charring.Construction("dsum", parts=(
                    charring.Construction("standard", (0,)),
                    charring.Construction("standard", (0,)))),
                quotient=((0,),))
            ok, violation = charring.is_multiplicity_free_polynomial_action(datum, 1)
            return (not ok) and violation["degree"] == 1, f"violation {violation}"
        rec.run("negative-control-doubled-standard", "repeat in degree 1",
                "exact", negative)

        def sp_single():
            datum = tables.group_datum("kac:3", 2)
            charring.sym_power_decompose(datum, degree)  # one h recursion fills every degree
            for q in range(degree + 1):
                dec = charring.sym_power_decompose(datum, q)
                if len(dec.entries) != 1 or dec.entries[0][1] != 1:
                    return False, f"degree {q} not a single irreducible"
                label = dec.entries[0][0][0]
                if label != tuple([q] + [0]):
                    return False, f"degree {q} highest weight {label}"
            return True, "single irreducible with linear highest weight"
        rec.run("sp-degree-powers-single-irrep", "one constituent per degree",
                "exact", sp_single)


def _suite_xstability(cfg, rec):
    degree = cfg["degree"]
    row_id = cfg.get("row")
    if row_id:
        steps = [(row_id, cfg["rank"], cfg.get("rank2"))]
    else:
        steps = [("jaw:2", 2, 3), ("jaw:3", 2, 3), ("jaw:5a", 6, 8)]
    jobs = []
    for rid, small, big in steps:
        if big is None:
            raise ConfigError("stability needs two ranks (--rank n,m)")
        if not small < big:
            raise ConfigError(f"stability needs increasing ranks, got {small},{big}")
        jobs.append((rid, small, big, tables.group_datum(rid, small),
                     tables.group_datum(rid, big)))
    for rid, small, big, a, b in jobs:
        for d in range(degree + 1):
            def thunk(a=a, b=b, d=d):
                for datum in (a, b):  # the top degree first: one h recursion each
                    charring.sym_power_decompose(datum, degree)
                ok, missing = charring.check_stability(a, b, d)
                return ok, "stable" if ok else f"missing {missing}"
            rec.run(f"stability-{rid}-{small}to{big}-d{d}", "contained", "exact", thunk)


def _suite_ladders(cfg, rec):
    degree, tol = cfg["degree"], numerics.DEFAULT_TOLERANCES.exact_identity

    def un_exact():
        for d in range(degree + 1):
            L = dirlim.un_polynomial_ladder(d)
            ok, res = dirlim.verify_cocycle(L)
            if not ok:
                return False, f"cocycle residual {res} at d={d}"
            for m in L.levels:
                for n in L.levels:
                    if m > n and L.csq(m, n) != dirlim.un_csq_by_enumeration(d, n, m):
                        return False, f"routes disagree at d={d}, ({m},{n})"
        return True, "all residuals exactly 0; both constant routes agree"

    rec.run("unitary-polynomial-ladder", "residual 0 exactly", "exact", un_exact)

    def sphere_quad():
        verdicts = [dirlim.verify_cocycle(dirlim.sphere_ladder(
            d, levels=(2, 3, 4, 5), method="quadrature")) for d in range(degree + 1)]
        worst = max(abs(float(res)) for _, res in verdicts)
        return all(ok for ok, _ in verdicts), f"worst cocycle residual {worst:.3e}"

    rec.run("sphere-ladder-cocycle", f"<= {tol}", tol, sphere_quad)

    # Each function starts one level above its ladder's base: promoted from
    # the base, the pairing is csq(m, base) / csq(m, base) whatever the
    # constants are, and from above it holds only where the cocycle does.
    def promotion():
        un = dirlim.LadderedFunction.make("un-poly", 2, {0: Fraction(2), 1: Fraction(1)})
        parts = [(f"exact promotion drift at degree {d}, level 3",
                  dirlim.un_polynomial_ladder(d, levels=(1, 2, 3)), un, 3) for d in (2, 3)]
        parts.append(("sphere promotion drift",
                      dirlim.sphere_ladder(2, levels=(2, 3, 4), method="quadrature"),
                      dirlim.LadderedFunction.make("sphere", 3, {0: 1.0, 1: 0.5}), 4))
        parts.append(("flat-model promotion drift",
                      dirlim.heisenberg_ladder(1.0, d=1, levels=(1, 2, 3), method="quadrature"),
                      dirlim.LadderedFunction.make("heisenberg", 2, {0: 1.0}), 3))
        for label, L, f, m in parts:
            up = dirlim.apply_nu(L, f, m)
            v0 = dirlim.limit_inner_product(L, f, f)
            drift = abs(dirlim.limit_inner_product(L, up, up) - v0)
            if drift > (0 if L.exact else tol * abs(v0)):
                return False, label if L.exact else f"{label} {drift:.3e}"
        return True, "promotion-invariant on all three backends"

    rec.run("limit-pairing-promotion", "invariant under promotion",
            f"exact / {tol}", promotion)


def _suite_zonal(cfg, rec):
    degree = cfg["degree"]
    top = cfg["rank"]
    tol = numerics.DEFAULT_TOLERANCES.exact_identity
    for n in range(2, top + 1):
        def self_case(n=n):
            # reproducing kernel at the pole, where the zonal is 1 (the
            # Frobenius-Schur normalization): <z_d, z_d> = 1 / dim H^d
            for d in range(degree + 1):
                z = symmpair._zonal_poly(n, d)
                dim = symmpair.harmonic_dimension(n + 1, d)
                norm = symmpair.sphere_inner_product(z, z)
                if norm != Fraction(1, dim):
                    return False, f"|z|^2 = {norm} != 1/{dim} at degree {d}"
            return True, f"|z|^2 == 1/dim H^d at degrees <= {degree}"
        rec.run(f"self-projection-S{n}", "exactly 1/dim H^d", "exact", self_case)
    for m in range(2, top + 1):
        for n in range(2, m):
            for d in range(1, degree + 1):
                def thunk(m=m, n=n, d=d):
                    quad = symmpair.zonal_projection_constant(m, n, d, "quadrature")
                    geg = symmpair.zonal_projection_constant(m, n, d, "gegenbauer")
                    csq = symmpair.zonal_projection_csq(m, n, d)
                    if not 0 < csq <= 1:
                        return False, f"constant {csq} outside (0,1]"
                    diff = abs(quad - geg)
                    exact_diff = abs(quad - math.sqrt(float(csq)))
                    return diff <= tol and exact_diff <= tol, \
                        f"|quad-geg| = {diff:.3e}, |quad-exact| = {exact_diff:.3e}"
                rec.run(f"zonal-constant-S{m}-S{n}-d{d}", "routes agree", tol, thunk)


# suite name -> (short identity string describing what the suite verifies,
# copied into every case so reports are self-documenting; suite function)
SUITES = {
    "gamma": ("weighted-central-moment-identity", _suite_gamma),
    "regnorms": ("regular-function-norms", _suite_regnorms),
    "fock-orthogonality": ("coefficient-orthogonality-and-formal-degree",
                           _suite_fock_orthogonality),
    "fock-representation": ("group-law-and-central-character", _suite_fock_representation),
    "pfaffian": ("pfaffian-classification", _suite_pfaffian),
    "weyl": ("weyl-dimension-vs-weight-count", _suite_weyl),
    "carcano": ("multiplicity-free-polynomial-actions", _suite_carcano),
    "xstability": ("highest-weight-set-stability", _suite_xstability),
    "ladders": ("ladder-squares-cocycles-and-limit-pairing", _suite_ladders),
    "zonal": ("zonal-projection-constants", _suite_zonal),
}


class ConfigError(ValueError):
    pass


def run_suite(name: str, config: dict, **suite_args) -> VerificationReport:
    """Run one suite over ``config``; ``suite_args`` are keyword arguments
    of the suite beyond its config (the acceptance gate passes criterion 3's
    index pairs this way).  A run with no cases is a configuration error."""
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    anchor, suite = SUITES[name]
    rec = _Recorder(bool(config.get("timing")))
    suite(config, rec, **suite_args)
    if not rec.cases:
        raise ConfigError(f"suite {name!r} has no cases for this configuration")
    return VerificationReport(name, anchor, rec.cases, config)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def emit_report(report: VerificationReport, fmt: str = "text") -> str:
    if fmt == "json":
        doc = {
            "version": REPORT_VERSION,
            "suite": report.suite,
            "anchor": report.anchor,
            "cases": [{**dict(zip(c._fields, c._values(c))), "anchor": report.anchor}
                      for c in report.cases],
            "config": report.config,
            "seed": report.config["seed"],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["case_id", "anchor", "status", "expected", "actual",
                         "tolerance", "runtime_ms"])
        for c in report.cases:
            writer.writerow([c.case_id, report.anchor, c.status, c.expected, c.actual,
                             c.tolerance,
                             "" if c.runtime_ms is None else f"{c.runtime_ms:.3f}"])
        return out.getvalue()
    if fmt == "text":
        lines = [f"suite {report.suite} [{report.anchor}] seed={report.config['seed']}"]
        for c in report.cases:
            lines.append(f"  {c.status.upper():4s} {c.case_id}: expected {c.expected},"
                         f" got {c.actual} (tol {c.tolerance})")
        npass = sum(1 for c in report.cases if c.status == "pass")
        lines.append(f"{npass}/{len(report.cases)} cases passed")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


DEFAULTS = {
    "max_k": 12,
    "rank": 3,
    "rank2": None,
    "degree": 4,
    "cutoff": 20,
    "seed": 20240801,
    "t_values": [0.5, 1.0, 2.0],
    "timing": False,
}


def load_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line {raw!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


_MINIMUM = {"degree": 0, "cutoff": 1}

_TIMING_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False,
                 "no": False}


def _parse(kind, key, text):
    """``kind(text)``, int, float or ``_exact_or_float``, or a ConfigError
    naming the setting."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {text!r}") from None


def _exact_or_float(text):
    """An integer or ``p/q`` as an exact Fraction; a number written with a
    point or an exponent (or inf, nan) as a float."""
    return Fraction(text) if re.fullmatch(r"\s*[+-]?\d+(/\d+)?\s*", text) else float(text)


def _coerce(key, text):
    """Config entries from one setting and its text, a config-file line or a
    flag, so that both channels parse and reject a value alike; 'rank' may be
    a pair 'n,m'."""
    text = str(text)
    if key == "rank":
        parts = text.split(",")
        if len(parts) > 2:
            raise ConfigError(f"rank is 'n' or 'n,m', got {text!r}")
        return {k: _parse(int, "rank", part) for k, part in zip(("rank", "rank2"), parts)}
    if key in ("max_k", "rank2", "cutoff", "seed", "degree"):
        value = _parse(int, key, text)
        if value < _MINIMUM.get(key, value):
            raise ConfigError(f"{key} must be >= {_MINIMUM[key]}, got {value}")
        return {key: value}
    if key == "t_values":
        items = text.split(",") if text.strip() else []
        if not all(x.strip() for x in items):
            raise ConfigError(f"empty item in the t list {text!r}")
        # a repeated t is one t: the list keeps its first-seen order
        return {key: list(dict.fromkeys(_parse(float, "t", x) for x in items))}
    if key == "timing":
        if text.lower() not in _TIMING_WORDS:
            raise ConfigError(f"timing is one of {', '.join(_TIMING_WORDS)}; got {text!r}")
        return {key: _TIMING_WORDS[text.lower()]}
    if key in ("row", "algebra"):
        if not text.strip():
            raise ConfigError(f"{key} must not be empty")
        return {key: text}
    raise ConfigError(f"unknown config key {key!r}")


# verify's setting flags: argparse dest -> config key
_FLAG_KEYS = {"max_k": "max_k", "rank": "rank", "degree": "degree", "cutoff": "cutoff",
              "seed": "seed", "t": "t_values", "algebra": "algebra", "row": "row",
              "timing": "timing"}


def build_config(args) -> dict:
    """DEFAULTS, then the ``--config`` file's lines, then every flag given
    (not None), each through :func:`_coerce`: flags win over the file."""
    entries = list(load_config_file(args.config).items()) if args.config else []
    entries += [(key, getattr(args, dest)) for dest, key in _FLAG_KEYS.items()
                if getattr(args, dest) is not None]
    cfg = dict(DEFAULTS)
    for key, text in entries:
        cfg.update(_coerce(key, text))
    return cfg


def _check_writable(path) -> None:
    """Open ``path`` for appending and close it, so an output file that
    cannot be written fails before any work runs.  Append mode leaves an
    existing file as it is until ``_write`` replaces it."""
    if path:
        with open(path, "a", encoding="utf-8"):
            pass


def _write(text: str, path) -> None:
    """Write ``text`` to the file ``path``, or to stdout when it is None."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gelfand",
        description="verification suites for the direct-system scalar identities",
    )
    sub = parser.add_subparsers(dest="command")

    verify = sub.add_parser("verify", help="run one verification suite")
    verify.add_argument("suite", nargs="?", help="suite name")
    verify.add_argument("--suite", dest="suite_flag", help="suite name (flag form)")
    # setting flags stay text: build_config parses them with the file's lines
    verify.add_argument("--max-k", dest="max_k")
    verify.add_argument("--rank", help="rank, or 'n,m' where a pair is needed")
    verify.add_argument("--degree")
    verify.add_argument("--cutoff")
    verify.add_argument("--seed")
    verify.add_argument("--t", help="comma list of central parameters")
    verify.add_argument("--algebra", help="algebra id (heis:3, vin:17:2, ...) or file")
    verify.add_argument("--row", help="table row id (kac:2, jaw:5a, ...)")
    verify.add_argument("--config", help="flat key=value config file")
    verify.add_argument("--out", help="write the report here instead of stdout")
    verify.add_argument("--format", default="text", choices=["json", "csv", "text"])
    verify.add_argument("--timing", action="store_true", default=None,
                        help="fill runtime_ms (breaks byte-identical reruns)")

    sub.add_parser("list-suites", help="list suites and what they verify")

    exp = sub.add_parser("export-ladder", help="write a degree ladder as JSON")
    exp.add_argument("--backend", required=True, choices=["un-poly", "sphere", "heisenberg"])
    exp.add_argument("--degree", default="2")
    exp.add_argument("--t", default="1.0",
                     help="central parameter: an integer or p/q is exact, 1.0 a float")
    exp.add_argument("--out", help="output path (stdout otherwise)")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a spaced value such as -0.5,1 for an option string
    for i in reversed(range(2, len(argv)) if argv[:1] == ["verify"] else ()):
        if argv[i - 1] == "--t" and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [f"--t={argv[i]}"]
    args = _parser().parse_args(argv)

    if args.command == "list-suites":
        for name, (anchor, _) in sorted(SUITES.items()):
            print(f"{name:22s} {anchor}")
        return 0

    if args.command not in ("verify", "export-ladder"):
        _parser().print_help()
        return 2

    # a file that cannot be read or written is a usage error, like a bad key
    try:
        if args.command == "export-ladder":
            degree = _coerce("degree", args.degree)["degree"]
            t = _parse(_exact_or_float, "t", args.t)
            _check_writable(args.out)
            if args.backend == "un-poly":
                ladder = dirlim.un_polynomial_ladder(degree)
            elif args.backend == "sphere":
                ladder = dirlim.sphere_ladder(degree)
            else:
                ladder = dirlim.heisenberg_ladder(t, d=degree)
            _write(dirlim.ladder_to_json(ladder) + "\n", args.out)
            return 0
        suite = args.suite or args.suite_flag
        if not suite:
            raise ConfigError("no suite named; try 'gelfand list-suites'")
        cfg = build_config(args)
        _check_writable(args.out)
        report = run_suite(suite, cfg)
        _write(emit_report(report, args.format), args.out)
    except (KeyError, OSError, ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    statuses = {c.status for c in report.cases}
    return 1 if "fail" in statuses else 3 if "error" in statuses else 0


if __name__ == "__main__":
    sys.exit(main())
