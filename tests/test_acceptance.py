"""Acceptance gate: every exit criterion runs its ``gelfand verify`` suite,
so each identity is defined once, in the suite.  A criterion passes when
every case of its report passes within the criterion's time limit; one
``ACCEPTANCE <n> <name>: PASS/FAIL`` line is printed per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.
"""

import time

from gelfand import cli

# criterion 3 adds the index pairs (4,2) and (8,8) to the suite's four; they
# stay within the protected degree range of the Fock model
CRITERION_3_PAIRS = (((0,), (0,)), ((1,), (0,)), ((2,), (1,)), ((3,), (3,)),
                     ((4,), (2,)), ((8,), (8,)))

# number -> (name, suite, config overrides, suite keyword arguments, time limit in s)
CRITERIA = {
    1: ("weighted-moment identity", "gamma", {}, {}, 1.0),
    2: ("regular-function norms", "regnorms", {}, {}, 1.0),
    3: ("orthogonality and formal degree", "fock-orthogonality", {},
        {"pairs": CRITERION_3_PAIRS}, 60.0),
    4: ("representation property", "fock-representation", {}, {}, None),
    5: ("pfaffian classification", "pfaffian", {"seed": 424242}, {}, None),
    6: ("Weyl dimension vs weight count", "weyl", {}, {}, 30.0),
    7: ("multiplicity-free rows", "carcano", {}, {}, None),
    8: ("highest-weight-set stability", "xstability", {}, {}, None),
    9: ("ladder algebra", "ladders", {}, {}, None),
    10: ("zonal projection constants", "zonal", {"rank": 5}, {}, None),
}


def _criterion(number):
    name, suite, overrides, suite_args, limit = CRITERIA[number]
    start = time.perf_counter()
    report = cli.run_suite(suite, {**cli.DEFAULTS, **overrides}, **suite_args)
    elapsed = time.perf_counter() - start
    failed = [c.case_id for c in report.cases if c.status != "pass"]
    ok = not failed and (limit is None or elapsed < limit)
    detail = f"{len(report.cases) - len(failed)}/{len(report.cases)} '{suite}' cases " \
             f"passed, {elapsed:.2f}s"
    if limit is not None:
        detail += f" (limit {limit:g}s)"
    if failed:
        detail += "; failed: " + ", ".join(failed)
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}  [{detail}]"
    print(line, flush=True)
    assert ok, line


# one test per criterion, named as before so test histories line up


def test_criterion_1_gamma_identity():
    _criterion(1)


def test_criterion_2_regular_function_norms():
    _criterion(2)


def test_criterion_3_orthogonality_and_formal_degree():
    _criterion(3)


def test_criterion_4_representation_property():
    _criterion(4)


def test_criterion_5_pfaffians():
    _criterion(5)


def test_criterion_6_weyl_vs_weight_count():
    _criterion(6)


def test_criterion_7_multiplicity_free_rows():
    _criterion(7)


def test_criterion_8_highest_weight_stability():
    _criterion(8)


def test_criterion_9_ladder_algebra():
    _criterion(9)


def test_criterion_10_zonal_constants():
    _criterion(10)
