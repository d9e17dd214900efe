"""Row registry resolution and the command-line surface."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gelfand import charring, cli, dirlim, fock, nilpf, numerics, tables
from gelfand.charring import GL, SO, U1


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_has_expected_rows():
    ids = sorted(tables.registry())
    for rid in ("kac:1", "kac:11", "jaw:5a", "jaw:10", "vin:17"):
        assert rid in ids


def test_group_datum_resolution():
    datum = tables.group_datum("kac:5", 4)
    kinds = [f.kind for f in datum.factors]
    assert kinds == [U1, SO]
    assert datum.factors[1].size == 4
    assert len(charring._construction_weights(datum.factors, datum.construction)) == 4


def test_tensor_row_needs_two_ranks():
    datum = tables.group_datum("kac:10", 2, 3)
    assert [f.kind for f in datum.factors] == [GL, GL]
    assert len(charring._construction_weights(datum.factors, datum.construction)) == 6
    with pytest.raises(ValueError):
        tables.group_datum("kac:10", 2)


def test_det_one_row():
    datum = tables.group_datum("jaw:10", 2, 2)
    assert datum.quotient == ((0, 1),)


def test_special_factors_are_quotiented_one_by_one():
    assert tables.group_datum("kac:9", 2, 3).quotient == ((0,), (1,))
    assert tables.group_datum("kac:10", 2, 3).quotient == ((1,),)
    assert tables.group_datum("kac:1", 2).quotient == ((0,),)
    assert tables.group_datum("kac:4", 2).quotient == ()


def test_constraints_enforced():
    with pytest.raises(ValueError):
        tables.group_datum("kac:1", 1)  # needs r >= 2
    with pytest.raises(ValueError):
        tables.group_datum("jaw:5a", 5)  # even ranks only
    with pytest.raises(ValueError):
        tables.group_datum("kac:9", 2, 2)  # r != s
    with pytest.raises(KeyError):
        tables.group_datum("kac:99", 2)


@pytest.mark.parametrize("clause,r,s,message", [
    ("r>=2", 1, None, "rank constraint violated: r>=2 with r=1, s=None"),
    ("r != s", 2, 2, "rank constraint violated: r != s with r=2, s=2"),
    ("s==3", 1, 2, "rank constraint violated: s==3 with r=1, s=2"),
    ("r odd", 2, None, "rank constraint violated: r odd"),
    ("r even", 3, None, "rank constraint violated: r even"),
    ("r>=s", 2, None, "constraint 'r>=s' needs a second rank"),
    ("s odd", 2, None, "constraint 's odd' needs a second rank"),
])
def test_constraint_messages(clause, r, s, message):
    with pytest.raises(ValueError) as err:
        tables._check_constraints(clause, r, s)
    assert str(err.value) == message


def test_constraints_met():
    tables._check_constraints("r>=2; s>=2; r!=s; s==3; r even; s odd", 2, 3)
    tables._check_constraints("-", 1, None)


def test_algebra_resolution():
    assert tables.algebra("heis:3").dim_v == 6
    assert tables.algebra("heish:2").dim_z == 3
    assert tables.algebra("vin:17:2").dim_v == 8
    assert tables.algebra("free:3").dim_z == 3
    s = tables.algebra("heis:1+heis:2")
    assert (s.dim_v, s.dim_z) == (6, 2)
    with pytest.raises(KeyError):
        tables.algebra("bogus:2")


@pytest.mark.parametrize("row,short", [
    ("vin:1", "free"), ("vin:4", "heis"), ("vin:8", "un"), ("vin:17", "heish")])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_vin_row_resolves_to_its_short_spec(row, short, rank):
    if short == "free" and rank == 1:
        with pytest.raises(ValueError, match="rank constraint violated: r>=2"):
            tables.algebra(f"{row}:{rank}")
        return
    assert tables.algebra(f"{row}:{rank}") == tables.algebra(f"{short}:{rank}")
    assert tables.algebra(f"{short.upper()}:{rank}") == tables.algebra(f"{short}:{rank}")


@pytest.mark.parametrize("spec", ["heisC:2", "free2step:3", "untype:2"])
def test_one_name_per_algebra_family(spec):
    with pytest.raises(KeyError, match="unknown algebra family"):
        tables.algebra(spec)


@pytest.mark.parametrize("spec", ["bogus", "heis3"])
def test_unknown_algebra_spec_names_the_known_specs(spec, capsys):
    known = "(known: heis, heish, free, un, vin:<row>:<rank>, A+B, or a file path)"
    with pytest.raises(KeyError) as info:
        tables.algebra(spec)
    assert info.value.args[0].startswith(f"unknown algebra spec {spec!r} {known}")
    assert cli.main(["verify", "pfaffian", "--algebra", spec]) == 2
    assert f"unknown algebra spec {spec!r} {known}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["pfaffian", "--algebra", "bogus"], "unknown algebra spec 'bogus'"),
    (["carcano", "--row", "kac:99"], "unknown table row 'kac:99'"),
])
def test_unknown_key_error_prints_unquoted(argv, message, capsys):
    assert cli.main(["verify", *argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_algebra_from_file(tmp_path):
    path = tmp_path / "alg.txt"
    path.write_text(nilpf.dump_algebra(nilpf.build_heisenberg(1, "H")))
    alg = tables.algebra(str(path))
    assert (alg.dim_v, alg.dim_z) == (4, 3)


# ---------------------------------------------------------------------------
# cli behaviour (in-process)
# ---------------------------------------------------------------------------


def test_run_suite_unknown_name():
    with pytest.raises(cli.ConfigError):
        cli.run_suite("nope", dict(cli.DEFAULTS))


def test_exit_codes(tmp_path):
    assert cli.main(["verify", "gamma", "--max-k", "3"]) == 0
    assert cli.main(["verify", "nope"]) == 2
    assert cli.main(["verify"]) == 2
    assert cli.main(["list-suites"]) == 0
    # no cases, or a row that cannot be resolved, is a configuration error
    for argv in (["weyl", "--rank", "0"], ["zonal", "--rank", "1"],
                 ["gamma", "--max-k", "-1"],
                 ["carcano", "--row", "kac:2", "--rank", "0"],
                 ["xstability", "--row", "jaw:2", "--rank", "3,2"],
                 ["carcano", "--row", "kac:99"],
                 ["carcano", "--degree", "0"],
                 ["carcano", "--row", "kac:2", "--rank", "2", "--degree", "0"],
                 ["fock-orthogonality", "--t", "0"]):
        assert cli.main(["verify", *argv]) == 2, argv
    cfg = tmp_path / "empty-t.cfg"
    cfg.write_text("t_values=\n")
    assert cli.main(["verify", "fock-orthogonality", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("spec", ["free:3", "heis:2", "un:3"])
def test_pfaffian_algebra_cases_pass(spec, capsys):
    assert cli.main(["verify", "pfaffian", "--algebra", spec]) == 0
    out = capsys.readouterr().out
    assert f"PASS pfaffian-poly-{spec}" in out
    assert f"PASS square-integrable-{spec}" in out


_true_pfaffian_polynomial = nilpf.pfaffian_polynomial


def _scaled_pfaffian(alg):
    pf = _true_pfaffian_polynomial(alg)
    return nilpf.PfaffianPolynomial(pf.poly.scale(2))


def _zero_pfaffian(alg):
    pf = _true_pfaffian_polynomial(alg)
    return nilpf.PfaffianPolynomial(pf.poly.scale(0))


def _crashing_pfaffian(alg):
    raise ArithmeticError("deliberate crash")


@pytest.mark.parametrize("wrong", [_scaled_pfaffian, _zero_pfaffian, _crashing_pfaffian])
def test_pfaffian_algebra_cases_catch_a_wrong_pfaffian(wrong, monkeypatch, capsys):
    # a wrong value fails the case; a crash is an error, not a failure
    status, code = ("ERROR", 3) if wrong is _crashing_pfaffian else ("FAIL", 1)
    monkeypatch.setattr(nilpf, "pfaffian_polynomial", wrong)
    assert cli.main(["verify", "pfaffian", "--algebra", "heis:2"]) == code
    assert f"{status} pfaffian-poly-heis:2" in capsys.readouterr().out


_true_coefficient_inner_product = fock.coefficient_inner_product


def _diagonal_quadrature_failure(t, p, q):
    if p == q:
        raise numerics.QuadratureError("deliberate non-convergence")
    return _true_coefficient_inner_product(t, p, q)


def test_fock_orthogonality_diagonal_crash_is_a_failed_case(monkeypatch, capsys):
    monkeypatch.setattr(fock, "coefficient_inner_product", _diagonal_quadrature_failure)
    assert cli.main(["verify", "fock-orthogonality", "--t", "1"]) == 3
    out = capsys.readouterr().out
    assert "PASS orthogonality-t1.0-((0,), (0,))-((1,), (0,))" in out
    assert "ERROR diagonal-positive-t1.0-((0,), (0,))" in out
    assert "ERROR formal-degree-constancy" in out
    assert "FAIL" not in out


def _thunk_suite(*thunks):
    def suite(cfg, rec):
        for i, thunk in enumerate(thunks):
            rec.run(f"case-{i}", "ok", "exact", thunk)
    return suite


def _crash():
    raise ArithmeticError("deliberate crash")


def _right():
    return True, "ok"


def _wrong():
    return False, "wrong value"


@pytest.mark.parametrize("thunks,statuses,code", [
    pytest.param((_right,), ["pass"], 0, id="pass"),
    pytest.param((_wrong,), ["fail"], 1, id="fail"),
    pytest.param((_crash,), ["error"], 3, id="error"),
    pytest.param((_crash, _wrong), ["error", "fail"], 1, id="error-and-fail"),
])
def test_crash_is_an_error_and_a_wrong_value_a_failure(thunks, statuses, code,
                                                        monkeypatch, capsys):
    monkeypatch.setitem(cli.SUITES, "gamma", _thunk_suite(*thunks))
    assert cli.main(["verify", "gamma", "--format", "json"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2"
    assert [c["status"] for c in doc["cases"]] == statuses
    if "error" in statuses:
        assert doc["cases"][0]["actual"] == "error: deliberate crash"


def test_flag_form_of_suite(capsys):
    code = cli.main(["verify", "--suite", "gamma", "--max-k", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "suite gamma" in out


def test_json_report_schema(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "gamma", "--max-k", "2", "--format", "json",
                     "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"version", "suite", "anchor", "cases", "config", "seed"}
    assert doc["suite"] == "gamma"
    case = doc["cases"][0]
    assert set(case) == {"case_id", "anchor", "status", "expected", "actual",
                         "tolerance", "runtime_ms"}
    assert case["runtime_ms"] is None  # timing off by default


def test_reports_byte_identical_for_fixed_config(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = cli.main(["verify", "pfaffian", "--seed", "7", "--format", "json",
                         "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_and_text_formats(capsys):
    assert cli.main(["verify", "gamma", "--max-k", "1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "case_id,anchor,status,expected,actual,tolerance,runtime_ms"
    assert cli.main(["verify", "gamma", "--max-k", "1", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "cases passed" in out


def test_empty_report_documents():
    report = cli.VerificationReport("gamma", cli.SUITE_ANCHORS["gamma"], [], {"seed": 0})
    doc = json.loads(cli.emit_report(report, "json"))
    assert doc["cases"] == []
    assert doc["seed"] == 0
    text = cli.emit_report(report, "text")
    assert "0/0" in text
    assert "seed=0" in text


def test_failing_case_carries_expected_actual_tolerance():
    rec = cli._Recorder(timing=False)
    rec.run("boom", "the moon", 0.1, lambda: (False, "a rock"))
    report = cli.VerificationReport("gamma", "x", rec.cases, {"seed": 0})
    doc = json.loads(cli.emit_report(report, "json"))
    case = doc["cases"][0]
    assert case["status"] == "fail"
    assert case["expected"] == "the moon"
    assert case["actual"] == "a rock"
    assert case["tolerance"] == "0.1"


class _ColumnRecorder:
    """Records each case's expected and tolerance columns without running
    its check."""

    def __init__(self):
        self.columns = {}

    def run(self, case_id, expected, tolerance, thunk):
        self.columns[case_id] = (str(expected), str(tolerance))


def _suite_columns(name):
    rec = _ColumnRecorder()
    cli.SUITES[name](dict(cli.DEFAULTS), rec)
    return rec.columns


def test_named_tolerance_columns_are_pinned():
    orth = _suite_columns("fock-orthogonality")
    pairings = [v for k, v in orth.items() if k.startswith("orthogonality-")]
    assert pairings and set(pairings) == {("0", "1e-08")}
    assert orth["formal-degree-constancy"] == ("relative spread <= 1e-06", "1e-06")
    rep = _suite_columns("fock-representation")
    assert rep["representation-property"] == ("< 1e-06", "1e-06")
    assert rep["unitarity"] == ("< 1e-08", "1e-08")
    ladders = _suite_columns("ladders")
    assert ladders["sphere-ladder-cocycle"] == ("<= 1e-09", "1e-09")
    assert ladders["limit-pairing-promotion"] == ("invariant under promotion",
                                                  "exact / 1e-09")


def test_suites_read_the_named_tolerances(monkeypatch):
    monkeypatch.setattr(cli, "TOL", numerics.Tolerances(
        unitarity=2e-8, orthogonality=3e-8, formal_degree=4e-6,
        sphere_cocycle=5e-9, promotion=6e-9))
    orth = _suite_columns("fock-orthogonality")
    assert orth["formal-degree-constancy"] == ("relative spread <= 4e-06", "4e-06")
    assert {v for k, v in orth.items() if k.startswith("orthogonality-")} == {("0", "3e-08")}
    assert _suite_columns("fock-representation")["unitarity"] == ("< 2e-08", "2e-08")
    ladders = _suite_columns("ladders")
    assert ladders["sphere-ladder-cocycle"] == ("<= 5e-09", "5e-09")
    assert ladders["limit-pairing-promotion"][1] == "exact / 6e-09"


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("max_k = 2\nseed = 5\n")
    class Args:
        config = str(cfgfile)
        max_k = 4
        rank = None
        degree = None
        cutoff = None
        seed = None
        t = None
        algebra = None
        row = None
        timing = False
    cfg = cli.build_config(Args)
    assert cfg["max_k"] == 4  # flag wins
    assert cfg["seed"] == 5
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 3\n")
    Args.config = str(bad)
    with pytest.raises(cli.ConfigError):
        cli.build_config(Args)


def test_config_file_through_main(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("max_k = 2  # keep it small\ntiming = false\n")
    code = cli.main(["verify", "gamma", "--config", str(cfgfile)])
    assert code == 0
    out = capsys.readouterr().out
    assert "gamma-moment-k2" in out and "gamma-moment-k3" not in out
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a config\n")
    assert cli.main(["verify", "gamma", "--config", str(bad)]) == 2


@pytest.mark.parametrize("suite", ["zonal", "ladders", "carcano"])
def test_negative_degree_is_a_config_error(suite, tmp_path, capsys):
    assert cli.main(["verify", suite, "--degree", "-1"]) == 2
    cfg = tmp_path / "negative.cfg"
    cfg.write_text("degree = -1\n")
    assert cli.main(["verify", suite, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: degree must be >= 0, got -1") == 2


def test_carcano_degree_zero_is_a_config_error_before_any_case(monkeypatch, capsys):
    from gelfand import charring

    def no_case(*args):
        raise AssertionError("no case runs on a bad degree bound")

    monkeypatch.setattr(charring, "is_multiplicity_free_polynomial_action", no_case)
    assert cli.main(["verify", "carcano", "--degree", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: carcano needs degree >= 1, got 0\n"


_FILE_ERRORS = {
    "missing-config": lambda tmp: ["verify", "gamma", "--config", str(tmp / "none.cfg")],
    "missing-algebra-file": lambda tmp: ["verify", "pfaffian", "--algebra", str(tmp / "none.alg")],
    "unknown-algebra-spec": lambda tmp: ["verify", "pfaffian", "--algebra", "bogus"],
    "verify-unwritable-out": lambda tmp: ["verify", "gamma", "--max-k", "1",
                                          "--out", str(tmp / "no-dir" / "report.txt")],
    "export-unwritable-out": lambda tmp: ["export-ladder", "--backend", "un-poly",
                                          "--out", str(tmp / "no-dir" / "ladder.json")],
}


@pytest.mark.parametrize("path", sorted(_FILE_ERRORS))
def test_file_errors_are_usage_errors(path, tmp_path, capsys):
    assert cli.main(_FILE_ERRORS[path](tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "No such file or directory" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,module,name", [
    (["verify", "gamma", "--max-k", "1"], cli, "run_suite"),
    (["export-ladder", "--backend", "un-poly"], dirlim, "un_polynomial_ladder"),
], ids=["verify", "export-ladder"])
def test_unwritable_out_fails_before_any_work(argv, module, name, monkeypatch,
                                              tmp_path, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("nothing runs before --out is checked")

    monkeypatch.setattr(module, name, no_work)
    out = tmp_path / "no-dir" / "report"
    assert cli.main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(out) in captured.err


@pytest.mark.parametrize("argv", [["verify", "gamma", "--max-k", "2", "--format", "json"],
                                  ["export-ladder", "--backend", "un-poly"]],
                         ids=["verify", "export-ladder"])
def test_writable_out_gets_the_printed_report(argv, tmp_path, capsys):
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report"
    out.write_text("an older and longer report\n" * 200)
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == printed.encode()


def test_rank_pair_parses_the_same_from_file_and_flag(tmp_path, capsys):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text("rank = 6,8\nrow = jaw:5a\ndegree = 1\n")
    assert cli.main(["verify", "xstability", "--config", str(cfg)]) == 0
    from_file = capsys.readouterr().out
    assert "stability-jaw:5a-6to8-d1" in from_file
    assert cli.main(["verify", "xstability", "--row", "jaw:5a", "--rank", "6,8",
                     "--degree", "1"]) == 0
    assert capsys.readouterr().out == from_file
    cfg.write_text("rank = 6,8,10\n")
    assert cli.main(["verify", "xstability", "--config", str(cfg)]) == 2
    assert cli.main(["verify", "xstability", "--rank", "6,8,10"]) == 2
    assert capsys.readouterr().err.count("error: rank is 'n' or 'n,m'") == 2


# key, flag, suite, shared flags, a good value, malformed values and their
# error lines; --timing takes no value, so a malformed timing is file-only
_SETTINGS = [
    ("max_k", "--max-k", "gamma", [], "2", [("abc", "max_k must be an integer, got 'abc'")]),
    ("rank", "--rank", "xstability", ["--row", "jaw:2", "--degree", "1"], "2,3",
     [("2,x", "rank must be an integer, got 'x'")]),
    ("degree", "--degree", "ladders", [], "0", [("x", "degree must be an integer, got 'x'")]),
    ("cutoff", "--cutoff", "fock-representation", [], "8",
     [("1e3", "cutoff must be an integer, got '1e3'")]),
    ("seed", "--seed", "pfaffian", [], "0", [("", "seed must be an integer, got ''")]),
    ("t_values", "--t", "fock-orthogonality", [], "-0.5,1",
     [("", "fock-orthogonality needs t values"), ("1,,2", "empty item in the t list '1,,2'")]),
    ("row", "--row", "carcano", ["--rank", "2", "--degree", "2"], "kac:2",
     [("", "row must not be empty")]),
    ("algebra", "--algebra", "pfaffian", [], "heis:2", [("", "algebra must not be empty")]),
    ("timing", "--timing", "gamma", ["--max-k", "1"], "yes",
     [("maybe", "timing is one of 1, true, yes, 0, false, no; got 'maybe'")]),
]


@pytest.mark.parametrize("key,flag,suite,shared,good,bad", _SETTINGS,
                         ids=[setting[0] for setting in _SETTINGS])
def test_flag_and_config_line_parse_alike(key, flag, suite, shared, good, bad,
                                          monkeypatch, tmp_path, capsys):
    def run(argv):
        code = cli.main(["verify", suite, *shared, *argv, "--format", "json"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def config(value):
        path = tmp_path / "setting.cfg"
        path.write_text(f"{key} = {value}\n")
        return ["--config", str(path)]

    boolean = flag == "--timing"
    by_flag = run([flag] if boolean else [f"{flag}={good}"])
    by_file = run(config(good))
    assert by_flag[0] == 0, by_flag[2]
    if boolean:  # timings differ from run to run; the rest of the report may not
        docs = [json.loads(out) for _, out, _ in (by_flag, by_file)]
        for doc in docs:
            assert doc["config"]["timing"] is True
            for case in doc["cases"]:
                assert case.pop("runtime_ms") is not None
        assert docs[0] == docs[1]
    else:
        assert by_flag == by_file

    def no_case(*args):
        raise AssertionError("no case runs on a malformed setting")

    monkeypatch.setattr(cli._Recorder, "run", no_case)
    for value, message in bad:
        for argv in [config(value)] + ([] if boolean else [[f"{flag}={value}"]]):
            assert run(argv) == (2, "", f"error: {message}\n"), argv


@pytest.mark.parametrize("backend", ["sphere", "un-poly", "heisenberg"])
def test_export_ladder_negative_degree_is_a_config_error(backend, capsys):
    assert cli.main(["export-ladder", "--backend", backend, "--degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degree must be >= 0, got -1\n"


@pytest.mark.parametrize("cutoff", [-1, 0])
def test_nonpositive_cutoff_is_a_config_error(cutoff, capsys):
    assert cli.main(["verify", "fock-representation", "--cutoff", str(cutoff)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cutoff must be >= 1, got {cutoff}\n"


def test_export_ladder_zero_t_is_a_config_error(capsys):
    assert cli.main(["export-ladder", "--backend", "heisenberg", "--t", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t must be nonzero\n"


@pytest.mark.parametrize("t", ["inf", "nan"])
def test_export_ladder_non_finite_t_is_a_config_error(t, tmp_path, capsys):
    out = tmp_path / "ladder.json"
    assert cli.main(["export-ladder", "--backend", "heisenberg", "--t", t,
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: t must be finite, got {t}\n"
    assert out.read_text() == ""


@pytest.mark.parametrize("t", ["inf", "nan", "-inf", "1,nan"])
def test_fock_orthogonality_non_finite_t_is_a_config_error(t, monkeypatch, capsys):
    def no_case(*args):
        raise AssertionError("no case runs on a non-finite t")

    monkeypatch.setattr(fock, "coefficient_inner_product", no_case)
    assert cli.main(["verify", "fock-orthogonality", f"--t={t}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: t must be finite, got {t.split(',')[-1]}\n"


def test_spaced_t_takes_a_list_that_starts_negative(capsys):
    # argparse alone reads -0.5,1 after a space as an option string
    reports = []
    for argv in (["--t=-0.5,1"], ["--t", "-0.5,1"]):
        assert cli.main(["verify", "fock-orthogonality", *argv, "--format", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert len(json.loads(reports[0])["cases"]) == 21
    assert cli.main(["verify", "fock-orthogonality", "--t", "-0.5"]) == 0
    assert capsys.readouterr().out.endswith("11/11 cases passed\n")
    # the other flags parse as before: there -1,2 is still an option string
    with pytest.raises(SystemExit):
        cli.main(["verify", "weyl", "--rank", "-1,2"])


@pytest.mark.parametrize("degree", [float("nan"), float("inf"), 0.0, -1.0])
def test_degree_ladder_rejects_a_degree_that_is_not_finite_and_positive(degree):
    with pytest.raises(ValueError, match="no finite positive degree"):
        dirlim.make_ladder("heisenberg", (1, 2), {1: 1.0, 2: degree}, {(2, 1): 1.0})


@pytest.mark.parametrize("text,message", [
    ("2 1\n0 1 0 1/0\n", "zero denominator in '0 1 0 1/0'"),
    ("2 1\n0 1 0 1\n0 1 0 2\n", "bracket component (0, 1, 0) given twice"),
    ("-2 1\n", "dimensions must be >= 0, got dim_v=-2, dim_z=1"),
    ("2 -1\n", "dimensions must be >= 0, got dim_v=2, dim_z=-1"),
], ids=["zero-denominator", "repeated-line", "negative-dim-v", "negative-dim-z"])
def test_bad_algebra_file_is_a_config_error(text, message, tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text(text)
    assert cli.main(["verify", "pfaffian", "--algebra", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_ladders_degree_zero_checks_a_sphere_ladder(monkeypatch, capsys):
    from gelfand import dirlim
    degrees = []
    real = dirlim.sphere_ladder

    def recording(d, *args, **kwargs):
        degrees.append(d)
        return real(d, *args, **kwargs)

    monkeypatch.setattr(dirlim, "sphere_ladder", recording)
    assert cli.main(["verify", "ladders", "--degree", "0"]) == 0
    assert "PASS sphere-ladder-cocycle" in capsys.readouterr().out
    assert 0 in degrees


def test_limit_pairing_promotion_fails_on_a_broken_cocycle(monkeypatch):
    # promoted from the base level the pairing is csq(m, base) / csq(m, base)
    # whatever the constants are; from level 2 it needs csq(3,1) = csq(3,2) csq(2,1)
    real = dirlim.un_polynomial_ladder

    def halved(d, levels=(1, 2, 3, 4)):
        ladder = real(d, levels)
        if 3 not in ladder.levels:
            return ladder
        pairs = dict(ladder.csq_pairs)
        pairs[(3, 1)] /= 2
        return dirlim.make_ladder(ladder.backend, ladder.levels, ladder.degrees, pairs)

    monkeypatch.setattr(dirlim, "un_polynomial_ladder", halved)
    cases = {c.case_id: c for c in cli.run_suite("ladders", dict(cli.DEFAULTS)).cases}
    promotion = cases["limit-pairing-promotion"]
    assert promotion.status == "fail"
    assert promotion.actual == "exact promotion drift at degree 2, level 3"


def test_export_ladder_roundtrips(tmp_path):
    out = tmp_path / "ladder.json"
    assert cli.main(["export-ladder", "--backend", "sphere", "--degree", "2",
                     "--out", str(out)]) == 0
    from gelfand import dirlim
    ladder = dirlim.ladder_from_json(out.read_text())
    assert ladder.backend == "sphere"
    ok, res = dirlim.verify_cocycle(ladder)
    assert abs(float(res)) < 1e-12


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gelfand.cli", "verify", "gamma", "--max-k", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "cases passed" in proc.stdout


def test_readme_command_line_names_every_flag_and_config_key(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert "--max-k" in flags and "--timing" in flags
    for flag in flags:
        assert re.search(rf"`{flag}\b", section), flag
    for key in [*cli.DEFAULTS, "row", "algebra"]:
        assert f"`{key}`" in section, key
