"""Row registry resolution and the command-line surface."""

import json
import subprocess
import sys

import pytest

from gelfand import cli, dirlim, fock, nilpf, numerics, tables
from gelfand.charring import GL, SO, U1


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_has_expected_rows():
    ids = tables.row_ids()
    for rid in ("kac:1", "kac:11", "jaw:5a", "jaw:10", "vin:17"):
        assert rid in ids


def test_group_datum_resolution():
    datum = tables.group_datum("kac:5", 4)
    kinds = [f.kind for f in datum.factors]
    assert kinds == [U1, SO]
    assert datum.factors[1].size == 4
    assert datum.module_dim == 4


def test_tensor_row_needs_two_ranks():
    datum = tables.group_datum("kac:10", 2, 3)
    assert [f.kind for f in datum.factors] == [GL, GL]
    assert datum.module_dim == 6
    with pytest.raises(ValueError):
        tables.group_datum("kac:10", 2)


def test_det_one_row():
    datum = tables.group_datum("jaw:10", 2, 2)
    assert datum.torus_mode == "det_one"


def test_constraints_enforced():
    with pytest.raises(ValueError):
        tables.group_datum("kac:1", 1)  # needs r >= 2
    with pytest.raises(ValueError):
        tables.group_datum("jaw:5a", 5)  # even ranks only
    with pytest.raises(ValueError):
        tables.group_datum("kac:9", 2, 2)  # r != s
    with pytest.raises(KeyError):
        tables.group_datum("kac:99", 2)


def test_algebra_resolution():
    assert tables.algebra("heis:3").dim_v == 6
    assert tables.algebra("heish:2").dim_z == 3
    assert tables.algebra("vin:17:2").dim_v == 8
    assert tables.algebra("free:3").dim_z == 3
    s = tables.algebra("heis:1+heis:2")
    assert (s.dim_v, s.dim_z) == (6, 2)
    with pytest.raises(KeyError):
        tables.algebra("bogus:2")


@pytest.mark.parametrize("spec", ["bogus", "heis3"])
def test_unknown_algebra_spec_names_the_known_specs(spec, capsys):
    known = "(known: heis, heish, free, un, vin:<row>:<rank>, A+B, or a file path)"
    with pytest.raises(KeyError) as info:
        tables.algebra(spec)
    assert info.value.args[0].startswith(f"unknown algebra spec {spec!r} {known}")
    assert cli.main(["verify", "pfaffian", "--algebra", spec]) == 2
    assert f"unknown algebra spec {spec!r} {known}" in capsys.readouterr().err


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
    return nilpf.PfaffianPolynomial(pf.dim_z, pf.poly.scale(2))


def _zero_pfaffian(alg):
    pf = _true_pfaffian_polynomial(alg)
    return nilpf.PfaffianPolynomial(pf.dim_z, pf.poly.scale(0))


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
    report = cli.VerificationReport("gamma", cli.SUITE_ANCHORS["gamma"], [], {}, 0)
    doc = json.loads(cli.emit_report(report, "json"))
    assert doc["cases"] == []
    text = cli.emit_report(report, "text")
    assert "0/0" in text


def test_failing_case_carries_expected_actual_tolerance():
    rec = cli._Recorder(timing=False)
    rec.run("boom", "the moon", 0.1, lambda: (False, "a rock"))
    report = cli.VerificationReport("gamma", "x", rec.cases, {}, 0)
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
