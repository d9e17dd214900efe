"""Row registry resolution and the command-line surface."""

import json
import subprocess
import sys

import pytest

from gelfand import cli, nilpf, tables
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
                 ["carcano", "--row", "kac:99"]):
        assert cli.main(["verify", *argv]) == 2, argv


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
    monkeypatch.setattr(nilpf, "pfaffian_polynomial", wrong)
    assert cli.main(["verify", "pfaffian", "--algebra", "heis:2"]) == 1
    assert "FAIL pfaffian-poly-heis:2" in capsys.readouterr().out


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
