"""Default reports of every suite, in each output format, compared byte for
byte with the reports committed under tests/golden.

A change that moves a report commits the new file and names each changed
string; a changed status, expected or tolerance is a behaviour change.  Each
report runs in a fresh interpreter with one BLAS thread: the Fock suites
still take matrix products through BLAS, whose rounding may depend on the
thread count.  The sphere sums do not go through BLAS, so the suites that
use them are also run under two threads and must give the same files.
To regenerate one report:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python -m gelfand.cli verify <suite> [args] \\
        --format <json|text|csv> --out tests/golden/<name>.<json|txt|csv>
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gelfand import cli

GOLDEN = Path(__file__).parent / "golden"

REPORTS = {name: [name] for name in cli.SUITES}
REPORTS["pfaffian-seed-424242"] = ["pfaffian", "--seed", "424242"]
REPORTS["zonal-rank-5"] = ["zonal", "--rank", "5"]

SUFFIX = {"json": "json", "text": "txt", "csv": "csv"}


def _check_golden(name, fmt, threads="1"):
    env = {**os.environ, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads}
    proc = subprocess.run(
        [sys.executable, "-m", "gelfand.cli", "verify", *REPORTS[name], "--format", fmt],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.{SUFFIX[fmt]}").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_default_json_report_matches_golden(name):
    _check_golden(name, "json")


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("name", sorted(REPORTS))
def test_default_report_matches_golden(name, fmt):
    _check_golden(name, fmt)


@pytest.mark.parametrize("name,fmt", [("ladders", "text"), ("zonal", "text"),
                                      ("zonal-rank-5", "json")])
def test_sphere_reports_do_not_depend_on_the_blas_thread_count(name, fmt):
    _check_golden(name, fmt, threads="2")


@pytest.mark.parametrize("order", [("ladders", "zonal", "zonal-rank-5"),
                                   ("zonal-rank-5", "zonal", "ladders")])
def test_warm_sphere_memos_leave_the_reports_unchanged(order, cold_caches, capsys):
    # one process runs the sphere suites in turn, so each later suite reads
    # the zonal overlaps an earlier one left in the memo
    for name in order:
        assert cli.main(["verify", *REPORTS[name], "--format", "json"]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_csv_golden_parses_into_rows_of_seven_fields(name):
    with open(GOLDEN / f"{name}.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["case_id", "anchor", "status", "expected", "actual", "tolerance",
                       "runtime_ms"]
    assert len(rows) > 1 and {len(row) for row in rows} == {7}
