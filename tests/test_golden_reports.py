"""Default JSON reports of every suite, compared byte for byte with the
reports committed under tests/golden.

A change that moves a report commits the new file and names each changed
string; a changed status, expected or tolerance is a behaviour change.  The
sphere quadrature sums differ in their last digits with the number of BLAS
threads, so each report runs in a fresh interpreter with one BLAS thread.
To regenerate one report:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python -m gelfand.cli verify <suite> [args] \\
        --format json --out tests/golden/<name>.json
"""

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


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_default_json_report_matches_golden(name):
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "gelfand.cli", "verify", *REPORTS[name], "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
