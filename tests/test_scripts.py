"""The experiment scripts under scripts/, run end to end on tiny grids."""

from __future__ import annotations

import csv
import subprocess
import sys
from pathlib import Path

import pytest

from gieskit.cli import SWEEP_COLUMNS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, header", [
    ("algorithm_comparison.py", ["--p", "5", "--k", "0", "2", "--replicates", "1"],
     list(SWEEP_COLUMNS)),
    ("identifiability_sweep.py", ["--p", "5", "--dags", "3"],
     ["p", "s", "m", "k", "dag", "non_essential"]),
])
def test_script_writes_its_csv(tmp_path, script, args, header):
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) > 1


@pytest.mark.parametrize("script, flag", [
    ("algorithm_comparison.py", "--replicates"),
    ("identifiability_sweep.py", "--dags"),
])
def test_script_rejects_an_empty_grid(tmp_path, script, flag):
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), flag, "0", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert f"error: {flag} must be at least 1" in proc.stderr
    assert not out.exists()
