"""The experiment scripts under scripts/ run end to end on the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bhspectra import typicality_lab

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args",
    [
        ("nonthermal_scan.py", ["--masses", "0.5", "1", "--bins", "16"]),
        ("typicality_sweep.py", ["--dim-b", "4", "--seeds", "2"]),
        # dim_U up to 3 * 2^24: past what a full-coefficient draw could hold.
        ("typicality_sweep.py", ["--dim-o-start", "4194304", "--steps", "2", "--seeds", "2"]),
    ],
    ids=["nonthermal_scan", "typicality_sweep", "typicality_sweep_large"],
)
def test_script_exits_cleanly(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_sweep_row_is_the_lab_base_run(tmp_path):
    out = tmp_path / "sweep.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "typicality_sweep.py"), "--dim-o-start", "1024",
         "--steps", "2", "--seeds", "3", "--seed", "5", "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (row,) = [r for r in json.loads(out.read_text()) if r["dim_o"] == 4096]
    lab = typicality_lab(4, 4096, 3, 5)
    assert (row["l1_mean"], row["offdiag_rms"]) == (lab.mean_l1_weights, lab.offdiag_rms)
