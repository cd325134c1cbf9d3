"""perfbench/tracer.py, run as it is, still sees every span of a traced run.

The tracer wraps functions as attributes of `bhspectra.cli` and of the compute
modules before it calls `cli.main`. The commands import their modules when
they run, and must still call what the tracer replaced.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv,expected", [
    (("spectrum", "--family", "rn", "--mass", "2", "--charge", "1", "--bins", "64",
      "--n-q", "3", "--q-step", "0.25", "--normalization", "unitsum", "--report"),
     {"cli.cmd_spectrum", "cli.write_spectrum_csv", "cli.write_manifest",
      "spectrum.build_spectrum", "spectrum.build_thermal_spectrum", "spectrum.normalize",
      "information.build_info_report"}),
    (("verify", "--suite", "cascade"), {"verify.run_suites", "verify.suite_cascade"}),
], ids=["spectrum-report", "verify-cascade"])
def test_traced_run_keeps_every_span(tmp_path, argv, expected):
    summary = tmp_path / "summary.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(ROOT / "src"), str(summary),
         str(tmp_path / "spans.npz"), "--", *argv, "--output-dir", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(summary.read_text())["spans"]
    assert expected <= set(spans)
    assert all(spans[name]["calls"] >= 1 for name in expected)
