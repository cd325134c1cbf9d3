"""Golden report of `verify --suite all --seed 0`.

The digest pins every measured value, tolerance, detail and verdict of the
four suites, so a change to a check's draws or arithmetic shows up here.
Only each suite's `wall_time_s`, which is a timing, is left out.
"""

import hashlib
import json

from bhspectra.cli import main

GOLDEN = "c86b0ae136e1dcb72106f845405c10aed419ae0774d2c9a5f5b1723541243e6b"


def test_verify_all_seed_0_report(tmp_path):
    assert main(["verify", "--suite", "all", "--seed", "0", "--output-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    for suite in report["suites"]:
        suite.pop("wall_time_s")
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN
