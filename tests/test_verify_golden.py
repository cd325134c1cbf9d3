"""Golden report of `verify --suite all --seed 0`.

The digest pins every measured value, tolerance, detail and verdict of the
four suites, so a change to a check's draws or arithmetic shows up here.
Two fields are left out:
- each suite's `wall_time_s`, which is a timing;
- `rn_exponent_match`'s `measured`, the largest relative residual against an
  oracle computed in `np.longdouble`. That type is 80-bit on x86 Linux and
  64-bit on some other platforms, and the oracle's rounding is about the
  size of the residual, so the value depends on the platform.
"""

import hashlib
import json

from bhspectra.cli import main

GOLDEN = "75be21093e13e48f485244d4c73d2fd4940d938e853580b7e0882260af272369"


def test_verify_all_seed_0_report(tmp_path):
    assert main(["verify", "--suite", "all", "--seed", "0", "--output-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    for suite in report["suites"]:
        suite.pop("wall_time_s")
        for check in suite["checks"]:
            if check["name"] == "rn_exponent_match":
                check.pop("measured")
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN
