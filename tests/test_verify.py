"""Structure and behavior of the verification suites."""

import subprocess
import sys

import numpy as np
import pytest

from bhspectra import DomainError, UsageError
from bhspectra.verify import SUITES, chi2_sf, run_suites, suite_cascade, suite_typicality


def test_fast_suites_pass_with_default_seed():
    for report in (suite_cascade(seed=0), suite_typicality(seed=0)):
        assert report.all_passed, [c.name for c in report.checks if not c.passed]
        assert report.wall_time_s > 0.0


def test_report_serialization():
    report = suite_cascade(seed=0)
    payload = report.to_json_dict()
    assert payload["suite"] == "cascade"
    assert {c["name"] for c in payload["checks"]} == {c.name for c in report.checks}
    for check in payload["checks"]:
        assert set(check) == {"name", "passed", "measured", "tolerance", "detail"}


def test_all_runs_every_suite():
    assert set(SUITES) == {"identities", "typicality", "cascade", "info"}


def test_unknown_suite_rejected():
    with pytest.raises(UsageError):
        run_suites("bogus")


def test_corrupted_alpha_rejected_before_running():
    with pytest.raises(DomainError):
        run_suites("cascade", alpha=float("nan"))


def test_chi2_sf_matches_scipy():
    from scipy.stats import chi2

    x = np.concatenate([np.geomspace(1e-8, 1.0, 60), np.linspace(0.0, 120.0, 1201)[1:]])
    for k in range(1, 40):
        want = chi2.sf(x, k)
        got = np.array([chi2_sf(v, k) for v in x.tolist()])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=f"k={k}")
    assert chi2_sf(0.0, 15) == 1.0


def test_cascade_suite_runs_without_scipy(tmp_path):
    # A fresh interpreter, so scipy modules loaded by other tests do not count.
    code = (
        "import sys\n"
        "from bhspectra.cli import main\n"
        f"assert main(['verify', '--suite', 'cascade', '--output-dir', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
