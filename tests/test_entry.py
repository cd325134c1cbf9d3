"""Package entry points: the lazy `import bhspectra`, `python -m bhspectra`
and the `bhspectra` console script, the CLI's one-BLAS-thread default and
its heap freeze at exit."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bhspectra
from test_cascade_golden import GOLDEN as CASCADE_GOLDEN
from test_spectrum_golden import GOLDEN as SPECTRUM_GOLDEN

ROOT = Path(__file__).resolve().parents[1]

# Runs the package as __main__ (what `python -m bhspectra <args>` does, --help
# when no args are given) and reports what the process looked like
# afterwards, as its last stdout line.
RUN_AS_MAIN = """
import gc, os, runpy, sys
sys.argv = ["bhspectra", *(sys.argv[1:] or ["--help"])]
try:
    runpy.run_module("bhspectra", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
modules = sorted(sys.modules)  # before this script imports json
import json
task = "/proc/self/task"
print(json.dumps({
    "modules": modules,
    "code": code,
    "blas_threads_var": os.environ.get("OPENBLAS_NUM_THREADS"),
    "numpy_loaded": "numpy" in sys.modules,
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
    "loaded": sorted(m for m in sys.modules if m == "numpy" or m.startswith("bhspectra.")),
    "frozen": gc.get_freeze_count(),
    "gc_enabled": gc.isenabled(),
}))
"""

# Replaces bhspectra.cli.main with a recorder, imports bhspectra.__main__,
# then calls the console-script target (argv[1], "module:function") and runs
# the package as __main__, each with OPENBLAS_NUM_THREADS unset.
BOTH_ENTRIES = """
import importlib, json, os, runpy, sys
import bhspectra.cli
seen = []
def recorder(argv=None):
    seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
    return 7
bhspectra.cli.main = recorder
import bhspectra.__main__
calls_on_import = len(seen)
module_name, _, attr = sys.argv[1].partition(":")
entry = getattr(importlib.import_module(module_name), attr)
sys.argv = ["bhspectra"]
os.environ.pop("OPENBLAS_NUM_THREADS", None)
script_code = entry()
os.environ.pop("OPENBLAS_NUM_THREADS", None)
try:
    runpy.run_module("bhspectra", run_name="__main__", alter_sys=True)
    module_code = None
except SystemExit as exc:
    module_code = exc.code
print(json.dumps({"calls_on_import": calls_on_import, "script_code": script_code,
                  "module_code": module_code, "seen": seen}))
"""


# Calls bhspectra.cli.main in process, as a test or a library user does, and
# reports the collector's state afterwards.
IN_PROCESS = """
import gc, json, sys
from bhspectra.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "frozen": gc.get_freeze_count(), "gc_enabled": gc.isenabled()}))
"""


def run_child(code: str, *args: str, blas_threads: str | None = None) -> dict:
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestLazyPackage:
    def test_import_loads_no_numpy_and_no_submodule(self):
        code = ("import json, sys, bhspectra; print(json.dumps(sorted("
                "m for m in sys.modules if m == 'numpy' or m.startswith('bhspectra.'))))")
        assert run_child(code) == []

    @pytest.mark.parametrize("module", ["cascade", "spectrum"])
    def test_kernels_load_no_typicality_information_or_verify(self, module):
        code = (f"import json, sys, bhspectra.{module}; print(json.dumps(sorted("
                "m for m in sys.modules if m.startswith('bhspectra.'))))")
        loaded = run_child(code)
        assert f"bhspectra.{module}" in loaded
        for name in ("typicality", "information", "verify"):
            assert f"bhspectra.{name}" not in loaded

    def test_every_public_name_resolves_to_its_submodule(self):
        assert len(bhspectra.__all__) == len(set(bhspectra.__all__)) == 56
        for name in bhspectra.__all__:
            submodule = importlib.import_module(f"bhspectra.{bhspectra._MODULE_OF[name]}")
            assert getattr(bhspectra, name) is getattr(submodule, name)
            assert name in vars(bhspectra)  # cached after the first access
        assert set(bhspectra.__all__) <= set(dir(bhspectra))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bhspectra.no_such_name  # noqa: B018
        assert not hasattr(bhspectra, "main")

    def test_from_import_still_loads_a_submodule(self):
        code = ("import json; from bhspectra import cli, verify; "
                "print(json.dumps([cli.__name__, verify.__name__]))")
        assert run_child(code) == ["bhspectra.cli", "bhspectra.verify"]


class TestModuleEntry:
    def test_defaults_to_one_blas_thread(self, tmp_path):
        result = run_child(RUN_AS_MAIN, "spectrum", "--bins", "4", "--output-dir", str(tmp_path))
        assert result["code"] == 0
        assert result["numpy_loaded"]
        assert result["blas_threads_var"] == "1"
        if sys.platform.startswith("linux"):
            assert result["threads"] == 1

    def test_caller_setting_wins(self):
        result = run_child(RUN_AS_MAIN, blas_threads="2")
        assert result["code"] == 0
        assert result["blas_threads_var"] == "2"


FRONT = ["bhspectra.cli", "bhspectra.errors"]
USAGE_ERRORS = [("cascade", "--n-samples", "abc"), ("spectrum", "--normalization", "x"),
                ("no-such-command",)]
SMALL_CASCADE = ("cascade", "--mass", "1", "--energy-quantum", "0.25", "--n-samples", "5")
CHARGED_CASCADE = ("cascade", "--family", "kn", "--mass", "1", "--charge", "0.25",
                   "--angular-momentum", "0.25", "--energy-quantum", "0.25", "--charge-quantum",
                   "0.125", "--spin-quantum", "0.125", "--n-samples", "5")


# The modules a bare interpreter loads in this environment: a site .pth file
# may preload some (certifi's loads pathlib, for one).
BARE = """
import sys
modules = sorted(sys.modules)
import json
print(json.dumps(modules))
"""

# Stdlib modules the CLI front defers to the commands: dataclasses pulls in
# inspect (and ast, dis, tokenize); sha256 is _sha2 from Python 3.12, _sha256 before.
DEFERRED = {"dataclasses", "inspect", "json", "datetime", "pathlib", "_sha2", "_sha256"}


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    return set(run_child(BARE))


class TestImportsPerCommand:
    """The CLI front imports argparse and bhspectra.errors: a command imports
    the modules it runs."""

    @pytest.mark.parametrize("argv", [("--help",), *((c, "--help") for c in
                                      ("spectrum", "cascade", "verify", "typicality"))],
                             ids=" ".join)
    def test_help_loads_no_numpy(self, argv, bare_modules):
        result = run_child(RUN_AS_MAIN, *argv)
        assert result["code"] == 0
        assert result["loaded"] == FRONT
        assert sorted(DEFERRED & (set(result["modules"]) - bare_modules)) == []

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
    def test_usage_error_loads_no_numpy(self, argv, bare_modules):
        result = run_child(RUN_AS_MAIN, *argv)
        assert result["code"] == 1
        assert result["loaded"] == FRONT
        assert sorted(DEFERRED & (set(result["modules"]) - bare_modules)) == []

    @pytest.mark.parametrize("argv", [SMALL_CASCADE, CHARGED_CASCADE],
                             ids=["energy-only", "charged"])
    def test_cascade_loads_only_the_sampler_and_no_numpy(self, argv, tmp_path):
        result = run_child(RUN_AS_MAIN, *argv, "--output-dir", str(tmp_path))
        assert result["code"] == 0
        assert result["loaded"] == ["bhspectra.blackholes", "bhspectra.cascade", *FRONT]
        assert [m for m in result["modules"] if m.startswith("numpy")] == []

    def test_spectrum_without_report_loads_no_other_command(self, tmp_path):
        result = run_child(RUN_AS_MAIN, "spectrum", "--bins", "4", "--output-dir", str(tmp_path))
        assert result["code"] == 0
        assert result["loaded"] == ["bhspectra.blackholes", *FRONT, "bhspectra.spectrum",
                                    "bhspectra.writers", "numpy"]

    def test_spectrum_report_loads_information_but_not_the_sampler(self, tmp_path):
        result = run_child(RUN_AS_MAIN, "spectrum", "--bins", "4", "--report",
                           "--output-dir", str(tmp_path))
        assert result["code"] == 0
        assert result["loaded"] == ["bhspectra.blackholes", *FRONT, "bhspectra.information",
                                    "bhspectra.spectrum", "bhspectra.writers", "numpy"]


class TestHeapFreeze:
    """The entry point freezes the heap when the command ends, so interpreter
    exit skips the collector's passes over it; cli.main in process does not."""

    @pytest.mark.parametrize("argv,code", [(("--help",), 0), (USAGE_ERRORS[0], 1)],
                             ids=["help", "usage error"])
    def test_help_and_usage_error_freeze_the_heap(self, argv, code):
        result = run_child(RUN_AS_MAIN, *argv)
        assert result["code"] == code
        assert result["frozen"] > 0
        assert result["gc_enabled"]

    def test_cascade_freezes_the_heap(self, tmp_path):
        result = run_child(RUN_AS_MAIN, *SMALL_CASCADE, "--output-dir", str(tmp_path))
        assert result["code"] == 0
        assert result["frozen"] > 0
        assert result["gc_enabled"]

    def test_in_process_main_leaves_the_collector_alone(self, tmp_path):
        result = run_child(IN_PROCESS, *SMALL_CASCADE, "--output-dir", str(tmp_path))
        assert result == {"code": 0, "frozen": 0, "gc_enabled": True}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(*args: str, env: dict | None = None) -> None:
    """`python -m bhspectra <args>` in its own process, through the exit path,
    with env added to the environment."""
    proc = subprocess.run([sys.executable, "-m", "bhspectra", *args], capture_output=True,
                          text=True, env=dict(os.environ, **(env or {})))
    assert proc.returncode == 0, proc.stderr


class TestExitPathKeepsBytes:
    """A CLI process writes the golden bytes: nothing waits on a finalizer
    that the frozen heap would skip at exit."""

    def test_cascade(self, tmp_path):
        args, chains_sha, ensemble_sha = CASCADE_GOLDEN[0]
        run_cli("cascade", *args, "--output-dir", str(tmp_path))
        # chains.jsonl is written as chains.jsonl.part and renamed into place.
        assert not (tmp_path / "chains.jsonl.part").exists()
        assert _sha256(tmp_path / "chains.jsonl") == chains_sha
        assert _sha256(tmp_path / "ensemble.json") == ensemble_sha

    def test_spectrum_csv(self, tmp_path):
        args, digests = SPECTRUM_GOLDEN["rn_csv"]
        run_cli("spectrum", *args, "--output-dir", str(tmp_path))
        for name, sha in digests.items():
            assert _sha256(tmp_path / name) == sha, name


# numpy's exp, log and log1p on float64 are then glibc's (no AVX-512 loops).
PINNED = {"NPY_DISABLE_CPU_FEATURES": "X86_V4"}


class TestCpuIndependence:
    """The cascade command computes with the math module, so its bytes do not
    follow numpy's CPU dispatch; under a dispatch whose exp, log and log1p
    are libm's, numpy's array routes give the float routes' bits."""

    @pytest.mark.parametrize("args,chains_sha,ensemble_sha", CASCADE_GOLDEN,
                             ids=["schw", "rn", "kn"])
    def test_cascade_goldens_under_pinned_dispatch(self, tmp_path, args, chains_sha,
                                                   ensemble_sha):
        run_cli("cascade", *args, "--output-dir", str(tmp_path), env=PINNED)
        assert _sha256(tmp_path / "chains.jsonl") == chains_sha
        assert _sha256(tmp_path / "ensemble.json") == ensemble_sha

    def test_float_and_array_routes_agree_under_pinned_dispatch(self):
        code = """
import sys
import numpy as np
from bhspectra.blackholes import logsumexp
sys.path.insert(0, sys.argv[1])
from test_cascade import ROW_CONFIGS, rows_against_array_kernel
rng = np.random.default_rng(5)
for trial in range(600):
    a = rng.normal(scale=rng.choice([1e-3, 1.0, 30.0, 1e3]), size=rng.integers(1, 301))
    if trial % 2:  # ties at the maximum
        a[rng.integers(0, a.size, size=rng.integers(1, 4))] = a.max()
    assert logsumexp(a.tolist()) == logsumexp(a), (trial, a.size)
for name, config in ROW_CONFIGS.items():
    assert rows_against_array_kernel(*config, libm=True) > 1, name
print("ok")
"""
        env = dict(os.environ, **PINNED)
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "tests")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"


def test_console_script_is_the_module_entry_function():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    target = pyproject["project"]["scripts"]["bhspectra"]
    module_name, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    assert entry is sys.modules["bhspectra.__main__"].main

    result = run_child(BOTH_ENTRIES, target)
    assert result["calls_on_import"] == 0
    assert result["script_code"] == result["module_code"] == 7
    assert result["seen"] == ["1", "1"]
