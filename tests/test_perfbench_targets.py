"""Every function the per-layer tracer wraps still exists.

perfbench/tracer.py wraps module attributes of bhspectra by name with a bare
getattr, so renaming or deleting one of them makes a traced benchmark run
crash. The tracer is loaded from its file here and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = sorted(_tracer().TARGETS)


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_tracer_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"bhspectra.{module}"), attr))


def test_tracer_suite_split_resolves():
    # Tracer.install also replaces cli.run_suites, split by verify.SUITES.
    assert callable(importlib.import_module("bhspectra.cli").run_suites)
    assert importlib.import_module("bhspectra.verify").SUITES
