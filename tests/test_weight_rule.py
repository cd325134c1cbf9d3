"""One weight rule: spectrum.exp_weights turns log-weights into weights.

A stdlib scan in the style of tests/test_dead_imports.py: in the modules
that make weights from log-weights, np.exp is called in the body of
spectrum.exp_weights and nowhere else. blackholes.logsumexp and the
cascade's transition rows keep their own guarded exps.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bhspectra"
MODULES = ("spectrum", "information", "writers", "verify")


def _exp_calls(node: ast.AST, scope: str = ""):
    """(enclosing def or class, line) of each np.exp or numpy.exp call under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        func = getattr(child, "func", None)
        if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                and func.attr == "exp" and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")):
            yield scope, child.lineno
        yield from _exp_calls(child, inner)


@pytest.mark.parametrize("module", MODULES)
def test_np_exp_is_called_only_in_exp_weights(module):
    calls = list(_exp_calls(ast.parse((SRC / f"{module}.py").read_text())))
    if module == "spectrum":
        assert [scope for scope, _ in calls] == ["exp_weights"]
    else:
        assert calls == []
