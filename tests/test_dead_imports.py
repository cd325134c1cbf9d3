"""Every module-level import in the package is used, or marked as kept.

A stdlib stand-in for a linter's unused-import rule (F401): a name bound by
a top-level import of src/bhspectra/*.py must appear as a name in its module,
unless the import carries `# noqa: F401`. The marked imports are shims that
keep kernel names importable where perfbench/tracer.py wraps them; their set
may shrink but not grow.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bhspectra"
MODULES = sorted(SRC.glob("*.py"))

KEPT = {
    ("cascade", "entropy_grid"),
    ("spectrum", "entropy_drop_uncharged"),
    ("spectrum", "entropy_grid"),
}


def _imports(path: Path):
    """(bound name, marked) for each name a top-level import binds."""
    source = path.read_text()
    lines = source.splitlines()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("# noqa: F401" in lines[i] for i in range(node.lineno - 1, node.end_lineno))
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], marked


def _names(path: Path) -> set[str]:
    return {n.id for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_are_used_or_marked(path):
    used = _names(path)
    dead = [name for name, marked in _imports(path) if not marked and name not in used]
    assert dead == []


def test_marked_imports_are_only_the_tracer_shims():
    marked = {(p.stem, name) for p in MODULES for name, m in _imports(p) if m}
    assert marked <= KEPT
