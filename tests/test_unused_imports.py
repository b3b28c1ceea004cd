"""Every name a library module imports at module level is used in it."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "empwass"
# __init__.py imports names to re-export them
_MODULES = sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    assert _unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [
        (1, "os")]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []
