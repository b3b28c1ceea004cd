"""Every name a library module imports at module level is used in it,
every private name it defines is read in src/ or perfbench/, and so is
every public function, class and method outside a short allowlist."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "empwass"
# __init__.py imports names to re-export them: its imports define the
# package's surface, they do not read it
_MODULES = sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py")
_PERFBENCH = sorted((_SRC.parents[1] / "perfbench").glob("*.py"))

# Public names that nothing in src/ or perfbench/ reads, each with the
# reason it stays. The test wants this exact set, so a name leaves the
# list as soon as something reads it.
_UNREAD_PUBLIC = {
    "default_cap": "ROADMAP item 7 feeds it the strong moment as the cap "
                   "of the heavy-tail bounds",
    "SyntheticSampler.strong_moment": "ROADMAP item 7: the input of "
                                      "default_cap",
    "SyntheticSampler.weak_moment": "ROADMAP item 7: the weak_rp input of "
                                    "fuk-nagaev and moderate",
    "verify_mixture_convexity": "acceptance 5 checks the paper's mixture "
                                "convexity with it",
}


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


def _references(source: str, strings: bool = False):
    """Names a module reads: loaded names, attributes, imported names and,
    with `strings`, the dotted words of string constants."""
    refs = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.alias):
            refs.add(n.name.split(".")[-1])
        elif (strings and isinstance(n, ast.Constant)
              and isinstance(n.value, str)):
            refs.update(n.value.replace(".", " ").split())
    return refs


def _all_references():
    """Names read in src/ or perfbench/. Only the benchmark's strings
    count: it names functions in them ("FiniteMetricSpace.dist..."),
    while the strings of src/ are docstrings, messages and file names."""
    return set().union(
        *(_references(p.read_text()) for p in _MODULES),
        *(_references(p.read_text(), strings=True) for p in _PERFBENCH))


def _private_definitions(source: str):
    """(line, name) of each _-prefixed name defined at module level or in
    the body of a module-level class."""
    tree = ast.parse(source)
    bodies = [tree.body] + [n.body for n in tree.body
                            if isinstance(n, ast.ClassDef)]
    out = []
    for node in (n for body in bodies for n in body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            targets = [getattr(node.target, "id", "")]
        else:
            continue
        out += [(node.lineno, name) for name in targets
                if name.startswith("_") and not name.startswith("__")]
    return sorted(out)


def _orphans(source: str, refs):
    return [(line, name) for line, name in _private_definitions(source)
            if name not in refs]


def _unread_public(source: str, refs):
    """(line, name) of each public module-level function or class, and of
    each public method of a module-level class as Class.method, whose
    name is not in refs."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(m.lineno, f"{node.name}.{m.name}") for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not m.name.startswith("_")]
    return sorted((line, name) for line, name in out
                  if name.split(".")[-1] not in refs)


def test_checker_flags_an_unused_import():
    assert _unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [
        (1, "os")]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_checker_flags_an_orphaned_private_definition():
    source = ("_A = 1\n_B = _A\n\n\nclass T:\n    _c: int = 0\n\n"
              "    def _step(self):\n        return self._c\n\n\n"
              "def _f():\n    return T()\n")
    assert _orphans(source, _references(source)) == [
        (2, "_B"), (8, "_step"), (12, "_f")]
    assert _orphans(source, _references("x = '_B _f'\ny.T._step",
                                        strings=True)) == [(1, "_A"), (6, "_c")]
    # a docstring or a file name in src/ reads nothing
    assert _orphans(source, _references("'_B _f'\nx = '_A.json'")) == [
        (1, "_A"), (2, "_B"), (6, "_c"), (8, "_step"), (12, "_f")]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_orphaned_private_definitions(path):
    assert _orphans(path.read_text(), _all_references()) == []


def test_checker_flags_an_unread_public_definition():
    source = ("def f():\n    return 1\n\n\ndef g():\n    return f()\n\n\n"
              "class T:\n    def run(self):\n        return 0\n\n"
              "    def _step(self):\n        return self.run()\n")
    assert _unread_public(source, _references(source)) == [
        (5, "g"), (9, "T")]
    assert _unread_public(source, _references("x = 'g'\ny = T()",
                                              strings=True)) == [
        (1, "f"), (10, "T.run")]
    assert _unread_public(source, _references('"""g"""\ny = T()')) == [
        (1, "f"), (5, "g"), (10, "T.run")]


def test_no_unread_public_definitions():
    refs = _all_references()
    unread = [name for path in _MODULES
              for _, name in _unread_public(path.read_text(), refs)]
    assert sorted(unread) == sorted(_UNREAD_PUBLIC)
