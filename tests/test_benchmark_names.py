"""The names of empwass that the benchmark in perfbench/ looks up.

Several exist only for the benchmark, so no other test would notice if
one were renamed or deleted; the benchmark itself would fail only after
minutes of runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, attr) for mod, attr, _, _ in spans.TRACED]


@pytest.mark.parametrize("mod, attr", _traced())
def test_traced_names_resolve(mod, attr):
    obj = importlib.import_module(f"empwass.{mod}")
    *owners, name = attr.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    # a method is replaced on the class that defines it
    target = vars(obj)[name] if owners else getattr(obj, name)
    assert callable(target), f"{mod}.{attr}"


def _module_attributes():
    """(script, module, attribute) for every `alias.attribute` read in a
    perfbench script, where `from empwass import module as alias`."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        alias = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "empwass":
                alias.update({a.asname or a.name: a.name for a in node.names})
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in alias):
                found.add((path.name, alias[node.value.id], node.attr))
    return sorted(found)


def test_perfbench_reads_kernels_and_cli():
    scripts = {(script, mod) for script, mod, _ in _module_attributes()}
    assert {("micro.py", "_kernels"), ("entry.py", "_kernels"),
            ("entry.py", "cli")} <= scripts


@pytest.mark.parametrize("script, mod, attr", _module_attributes())
def test_perfbench_module_attributes_resolve(script, mod, attr):
    module = importlib.import_module(f"empwass.{mod}")
    assert hasattr(module, attr), f"{script} reads {mod}.{attr}"
