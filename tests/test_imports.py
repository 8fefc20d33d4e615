"""Every imported name in the package, its tests and the benchmark
harness is used, every module-level function, class and assigned name
of the package is referenced, and every name in ``growformer.__all__``
resolves and is listed once, in sorted order.

Stdlib-``ast`` stand-ins for a linter's unused-import rule (a name bound
by an import must appear as a name somewhere else in the module, or in
the module's ``__all__``) and for a dead-code finder. A function or class
defined at the top of a package module must be named somewhere in the
package, its tests or the benchmark harness: as a loaded name, an
attribute, an imported name or a string such as a tracer's span key. A
name assigned at the top of a package module must be loaded, imported or
named as an attribute somewhere in those files; a string does not count,
and neither does the assignment itself. Dunder names such as ``__all__``
are read by Python and are exempt.
"""

import ast
from pathlib import Path

import pytest

import growformer

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "growformer").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    source = "import json\nimport math\nfrom os import path, sep\nmath.pi\nsep\n"
    assert unused_imports(source) == ["line 1: json", "line 3: path"]


@pytest.mark.parametrize("path", SOURCES + BENCHMARK, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def loads(source: str) -> set[str]:
    """Names the source loads, imports or names as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def references(source: str) -> set[str]:
    """``loads`` plus every string constant."""
    strings = {
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    return loads(source) | strings


def unreferenced_definitions(module: str, used: set[str]) -> list[str]:
    return [
        node.name
        for node in ast.parse(module).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]


def unreferenced_assignments(module: str, loaded: set[str]) -> list[str]:
    targets = []
    for node in ast.parse(module).body:
        if isinstance(node, ast.Assign):
            targets.extend(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return [
        node.id
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
        and not (node.id.startswith("__") and node.id.endswith("__"))
        and node.id not in loaded
    ]


def test_detects_an_unreferenced_definition():
    module = "def kept():\n    pass\n\n\nclass Dead:\n    pass\n\n\ndef spanned():\n    pass\n"
    user = "from m import kept\nkept()\nSPANS = {('m', 'spanned'): ()}\n"
    used = references(module) | references(user)
    assert unreferenced_definitions(module, used) == ["Dead"]


def test_detects_an_unreferenced_assignment():
    module = (
        "__all__ = ['NAMED']\nKEPT = 1\nNAMED = 2\nSELF, USED = 3, KEPT\n"
        "TYPED: int = SELF\nDEAD = {}\n"
    )
    user = "import m\nfrom m import USED\nm.TYPED\n"
    loaded = loads(module) | loads(user)
    assert unreferenced_assignments(module, loaded) == ["NAMED", "DEAD"]


def test_every_package_definition_is_referenced():
    files = SOURCES + BENCHMARK
    sources = [path.read_text(encoding="utf-8") for path in files]
    used = set().union(*(references(source) for source in sources))
    loaded = set().union(*(loads(source) for source in sources))
    dead = {
        path.name: unreferenced_definitions(source, used)
        + unreferenced_assignments(source, loaded)
        for path, source in zip(files, sources)
        if path in PACKAGE
    }
    assert {name: defs for name, defs in dead.items() if defs} == {}


def test_every_export_resolves_and_is_listed_once_in_order():
    # a name deleted from the package but left in __all__ fails here
    assert [name for name in growformer.__all__ if not hasattr(growformer, name)] == []
    assert growformer.__all__ == sorted(set(growformer.__all__))
