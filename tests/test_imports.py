"""Every imported name in the package, its tests and the benchmark
harness is used, every module-level function, class and assigned name
of the package is used by the program, every one of a test helper
module is used by the tests, every name in ``growformer.__all__``
resolves and is listed once, in sorted order, every ``derive_seed``
call outside ``rng.py`` names a ``StreamTag`` member as its tag and
passes any index after it, every one-argument ``RngState`` of the
package wraps a ``derive_seed`` call, every parameter default of a
package function that the package or the benchmark harness calls is
passed by one of those calls, no package module but ``training.py``
names ``ThreadPoolExecutor`` (``train``'s held-out scorer is the
package's one thread pool), no package module names ``copy_context``
(pool workers run in their own context), and no package module but
``linalg.py`` names ``exact_arithmetic``, the reference arithmetic that
only the benchmark enters. ``training.py`` imports none of
the analysis modules (alignment, experiment, trajectory, seriesstats),
directly or through another package module.

Stdlib-``ast`` stand-ins for a linter's unused-import rule (a name bound
by an import must appear as a name somewhere else in the module, or in
the module's ``__all__``) and for a dead-code finder. The package holds
only the program: a function or class defined at the top of a package
module must be named by the program, meaning a package module other
than ``__init__.py`` (a re-export reaches nothing by itself) or a
benchmark module other than its tests. It may be named as a loaded
name, an attribute, an imported name or a string such as a tracer's
span key. A name assigned at the top of a package module must be
loaded, imported or named as an attribute by the program; a string
does not count, and neither does the assignment itself. A definition
that only tests reach belongs in ``tests/``. The same rule holds a test
helper module (a ``tests/*.py`` not named ``test_*.py``, such as
``oracles.py`` or ``refdata.py``) to what the files of ``tests/`` name.
Dunder names such as ``__all__`` are read by Python and are exempt.
"""

import ast
from pathlib import Path

import pytest

import growformer

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "growformer").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
SOURCES = PACKAGE + TESTS
HELPERS = [path for path in TESTS if not path.name.startswith("test_")]


def is_program(path: Path) -> bool:
    """Whether a reference from ``path`` keeps a package definition in use."""
    if path.parent.name == "perfbench":
        return not path.name.startswith("test_")
    return path.parent.name == "growformer" and path.name != "__init__.py"


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


def _name(node) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


def _calls(source: str, name: str) -> list[ast.Call]:
    return [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _name(node.func) == name
    ]


def untagged_derivations(source: str) -> list[str]:
    """Lines of ``derive_seed`` calls whose tag is not a ``StreamTag``
    member: a literal, a member plus an index, or an index passed as the
    tag. An index belongs after the tag, as an index."""
    found = []
    for call in _calls(source, "derive_seed"):
        tags = call.args[1:2] + [k.value for k in call.keywords if k.arg == "tag"]
        if len(tags) != 1 or not (
            isinstance(tags[0], ast.Attribute) and _name(tags[0].value) == "StreamTag"
        ):
            found.append(f"line {call.lineno}")
    return found


def raw_rng_states(source: str) -> list[str]:
    """Lines of one-argument ``RngState`` calls whose seed is not a
    ``derive_seed`` call: a stream the tag table does not name."""
    found = []
    for call in _calls(source, "RngState"):
        args = call.args + [k.value for k in call.keywords]
        if len(args) == 1 and not (
            isinstance(args[0], ast.Call) and _name(args[0].func) == "derive_seed"
        ):
            found.append(f"line {call.lineno}")
    return found


def test_detects_a_literal_stream_tag():
    source = (
        "derive_seed(seed, 0x6702)\n"
        "rng.derive_seed(seed, 0x3A3C + stream)\n"
        "derive_seed(seed, tag=-1)\n"
        "derive_seed(seed, StreamTag.MARKOV + stream)\n"
        "derive_seed(seed, plan.seed)\n"
        "derive_seed(seed, dm * 1000 + da)\n"
        "derive_seed(seed)\n"
        "derive_seed(seed, StreamTag.MARKOV, stream)\n"
        "rng.derive_seed(seed, rng.StreamTag.ABLATION_PLAN, dm, da)\n"
        "derive_seed(seed, tag=StreamTag.INIT)\n"
    )
    assert untagged_derivations(source) == [f"line {n}" for n in range(1, 8)]
    states = (
        "RngState(0)\n"
        "rng.RngState(seed)\n"
        "RngState(seed=7)\n"
        "RngState(derive_seed(0, StreamTag.SUBSAMPLE))\n"
        "rng.RngState(rng.derive_seed(seed, StreamTag.ORDER))\n"
        "RngState(state.seed, state.position)\n"
    )
    assert raw_rng_states(states) == ["line 1", "line 2", "line 3"]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "rng.py"], ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_no_literal_stream_tags(path):
    source = path.read_text(encoding="utf-8")
    assert untagged_derivations(source) == []
    # tests may seed a generator directly; the package draws only tagged streams
    if path in PACKAGE:
        assert raw_rng_states(source) == []


def naming(source: str, name: str) -> list[str]:
    """Lines that name ``name`` in an import, a call or an attribute."""
    lines = {
        node.lineno for node in ast.walk(ast.parse(source))
        if (node.name if isinstance(node, ast.alias) else _name(node)) == name
    }
    return [f"line {n}" for n in sorted(lines)]


def test_detects_a_thread_pool():
    source = (
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import contextvars\n"
        "with futures.ThreadPoolExecutor(2) as pool:\n"
        "    pool.submit(contextvars.copy_context().run, f)\n"
        "from contextvars import copy_context as cc\n"
        "pool.map(f, xs)\n"
        "ref = linalg.exact_arithmetic\n"
    )
    assert naming(source, "ThreadPoolExecutor") == ["line 1", "line 3"]
    assert naming(source, "copy_context") == ["line 4", "line 5"]
    assert naming(source, "exact_arithmetic") == ["line 7"]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "training.py"], ids=lambda p: p.name
)
def test_only_training_opens_a_thread_pool(path):
    assert naming(path.read_text(encoding="utf-8"), "ThreadPoolExecutor") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_copies_a_context(path):
    assert naming(path.read_text(encoding="utf-8"), "copy_context") == []


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "linalg.py"], ids=lambda p: p.name
)
def test_only_linalg_names_exact_arithmetic(path):
    assert naming(path.read_text(encoding="utf-8"), "exact_arithmetic") == []


def package_imports(source: str) -> set[str]:
    """Names of package modules the source imports anywhere in the file:
    by a relative import or through the ``growformer`` name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            qualified = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # a relative import is from this package
                module = f"growformer.{module}".rstrip(".")
            if module == "growformer":  # ``from . import x`` names the modules themselves
                qualified = [f"growformer.{alias.name}" for alias in node.names]
            else:
                qualified = [module]
        else:
            continue
        found.update(name.split(".")[1] for name in qualified if name.startswith("growformer."))
    return found


def reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    """Modules that ``start`` imports, directly or through another module."""
    seen, todo = set(), [start]
    while todo:
        for name in graph.get(todo.pop(), set()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_detects_an_import_of_a_package_module():
    source = (
        "import json\nfrom os import path\nfrom .alignment import a\n"
        "from . import experiment, model\nimport growformer.trajectory\n"
        "from growformer.seriesstats import f\n\n\ndef g():\n    from .growth import h\n"
    )
    assert package_imports(source) == {
        "alignment", "experiment", "model", "trajectory", "seriesstats", "growth"
    }
    graph = {"training": {"growth"}, "growth": {"alignment", "training"}, "alignment": set()}
    assert reachable(graph, "training") == {"growth", "alignment", "training"}
    assert reachable(graph, "alignment") == set()


# the analysis side of the package; training hands snapshots over and never analyses them
ANALYSIS_MODULES = {"alignment", "experiment", "trajectory", "seriesstats"}


def test_training_reaches_no_analysis_module():
    graph = {path.stem: package_imports(path.read_text(encoding="utf-8")) for path in PACKAGE}
    assert ANALYSIS_MODULES <= set(graph)
    assert reachable(graph, "training") & ANALYSIS_MODULES == set()


def unpassed_defaults(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function.parameter`` for every parameter with a default of
    a function in ``modules`` (module name to source) that a call in
    ``callers`` names, where no such call passes it by position or by
    keyword. A ``*args`` or ``**kwargs`` spread passes every parameter."""
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    found = []
    for module, source in modules.items():
        for fn in ast.walk(ast.parse(source)):
            if not isinstance(fn, ast.FunctionDef) or fn.name not in calls:
                continue
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            defaulted = positional[len(positional) - len(fn.args.defaults) :] + [
                a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None
            ]
            passed = set()
            for call in calls[fn.name]:
                if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords
                ):
                    passed.update(defaulted)
                passed.update(positional[: len(call.args)])
                passed.update(k.arg for k in call.keywords)
            found.extend(f"{module}.{fn.name}.{name}" for name in defaulted if name not in passed)
    return found


def test_detects_a_default_no_caller_passes():
    module = (
        "def f(a, b=1, *, c=2, d=3):\n    pass\n\n\n"
        "def spread(x=0):\n    pass\n\n\n"
        "def only_tests_call(y=0):\n    pass\n\n\n"
        "class K:\n    def method(self, z=0, w=1):\n        pass\n"
    )
    caller = "f(0, c=1)\nspread(*args)\nK().method(5)\n"
    assert unpassed_defaults({"m": module}, [caller]) == ["m.f.b", "m.f.d", "m.method.w"]


# defaults that no package or benchmark call passes, and why each stays
UNPASSED_DEFAULT_ALLOWED = {
    "cli.main.argv",  # None reads sys.argv, as the console script and ``-m`` run need
    # the paper's recorded harmonic R^2 is matched only with trend="linear"
    # (tests/test_paper_claims.py), and fits.json records the trend fields
    "seriesstats.harmonic_fit.trend",
}


def test_every_default_is_passed_by_some_caller():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    callers = list(modules.values()) + [path.read_text(encoding="utf-8") for path in BENCHMARK]
    assert sorted(set(unpassed_defaults(modules, callers)) - UNPASSED_DEFAULT_ALLOWED) == []


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


def unreferenced(module: str, referrers: list[str]) -> list[str]:
    """Top-level definitions, then assigned names, of ``module`` that no
    source in ``referrers`` references."""
    used = set().union(*(references(source) for source in referrers))
    loaded = set().union(*(loads(source) for source in referrers))
    return unreferenced_definitions(module, used) + unreferenced_assignments(module, loaded)


def test_detects_an_unreferenced_definition():
    module = (
        "def kept():\n    pass\n\n\nclass Dead:\n    pass\n\n\ndef spanned():\n    pass\n\n\n"
        "def tested():\n    pass\n"
    )
    user = "from m import kept\nkept()\nSPANS = {('m', 'spanned'): ()}\n"
    test = "from m import tested\ntested()\n"
    assert unreferenced(module, [module, user, test]) == ["Dead"]
    # a test is not the program, so what only a test names is dead
    assert unreferenced(module, [module, user]) == ["Dead", "tested"]
    program = [ROOT / "src/growformer/m.py", ROOT / "perfbench/run.py"]
    not_program = [
        ROOT / "src/growformer/__init__.py",
        ROOT / "perfbench/test_perfbench.py",
        ROOT / "tests/test_m.py",
        ROOT / "tests/oracles.py",
    ]
    assert [is_program(path) for path in program + not_program] == [True] * 2 + [False] * 4


def test_detects_an_unreferenced_assignment():
    module = (
        "__all__ = ['NAMED']\nKEPT = 1\nNAMED = 2\nSELF, USED = 3, KEPT\n"
        "TYPED: int = SELF\nDEAD = {}\n"
    )
    user = "import m\nfrom m import USED\nm.TYPED\n"
    loaded = loads(module) | loads(user)
    assert unreferenced_assignments(module, loaded) == ["NAMED", "DEAD"]


def test_every_package_definition_is_referenced():
    program = [path.read_text(encoding="utf-8") for path in PACKAGE + BENCHMARK if is_program(path)]
    dead = {path.name: unreferenced(path.read_text(encoding="utf-8"), program) for path in PACKAGE}
    assert {name: defs for name, defs in dead.items() if defs} == {}


def test_every_test_helper_definition_is_referenced():
    tests = [path.read_text(encoding="utf-8") for path in TESTS]
    dead = {path.name: unreferenced(path.read_text(encoding="utf-8"), tests) for path in HELPERS}
    assert HELPERS
    assert {name: defs for name, defs in dead.items() if defs} == {}


def test_every_export_resolves_and_is_listed_once_in_order():
    # a name deleted from the package but left in __all__ fails here
    assert [name for name in growformer.__all__ if not hasattr(growformer, name)] == []
    assert growformer.__all__ == sorted(set(growformer.__all__))
