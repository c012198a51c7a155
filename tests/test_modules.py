"""Source hygiene: checks over the module files themselves."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def top_level_repeats(path: Path) -> list[str]:
    """Function and class names a module defines more than once at top
    level: the later definition rebinds the name, so pytest never collects
    an earlier test and no caller reaches an earlier function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = Counter(node.name for node in tree.body if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    return sorted(name for name, count in names.items() if count > 1)


def private_imports(path: Path) -> list[str]:
    """Leading-underscore names a module imports from a sibling package
    module (a relative import): a private helper with a caller outside
    its module belongs with that caller, or is public."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted("." * node.level + (f"{node.module}." if node.module else "") + alias.name
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level >= 1
                  for alias in node.names if alias.name.startswith("_"))


def output_calls(path: Path) -> dict[str, list[str]]:
    """{top-level function or class: its calls of _emit, print and
    stdout.write}; calls outside any function are listed under ""."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found: dict[str, list[str]] = {}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callee = ast.unparse(node.func)
                if callee in ("_emit", "print") or callee.endswith("stdout.write"):
                    found.setdefault(getattr(top, "name", ""), []).append(callee)
    return found


def unused_imports(path: Path) -> list[str]:
    """Names a module imports, at any depth, and never reads: no Name node
    holds them (the root of a.b.c is one). `from __future__` imports are
    compiler directives, not names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def shape_checks(path: Path) -> list[str]:
    """The isinstance calls of a module that test for an object (Mapping)
    or an array (list, tuple), sorted: what an input file's objects and
    arrays are is decided in one module, so that every reader agrees."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(ast.unparse(node) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                  and len(node.args) == 2
                  and {getattr(n, "id", getattr(n, "attr", None))
                       for n in ast.walk(node.args[1])} & {"Mapping", "list", "tuple"})


PACKAGE = sorted(ROOT.glob("src/rankmatch/*.py"))
MODULES = sorted([*ROOT.glob("tests/*.py"), *PACKAGE])


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_module_defines_a_top_level_name_twice(path):
    assert top_level_repeats(path) == []


def test_repeat_check_sees_a_shadowed_definition(tmp_path):
    path = tmp_path / "shadowed.py"
    path.write_text("def test_a():\n    pass\n\n\nclass B:\n    pass\n\n\n"
                    "def test_a():\n    assert False\n\n\nasync def c():\n    pass\n")
    assert top_level_repeats(path) == ["test_a"]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_package_module_imports_a_private_name(path):
    assert private_imports(path) == []


def test_private_import_check_sees_relative_imports_only(tmp_path):
    path = tmp_path / "importer.py"
    path.write_text("from .ranking import _top, run\nfrom . import _util\n"
                    "from numpy import _core\nimport os\n\n\n"
                    "def f():\n    from ..core import _hidden as h\n    return h\n")
    assert private_imports(path) == ["..core._hidden", "._util", ".ranking._top"]


# __init__.py imports the public API, for its importers to use
IMPORTERS = [p for p in MODULES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", IMPORTERS, ids=[str(p.relative_to(ROOT)) for p in IMPORTERS])
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path) == []


def test_unused_import_check_sees_every_binding(tmp_path):
    path = tmp_path / "importer.py"
    path.write_text("from __future__ import annotations\n\nimport os.path\nimport sys\n"
                    "import numpy as np\nfrom math import exp, log as ln, pi\n\n\n"
                    "def f(x: np.ndarray) -> float:\n    import json\n    return exp(pi)\n\n\n"
                    "sys.exit(os.path.sep)\n")
    assert unused_imports(path) == ["json", "ln"]


def test_cli_writes_its_output_in_one_place():
    # each subcommand returns its result; main renders and writes it
    assert output_calls(ROOT / "src/rankmatch/cli.py") == {
        "_emit": ["sys.stdout.write"], "main": ["_emit"]}


def test_output_check_sees_every_writer(tmp_path):
    path = tmp_path / "writers.py"
    path.write_text("import sys\nfrom sys import stdout\n\n\n"
                    "def cmd_a(args):\n    _emit('a', None)\n    print('b')\n\n\n"
                    "class B:\n    def run(self):\n        stdout.write('c')\n\n\n"
                    "sys.stdout.write('d')\nsys.stderr.write('e')\n")
    assert output_calls(path) == {"cmd_a": ["_emit", "print"], "B": ["stdout.write"],
                                  "": ["sys.stdout.write"]}


def test_input_grammar_lives_in_numerics():
    # the input readers ask numerics what an object or an array is
    assert {p.name: shape_checks(p) for p in PACKAGE if shape_checks(p)} == {
        "numerics.py": ["isinstance(value, (list, tuple))", "isinstance(value, Mapping)"]}


def test_shape_check_sees_every_object_and_array_test(tmp_path):
    path = tmp_path / "reader.py"
    path.write_text("import collections.abc as abc\nfrom collections.abc import Mapping\n\n\n"
                    "def read(x):\n    if isinstance(x, Mapping) or isinstance(x, (list, tuple)):\n"
                    "        return isinstance(x[0], abc.Mapping)\n"
                    "    return isinstance(x, (str, int)) or isinstance(x, list) or len(x)\n")
    assert shape_checks(path) == ["isinstance(x, (list, tuple))", "isinstance(x, Mapping)",
                                  "isinstance(x, list)", "isinstance(x[0], abc.Mapping)"]


def test_benchmark_tracer_binds_every_traced_name(monkeypatch):
    # perfbench/tracing.py wraps program functions by name (PairSweep.run,
    # numerics.bisect_boundary, GainSpec.curve_scalar, ...); Tracer() looks
    # each one up, so a renamed or deleted one fails here and not only as
    # a failed benchmark run, whose own tests take minutes. Installing and
    # uninstalling puts every original back, and the names the benchmark's
    # injected faults rebind still hold the functions they wrap
    from rankmatch import analysis, bounds, experiments, numerics, ranking

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    assert len(tracer.bindings) == len(tracing.SPANS) + len(tracing.COUNTS)
    assert all(callable(original) for _, _, original, _ in tracer.bindings)
    try:
        tracer.install()
        assert all(getattr(owner, attr) is wrapper
                   for owner, attr, _, wrapper in tracer.bindings)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original
               for owner, attr, original, _ in tracer.bindings)
    assert experiments.run_ranking is ranking.run_ranking
    assert analysis.run_ranking is ranking.run_ranking
    assert bounds.integrate is numerics.integrate
