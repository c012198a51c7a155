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


def test_benchmark_tracer_binds_every_traced_name(monkeypatch):
    # perfbench/tracing.py wraps program functions by name (PairSweep.run,
    # numerics.bisect_boundary, GainSpec.curve_scalar, ...); Tracer() looks
    # each one up, so a renamed or deleted one fails here and not only as
    # a failed benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    assert len(tracer.bindings) == len(tracing.SPANS) + len(tracing.COUNTS)
    assert all(callable(original) for _, _, original, _ in tracer.bindings)
