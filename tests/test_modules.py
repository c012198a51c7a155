"""Source hygiene: checks over the module files themselves."""

import ast
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


MODULES = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("src/rankmatch/*.py")])


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_module_defines_a_top_level_name_twice(path):
    assert top_level_repeats(path) == []


def test_repeat_check_sees_a_shadowed_definition(tmp_path):
    path = tmp_path / "shadowed.py"
    path.write_text("def test_a():\n    pass\n\n\nclass B:\n    pass\n\n\n"
                    "def test_a():\n    assert False\n\n\nasync def c():\n    pass\n")
    assert top_level_repeats(path) == ["test_a"]
