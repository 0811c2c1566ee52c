"""scipy and orjson are installed for the tests (scipy as an oracle) but are
no dependencies of the package: no module under ``src/traitline`` may import
either, at the top or inside a function."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "traitline"
TEST_ONLY = {"scipy", "orjson"}


def imported_roots(tree: ast.AST):
    """``(line, top-level package)`` of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.split(".")[0]


def test_the_rule_sees_every_form_of_import():
    tree = ast.parse("import scipy.stats\nfrom orjson import dumps\n"
                     "def f():\n    import scipy as sp\nfrom . import x\n")
    assert list(imported_roots(tree)) == [(1, "scipy"), (2, "orjson"),
                                          (4, "scipy")]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")),
                         ids=lambda path: path.name)
def test_source_imports_no_test_only_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{line}: {root}"
             for line, root in imported_roots(tree) if root in TEST_ONLY]
    assert not found
