"""The package's runtime dependencies are numpy and the standard library:
scipy and pytest are installed for the tests only."""

import ast
import pathlib
import sys

import pytest

import rankscreen

SOURCES = sorted(pathlib.Path(rankscreen.__file__).parent.glob("*.py"))


def _imported_modules(path):
    """(line, top-level name) of every absolute import; relative imports
    (``from . import x``, ``from .spline import y``) are within the
    package."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "spline.py",
                                         "rpc_screen.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    allowed = sys.stdlib_module_names | {"numpy"}
    bad = [f"{path.name}:{line} imports {name}"
           for line, name in _imported_modules(path) if name not in allowed]
    assert not bad
