"""Import hygiene of the package, checked with the standard library alone.

Every name a module of src/snslab imports must be read in that module or
re-exported through its __all__; an import that nothing reads is a
leftover of a deleted caller.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "snslab"


def _imported(tree):
    """The names each import statement binds, with the line that binds them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(source, filename="<string>"):
    """(name, line) of each imported name the module neither reads nor exports."""
    tree = ast.parse(source, filename=filename)
    kept = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return [(name, line) for name, line in _imported(tree) if name not in kept]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used_or_exported(path):
    assert _unused(path.read_text(encoding="utf-8"), str(path)) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom numpy import pi as PI, e\n"
              "__all__ = ['e']\nprint(os.path)\n")
    assert _unused(source) == [("math", 2), ("PI", 4)]
