"""Import and name hygiene of the package, checked with the standard library alone.

Every name a module of src/snslab imports must be read in that module or
re-exported through its __all__; an import that nothing reads is a
leftover of a deleted caller. Every private name a module binds at its top
level must be read somewhere in the package; one that nothing reads is a
leftover helper.
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


def _private_bindings(tree):
    """(name, line) of each private name bound at the module's top level, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno


def _unread_private(sources):
    """(module, name, line) of each private top-level name that no module reads.

    sources maps module names to their text; a read is a loaded name or an
    attribute of that name, in any of the modules.
    """
    trees = {module: ast.parse(text, filename=module) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [(module, name, line) for module, tree in trees.items()
            for name, line in _private_bindings(tree) if name not in read]


def test_every_private_name_is_read_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private(sources) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a": ("__all__ = []\n_USED, _DEAD = 1, 2\n"
              "def _helper():\n    return _USED\n"
              "class _Gone:\n    pass\n_ATTR: int = 3\n"),
        "b": "import a\nfrom a import _helper\n_helper()\nprint(a._ATTR)\n_DEAD = 4\n",
    }
    assert _unread_private(sources) == [("a", "_DEAD", 2), ("a", "_Gone", 5), ("b", "_DEAD", 5)]
