"""No dead helpers: every public top-level function and class of the package
is used by code in ``src/``, ``tools/`` or ``perfbench/`` outside its own
definition, as a name, an attribute or an imported name.  A word in a
docstring, a string or a comment does not count.  A helper that only tests
call belongs in the tests.

The sources are read, not imported, so nothing is written under
``perfbench/``.  The frozen rule table ``rules_data.py`` is data, not code,
and is not scanned for definitions.
"""

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "c2spider"
SEARCHED = ("src", "tools", "perfbench")

# name -> why it has no caller yet
EXCEPTIONS = {
    "cat.identity_tangle_decomposition":
        "ROADMAP item 1 makes it the certificates' edge-factorization check",
}


def _top_level_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "rules_data.py":
            continue
        for node in _top_level_definitions(ast.parse(path.read_text())):
            if not node.name.startswith("_"):
                yield path, node.name


def _identifiers(node):
    """The identifiers a node uses: a name, an attribute, or each part of
    an imported name and its alias."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [part for alias in node.names
                for part in alias.name.split(".") + [alias.asname or ""]]
    return []


def _uses():
    """(path, enclosing top-level definition or None, identifier) for every
    identifier used by the code of the searched trees."""
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            owner = {}
            for node in _top_level_definitions(tree):
                for line in range(node.lineno, node.end_lineno + 1):
                    owner[line] = node.name
            for node in ast.walk(tree):
                for name in _identifiers(node):
                    yield path, owner.get(node.lineno), name


def test_every_public_definition_is_named_elsewhere():
    places = defaultdict(set)       # identifier -> {(path, owner)}
    for where, owner, name in _uses():
        places[name].add((where, owner))
    # a use inside the definition itself (a recursive call) does not count
    dead = [f"{path.stem}.{name}" for path, name in _public_definitions()
            if not places[name] - {(path, name)}]
    assert sorted(dead) == sorted(EXCEPTIONS), \
        f"public definitions used only at their own definition: {dead}"
