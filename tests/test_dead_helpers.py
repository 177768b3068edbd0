"""No dead helpers: every public top-level function and class of the package,
and every public method of its top-level classes, is used by code in
``src/``, ``tools/`` or ``perfbench/`` outside its own definition, as a
name, an attribute or an imported name.  A word in a docstring, a string or
a comment does not count.  A helper that only tests call belongs in the
tests.

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


def _definitions(tree):
    """(qualified name, node) for each top-level function and class, and for
    each method of a top-level class as "Class.method"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "rules_data.py":
            continue
        for qualname, _ in _definitions(ast.parse(path.read_text())):
            if not any(part.startswith("_") for part in qualname.split(".")):
                yield path, qualname


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
    """(path, innermost enclosing definition or None, identifier) for every
    identifier used by the code of the searched trees."""
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            owner = {}
            for qualname, node in _definitions(tree):   # methods after their class
                for line in range(node.lineno, node.end_lineno + 1):
                    owner[line] = qualname
            for node in ast.walk(tree):
                for name in _identifiers(node):
                    yield path, owner.get(node.lineno), name


def test_every_public_definition_is_named_elsewhere():
    places = defaultdict(set)       # identifier -> {(path, owner)}
    for where, owner, name in _uses():
        places[name].add((where, owner))
    # a use inside the definition itself (a recursive call) does not count
    dead = [f"{path.stem}.{qualname}" for path, qualname in _public_definitions()
            if not places[qualname.split(".")[-1]] - {(path, qualname)}]
    assert sorted(dead) == sorted(EXCEPTIONS), \
        f"public definitions used only at their own definition: {dead}"
