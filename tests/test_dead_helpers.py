"""No dead helpers: every public top-level function and class of the package
is named somewhere in ``src/``, ``tools/`` or ``perfbench/`` other than the
lines of its own definition, in code, a string or a comment.  A helper that
only tests call belongs in the tests.

The sources are read, not imported, so nothing is written under
``perfbench/``.  The frozen rule table ``rules_data.py`` is data, not code,
and is not scanned for definitions.
"""

import ast
import pathlib
import re
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


def _uses():
    """(path, enclosing top-level definition or None, word) for every word
    of code, string or comment in the searched trees."""
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            owner = {}
            for node in _top_level_definitions(ast.parse(text)):
                for line in range(node.lineno, node.end_lineno + 1):
                    owner[line] = node.name
            for lineno, line in enumerate(text.splitlines(), 1):
                for word in re.findall(r"\w+", line):
                    yield path, owner.get(lineno), word


def test_every_public_definition_is_named_elsewhere():
    places = defaultdict(set)       # word -> {(path, owner)}
    for where, owner, word in _uses():
        places[word].add((where, owner))
    # a word inside the definition itself (its docstring, a recursive call)
    # does not count
    dead = [f"{path.stem}.{name}" for path, name in _public_definitions()
            if not places[name] - {(path, name)}]
    assert sorted(dead) == sorted(EXCEPTIONS), \
        f"public definitions named only at their own definition: {dead}"
