"""The package names the benchmark harness in ``perfbench/`` reaches by name.

The tracer wraps the objects named in ``tracer.ALIASES``, the benchmark
child checks that the in-process memos are cold before its jobs, and the
workloads call the package through its module names.  A deletion, rename or
removed parameter in the package breaks these only at benchmark time, so
this test reads the harness's source (without importing it, so nothing is
written under ``perfbench/``), resolves every name it uses and binds every
call it makes to the callee's signature.
"""

import ast
import importlib
import inspect
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# read by perfbench/child.py: the clasp context's disk cache and the memos
# its isolation check requires to be empty before the jobs
CHILD_NAMES = ("clasp._MEMO", "engine._EVAL_MEMO", "cache.ClaspCache",
               "cat.modular_data.cache_info")


def _resolve(qualname):
    module, *attrs = qualname.split(".")
    obj = importlib.import_module(f"c2spider.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def _tracer_aliases():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ALIASES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no ALIASES")


def test_tracer_aliases_resolve():
    aliases = _tracer_aliases()
    assert aliases
    missing = []
    for qualname in aliases:
        try:
            _resolve(qualname)
        except AttributeError:
            missing.append(qualname)
    assert not missing


def test_benchmark_child_names_resolve():
    for qualname in CHILD_NAMES:
        _resolve(qualname)


def _package_calls():
    """(place, qualname, positional count, keyword names) for every call in
    perfbench/ of a public name reached through a module bound by ``from
    c2spider import ...`` (private memos are in CHILD_NAMES); the count is
    None when a starred argument hides it."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name: alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "c2spider"
                   for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            attrs, func = [], node.func
            while isinstance(func, ast.Attribute):
                attrs.insert(0, func.attr)
                func = func.value
            if not (attrs and isinstance(func, ast.Name) and func.id in modules) or \
                    any(a.startswith("_") for a in attrs):
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords)
            yield (f"{path.name}:{node.lineno}", ".".join([modules[func.id]] + attrs),
                   None if starred else len(node.args),
                   [k.arg for k in node.keywords if k.arg])


def test_benchmark_calls_bind():
    calls = list(_package_calls())
    assert any(name == "engine.reduce_sum" for _, name, _, _ in calls)
    bad = []
    for place, qualname, n_args, keywords in calls:
        sig = inspect.signature(_resolve(qualname))
        try:
            if n_args is None:
                sig.bind_partial(**dict.fromkeys(keywords))
            else:
                sig.bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            bad.append(f"{place} {qualname}: {exc}")
    assert not bad
