"""The package names the benchmark harness in ``perfbench/`` reaches by name.

The tracer wraps the objects named in ``tracer.ALIASES``, and the benchmark
child checks that the in-process memos are cold before its jobs.  A deletion
or rename in the package breaks both only at benchmark time, so this test
reads the harness's source (without importing it, so nothing is written
under ``perfbench/``) and resolves every name it uses.
"""

import ast
import importlib
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
