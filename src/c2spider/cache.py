"""Content-addressed on-disk cache for expanded projectors.

Entries live under ``<root>/<rule-table-hash>/<key>.json`` so that changing
the relation table invalidates everything automatically; ``cache_gc`` removes
entries stored under any other table hash.  Writers take an advisory lock
file so concurrent command-line invocations stay safe; readers need none
(writes are atomic renames).
"""

from __future__ import annotations

import json
import os
import tempfile
import time

ENV_VAR = "C2SPIDER_CACHE"


def default_cache_dir():
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "c2spider")


class _Lock:
    def __init__(self, path, timeout=30.0):
        self.path = path + ".lock"
        self.timeout = timeout
        self.fd = None

    def __enter__(self):
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                return self
            except FileExistsError:
                if time.monotonic() > deadline:
                    # stale lock: steal it rather than hang forever
                    try:
                        os.unlink(self.path)
                    except FileNotFoundError:
                        pass
                else:
                    time.sleep(0.05)

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


class ClaspCache:
    """Maps string keys to JSON-serializable payloads, keyed by table hash."""

    def __init__(self, root=None, table_hash="default", enabled=True):
        self.root = root or default_cache_dir()
        self.table_hash = table_hash
        self.enabled = enabled

    def _dir(self):
        return os.path.join(self.root, self.table_hash)

    def _path(self, key):
        return os.path.join(self._dir(), f"{key}.json")

    def get(self, key):
        if not self.enabled:
            return None
        try:
            with open(self._path(key)) as fh:
                return json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def put(self, key, payload):
        if not self.enabled:
            return
        os.makedirs(self._dir(), exist_ok=True)
        with _Lock(self._path(key)):
            fd, tmp = tempfile.mkstemp(dir=self._dir(), suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(json.dumps(payload, sort_keys=True))
                os.replace(tmp, self._path(key))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)


def cache_gc(root, current_hash) -> dict:
    """Remove entries stored under stale rule-table hashes."""
    removed = 0
    kept = 0
    if not os.path.isdir(root):
        return {"removed": 0, "kept": 0}
    for name in sorted(os.listdir(root)):
        sub = os.path.join(root, name)
        if not os.path.isdir(sub):
            continue
        if name == current_hash:
            kept += sum(1 for f in os.listdir(sub) if f.endswith(".json"))
            continue
        for f in sorted(os.listdir(sub)):
            os.unlink(os.path.join(sub, f))
            if f.endswith(".json"):
                removed += 1
        os.rmdir(sub)
    return {"removed": removed, "kept": kept}
