"""Content-addressed on-disk cache for deterministic CLI results.

Keys are sha256 hashes of the canonical JSON of (command, Cartan matrix,
parameters, code version, digest of the package sources); payloads are the
exact result objects.  Writes go through a temporary file named after the
process and an atomic rename, so concurrent invocations can only ever
observe complete entries.  An unwritable or corrupted cache is never a hard
failure: the computation simply proceeds without it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from functools import lru_cache

from . import __version__

DEFAULT_DIR = ".silc-cache"
ENV_VAR = "SILC_CACHE"


def cache_dir() -> str:
    return os.environ.get(ENV_VAR, DEFAULT_DIR)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 of the package's .py sources, so edited code never reads
    entries written by other code under the same version.

    Every module is hashed, also the ones the running subcommand never
    imports: a job's result may depend on any module, and this keeps the
    key from having to know which."""
    h = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode("utf-8") + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def cache_key(command: str, cartan_entries, parameters) -> str:
    payload = {
        "version": __version__,
        "source": source_digest(),
        "command": command,
        "cartan": [list(row) for row in cartan_entries],
        "parameters": parameters,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _entry_path(key: str) -> str:
    return os.path.join(cache_dir(), key + ".json")


def load(key: str):
    """The cached payload for the key, or None (missing, stale, corrupt)."""
    path = _entry_path(key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(entry, dict) or entry.get("key") != key:
        return None
    return entry.get("payload")


def store(key: str, payload) -> None:
    """Write the payload atomically; warn and skip on unwritable targets."""
    path = _entry_path(key)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(cache_dir(), exist_ok=True)
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"key": key, "payload": payload}, fh, sort_keys=True)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        print(f"warning: cache bypassed ({exc})", file=sys.stderr)
