"""Result cache, one JSON file per entry.

A key is the canonical JSON text of the presentation, the oracle spec,
the operation name, its parameters and the tool version, so a version
bump or any input change is a clean miss.  An entry is filed under the
CRC-32 of its key and stores the key beside its payload; a hit is an
entry whose stored key equals the requested one, so keys that share a
bucket, a copied file or an entry in another format are misses, never a
wrong payload.  Hits return the stored payload verbatim, which keeps
warm and cold runs byte-identical.  Entries are written to a temporary
file and renamed into place, so readers never see a half-written entry;
an entry that still cannot be read or decoded is a miss and is
recomputed.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

__all__ = ["ResultCache"]


class ResultCache:
    def __init__(self, directory: str | Path | None):
        """Caching is off without a directory.  A directory is made here if
        missing; one that cannot be made or written raises ValueError."""
        self.directory = Path(directory) if directory else None
        if self.directory is None:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            pass  # reported below, naming the directory
        if not (self.directory.is_dir() and os.access(self.directory, os.W_OK | os.X_OK)):
            raise ValueError(f"cache directory {str(directory)!r} is not a writable directory")

    @staticmethod
    def make_key(**parts) -> str:
        return json.dumps(parts, sort_keys=True, separators=(",", ":"))

    def _path(self, key: str) -> Path:
        return self.directory / f"{zlib.crc32(key.encode('utf-8')):08x}.json"

    def get(self, key: str):
        if self.directory is None:
            return None
        try:
            entry = json.loads(self._path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError):  # RecursionError: nested too deeply to decode
            return None
        if isinstance(entry, dict) and entry.get("key") == key:
            return entry.get("payload")
        return None

    def put(self, key: str, payload) -> None:
        if self.directory is None:
            return
        path = self._path(key)
        # One temporary name per process, so concurrent writers never share it.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            entry = {"key": key, "payload": payload}
            tmp.write_text(json.dumps(entry, indent=2, sort_keys=False) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
