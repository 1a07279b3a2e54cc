"""Content-addressed result cache, one JSON file per entry.

Keys hash the canonical presentation text, the oracle spec, the
operation name, its parameters and the tool version, so a version bump
or any input change is a clean miss.  Hits return the stored payload
verbatim, which keeps warm and cold runs byte-identical.  Entries are
written to a temporary file and renamed into place, so readers never see
a half-written entry; an entry that still cannot be read or decoded is a
miss and is recomputed.
"""

from __future__ import annotations

import json
import os
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

    @property
    def enabled(self) -> bool:
        return self.directory is not None

    @staticmethod
    def make_key(**parts) -> str:
        import hashlib  # here, not at the top: it loads OpenSSL, which only dehn's keys need

        canonical = json.dumps(parts, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str):
        if not self.enabled:
            return None
        try:
            return json.loads(self._path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError):  # RecursionError: nested too deeply to decode
            return None

    def put(self, key: str, payload) -> None:
        if not self.enabled:
            return
        path = self._path(key)
        # One temporary name per process, so concurrent writers never share it.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
