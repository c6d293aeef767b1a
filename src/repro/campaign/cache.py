"""Content-addressed on-disk cache for campaign results.

Objects live at ``<root>/objects/<key[:2]>/<key>.json`` where ``key`` is
the spec's :meth:`cache_key` — SHA-256 over the salt plus the canonical
JSON of the spec payload.  The salt (:func:`repro.api.default_salt`)
folds in the package version and the results schema version, so a code
or schema bump invalidates every cached object at once without touching
the files.

Each object is self-describing and self-verifying::

    {"schema": 1, "key": ..., "salt": ..., "kind": "run"|"experiment",
     "spec": {...}, "payload": {...}, "checksum": sha256(payload-json)}

Integrity problems surface as ``CMP0xx`` findings through the analysis
registry's claim table (:func:`repro.analysis.registry.claim_codes`):

* ``CMP001`` — payload checksum mismatch (bit rot / truncated write);
* ``CMP002`` — object stored under a filename that is not its key;
* ``CMP003`` — object unreadable or structurally malformed.

A damaged object is never served: :meth:`ResultCache.get` records the
finding, treats the key as a miss, and the campaign runner recomputes
and overwrites it.

Writes take no lock.  :meth:`ResultCache.put` writes each object to a
temp file of its own beside it (``<key>.<uuid>.tmp``) and renames it
into place.  Objects are content-addressed and runs deterministic, so
two campaigns writing one key write equal bytes, and the rename is
atomic, so a reader sees the whole old object or the whole new one.
Temp names end in ``.tmp``; :meth:`~ResultCache.verify`,
:meth:`~ResultCache.gc` and :meth:`~ResultCache.stats` read only
``*.json`` objects.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..analysis.findings import Finding, Severity
from ..analysis.registry import claim_codes
from ..api.spec import canonical_json, default_salt
from ..errors import ConfigurationError

#: Layout version of one cache object file.
OBJECT_SCHEMA = 1

#: Stable finding codes for cache-integrity diagnostics.
CACHE_CODES = ("CMP001", "CMP002", "CMP003")

_PASS_NAME = "campaign-cache"

claim_codes(_PASS_NAME, CACHE_CODES)

_REQUIRED_KEYS = ("schema", "key", "salt", "kind", "spec", "payload",
                  "checksum")


def payload_checksum(payload: Dict[str, object]) -> str:
    """SHA-256 over the payload's canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _finding(code: str, message: str, *, path: Path,
             severity: Severity = Severity.WARNING) -> Finding:
    return Finding(
        pass_name=_PASS_NAME, severity=severity, code=code,
        message=message, subject=path.name, location=str(path),
    )


class ResultCache:
    """Content-addressed result store with integrity verification."""

    def __init__(self, root: Union[str, Path], *,
                 salt: Optional[str] = None) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ConfigurationError(
                f"cache dir {self.root} exists and is not a directory"
            )
        self.salt = salt if salt is not None else default_salt()
        self.hits = 0
        self.misses = 0
        #: integrity findings recorded by get() misses this session
        self.findings: List[Finding] = []

    # -- object addressing -------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def _iter_object_paths(self) -> List[Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.json"))

    # -- read / write ------------------------------------------------------

    def _load_object(self, path: Path
                     ) -> Tuple[Optional[Dict[str, object]],
                                Optional[Finding]]:
        try:
            obj = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            return None, _finding(
                "CMP003", f"unreadable cache object: {error}", path=path)
        if not isinstance(obj, dict) or any(
                k not in obj for k in _REQUIRED_KEYS):
            return None, _finding(
                "CMP003", "malformed cache object (missing keys)",
                path=path)
        if obj["schema"] != OBJECT_SCHEMA:
            return None, _finding(
                "CMP003",
                f"unsupported cache object schema {obj['schema']!r}",
                path=path)
        if path.stem != obj["key"]:
            return None, _finding(
                "CMP002",
                f"object filed under {path.stem[:12]}... but claims key "
                f"{str(obj['key'])[:12]}...",
                path=path)
        if payload_checksum(obj["payload"]) != obj["checksum"]:
            return None, _finding(
                "CMP001", "payload checksum mismatch", path=path)
        return obj, None

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached payload for ``key``, or ``None`` (a miss).

        Misses on absent objects, on any integrity violation (recorded
        in :attr:`findings`), and on salt mismatch (stale code version).
        """
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        obj, finding = self._load_object(path)
        if obj is None:
            self.findings.append(finding)
            self.misses += 1
            return None
        if obj["salt"] != self.salt:
            self.misses += 1
            return None
        self.hits += 1
        return obj["payload"]

    def put(self, key: str, *, kind: str, spec: Dict[str, object],
            payload: Dict[str, object]) -> Path:
        """Store one result through a temp file of this call's own.

        The temp file is created like any file the process writes (mode
        ``0o666`` less the umask, where :func:`tempfile.mkstemp` would
        give ``0o600`` and lock other users out of a shared cache) and
        is removed if the write fails.
        """
        obj = {
            "schema": OBJECT_SCHEMA,
            "key": key,
            "salt": self.salt,
            "kind": kind,
            "spec": spec,
            "payload": payload,
            "checksum": payload_checksum(payload),
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{key}.{uuid.uuid4().hex}.tmp")
        try:
            with open(tmp, "x") as handle:
                handle.write(json.dumps(obj, indent=2, sort_keys=True))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    # -- maintenance -------------------------------------------------------

    def verify(self) -> List[Finding]:
        """Integrity-check every stored object; returns the findings."""
        findings: List[Finding] = []
        for path in self._iter_object_paths():
            _, finding = self._load_object(path)
            if finding is not None:
                findings.append(finding)
        return findings

    def gc(self) -> Dict[str, int]:
        """Remove corrupt objects and objects from other salts.

        Returns removal counts; the surviving set is exactly the objects
        the current code version can serve.
        """
        removed_corrupt = 0
        removed_stale = 0
        kept = 0
        for path in self._iter_object_paths():
            obj, finding = self._load_object(path)
            if finding is not None:
                path.unlink()
                removed_corrupt += 1
            elif obj["salt"] != self.salt:
                path.unlink()
                removed_stale += 1
            else:
                kept += 1
        return {"removed_corrupt": removed_corrupt,
                "removed_stale": removed_stale, "kept": kept}

    def stats(self) -> Dict[str, object]:
        """Object counts/bytes on disk plus this session's hit counters."""
        paths = self._iter_object_paths()
        by_salt: Dict[str, int] = {}
        total_bytes = 0
        for path in paths:
            total_bytes += path.stat().st_size
            obj, _ = self._load_object(path)
            if obj is not None:
                label = ("current" if obj["salt"] == self.salt
                         else "stale")
                by_salt[label] = by_salt.get(label, 0) + 1
        return {
            "root": str(self.root),
            "objects": len(paths),
            "bytes": total_bytes,
            "by_salt": by_salt,
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_findings": len(self.findings),
        }
