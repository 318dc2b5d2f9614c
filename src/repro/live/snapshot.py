"""Versioned, checksummed site snapshots for the live runtime.

A snapshot is a self-describing image of one replica's applied state:
the engine checkpoint (store values with their RITU write stamps,
method-specific apply state) plus the per-channel applied frontiers
that position the image against every durable log.  Together with the
log tails above those frontiers it reconstructs the exact pre-crash
state — which is what licenses log compaction below the snapshot
frontier and bounded-time rejoin of a wiped replica (catch-up fetches
a peer's snapshot instead of replaying the peer's entire history).

Format: an *envelope* ``{"version": 3, "checksum": <sha256 hex>,
"body": {...}}`` where the checksum covers the canonical JSON
encoding (sorted keys, no whitespace) of the body.  The body carries
``site``, ``method``, ``frontiers`` (channel name -> applied seq,
including the local ``_local`` channel, whose frontier doubles as the
site's transaction-id counter) and ``engine`` (the
:meth:`~repro.live.engine.LiveEngine.checkpoint` image).

Persistence is atomic: :class:`SnapshotStore` writes to a temporary
file, fsyncs it, atomically renames over the live snapshot, and
fsyncs the directory — a crash at any instant leaves either the
previous complete snapshot or the new complete one, never a torn
file.  :meth:`SnapshotStore.load` verifies version and checksum and
returns ``None`` for anything unreadable, so a corrupt or torn
snapshot degrades to "no snapshot" (full log replay) instead of
installing garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any, Dict, Optional

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "seal_snapshot",
    "open_snapshot",
    "snapshot_bytes",
    "SnapshotStore",
    "write_atomic",
    "fsync_dir",
]

#: 2: operations inside engine checkpoints are positional arrays.
#: 3: a COMPE checkpoint carries its operation log (``compe.log``),
#: not undo steps (``compe.undo``).
SNAPSHOT_VERSION = 3


class SnapshotError(RuntimeError):
    """A snapshot envelope failed validation (version/checksum/shape)."""


def _canonical(body: Dict[str, Any]) -> bytes:
    return json.dumps(
        body, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def seal_snapshot(body: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap a snapshot body in a versioned, checksummed envelope."""
    return {
        "version": SNAPSHOT_VERSION,
        "checksum": hashlib.sha256(_canonical(body)).hexdigest(),
        "body": body,
    }


def open_snapshot(envelope: Dict[str, Any]) -> Dict[str, Any]:
    """Validate an envelope and return its body.

    Raises :class:`SnapshotError` on unknown version, checksum
    mismatch, or a structurally alien envelope — a snapshot that
    fails here must be treated as absent, never installed.
    """
    if not isinstance(envelope, dict):
        raise SnapshotError("snapshot envelope is not an object")
    version = envelope.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError("unsupported snapshot version %r" % (version,))
    body = envelope.get("body")
    if not isinstance(body, dict):
        raise SnapshotError("snapshot body missing or malformed")
    digest = hashlib.sha256(_canonical(body)).hexdigest()
    if digest != envelope.get("checksum"):
        raise SnapshotError(
            "snapshot checksum mismatch (corrupt or torn image)"
        )
    for field in ("site", "method", "frontiers", "engine"):
        if field not in body:
            raise SnapshotError("snapshot body lacks %r" % field)
    return body


def snapshot_bytes(envelope: Dict[str, Any]) -> bytes:
    """The serialized form persisted to disk / shipped over the wire."""
    return (
        json.dumps(envelope, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def fsync_dir(directory: pathlib.Path) -> None:
    """Persist a rename in ``directory``'s metadata."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; rename still atomic
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_atomic(path: pathlib.Path, data: bytes) -> None:
    """Replace ``path``'s contents durably: temp file + fsync + rename
    + directory fsync.  A crash at any instant leaves the complete old
    file or the complete new one; on return the new one is on disk."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


class SnapshotStore:
    """Atomic persistence for one site's snapshot file."""

    def __init__(self, path: pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def save(self, envelope: Dict[str, Any]) -> int:
        """Persist atomically (temp + fsync + rename); returns bytes."""
        data = snapshot_bytes(envelope)
        write_atomic(self.path, data)
        return len(data)

    def load(self) -> Optional[Dict[str, Any]]:
        """The persisted, *verified* snapshot body, or None.

        Any failure mode — missing file, torn write that survived the
        atomic-rename discipline being bypassed, checksum mismatch,
        alien version — reads as "no snapshot": recovery then falls
        back to full log replay, which is always correct.
        """
        envelope = self.load_envelope()
        return None if envelope is None else envelope["body"]

    def load_envelope(self) -> Optional[Dict[str, Any]]:
        """The persisted envelope (verified), or None — for shipping
        to a catching-up peer without re-sealing."""
        try:
            raw = self.path.read_bytes()
        except OSError:
            return None
        try:
            envelope = json.loads(raw.decode("utf-8"))
            open_snapshot(envelope)  # validate before serving it
            return envelope
        except (UnicodeDecodeError, json.JSONDecodeError, SnapshotError):
            return None

    def exists(self) -> bool:
        return self.path.exists()
