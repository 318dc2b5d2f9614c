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

:class:`Recovery` holds the rules that judge and use such images for
one replica (the paper's §2.2 rebuild from stable queues): boot
recovery, capture and compaction, the survey a blank replica runs, the
acceptance rule for a peer's image and its install.  It holds no
socket, task or metric; the server runs the waits around its steps and
reports what they return.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any, Dict, List, Optional, Set, Tuple

from ..replica.mset import MSet, ProtocolError, decode_mset

__all__ = [
    "LOCAL_CHANNEL",
    "INSTALL",
    "CURRENT",
    "DIVERGED",
    "SURVEY",
    "Recovery",
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

#: the frontier name of the site's own channel: its replication log,
#: whose frontier doubles as the site's transaction-id counter.
LOCAL_CHANNEL = "_local"

#: :meth:`Recovery.judge`'s verdicts on a peer image.
INSTALL, CURRENT, DIVERGED = "install", "current", "diverged"
#: a blank boot's survey: not yet known whether this replica lost state.
SURVEY = "survey"


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
        #: ``(file identity, bytes)`` of the image :meth:`served_bytes`
        #: last verified.
        self._served: Optional[Tuple[Tuple[int, int, int], bytes]] = None

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

    def served_bytes(self) -> Optional[bytes]:
        """The verified envelope as shipped to a catching-up peer
        (:func:`snapshot_bytes` of :meth:`load_envelope`), or None.

        Read and verified once per version of the file: the bytes are
        kept under the file's ``(st_ino, st_size, st_mtime_ns)``, so
        every chunk of one pull slices the same bytes, and a capture
        between two chunks (an atomic rename: a new inode) changes what
        is served exactly as a re-read would.
        """
        try:
            st = self.path.stat()
        except OSError:
            return None
        version = (st.st_ino, st.st_size, st.st_mtime_ns)
        if self._served is not None and self._served[0] == version:
            return self._served[1]
        envelope = self.load_envelope()
        if envelope is None:
            return None
        data = snapshot_bytes(envelope)
        self._served = (version, data)
        return data

    def exists(self) -> bool:
        return self.path.exists()


class Recovery:
    """How one replica rebuilds its state from an image and its logs.

    One per replica (``ReplicaServer.recovery``), over the replica's
    engine and its channel logs.  ``state`` is the one
    recovery state: ``None`` while no recovery runs, :data:`SURVEY`
    while a blank boot asks its peers whether it had a former life, and
    :data:`INSTALL` once this replica knows it lost state and must
    install a peer's image.  While it is not ``None`` the replica
    refuses appends, strict reads and the snapshot verbs; only
    :data:`INSTALL` is degraded.
    """

    def __init__(
        self, site: str, method: str, path: pathlib.Path, engine: Any,
        log: Any, inboxes: Dict[str, Any], election: Any,
    ) -> None:
        self.site, self.method, self.engine = site, method, engine
        #: the replication log, the inboxes by peer (the replica's own
        #: dict: a peer that joins later is seen) and the sequencer
        #: whose fence every adopted image gets.
        self.log, self.inboxes, self.election = log, inboxes, election
        self.store = SnapshotStore(path)
        self.state: Optional[str] = None
        #: peers a boot survey heard from with no evidence, and the peer
        #: to install from first.
        self.clean: Set[str] = set()
        self.preferred: Optional[str] = None
        #: frontiers and time of the image last persisted or adopted.
        self.image_frontiers: Dict[str, int] = {}
        self.image_at: Optional[float] = None
        #: peer images installed since boot.
        self.installs = 0

    def frontiers(self, local: str = LOCAL_CHANNEL) -> Dict[str, int]:
        """Every channel's durable frontier: what each peer has
        delivered here and, under ``local``, what this site originated
        (the site's own name on the wire and in session tokens:
        ``_local`` is a disk-layout detail)."""
        frontiers = {src: box.frontier for src, box in self.inboxes.items()}
        frontiers[local] = self.log.assigned
        return frontiers

    def logs(self) -> List[Tuple[str, str, Any]]:
        """Each channel log as (channel, ``log`` metric label, log)."""
        return [(LOCAL_CHANNEL, "replication", self.log)] + [
            (src, "inbox/%s" % src, box) for src, box in self.inboxes.items()
        ]

    def stats(self, now: float) -> Dict[str, Any]:
        """The ``stats`` fields this state answers."""
        return {
            "inbox_frontier": self.frontiers(),
            "catching_up": self.state == INSTALL,
            "catchup_installs": self.installs,
            "snapshot": {
                "exists": self.store.exists(),
                "frontiers": dict(self.image_frontiers),
                "age": (
                    None if self.image_at is None
                    else round(now - self.image_at, 4)
                ),
            },
            "log_bases": {
                "inbox": {ch: box.base for ch, _, box in self.logs()},
                "outbox": dict.fromkeys(self.inboxes, self.log.base),
            },
        }

    def blank(self) -> bool:
        """Empty engine, empty logs, no image: a fresh cluster boot or a
        wiped disk, which only a survey can tell apart."""
        return (
            self.engine.applied_count == 0
            and not any(self.frontiers().values())
            and not self.store.exists()
        )

    # -- the image -------------------------------------------------------------

    def persist(self, frontiers: Dict[str, int], image: Dict[str, Any]) -> int:
        """Seal and save ``image`` at ``frontiers`` as this site's
        snapshot (the atomic rename is the commit point); returns its
        size in bytes."""
        return self.store.save(seal_snapshot({
            "site": self.site,
            "method": self.method,
            "frontiers": frontiers,
            "engine": image,
        }))

    def capture(self, now: float) -> Tuple[Dict[str, int], int]:
        """Persist the applied state: the engine image and every
        channel's frontier, read in one step — every record-then-apply
        is one step too — so they are one consistent cut."""
        frontiers = self.frontiers()
        size = self.persist(frontiers, self.engine.checkpoint())
        self.image_frontiers, self.image_at = dict(frontiers), now
        return frontiers, size

    def adopt(
        self, frontiers: Dict[str, int], image: Dict[str, Any], now: float
    ) -> None:
        """Make ``image`` at ``frontiers`` the applied state: restore the
        engine, move every log that lags the image up to it, fence.

        Logs at or above the image keep their tails, which replay skips
        by frontier; under :meth:`judge`'s install rule every move is
        upward, so nothing applied is rolled back."""
        self.engine.restore(image)
        mine = self.frontiers()
        for channel, _, box in self.logs():
            if mine[channel] < frontiers.get(channel, 0):
                box.reset_to(frontiers[channel])
        self.election.fence(self.engine)
        self.image_frontiers, self.image_at = dict(frontiers), now

    def install(
        self, frontiers: Dict[str, int], image: Dict[str, Any], now: float
    ) -> int:
        """Take a peer's image as this site's: persisted first, so a
        crash before the commit point keeps the old state and one after
        it boots into the image (:meth:`recover` moves any log that
        missed its move).  Returns the persisted size."""
        size = self.persist(frontiers, image)
        self.adopt(frontiers, image, now)
        self.installs += 1
        return size

    def compact(
        self, frontiers: Dict[str, int]
    ) -> List[Tuple[str, int, int]]:
        """Drop the log records the persisted image at ``frontiers``
        covers — the replication log never past its slowest cursor
        (``compact`` clamps).  Returns ``(label, through, dropped)`` for
        each log that dropped any."""
        cuts = []
        for channel, label, box in self.logs():
            through = int(frontiers.get(channel, 0))
            dropped = box.compact(through)
            if dropped:
                cuts.append((label, through, dropped))
        return cuts

    # -- boot ------------------------------------------------------------------

    def recover(self, now: float) -> None:
        """Adopt the persisted image, if it is this method's, then replay
        every log tail above its frontiers through the engine.

        Records a crash caught between persisting an image and
        compacting below it are skipped by frontier, so nothing applies
        twice.  Without an image this is a full replay."""
        floors: Dict[str, int] = {}
        body = self.store.load()
        if body is not None and body.get("method") == self.method:
            floors = {src: int(seq) for src, seq in body["frontiers"].items()}
            self.adopt(floors, body["engine"], now)
        else:
            self.election.fence(self.engine)
        engine, log = self.engine, self.log

        def logged(box: Any, seq: int, payload: Dict[str, Any]) -> MSet:
            try:
                return decode_mset(payload["mset"])
            except ProtocolError as exc:
                raise box.unreadable(seq, exc) from exc

        # The log's cursors say which local updates every peer already
        # held before the crash and which are still owed to someone.
        floor = floors.get(LOCAL_CHANNEL, 0)
        acked = log.released_hi
        released: List[Tuple[Any, Tuple[str, ...]]] = []
        held: List[MSet] = []
        for seq, payload in log.replay():
            if seq <= floor and seq <= acked:
                continue  # inside the image, owed to nobody
            mset = logged(log, seq, payload)
            if seq <= floor:
                held.append(mset)
                continue
            if seq <= acked:
                released.append((mset.tid, mset.keys))
            engine.accept(mset, local=True)
        for src, box in sorted(self.inboxes.items()):
            floor = floors.get(src, 0)
            for seq, payload in box.replay():
                if seq > floor:
                    engine.accept(logged(box, seq, payload), local=False)
        # Fully acknowledged before the crash: release the lock-counters
        # replay re-raised.  The inverse hole — local updates inside the
        # image still awaiting a peer's ack — re-raises them, so origin
        # queries keep seeing the cluster-wide in-flight inconsistency.
        engine.fully_acked_many(released)
        for mset in held:
            engine.hold_counters(mset)

    # -- the recovery state ----------------------------------------------------

    def enter(self, reason: str, preferred: Optional[str] = None) -> bool:
        """A recovery trigger.  Returns True when it starts a recovery —
        a survey for ``boot``, an install for every other reason — and
        False when the running one absorbs it as evidence."""
        if self.state is not None:
            self.evidence(preferred)
            return False
        self.state = SURVEY if reason == "boot" else INSTALL
        self.clean, self.preferred = set(), preferred
        return True

    def evidence(self, peer: Optional[str]) -> None:
        """Proof that this replica had a former life: a running survey
        must install, from ``peer`` first.  Outside a survey, nothing."""
        if self.state == SURVEY:
            self.state, self.preferred = INSTALL, peer

    def leave(self) -> None:
        """The running recovery ended, installed or not."""
        self.state = None

    def survey(
        self, replies: Dict[str, Dict[str, Any]]
    ) -> Optional[Tuple[List[str], int]]:
        """Decide one survey round over the peers' replies to the
        ``stats`` verb.

        A boot survey finds a former life in a peer durably holding
        updates from this site, or a peer channel this site once
        acknowledged; it concludes fresh (returns None) only once every
        peer has answered without either — there is no deadline, so a
        wiped replica cut off from its peers keeps refusing rather than
        reuse the tids of that life.  Otherwise returns the peers to
        install from, best first, and the local frontier an image must
        reach: the highest tid any answering peer holds from this site.
        Raises ``ConnectionError`` while that cannot be decided yet."""
        me = self.site
        answers = {peer: r.get("stats", {}) for peer, r in replies.items()}
        held = {
            peer: int(stats.get("inbox_frontier", {}).get(me, 0))
            for peer, stats in answers.items()
        }
        if self.state == SURVEY:
            for peer, stats in answers.items():
                acked = int(stats.get("ack_high_water", {}).get(me, 0))
                if held[peer] or acked:
                    self.evidence(peer)
                    break
                self.clean.add(peer)
            else:
                missing = sorted(set(self.inboxes) - self.clean)
                if not missing:
                    return None
                raise ConnectionError(
                    "no survey answer yet from %s" % ",".join(missing)
                )
        if not answers:
            raise ConnectionError("no reachable peer to catch up from")

        def rank(peer: str) -> Tuple[bool, int, int]:
            frontiers = answers[peer].get("inbox_frontier", {})
            return (
                peer == self.preferred,
                held[peer],
                sum(int(seq) for seq in frontiers.values()),
            )

        return (
            sorted(answers, key=rank, reverse=True),
            max([*held.values(), self.log.assigned]),
        )

    # -- a peer's image --------------------------------------------------------

    def receive(
        self, source: str, raw: str, total: int
    ) -> Tuple[Dict[str, Any], Dict[str, int]]:
        """Check a pulled image is whole, this method's and taken at
        ``source``; return its engine image and its frontiers in this
        site's channel names.  Raises :class:`SnapshotError`."""
        if len(raw) != total:
            raise SnapshotError(
                "snapshot fetch from %s truncated (%d of %d bytes)"
                % (source, len(raw), total)
            )
        body = open_snapshot(json.loads(raw))
        for field, want in (("method", self.method), ("site", source)):
            if body.get(field) != want:
                raise SnapshotError(
                    "snapshot from %s has %s %r"
                    % (source, field, body.get(field))
                )
        return body["engine"], self.translate(source, body["frontiers"])

    def translate(
        self, source: str, frontiers: Dict[str, Any]
    ) -> Dict[str, int]:
        """Re-index ``source``'s frontiers into this site's channels.

        The source's ``_local`` channel is our inbound channel from it,
        and its channel for us carries our own updates, so it becomes
        our local frontier (and tid counter).  Channels to third peers
        keep their names; a source with this site's own name (a
        migration counterpart) shares its namespace: the identity."""
        swap = {} if source == self.site else {
            LOCAL_CHANNEL: self.site, source: LOCAL_CHANNEL,
        }
        return {
            channel: int(frontiers.get(swap.get(channel, channel), 0))
            for channel in self.frontiers()
        }

    def judge(self, frontiers: Dict[str, int], required: int = 0) -> str:
        """The one acceptance rule for a translated image.
        :data:`INSTALL` when it is at or ahead of this site on every
        channel — installing never rolls back applied state — and its
        local frontier reaches ``required`` (no fresh tid can collide
        with a former life's); else :data:`CURRENT` when it is at or
        behind everywhere, else :data:`DIVERGED`."""
        mine = self.frontiers()
        if frontiers.get(LOCAL_CHANNEL, 0) >= required and all(
            frontiers.get(ch, 0) >= seq for ch, seq in mine.items()
        ):
            return INSTALL
        if all(frontiers.get(ch, 0) <= seq for ch, seq in mine.items()):
            return CURRENT
        return DIVERGED
