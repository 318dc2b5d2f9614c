"""Versioned, checksummed site snapshots for the live runtime.

A snapshot is a self-describing image of one replica's applied state:
the engine checkpoint (store values with their RITU write stamps,
method-specific apply state) plus the per-channel applied frontiers
that position the image against every durable log.  Together with the
log tails above those frontiers it reconstructs the exact pre-crash
state — which is what licenses log compaction below the snapshot
frontier and bounded-time rejoin of a wiped replica (catch-up fetches
a peer's snapshot instead of replaying the peer's entire history).

Format: the body is encoded once, by the live codec, and the file is
an *envelope* spliced around those bytes,
``{"version":4,"checksum":"<sha256 hex>","body":<body bytes>}`` and a
newline, where the checksum covers exactly the body bytes.  So the
image is verified by slicing its body out and hashing it, and served
to a peer as the file's bytes.  The file is pure ASCII (a non-ASCII
character is escaped): a pull's chunks are ASCII-decoded slices.  A
version-3 file, whose checksum covers the canonical stdlib encoding
(sorted keys, no whitespace) of the parsed body, still opens.  The
body carries ``site``, ``method``, ``frontiers`` (channel name ->
applied seq, including the local ``_local`` channel, whose frontier
doubles as the site's transaction-id counter) and ``engine`` (the
:meth:`~repro.live.engine.LiveEngine.checkpoint` image).

Persistence is atomic: :class:`SnapshotStore` writes to a temporary
file, fsyncs it, atomically renames over the live snapshot, and
fsyncs the directory — a crash at any instant leaves either the
previous complete snapshot or the new complete one, never a torn
file.  :meth:`SnapshotStore.load` verifies version and checksum and
returns ``None`` for anything unreadable, so a corrupt or torn
snapshot degrades to "no snapshot" (full log replay) instead of
installing garbage — unless a log was compacted below it, which
:meth:`Recovery.recover` refuses to boot from.

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

from ..replica.mset import MSet, ProtocolError, decode_payloads
from .protocol import _encode, loads

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
    "SnapshotStore",
    "write_atomic",
    "fsync_dir",
]

#: 2: operations inside engine checkpoints are positional arrays.
#: 3: a COMPE checkpoint carries its operation log (``compe.log``),
#: not undo steps (``compe.undo``).
#: 4: the envelope is spliced around the body's one encode, and the
#: checksum covers exactly those bytes.
SNAPSHOT_VERSION = 4

#: a version-4 file's bytes before its checksum, and between the
#: checksum (64 hex digits) and the body.
_HEAD = b'{"version":%d,"checksum":"' % SNAPSHOT_VERSION
_BODY = b'","body":'
#: where that checksum ends, and where the body begins.
_SUM_END = len(_HEAD) + 64
_BODY_AT = _SUM_END + len(_BODY)

#: the frontier name of the site's own channel: its replication log,
#: whose frontier doubles as the site's transaction-id counter.
LOCAL_CHANNEL = "_local"

#: :meth:`Recovery.judge`'s verdicts on a peer image.
INSTALL, CURRENT, DIVERGED = "install", "current", "diverged"
#: a blank boot's survey: not yet known whether this replica lost state.
SURVEY = "survey"


class SnapshotError(RuntimeError):
    """A snapshot image failed validation (version/checksum/shape)."""


def _body_bytes(body: Dict[str, Any]) -> bytes:
    """The one encode of an image body: the codec's bytes
    (:func:`~repro.live.protocol._encode`, which keeps an overflowed
    value as ``Infinity``), or — for a body they cannot be, one holding
    a non-ASCII character or an integer wider than 64 bits — the
    stdlib's with every non-ASCII character escaped, so that a file is
    always pure ASCII."""
    try:
        data = _encode(body)
        if data.isascii():
            return data
    except TypeError:
        pass
    return json.dumps(body, separators=(",", ":")).encode("ascii")


def seal_snapshot(body: Dict[str, Any]) -> bytes:
    """The image file of ``body``: its bytes encoded once, the checksum
    over exactly those bytes, the envelope spliced around them."""
    data = _body_bytes(body)
    return b"%s%s%s%s}\n" % (
        _HEAD, hashlib.sha256(data).hexdigest().encode("ascii"), _BODY, data,
    )


def _v3_body(data: bytes) -> Dict[str, Any]:
    """A version-3 image's body under its own rule: the whole file
    parsed, the checksum over the body's canonical encoding."""
    envelope = json.loads(data.decode("utf-8"))
    if not isinstance(envelope, dict):
        raise SnapshotError("snapshot envelope is not an object")
    version = envelope.get("version")
    if version != 3:
        raise SnapshotError("unsupported snapshot version %r" % (version,))
    body = envelope.get("body")
    if not isinstance(body, dict):
        raise SnapshotError("snapshot body missing or malformed")
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(canonical.encode("utf-8")).hexdigest() != (
        envelope.get("checksum")
    ):
        raise SnapshotError(
            "snapshot checksum mismatch (corrupt or torn image)"
        )
    return body


def open_snapshot(data: bytes) -> Dict[str, Any]:
    """Verify an image file's bytes and return its body.

    A version-4 image is verified by slicing out its body bytes and
    hashing them; only then are they parsed.  Anything else is read
    under the version-3 rule, which refuses every other version.
    Raises :class:`SnapshotError` on an unknown version, a checksum
    mismatch, or a structurally alien image — an image that fails here
    must be treated as absent, never installed.
    """
    try:
        if data.startswith(_HEAD) and data.endswith(b"}\n") and (
            data[_SUM_END:_BODY_AT] == _BODY
        ):
            raw = data[_BODY_AT:-2]
            if hashlib.sha256(raw).hexdigest().encode("ascii") != (
                data[len(_HEAD):_SUM_END]
            ):
                raise SnapshotError(
                    "snapshot checksum mismatch (corrupt or torn image)"
                )
            body = loads(raw)
        else:
            body = _v3_body(data)
    except ValueError as exc:  # undecodable bytes or text
        raise SnapshotError("snapshot image unreadable: %s" % exc) from exc
    if not isinstance(body, dict):
        raise SnapshotError("snapshot body missing or malformed")
    for field in ("site", "method", "frontiers", "engine"):
        if field not in body:
            raise SnapshotError("snapshot body lacks %r" % field)
    return body


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


def _file_version(st: os.stat_result) -> Tuple[int, int, int]:
    """A file version: a rename over the path is a new inode."""
    return st.st_ino, st.st_size, st.st_mtime_ns


class SnapshotStore:
    """Atomic persistence for one site's snapshot file."""

    def __init__(self, path: pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: ``(file identity, bytes)`` of the image :meth:`served_bytes`
        #: serves: the one :meth:`save` wrote, or last verified.
        self._served: Optional[Tuple[Tuple[int, int, int], bytes]] = None

    def save(self, data: bytes) -> int:
        """Persist an image file's bytes (:func:`seal_snapshot`)
        atomically (temp + fsync + rename); returns their size.  The
        bytes are served from here on as they were written, under the
        new file's identity: serving them reads nothing back."""
        write_atomic(self.path, data)
        self._served = (_file_version(self.path.stat()), data)
        return len(data)

    def load(self) -> Optional[Dict[str, Any]]:
        """The persisted, *verified* snapshot body, or None.

        Any failure mode — missing file, torn write that survived the
        atomic-rename discipline being bypassed, checksum mismatch,
        alien version — reads as "no snapshot"; :meth:`Recovery.recover`
        then replays the logs in full, or refuses to boot when a log
        was compacted below the image it cannot read.
        """
        read = self.read()
        return None if read is None else read[1]

    def read(self) -> Optional[Tuple[bytes, Dict[str, Any]]]:
        """The file's bytes and its verified body, or None."""
        try:
            data = self.path.read_bytes()
        except OSError:
            return None
        try:
            return data, open_snapshot(data)
        except SnapshotError:
            return None

    def served_bytes(self) -> Optional[bytes]:
        """The verified file, as its bytes are, for a catching-up peer;
        or None.

        Read and verified once per version of the file this store did
        not write itself (:meth:`save` keeps what it wrote): the bytes are
        kept under the file's ``(st_ino, st_size, st_mtime_ns)``, so
        every chunk of one pull slices the same bytes, and a capture
        between two chunks (an atomic rename: a new inode) changes what
        is served exactly as a re-read would.
        """
        try:
            st = self.path.stat()
        except OSError:
            return None
        version = _file_version(st)
        if self._served is not None and self._served[0] == version:
            return self._served[1]
        read = self.read()
        if read is None:
            return None
        self._served = (version, read[0])
        return read[0]

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
        twice.  Without an image this is a full replay — unless a log
        was compacted, whose dropped records only the image held: then
        this raises :class:`SnapshotError`, naming the image and the
        floors, and nothing is applied."""
        floors: Dict[str, int] = {}
        body = self.store.load()
        if body is not None and body.get("method") == self.method:
            floors = {src: int(seq) for src, seq in body["frontiers"].items()}
            self.adopt(floors, body["engine"], now)
        else:
            compacted = {
                label: box.base for _, label, box in self.logs() if box.base
            }
            if compacted:
                raise SnapshotError(
                    "%s: no %s image opens, but logs were compacted below "
                    "one (floors %s): booting would lose every record they "
                    "dropped" % (self.store.path, self.method, compacted)
                )
            self.election.fence(self.engine)
        engine, log = self.engine, self.log

        def logged(box: Any, origin: str, seq: int, payload: Any) -> MSet:
            try:
                return decode_payloads(origin, seq, (payload,))[0]
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
            mset = logged(log, self.site, seq, payload)
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
                    engine.accept(
                        logged(box, src, seq, payload), local=False
                    )
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
        try:
            data = raw.encode("ascii")
        except UnicodeEncodeError as exc:
            raise SnapshotError(
                "snapshot from %s is not ASCII" % source
            ) from exc
        body = open_snapshot(data)
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
