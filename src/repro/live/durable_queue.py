"""File-backed durable stable queues for the live runtime.

The live analogue of :mod:`repro.sim.stable_queue`: the paper factors
message loss out of replica control by giving every channel an
at-least-once, persistently-retried queue; here the persistence is a
real append-only JSONL log on disk, so queue contents survive process
restarts (Ravishankar-style asynchronous checkpointing of the channel
state).

An update ET produces *one* MSet that the stable queues deliver to
every replica, and the logs have that shape — one at the origin, one
at each receiver:

* :class:`DurableOutbox` — the origin's replication log, one per
  replica.  ``append`` assigns the next sequence number and durably
  logs the payload **once**, *before* the caller acknowledges anything
  to a client; every peer is a *cursor* into that log — the highest
  sequence number it has cumulatively acknowledged.  The records
  ``(slowest cursor, _seq]`` are held, once, in an index-addressable
  window all cursors share, so ``pending_after(peer, ...)`` costs its
  own length at any cursor and ``ack_through(peer, seq)`` costs what
  it releases — neither depends on how far another peer has fallen
  behind.  A record the slowest cursor passes is acknowledged by every
  peer: ``ack_through`` hands back what its full ack releases, exactly
  once (``released_hi`` is monotone, so a later rewind never releases
  it again).  A held record is kept as its wire bytes plus that
  release — what the caller's ``release`` function makes of the
  payload, which an appender that already holds it passes along — and
  never as the payload itself.  After a restart everything past a
  cursor is owed to that peer again.
* :class:`DurableInbox` — the receiver's half of one (src, dst)
  channel.  ``record`` / ``record_many`` durably log received
  payloads and deduplicate by sequence number (the channel is FIFO,
  so a contiguous frontier suffices).  The running inbox is two
  integers (frontier and floor): it keeps no copy of what it has
  logged.

``replay`` (both) streams every logged payload above the compaction
floor in order, from the file, for crash recovery.

Group commit: ``append_many`` / ``record_many`` coalesce a whole
batch of records into a *single* write + flush, and
:meth:`~_DurableLog.sync` is the one place a log is fsynced: a write
leaves the log ``dirty`` and ``sync`` issues a covering fsync if — and
only if — it is.  So the per-record durability cost is paid once per
batch instead of once per MSet, and however many appends precede one
``sync`` share its fsync.

Written is not yet durable: before anything appended here is
acknowledged upstream (a channel ack to the sending peer, a commit ack
to a client, an order token to its requester) the caller must invoke
``sync``.  Without that, a receiver could ack a batch, the sender
would move its cursor, and a crash of the receiver would lose the
batch from both ends: an acknowledged update gone.  ``sync`` is a
no-op when ``fsync=False`` (explicitly non-durable mode: nothing is
ever dirty).

Observability: every log tracks ``fsync_count``, ``fsync_seconds``
(cumulative fsync latency) and ``bytes_written``; the server mirrors
them into the metrics registry at scrape time.

The application-visible contract is exactly-once FIFO per channel:
at-least-once retries on the sender plus frontier dedup on the
receiver.

Log format vs wire format: the record format here is **always** JSON
lines — one ``{"seq": N, "payload": {...}}`` object per line — while
the peer channel carries the same payloads in binary frames
(:mod:`repro.live.protocol`).
That split is deliberate: logs stay greppable, debuggable, and
readable by any build, while the wire is free to evolve.  The two
formats meet at the *canonical payload blob* (the compact JSON bytes
of one payload): when the caller already holds that blob — computed
once when an update enters the system — ``append``/``record`` splice
it into the log line verbatim instead of re-serializing the payload,
producing a line byte-identical to the codec's own encoding of the
record.  The blob also rides binary wire frames unchanged, so one
encode covers every hop and every log.  The replication log's window
holds every owed record as its blob — the one handed in, or encoded
once when a record is appended without one or comes back from the
file (a restart, a rewind) — and :meth:`DurableOutbox.pending_after`
hands out a run of them, ``(first seq, blobs)``, which is what lets a
sender re-send from its log without re-encoding either.  A run of
lines is rendered by one ``%`` over the repeated line template, in
either log.

The cursors live in the log stream: each advance appends one
``{"meta": "ack", "peer": P, "seq": N}`` line to the open log (write
+ flush, never an fsync of its own, no second file), a rewind emits
the same marker, and on reload the last marker per peer wins.  A
crash may lose the newest markers and nothing else: a reloaded cursor
is then a lower bound, the receiver's dedup absorbs the re-sent
records and its next cumulative ack retires them again.  A cursor is
created by a marker too (``add_cursor``, at the end of the log), so
its first marker precedes every record the peer is owed and a reload
trims the window as it reads.

Compaction: ``compact(through_seq)`` (both) is a tail-verified rewrite
that drops every record at or below ``through_seq`` once a persisted
site snapshot covers them (one shared path, ``_compact_log``, which
filters the file on each line's ``{"seq":N,`` prefix and copies
surviving lines byte for byte).  It reads only what it may keep: each
group of data lines a log writes marks its first seq and byte offset,
so the filter seeks to the last mark at or below ``through_seq + 1``
— at a cut through the last record, the file's end — and counts every
line before it as dropped.  The rewritten log opens with a
``{"meta": "base", "base": N}`` record so a reload knows the log
starts above ``N``; the rewrite goes to a temporary file that is
fsynced, re-parsed (tail verification), and atomically renamed over
the live log, so a crash at any instant leaves either the complete old
log or the complete new one.  ``base`` is the compaction floor: the
replication log never compacts past its slowest cursor and can no
longer serve records at or below the floor (a receiver that regressed
past it needs a snapshot, not a log replay); an inbox treats the floor
as its replay origin.  A rewritten replication log carries one ack
marker per cursor, right after the floor marker, in place of all
earlier ones.

Crash tails: a reload stops at the first torn (no newline),
undecodable or structurally wrong line and cuts the file there before
reopening it for append.  Loaders skip ``meta`` kinds they do not know.

:class:`ControlLog` puts election promises and adoptions, the ORDUP
order-token counter and member records on the same primitive: a line
per change, folded on reload, rewritten to the fold at compaction.
"""

from __future__ import annotations

import logging
import os
import pathlib
import time
from bisect import bisect_right
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple
)

from ..replica.sequencer import SequencerLog
from .gossip import NodeRecord
from .protocol import ProtocolError, encode_line, loads, payload_blob
from .snapshot import fsync_dir

__all__ = ["DurableOutbox", "DurableInbox", "ControlLog"]

logger = logging.getLogger(__name__)

_SEQ_PREFIX = b'{"seq":'
#: marks a log keeps before its oldest thin out (:meth:`_DurableLog.
#: _write_records`): a bound on memory, not on the file.
_MARKS = 256
_bound_of = itemgetter(0)
#: one data record's log line, around its seq and its payload's blob.
_LINE = b'{"seq":%d,"payload":%s}\n'
#: a window entry's wire blob, and its release.
_blob_of = itemgetter(0)
_release_of = itemgetter(1)


def _record_line(seq: int, payload: Any, blob: Optional[bytes]) -> bytes:
    """One data-record log line, spliced around ``blob`` when given.

    ``blob`` must be the payload's canonical encoding
    (:func:`~repro.live.protocol.payload_blob`), which makes the
    spliced line byte-identical to the codec's own encoding of
    ``{"seq": seq, "payload": payload}`` — the log stays plain JSONL
    under a binary wire.
    """
    if blob is None:
        return encode_line({"seq": seq, "payload": payload})
    return _LINE % (seq, blob)


def _record_lines(first: int, blobs: Sequence[bytes]) -> bytes:
    """:func:`_record_line` of each of ``blobs``, numbered ``first``
    onwards, as one buffer: one ``%`` over the line template repeated,
    its arguments slice-assigned — no line object per record."""
    count = len(blobs)
    args: List[Any] = [None] * (2 * count)
    args[0::2] = range(first, first + count)
    args[1::2] = blobs
    return _LINE * count % tuple(args)


def _ack_marker(peer: str, seq: int) -> Dict[str, Any]:
    """The control record that carries one peer's cursor."""
    return {"meta": "ack", "peer": peer, "seq": seq}


def _parse_line(line: bytes) -> Optional[Dict[str, Any]]:
    """The record on one log line, or None when it is not an intact
    one.  A record and its newline go out in one write: a line without
    one never completed, even if it parses."""
    if not line.endswith(b"\n"):
        return None
    try:
        record = loads(line)
    except ValueError:
        return None
    # A control record or a whole data record; anything else that
    # decodes (e.g. a partial buffer flush that happens to be valid
    # JSON) is structurally corrupt.
    if not isinstance(record, dict) or not (
        isinstance(record.get("meta"), str)
        or isinstance(record.get("seq"), int)
        and "payload" in record
    ):
        return None
    return record


def _read_json_lines(
    path: pathlib.Path, cut_tail: bool = False
) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Each intact record of ``path`` with the byte offset of its line,
    stopping at the first line that is not one: everything before a
    torn line is intact, and the torn record was never acknowledged to
    anyone, so it is safe to drop.  ``cut_tail`` (the recovery scan,
    once exhausted) truncates the file there — appended behind torn
    bytes, the next record would be glued onto them and lost,
    acknowledged or not, at the reload after that.
    """
    if not path.exists():
        return
    good = 0
    with path.open("rb") as handle:
        for line in handle:
            if line.strip():
                record = _parse_line(line)
                if record is None:
                    break
                yield good, record
            good += len(line)
    if cut_tail and path.stat().st_size > good:
        os.truncate(path, good)


class _DurableLog:
    """Shared append-side machinery: one JSONL log handle, written in
    groups and fsynced by :meth:`sync` alone."""

    def __init__(self, path: pathlib.Path, fsync: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        #: True while flushed-but-not-fsynced records exist (never
        #: with ``fsync=False``).
        self.dirty = False
        #: compaction floor: every sequence number <= base has been
        #: rewritten out of the log (covered by a persisted snapshot).
        self.base = 0
        #: observability counters, mirrored by the server's registry.
        self.fsync_count = 0
        self.fsync_seconds = 0.0
        self.bytes_written = 0
        self.compaction_count = 0
        self.compacted_records = 0
        #: where compaction may seek to: ``(bound, offset, count)``
        #: with bounds ascending — the file holds ``count`` data lines
        #: before ``offset``, each numbered below ``bound``.  A reload
        #: and a rewrite note one at their first data line (bound 0:
        #: none precedes it); every group of data lines written notes
        #: one at its own first line, bound by the group's first seq.
        self._marks: List[Tuple[int, int, int]] = []
        #: the file's data lines and the highest number among them:
        #: with the file's size, the mark at its end.
        self._count = self._top = 0
        self._end = 0
        self._log = None  # opened by subclasses after recovery scan

    def _open_log(self) -> None:
        self._log = self.path.open("ab")
        self._end = self._log.tell()

    def _reload(self) -> Iterator[Dict[str, Any]]:
        """The loader's scan (:func:`_read_json_lines`, the torn tail
        cut), counting the data lines and marking the first."""
        for offset, record in _read_json_lines(self.path, cut_tail=True):
            if record.get("meta") is None:
                if not self._count:
                    self._marks = [(0, offset, 0)]
                self._count += 1
                self._top = max(self._top, record["seq"])
            yield record

    def _write_data(self, data: bytes, durable: bool = True) -> None:
        """Group commit: one write + flush for the whole pre-rendered
        batch of lines, which :meth:`sync` then owes an fsync — nothing
        ``dirty`` for lines that make no durability claim."""
        if not data:
            return
        self._log.write(data)
        self._log.flush()
        self._end += len(data)
        self.bytes_written += len(data)
        if durable and self.fsync:
            self.dirty = True

    def _write_records(self, first: int, count: int, data: bytes) -> None:
        """:meth:`_write_data` of ``count`` data lines numbered ``first``
        onwards, marking where they begin.  The oldest marks thin out
        past :data:`_MARKS`, so a cut far behind the end seeks a little
        early instead of the log holding a mark per group for ever."""
        if not count:
            return
        marks = self._marks
        marks.append((self._top + 1, self._end, self._count))
        if len(marks) > _MARKS:
            del marks[1:_MARKS // 2:2]
        self._write_data(data)
        self._count += count
        self._top = max(self._top, first + count - 1)

    def sync(self) -> bool:
        """Fsync the log if it holds unsynced records — the only place
        one is issued.

        Must be called before a durability claim is made about anything
        written since the last call — before a channel ack is sent
        upstream, and before a client commit ack.  Returns True when an
        fsync actually ran (False: nothing was dirty, or the log is
        non-durable by configuration).
        """
        if not self.dirty:
            return False
        started = time.monotonic()
        os.fsync(self._log.fileno())
        self.fsync_count += 1
        self.fsync_seconds += time.monotonic() - started
        self.dirty = False
        return True

    def _fsync_dir(self) -> None:
        """Persist a rename in the containing directory's metadata."""
        fsync_dir(self.path.parent)

    def _logged(self) -> Iterator[Tuple[int, Any]]:
        """The (seqno, payload) data records currently in the log."""
        for _, record in _read_json_lines(self.path):
            if record.get("meta") is None:
                yield record["seq"], record["payload"]

    def unreadable(self, seq: int, exc: Exception) -> ProtocolError:
        """What recovery raises for a record that is JSON but not what
        this log holds: it names the file and the record."""
        return ProtocolError("%s: record %d: %s" % (self.path, seq, exc))

    def replay(self) -> Iterator[Tuple[int, Any]]:
        """Logged (seqno, payload) pairs above the compaction floor,
        in order — the log tail a snapshot does not cover — streamed
        from the file."""
        expected = self.base + 1
        for seq, payload in self._logged():
            if seq == expected:  # the loader's rule: stale lines skip
                yield seq, payload
                expected += 1

    def _compact_log(
        self, through: int, header: Sequence[Dict[str, Any]] = ()
    ) -> int:
        """Rewrite the log as the ``header`` control records plus its
        data records ``> through``, and raise the floor; returns the
        number of records dropped.  The caller caps ``through`` at what
        may go.

        Only the file from the last mark that ``through`` passes is
        read — every data line before it is dropped, and counted by the
        mark — so a cut at the last record reads nothing of the old
        log.  From there a line written by :func:`_record_line` is
        filtered on its ``{"seq":N,`` prefix and survives byte for
        byte; only a line rendered some other way is parsed (and
        re-rendered), so the result is what parsing and re-dumping
        every line would give.
        """
        if through <= self.base:
            return 0
        marks = [*self._marks, (self._top + 1, self._end, self._count)]
        at = bisect_right(marks, through + 1, key=_bound_of) - 1
        _, offset, dropped = marks[at] if at >= 0 else (0, 0, 0)
        lines: List[bytes] = []
        top = 0
        with self.path.open("rb") as handle:
            handle.seek(offset)
            for line in handle:
                if not line.strip():
                    continue
                if line.startswith(_SEQ_PREFIX) and line.endswith(b"\n"):
                    digits = line[len(_SEQ_PREFIX):line.find(b",")]
                    if digits.isdigit():
                        seq = int(digits)
                        if seq > through:
                            lines.append(line)
                            top = max(top, seq)
                        else:
                            dropped += 1
                        continue
                record = _parse_line(line)
                if record is None:
                    break  # torn tail: never acknowledged to anyone
                if record.get("meta") is not None:
                    continue  # superseded by the header
                seq = record["seq"]
                if seq > through:
                    lines.append(_record_line(seq, record["payload"], None))
                    top = max(top, seq)
                else:
                    dropped += 1
        self._rewrite(lines, base=through, header=header, top=top)
        self.base = through
        self.compaction_count += 1
        self.compacted_records += dropped
        return dropped

    def _rewrite(
        self,
        lines: Sequence[bytes],
        base: int,
        header: Sequence[Dict[str, Any]] = (),
        top: int = 0,
    ) -> None:
        """Tail-verified atomic rewrite of the log.

        Writes a fresh log — a ``{"meta": "base", "base": N}`` marker,
        the ``header`` control records and the pre-rendered data
        ``lines``, numbered ``top`` at most — to a temporary file,
        fsyncs it, re-parses it end to
        end (tail verification: the bytes that hit disk decode back to
        the control records we wrote and as many data records as we
        meant to keep, ending with the one we meant to end with), then
        atomically renames it over the live log.  A crash before the
        rename leaves the old log intact; after the rename, the new
        one is complete.  Either way a restart recovers a consistent
        log — there is no instant at which records are half-dropped.
        """
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        head = [{"meta": "base", "base": base}, *header]
        start = b"".join(map(encode_line, head))
        data = start + b"".join(lines)
        with tmp.open("wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        check = [record for _, record in _read_json_lines(tmp)]
        ok = (
            len(check) == len(head) + len(lines)
            and check[:len(head)] == head
            and (not lines or check[-1] == _parse_line(lines[-1]))
        )
        if not ok:
            tmp.unlink(missing_ok=True)
            raise RuntimeError(
                "compaction tail-verify failed for %s" % self.path
            )
        if self._log is not None and not self._log.closed:
            self._log.close()
        os.replace(tmp, self.path)
        self._fsync_dir()
        self.bytes_written += len(data)
        self._open_log()
        self._marks = [(0, len(start), 0)] if lines else []
        self._count, self._top = len(lines), top

    def close(self) -> None:
        if self._log is not None and not self._log.closed:
            self._log.flush()
            self.sync()
            self._log.close()


def _identity(payload: Any) -> Any:
    return payload


class DurableOutbox(_DurableLog):
    """A replica's replication log: every MSet it originates, logged
    once, with one cursor per peer into it.

    ``release`` maps a payload to what :meth:`ack_through` hands back
    once every peer holds it; it runs once per record read back into
    the window (reload, rewind), and once per appended record whose
    caller did not pass its release, so the window never holds the
    payload unless ``release`` keeps it (the identity, by default)."""

    def __init__(
        self,
        path: pathlib.Path,
        fsync: bool = False,
        release: Callable[[Any], Any] = _identity,
    ) -> None:
        super().__init__(path, fsync)
        self._release = release
        self._seq = 0
        #: peer -> highest sequence number it cumulatively acknowledged.
        self._cursors: Dict[str, int] = {}
        #: the slowest cursor (``_seq`` with no cursors at all): the
        #: window holds exactly the records ``(_head, _seq]``.
        self._head = 0
        #: ``(blob, release)`` per held record, the one for sequence
        #: number ``s`` at index ``_start + s - _head - 1``; slots below
        #: ``_start`` are dead and trimmed in bulk.  ``blob`` is the
        #: payload's canonical wire bytes (the zero re-encode relay
        #: cache), ``release`` what ``release(payload)`` returned.
        self._window: List[Tuple[bytes, Any]] = []
        self._start = 0
        #: everything ``<= released_hi`` has been acknowledged by every
        #: peer and handed back by :meth:`ack_through`.  Monotone within
        #: one numbering (``reset_to`` starts another), so a rewind
        #: never releases a record twice.
        self.released_hi = 0
        #: peer -> acks received for sequence numbers we never assigned
        #: — the receiver durably holds records this (restarted) sender
        #: has no memory of sending, i.e. the sender lost its own log.
        self.regressed_acks: Dict[str, int] = {}
        for record in self._reload():
            kind = record.get("meta")
            if kind is None:
                if record["seq"] == self._seq + 1:
                    self._seq += 1
                    if self._seq > self._slowest():  # someone is owed it
                        self._window.append(record["payload"])
                    else:
                        self._head = self._seq
            elif kind == "base":
                base = int(record.get("base", 0))
                if base > self._seq:  # opens a rewritten log
                    self.base = self._seq = self._head = base
            elif (
                kind == "ack"
                and isinstance(record.get("peer"), str)
                and isinstance(record.get("seq"), int)
            ):
                # Compaction only ever drops records every cursor has
                # passed, so the floor bounds a cursor from below.  A
                # rewritten log states its cursors ahead of its records.
                seq = max(record["seq"], self.base)
                if self._rewind(min(seq, self._seq), _identity):
                    self._cursors[record["peer"]] = seq
                    self._slide(min(self._slowest(), self._seq))
        # A log that lost its tail holds less than a cursor remembers.
        self._cursors = {
            peer: min(seq, self._seq) for peer, seq in self._cursors.items()
        }
        # The scan held payloads; what is still owed is held from here
        # on as its window entry.
        self._window = list(map(self._held, self._window[self._start:]))
        self._start = 0
        self.released_hi = self._head
        self._open_log()

    # -- the log -------------------------------------------------------------

    @property
    def assigned(self) -> int:
        """The highest sequence number assigned so far."""
        return self._seq

    def append(self, payload: Any, blob: Optional[bytes] = None) -> int:
        """Durably enqueue one ``payload`` (:meth:`append_many` of
        one); returns its sequence number."""
        blobs = None if blob is None else [blob]
        return self.append_many([payload], blobs=blobs)[0]

    def append_many(
        self,
        payloads: Optional[Sequence[Any]],
        blobs: Optional[Sequence[bytes]] = None,
        releases: Optional[Sequence[Any]] = None,
    ) -> List[int]:
        """Group-commit append: one write for the whole batch, which
        the caller's ``sync()`` makes durable.

        Returns the assigned sequence numbers, contiguous and in
        payload order.  ``blobs`` (parallel to ``payloads``) carries
        each payload's canonical wire bytes
        (:func:`repro.live.protocol.payload_blob`), encoded here when
        not given: the log line is spliced around them, and the window
        holds them for the sender's relay path.  ``releases`` (parallel
        too) carries what ``release`` makes of each payload, from a
        caller that already holds it; derived here when not given.
        ``payloads`` is None from a caller that gives both.
        """
        if blobs is None:
            blobs = list(map(payload_blob, payloads))
        if releases is None:
            releases = list(map(self._release, payloads))
        first = self._seq + 1
        self._write_records(first, len(blobs), _record_lines(first, blobs))
        self._seq += len(blobs)
        if self._cursors:
            self._window.extend(zip(blobs, releases))
        else:  # held for nobody
            self._window.clear()
            self._head = self.released_hi = self._seq
        return list(range(first, self._seq + 1))

    def _held(self, payload: Any) -> Tuple[bytes, Any]:
        """The window entry of a record read back from the file."""
        return payload_blob(payload), self._release(payload)

    def drained(self) -> bool:
        """True when every peer has acknowledged everything."""
        return self._head == self._seq

    # -- the cursors ---------------------------------------------------------

    def add_cursor(self, peer: str) -> bool:
        """Start a cursor for ``peer`` at the end of the log: it is
        owed what is appended from here on, and nothing older.  False
        (and no change) when the peer already has one."""
        if peer in self._cursors:
            return False
        self._cursors[peer] = self._seq
        self._mark(peer)
        return True

    def frontier(self, peer: str) -> int:
        """The highest sequence number ``peer`` cumulatively acknowledged."""
        return self._cursors[peer]

    def backlog(self, peer: str) -> int:
        """How many records ``peer`` is still owed."""
        return self._seq - self._cursors[peer]

    def pending(self, peer: str) -> List[Tuple[int, bytes]]:
        """Everything ``peer`` is still owed, in FIFO order, as
        ``(seqno, wire blob)`` pairs."""
        first, blobs = self.pending_after(peer, 0, self.backlog(peer))
        return list(enumerate(blobs, first))

    def pending_after(
        self, peer: str, seqno: int, limit: int
    ) -> Tuple[int, List[bytes]]:
        """``(first, blobs)``: the wire blobs of up to ``limit`` records
        ``peer`` is owed above ``seqno``, in order, the first of them
        numbered ``first`` — the sender's fetch, one map over a slice of
        the shared window bounded by ``limit``, wherever in it the
        cursor stands."""
        first = max(seqno, self._cursors[peer]) + 1
        start = self._start + first - self._head - 1
        return first, list(map(_blob_of, self._window[start:start + limit]))

    def _mark(self, peer: str) -> None:
        """Note one cursor in the log stream: flushed, never fsynced
        on its own — the marker carries no durability claim; losing it
        only ages the reloaded cursor."""
        line = encode_line(_ack_marker(peer, self._cursors[peer]))
        self._write_data(line, durable=False)

    def _slowest(self) -> int:
        return min(self._cursors.values(), default=self._seq)

    def _slide(self, head: int) -> None:
        """Let go of the held records ``<= head``: the slowest cursor
        has passed them.  Their slots are emptied now — a released
        record's memory goes back as soon as the caller is done with
        it, in the order it was allocated — and trimmed in bulk."""
        stop = self._start + head - self._head
        self._window[self._start:stop] = [None] * (stop - self._start)
        self._start = stop
        self._head = head
        if self._start >= 64 and self._start * 2 >= len(self._window):
            # Amortised: each trim moves no more slots than it frees.
            del self._window[:self._start]
            self._start = 0

    def _rewind(
        self, ack_seq: int, hold: Callable[[Any], Any]
    ) -> bool:
        """Make room for a cursor at ``ack_seq``: below the slowest
        cursor the records ``(ack_seq, _head]`` come back from the file
        into the window, each as ``hold(payload)``; False (and no
        change) when the log no longer holds all of them."""
        if ack_seq < self._head:
            again = [
                hold(payload)
                for seq, payload in self._logged()
                if ack_seq < seq <= self._head
            ]
            if len(again) != self._head - ack_seq:
                return False
            self._window[:self._start] = again
            self._start = 0
            self._head = ack_seq
        return True

    def ack_through(self, peer: str, seqno: int) -> List[Any]:
        """Cumulative acknowledgement: ``peer`` durably holds every
        sequence number ``<= seqno``.

        Advances that peer's cursor (a stale or duplicate ack moves
        nothing) and returns, in order, the release of each record this
        ack made *fully* acknowledged — the slowest cursor just passed
        them, each exactly once, and ``released_hi`` is the last one's
        sequence number.  Costs one marker line and one window slot per
        released record: no scan of anyone's backlog, no file opened.
        """
        if seqno > self._seq:
            # The receiver durably holds records we never assigned:
            # this sender restarted from an older (or empty) log — it
            # regressed.  Count it instead of silently pretending we
            # sent that far.
            self.regressed_acks[peer] = self.regressed_acks.get(peer, 0) + 1
            seqno = self._seq
        behind = self._cursors[peer]
        if seqno <= behind:
            return []
        self._cursors[peer] = seqno
        self._mark(peer)
        if behind > self._head:
            return []  # a slower cursor still holds the window's tail
        head = self._slowest()
        released: List[Any] = []
        low = max(self._head, self.released_hi)
        if head > low:
            start = self._start + low - self._head
            stop = self._start + head - self._head
            released = list(map(_release_of, self._window[start:stop]))
            self.released_hi = head
        self._slide(head)
        return released

    def rewind_to(self, peer: str, ack_seq: int) -> bool:
        """Move ``peer``'s cursor back down to ``ack_seq``.

        Repairs a channel whose receiver regressed below our cursor
        (it lost its inbox and now durably holds only ``<= ack_seq``):
        previously-acked records still in the log are owed again and
        will be re-sent in order.  Returns False when the needed
        records are not all in the log — compacted away (``ack_seq <
        base``) or lost with the log's tail — the receiver then needs a
        snapshot, not a log replay.
        """
        if ack_seq >= self._cursors[peer]:
            return True  # no regression; nothing to reload
        if ack_seq < self.base or not self._rewind(ack_seq, self._held):
            return False  # unservable from this log
        self._cursors[peer] = ack_seq
        self._mark(peer)
        return True

    # -- rewrites ------------------------------------------------------------

    def reset_to(self, seqno: int) -> None:
        """Re-seed an (empty or stale) log at ``seqno``.

        Used when installing a snapshot on a wiped site: sequence
        numbers at or below the snapshot's local frontier are covered
        by the snapshot and can never be served from this log again,
        so the floor, every cursor and the next-assignment counter all
        become ``seqno``.
        """
        self._rewrite(
            [],
            base=seqno,
            header=[_ack_marker(peer, seqno) for peer in self._cursors],
        )
        self._cursors = dict.fromkeys(self._cursors, seqno)
        self._window = []
        self._start = 0
        self.base = self._head = self._seq = self.released_hi = seqno

    def compact(self, through_seq: int) -> int:
        """Drop fully acknowledged records ``<= through_seq`` from the
        log.

        The slowest cursor caps the cut (records someone is owed must
        survive for re-sends), and the caller is responsible for the
        snapshot-coverage invariant — compact only below a *persisted*
        snapshot frontier, so anything dropped here is reconstructable
        from the snapshot.  Returns the number of records removed.
        Crash-safe via the tail-verified rewrite, which also folds
        every ack marker into one per cursor.
        """
        return self._compact_log(
            min(through_seq, self._head),
            [_ack_marker(peer, seq) for peer, seq in self._cursors.items()],
        )


class DurableInbox(_DurableLog):
    """Receiver half of one durable (src, dst) channel."""

    def __init__(self, path: pathlib.Path, fsync: bool = False) -> None:
        super().__init__(path, fsync)
        #: highest sequence number durably recorded, contiguous from
        #: ``base + 1`` (``base`` is 0 for a never-compacted log).
        self.frontier = 0
        for record in self._reload():
            kind = record.get("meta")
            if kind == "base":
                base = int(record.get("base", 0))
                self.base = max(self.base, base)
                self.frontier = max(self.frontier, base)
            elif kind is None and record["seq"] == self.frontier + 1:
                self.frontier = record["seq"]
        self._open_log()

    def record(
        self, seqno: int, payload: Any, blob: Optional[bytes] = None
    ) -> bool:
        """Durably record one received payload.

        Returns True when the payload is fresh (first receipt), False
        for a duplicate.  Out-of-order receipts beyond ``frontier + 1``
        are refused (also False): the sender re-sends in order, so a
        gap can only mean a dropped earlier frame.  ``blob`` (the
        payload's canonical wire bytes) splices the log line instead
        of re-serializing the payload.
        """
        if seqno != self.frontier + 1:
            return False
        self._write_records(seqno, 1, _record_line(seqno, payload, blob))
        self.frontier = seqno
        return True

    def record_many(self, blobs: Sequence[bytes]) -> int:
        """Group-commit record of a run of receipts: ``blobs`` are the
        payloads' wire bytes for ``frontier + 1`` onwards, as received —
        a batch is logged without one encode, and its payloads are never
        read.  The whole run lands with one write + flush; a run is
        contiguous by construction.  Returns the number recorded."""
        first = self.frontier + 1
        self._write_records(first, len(blobs), _record_lines(first, blobs))
        self.frontier += len(blobs)
        return len(blobs)

    def duplicate(self, seqno: int) -> bool:
        """True when ``seqno`` was already recorded (needs re-ack only)."""
        return seqno <= self.frontier

    def compact(self, through_seq: int) -> int:
        """Drop recorded receipts ``<= through_seq`` from the log.

        The caller must hold a persisted snapshot whose applied
        frontier for this channel is at least ``through_seq`` — after
        compaction, recovery replays only the tail above the floor on
        top of that snapshot.  Crash-safe via the tail-verified
        rewrite; returns the number of records removed.
        """
        return self._compact_log(min(through_seq, self.frontier))

    def reset_to(self, seqno: int) -> None:
        """Restart this inbox at frontier ``seqno`` with an empty tail.

        Used when installing a snapshot that already covers every
        receipt at or below ``seqno``: the local tail (if any) is
        discarded and the next acceptable receipt becomes
        ``seqno + 1``.  Crash-safe via the tail-verified rewrite.
        """
        self._rewrite([], base=seqno)
        self.base = seqno
        self.frontier = seqno


class ControlLog(SequencerLog, _DurableLog):
    """The small durable states ORDUP's total order rests on, as typed
    records in one log: the sequencer's ``promise``, ``adopt`` and
    ``grant`` records (:class:`~repro.replica.sequencer.SequencerLog`,
    whose fold this is) and ``member`` (the fields of one
    :meth:`~repro.live.gossip.NodeRecord.wire`), each a ``{"meta":
    kind, ...}`` line.

    A reload folds them — the last member record per name wins — and
    :meth:`compact` rewrites the log to that fold, which appends keep
    current.  A torn final line is cut as in every log; a line of a
    known kind whose fields do not decode, or a cut that drops more
    than the last line, is counted in ``load_errors`` and logged at
    ERROR: it can forget a promise.

    Promise, adopt and member records are fsynced before their
    method returns, in every mode; a grant only under
    ``fsync=True``, as every data record.
    """

    def __init__(self, path: pathlib.Path, fsync: bool = False) -> None:
        SequencerLog.__init__(self)
        _DurableLog.__init__(self, path, fsync=True)
        self.sync_grants = fsync
        #: name -> its last member record.
        self.nodes: Dict[str, NodeRecord] = {}
        self.load_errors = self._lines = 0
        before = self.path.read_bytes() if self.path.exists() else b""
        for _, record in _read_json_lines(self.path, cut_tail=True):
            try:
                self._fold(record)
            except (KeyError, TypeError, ValueError) as exc:
                self._load_error("record %r unreadable: %r" % (record, exc))
        cut = before[self.path.stat().st_size:] if before else b""
        if b"\n" in cut[:-1]:
            self._load_error("cut %d bytes past a bad line" % len(cut))
        self._open_log()

    def _load_error(self, what: str) -> None:
        self.load_errors += 1
        logger.error("control log %s: %s", self.path, what)

    def _fold(self, record: Dict[str, Any]) -> bool:
        if record.get("meta") == "member":
            node = NodeRecord.from_wire(record)
            self.nodes[node.name] = node
        elif not super()._fold(record):
            return False
        self._lines += 1
        return True

    def _append(
        self, records: Sequence[Dict[str, Any]], durable: bool = True
    ) -> None:
        """Log ``records`` in one write and fold them in: synced on
        return when ``durable``, and an error raises."""
        self._write_data(b"".join(map(encode_line, records)), durable)
        for record in records:
            self._fold(record)
        self.sync()

    def members(self, nodes: Sequence[NodeRecord]) -> None:
        self._append([{"meta": "member", **node.wire()} for node in nodes])

    def compact(self) -> int:
        """Rewrite the log as its fold — the sequencer's records, one
        member record per node — unless it is already that short;
        returns the number of records dropped."""
        state = self.records()
        state += [{"meta": "member", **n.wire()} for n in self.nodes.values()]
        dropped = self._lines - len(state)
        if dropped <= 0:
            return 0
        self._rewrite([], base=0, header=state)
        self._lines = len(state)
        self.compaction_count += 1
        self.compacted_records += dropped
        return dropped
