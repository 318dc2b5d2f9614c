"""File-backed durable stable queues for the live runtime.

The live analogue of :mod:`repro.sim.stable_queue`: the paper factors
message loss out of replica control by giving every channel an
at-least-once, persistently-retried queue; here the persistence is a
real append-only JSONL log on disk, so queue contents survive process
restarts (Ravishankar-style asynchronous checkpointing of the channel
state).

Two halves, matching the two ends of a channel:

* :class:`DurableOutbox` — the sender's half.  ``append`` assigns the
  next channel sequence number and durably logs the payload *before*
  the caller acknowledges anything to a client; ``ack_through``
  processes a cumulative acknowledgement (everything ``<= seq`` is
  durably held by the receiver) and advances the delivery frontier.
  Pending records are always the dense range ``(frontier, _seq]``,
  held as one ordered window, so an ack pops exactly the prefix it
  covers — its cost does not depend on the backlog behind it.  After
  a restart everything past the frontier is pending again and will be
  re-sent.
* :class:`DurableInbox` — the receiver's half.  ``record`` /
  ``record_many`` durably log received payloads and deduplicate by
  sequence number (the channel is FIFO, so a contiguous frontier
  suffices); ``replay`` streams every recorded payload in receipt
  order, from the file, for crash recovery.  The running inbox is
  two integers (frontier and floor): like the outbox beyond its
  unacked window, it keeps no copy of what it has logged.

Group commit: ``append_many`` / ``record_many`` coalesce a whole
batch of records into a *single* write + flush + (at most one) fsync,
so the per-record durability cost of the propagation hot path is paid
once per batch instead of once per MSet.  ``fsync_interval`` further
rate-limits fsyncs on high-throughput channels: ``0`` (the default)
syncs every (group) append; ``> 0`` syncs at most once per interval —
opt-in, and irrelevant unless ``fsync=True``.

The rate limit never weakens a *durability claim*: before anything
recorded inside the fsync window is acknowledged upstream (a channel
ack to the sending peer, a commit ack to a client) the caller must
invoke :meth:`~_DurableLog.sync`, which forces a covering fsync if —
and only if — unsynced records exist (``dirty``).  Without that, a
receiver could ack a batch, the sender would truncate its outbox, and
a crash of the receiver inside the window would lose the batch from
both ends: an acknowledged update gone.  ``sync`` is a no-op when
``fsync=False`` (explicitly non-durable mode) or when nothing is
dirty, so the hot path with ``fsync_interval=0`` pays nothing extra.

Observability: every log tracks ``fsync_count``, ``fsync_seconds``
(cumulative fsync latency) and ``bytes_written``; the server mirrors
them into the metrics registry at scrape time.

The application-visible contract is exactly-once FIFO per channel:
at-least-once retries on the sender plus frontier dedup on the
receiver.

Log format vs wire format: the record format here is **always** JSON
lines — one ``{"seq": N, "payload": {...}}`` object per line — no
matter which codec the peer channel negotiated on the wire
(:mod:`repro.live.protocol` may speak the ``bin1`` binary framing).
That split is deliberate: logs stay greppable, debuggable, and
readable by any build, while the wire is free to evolve.  The two
formats meet at the *canonical payload blob* (the compact JSON bytes
of one payload): when the caller already holds that blob — computed
once when an update enters the system — ``append``/``record`` splice
it into the log line verbatim instead of re-serializing the payload,
producing a line byte-identical to a full ``json.dumps`` of the
record.  The blob also rides binary wire frames unchanged, so one
encode covers every hop and every log.  :meth:`DurableOutbox.wire_blob`
returns (computing and caching on demand, e.g. after a restart
reloaded pending payloads from the log) the blob for a pending
record, which is what lets a sender re-send from its log without
re-encoding either.

The ack frontier lives in the log stream: each advance appends one
``{"meta": "ack", "seq": N}`` line to the outbox's own open log
(write + flush, never an fsync of its own, no second file), a rewind
or reset emits the same marker, and on reload the last marker wins.
A crash may lose the newest markers and nothing else: the reloaded
frontier is then a lower bound, the receiver's dedup absorbs the
re-sent records and its next cumulative ack retires them again.  Data
dirs from before the marker existed keep the frontier in a
``<log>.ack`` sidecar: read on open while the log holds no marker,
never written.

Compaction: both halves support ``compact(through_seq)`` — a
tail-verified rewrite that drops every record at or below
``through_seq`` once a persisted site snapshot covers them (one
shared path, ``_compact_log``, filtering the file itself).  The
rewritten log opens with a ``{"meta": "base", "base": N}`` record so a
reload knows the log starts above ``N``; the rewrite goes to a
temporary file that is fsynced, re-parsed (tail verification), and
atomically renamed over the live log, so a crash at any instant leaves
either the complete old log or the complete new one.  ``base`` is the
compaction floor: an outbox can no longer serve records at or below
it (a receiver that regressed past the floor needs a snapshot, not a
log replay), and an inbox treats it as its replay origin.  A rewritten
outbox log ends with one ack marker (the current frontier) in place of
all earlier ones.

Crash tails: a reload stops at the first torn (no newline),
undecodable or structurally wrong line and cuts the file there before
reopening it for append.  Loaders skip ``meta`` kinds they do not know.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from collections import deque
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .snapshot import fsync_dir

__all__ = ["DurableOutbox", "DurableInbox"]


def _json_line(record: Dict[str, Any]) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"


def _record_line(seq: int, payload: Any, blob: Optional[bytes]) -> str:
    """One data-record log line, spliced around ``blob`` when given.

    ``blob`` must be the canonical compact-JSON encoding of the
    payload (``json.dumps(payload, separators=(",", ":"))``), which
    makes the spliced line byte-identical to a full
    ``json.dumps({"seq": seq, "payload": payload})`` — the log stays
    plain JSONL whatever codec the wire negotiated.
    """
    if blob is None:
        return _json_line({"seq": seq, "payload": payload})
    return '{"seq":%d,"payload":%s}\n' % (seq, blob.decode("utf-8"))


def _ack_marker(seq: int) -> Dict[str, Any]:
    """The control record that carries an outbox's ack frontier."""
    return {"meta": "ack", "seq": seq}


def _read_json_lines(
    path: pathlib.Path, cut_tail: bool = False
) -> Iterator[Dict[str, Any]]:
    """Each intact record of ``path``, stopping at the first line that
    is not one: everything before a torn line is intact, and the torn
    record was never acknowledged to anyone, so it is safe to drop.
    ``cut_tail`` (the recovery scan, once exhausted) truncates the file
    there — appended behind torn bytes, the next record would be glued
    onto them and lost, acknowledged or not, at the reload after that.
    """
    if not path.exists():
        return
    intact = 0
    with path.open("rb") as handle:
        for line in handle:
            if line.strip():
                if not line.endswith(b"\n"):
                    # A record and its newline go out in one write:
                    # this one never completed, even if it parses.
                    break
                try:
                    record = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    break
                # A control record or a whole data record; anything
                # else that decodes (e.g. a partial buffer flush that
                # happens to be valid JSON) is structurally corrupt.
                if not isinstance(record, dict) or not (
                    isinstance(record.get("meta"), str)
                    or isinstance(record.get("seq"), int)
                    and "payload" in record
                ):
                    break
                yield record
            intact += len(line)
    if cut_tail and path.stat().st_size > intact:
        os.truncate(path, intact)


class _DurableLog:
    """Shared append-side machinery: one JSONL log handle plus the
    group-commit fsync policy."""

    def __init__(
        self,
        path: pathlib.Path,
        fsync: bool = False,
        fsync_interval: float = 0.0,
    ) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self._last_fsync = 0.0
        #: True while flushed-but-not-fsynced records exist (only
        #: meaningful with ``fsync=True`` and ``fsync_interval > 0``).
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
        self._log = None  # opened by subclasses after recovery scan

    def _open_log(self) -> None:
        self._log = self.path.open("a", encoding="utf-8")

    def _write_data(self, data: str, durable: bool = True) -> None:
        """Group commit: one write + flush + at most one fsync for the
        whole pre-rendered batch of lines — no fsync, and nothing
        ``dirty``, for lines that make no durability claim."""
        if not data:
            return
        self._log.write(data)
        self._log.flush()
        self.bytes_written += len(data)
        if durable and self.fsync:
            self.dirty = True
            self._maybe_fsync()

    def _maybe_fsync(self) -> None:
        now = time.monotonic()
        if (
            self.fsync_interval > 0
            and now - self._last_fsync < self.fsync_interval
        ):
            return  # rate-limited: the next append inside the window rides free
        self._do_fsync()

    def _do_fsync(self) -> None:
        started = time.monotonic()
        os.fsync(self._log.fileno())
        now = time.monotonic()
        self.fsync_count += 1
        self.fsync_seconds += now - started
        self._last_fsync = now
        self.dirty = False

    def sync(self) -> bool:
        """Force a covering fsync of any unsynced records.

        Must be called before a durability claim is made about records
        written inside the ``fsync_interval`` window — before a channel
        ack is sent upstream, and before a client commit ack.  Returns
        True when an fsync actually ran (False: nothing was dirty, or
        the log is non-durable by configuration).
        """
        if not self.fsync or not self.dirty:
            return False
        self._do_fsync()
        return True

    def _fsync_dir(self) -> None:
        """Persist a rename in the containing directory's metadata."""
        fsync_dir(self.path.parent)

    def _logged(self) -> Iterator[Tuple[int, Any]]:
        """The (seqno, payload) data records currently in the log."""
        for record in _read_json_lines(self.path):
            if record.get("meta") is None:
                yield record["seq"], record["payload"]

    def _compact_log(
        self, through_seq: int, trailer: Sequence[Dict[str, Any]] = ()
    ) -> int:
        """Rewrite the log without its data records ``<= through_seq``
        (capped at the frontier: only what is behind it may go), closed
        by the ``trailer`` control records, and raise the floor;
        returns the number of records dropped."""
        through = min(through_seq, self.frontier)
        if through <= self.base:
            return 0
        survivors: List[Dict[str, Any]] = []
        dropped = 0
        for seq, payload in self._logged():
            if seq > through:
                survivors.append({"seq": seq, "payload": payload})
            else:
                dropped += 1
        self._rewrite([*survivors, *trailer], base=through)
        self.base = through
        self.compaction_count += 1
        self.compacted_records += dropped
        return dropped

    def _rewrite(
        self, records: Sequence[Dict[str, Any]], base: int
    ) -> None:
        """Tail-verified atomic rewrite of the log.

        Writes a fresh log — a ``{"meta": "base", "base": N}`` marker
        followed by ``records`` — to a temporary file, fsyncs it,
        re-parses it end to end (tail verification: the bytes that hit
        disk decode back to exactly what we meant to keep), then
        atomically renames it over the live log.  A crash before the
        rename leaves the old log intact; after the rename, the new
        one is complete.  Either way a restart recovers a consistent
        log — there is no instant at which records are half-dropped.
        """
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        marker = {"meta": "base", "base": base}
        data = "".join(map(_json_line, [marker, *records]))
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        check = list(_read_json_lines(tmp))
        ok = (
            len(check) == 1 + len(records)
            and check[0].get("meta") == "base"
            and check[0].get("base") == base
            and (
                not records
                or check[-1].get("seq") == records[-1].get("seq")
            )
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

    def close(self) -> None:
        if self._log is not None and not self._log.closed:
            self._log.flush()
            if self.fsync:
                self._do_fsync()
            self._log.close()


class DurableOutbox(_DurableLog):
    """Sender half of one durable (src, dst) channel."""

    def __init__(
        self,
        path: pathlib.Path,
        fsync: bool = False,
        fsync_interval: float = 0.0,
    ) -> None:
        super().__init__(path, fsync, fsync_interval)
        #: highest contiguously acknowledged sequence number.
        self.frontier = 0
        #: the pending records ``(frontier, _seq]``, oldest first, as
        #: ``(payload, blob)``.  ``blob`` is the payload's canonical
        #: wire bytes (the zero re-encode relay cache), ``None`` until
        #: :meth:`wire_blob` fills it for a record reloaded from the log.
        self._window: deque[Tuple[Any, Optional[bytes]]] = deque()
        #: acks received for sequence numbers we never assigned — a
        #: receiver durably holds records this (restarted) sender has
        #: no memory of sending, i.e. the sender lost its own log.
        self.regressed_acks = 0
        self._seq = 0
        marked = False
        for record in _read_json_lines(self.path, cut_tail=True):
            kind = record.get("meta")
            if kind is None:
                seq = record["seq"]
                if seq > self._seq + 1:
                    # Numbering only ever jumps over an acked range (a
                    # frontier that outlived the log's tail).
                    self._retire(seq - 1)
                if seq == self._seq + 1:
                    self._seq = seq
                    self._window.append((record["payload"], None))
            elif kind == "base":
                self.base = max(self.base, int(record.get("base", 0)))
                # Compaction only ever drops acked records, so the
                # floor is also a lower bound on the ack frontier
                # (covers a log whose newest ack markers were lost).
                if self.base > self.frontier:
                    self._retire(self.base)
            elif kind == "ack":
                marked = True
                seq = int(record["seq"])
                if seq > self.frontier:
                    self._retire(seq)
                elif seq < self.frontier:
                    self._unretire(seq)  # a rewind's marker
        if not marked:
            # A data dir from before the marker existed keeps its
            # frontier in a sidecar; the first marker retires it.
            try:
                sidecar = self.path.with_suffix(self.path.suffix + ".ack")
                legacy = int(sidecar.read_text().strip() or 0)
            except (OSError, ValueError):
                legacy = 0
            if legacy > self.frontier:
                self._retire(legacy)
        self._open_log()

    def append(self, payload: Any, blob: Optional[bytes] = None) -> int:
        """Durably enqueue ``payload``; returns its sequence number.

        ``blob``, when given, is the payload's canonical wire bytes
        (see :func:`repro.live.protocol.payload_blob`): the log line
        is spliced around it instead of re-serializing, and it seeds
        the :meth:`wire_blob` cache for the sender's relay path.
        """
        blobs = None if blob is None else [blob]
        return self.append_many([payload], blobs=blobs)[0]

    def append_many(
        self,
        payloads: Sequence[Any],
        blobs: Optional[Sequence[bytes]] = None,
    ) -> List[int]:
        """Group-commit append: one write + fsync for the whole batch.

        Returns the assigned sequence numbers, contiguous and in
        payload order.  ``blobs`` (parallel to ``payloads``) carries
        pre-encoded payload bytes, spliced into the log lines and
        cached for the wire.
        """
        seqs: List[int] = []
        lines: List[str] = []
        for index, payload in enumerate(payloads):
            self._seq += 1
            blob = None if blobs is None else blobs[index]
            self._window.append((payload, blob))
            lines.append(_record_line(self._seq, payload, blob))
            seqs.append(self._seq)
        self._write_data("".join(lines))
        return seqs

    def wire_blob(self, seqno: int) -> bytes:
        """Canonical wire bytes of one pending payload.

        Cache hit for payloads appended with a blob; computed once and
        cached for payloads reloaded from the log (restart, rewind) —
        either way, every subsequent send and re-send of this record
        forwards the same bytes with no re-encode.
        """
        index = seqno - self.frontier - 1
        if index < 0:
            raise KeyError(seqno)  # already acknowledged
        payload, blob = self._window[index]
        if blob is None:
            blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            self._window[index] = (payload, blob)
        return blob

    def _retire(self, seqno: int) -> List[Tuple[int, Any]]:
        """Move the frontier up to ``seqno``, popping the window
        prefix it covers — one pop per retired record, whatever the
        backlog behind them."""
        pop = self._window.popleft
        covered = [
            (seq, pop()[0])
            for seq in range(self.frontier + 1, min(seqno, self._seq) + 1)
        ]
        self.frontier = seqno
        # Only a reload can be told of more than the log holds (a
        # sidecar or floor that outlived the log's tail).
        self._seq = max(self._seq, seqno)
        return covered

    def _unretire(self, ack_seq: int) -> bool:
        """Move the frontier back down to ``ack_seq``, making the
        logged records ``(ack_seq, frontier]`` pending again; False
        (and no change) when the log no longer holds all of them."""
        again = [
            (payload, None)
            for seq, payload in self._logged()
            if ack_seq < seq <= self.frontier
        ]
        if len(again) != self.frontier - ack_seq:
            return False
        self._window.extendleft(reversed(again))
        self.frontier = ack_seq
        return True

    def _mark_frontier(self) -> None:
        """Note the frontier in the log stream: flushed, never fsynced
        on its own — the marker carries no durability claim; losing it
        only ages the reloaded frontier."""
        line = _json_line(_ack_marker(self.frontier))
        self._write_data(line, durable=False)

    def ack_through(self, seqno: int) -> List[Tuple[int, Any]]:
        """Cumulative acknowledgement: the receiver durably holds every
        sequence number ``<= seqno``.

        Retires the covered records and returns them as (seqno,
        payload) pairs in order; a stale or duplicate ack retires
        nothing.  Costs one window pop per retired record and one
        marker line — no scan of the backlog, no file opened.
        """
        if seqno > self._seq:
            # The receiver durably holds records we never assigned:
            # this sender restarted from an older (or empty) log — it
            # regressed.  Count it (the server triggers catch-up off
            # this) instead of silently pretending we sent that far.
            self.regressed_acks += 1
            seqno = self._seq
        if seqno <= self.frontier:
            return []
        covered = self._retire(seqno)
        self._mark_frontier()
        return covered

    def rewind_to(self, ack_seq: int) -> bool:
        """Reload records above ``ack_seq`` into the pending window.

        Repairs a channel whose receiver regressed below our ack
        frontier (it lost its inbox and now durably holds only
        ``<= ack_seq``): previously-acked records still in the log
        become pending again and will be re-sent in order.  Returns
        False when the needed records are not all in the log —
        compacted away (``ack_seq < base``) or lost with the log's
        tail — the receiver then needs a snapshot, not a log replay.
        """
        if ack_seq >= self.frontier:
            return True  # no regression; nothing to reload
        if ack_seq < self.base or not self._unretire(ack_seq):
            return False  # unservable from this log
        self._mark_frontier()
        return True

    def reset_to(self, seqno: int) -> None:
        """Re-seed an (empty or stale) outbox at ``seqno``.

        Used when installing a snapshot on a wiped site: the peer
        channels restart at the snapshot's frontier — sequence numbers
        at or below it are covered by the snapshot and can never be
        served from this log again, so the floor, the ack frontier and
        the next-assignment counter all become ``seqno``.
        """
        self._rewrite([_ack_marker(seqno)], base=seqno)
        self._window.clear()
        self.base = self.frontier = self._seq = seqno

    def compact(self, through_seq: int) -> int:
        """Drop acked records ``<= through_seq`` from the log.

        Only acked records are eligible (the frontier caps the cut:
        pending records must survive for re-sends), and the caller is
        responsible for the snapshot-coverage invariant — compact only
        below a *persisted* snapshot frontier, so anything dropped
        here is reconstructable from the snapshot.  Returns the number
        of records removed.  Crash-safe via the tail-verified rewrite,
        which also folds every ack marker into one trailing marker.
        """
        return self._compact_log(through_seq, [_ack_marker(self.frontier)])

    def pending(self) -> List[Tuple[int, Any]]:
        """Unacknowledged (seqno, payload) pairs in FIFO order."""
        return self.pending_after(self.frontier, len(self._window))

    def pending_after(
        self, seqno: int, limit: int
    ) -> List[Tuple[int, Any]]:
        """Up to ``limit`` pending (seqno, payload) pairs above
        ``seqno``, in order — the sender's fetch, a slice of the
        window bounded by ``limit`` rather than by the backlog."""
        first = max(seqno, self.frontier) + 1
        start = first - self.frontier - 1
        return [
            (first + offset, entry[0])
            for offset, entry in enumerate(
                islice(self._window, start, start + limit)
            )
        ]

    def drained(self) -> bool:
        return not self._window

    @property
    def backlog(self) -> int:
        return len(self._window)


class DurableInbox(_DurableLog):
    """Receiver half of one durable (src, dst) channel."""

    def __init__(
        self,
        path: pathlib.Path,
        fsync: bool = False,
        fsync_interval: float = 0.0,
    ) -> None:
        super().__init__(path, fsync, fsync_interval)
        #: highest sequence number durably recorded, contiguous from
        #: ``base + 1`` (``base`` is 0 for a never-compacted log).
        self.frontier = 0
        for record in _read_json_lines(self.path, cut_tail=True):
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
        self._write_data(_record_line(seqno, payload, blob))
        self.frontier = seqno
        return True

    def record_many(
        self,
        items: Sequence[Tuple[int, Any]],
        blobs: Optional[Sequence[bytes]] = None,
    ) -> int:
        """Group-commit record of a contiguous batch of receipts.

        ``items`` must start at ``frontier + 1`` and be gap-free; the
        caller (the batch receive path) filters duplicates and stops at
        the first gap before calling.  The whole batch lands with one
        write + flush + fsync.  ``blobs`` (parallel to ``items``)
        carries the payloads' wire bytes as received — a binary batch
        is logged without one ``json.dumps``.  Returns the number
        recorded.
        """
        lines: List[str] = []
        expected = self.frontier + 1
        for index, (seqno, payload) in enumerate(items):
            if seqno != expected:
                raise ValueError(
                    "non-contiguous batch record: got %d, expected %d"
                    % (seqno, expected)
                )
            blob = None if blobs is None else blobs[index]
            lines.append(_record_line(seqno, payload, blob))
            expected += 1
        self._write_data("".join(lines))
        self.frontier = expected - 1
        return len(lines)

    def duplicate(self, seqno: int) -> bool:
        """True when ``seqno`` was already recorded (needs re-ack only)."""
        return seqno <= self.frontier

    def replay(self) -> Iterator[Tuple[int, Any]]:
        """Recorded (seqno, payload) pairs above the compaction floor,
        in receipt order — the log tail a snapshot does not cover —
        streamed from the file."""
        expected = self.base + 1
        for seq, payload in self._logged():
            if seq == expected:  # the loader's rule: stale lines skip
                yield seq, payload
                expected += 1

    def compact(self, through_seq: int) -> int:
        """Drop recorded receipts ``<= through_seq`` from the log.

        The caller must hold a persisted snapshot whose applied
        frontier for this channel is at least ``through_seq`` — after
        compaction, recovery replays only the tail above the floor on
        top of that snapshot.  Crash-safe via the tail-verified
        rewrite; returns the number of records removed.
        """
        return self._compact_log(through_seq)

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
