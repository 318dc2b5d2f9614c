"""Length-prefixed wire protocol for the live replica runtime.

Every frame is a 4-byte big-endian length word followed by a body.
The high bit of the length word says which of the two body kinds it
is (safe because ``MAX_FRAME`` is far below ``2**31``, so a JSON
length never has the bit set); frames are self-describing, and nothing
is negotiated.

*JSON frames* (bit clear) carry a UTF-8 JSON object — every control
and client frame.  Operations and MSets travel in the simulator's own
codec (:mod:`repro.replica.mset`, re-exported here: the same function
objects), so a live server and the simulator speak about the *same*
transactions; one MSet text is the log line, the wire entry and every
peer's inbox line.

* client -> server: ``{"type": "request", "id": n, "verb": ..., ...}``
* server -> client: ``{"type": "response", "id": n, "ok": bool, ...}``
* peer -> peer: ``{"type": "peer-hello", "src": site}`` opens a
  channel; ``hb`` / ``hb-ack`` carry liveness, the receiver's inbox
  frontier and gossip; ``peer-reset`` directs a receiver to snapshot
  catch-up.

*Binary frames* (bit set) carry the propagation stream, and only it:

* ``mset-batch`` — ``>BHIQ`` (kind, src length, entry count, first
  seq), the sender's site name, one ``>I`` length per blob, then the
  blobs: the run of channel seqs ``first``, ``first + 1``, ...;
* ``ack`` — ``>BQ`` (kind, seq): *cumulative*, covering every channel
  sequence number ``<= seq``.

A batch entry is an *opaque payload blob*: the canonical JSON bytes of
one channel payload, computed once when an update enters its
replication log and forwarded byte-for-byte from then on (zero
re-encode relay).  A plain update's payload is the array of its
operations — its tid is its origin and log position — and any other
entry's is ``{"mset": ...}`` (:func:`~repro.replica.mset.decode_payloads`
reads both).  :func:`decode_bin_frame` validates a body totally —
every malformation is a :class:`ProtocolError` — and :func:`read_frame`
decodes both kinds to dicts keyed by ``"type"``.

One JSON codec, orjson, encodes and decodes every document an update
crosses — frames, payload blobs, log lines — and rewrites no value.
Integers are 64-bit: a wider one, a non-``str`` key or a lone
surrogate is a ``TypeError`` at the sender; a wider integer *literal*
in a foreign document decodes as the nearest float.  A store value
that overflowed is encoded by the stdlib as ``Infinity``, which
:func:`loads` hands on to ``json.loads``.  Cold files — snapshots
(pure ASCII: fetch chunks are decoded as ASCII), the shard manifest,
session tokens, trace JSONL — stay on the stdlib ``json``.

Every socket the runtime owns — the replica listener, the peer
channels, clients, a replica's requests to its peers, the admin
endpoint — runs one :class:`FrameProtocol`: no stream, no reader task.
Its ``data_received`` cuts the frames out of what the socket delivered
and hands each to its consumer in that same step.  Writes are per turn,
not per frame: the connection's :class:`FrameWriter` buffers whatever
one event-loop turn sends on it — replies, acks, requests, of either
kind — and hands it to the transport in one write.
"""

from __future__ import annotations

import asyncio
import functools
import json
import struct
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import orjson

from ..core.transactions import EpsilonSpec, UNLIMITED
from ..replica.mset import (
    ProtocolError,
    _finite,
    _keyless,
    _wrong_arity,
    decode_mset,
    decode_op,
    decode_ops,
    decode_payloads,
    encode_mset,
    encode_op,
    encode_ops,
)

__all__ = [
    "MAX_FRAME",
    "MAX_BATCH_ENTRIES",
    "ProtocolError",
    "encode_line",
    "loads",
    "FrameProtocol",
    "FrameWriter",
    "READ_AHEAD",
    "connect_frames",
    "encode_frame",
    "read_frame",
    "payload_blob",
    "plain_update_blob",
    "plain_reply_frame",
    "check_request_id",
    "decode_batch_payloads",
    "encode_bin_batch_frame",
    "encode_bin_ack_frame",
    "decode_bin_frame",
    "encode_op",
    "decode_op",
    "encode_ops",
    "decode_ops",
    "encode_spec",
    "decode_spec",
    "encode_mset",
    "decode_mset",
    "decode_payloads",
    "decode_gossip",
    "_keyless",
    "_wrong_arity",
]

#: Upper bound on a single frame; a peer announcing more is corrupt.
MAX_FRAME = 16 * 1024 * 1024

#: Upper bound on MSets per batch frame; the receiver applies a batch
#: in one engine step, so this bounds both its memory buffer and how
#: long that step holds the loop (backpressure against a fast sender
#: flooding a slow replica).
MAX_BATCH_ENTRIES = 4096

_LEN = struct.Struct(">I")

#: high bit of the length word: set on binary frames.
_BIN_FLAG = 0x80000000

#: binary frame kind tags (first body byte).
_BIN_BATCH = 1
_BIN_ACK = 2

_BATCH_HDR = struct.Struct(">BHIQ")  # kind, src length, count, first seq
_BATCH_HEAD = struct.Struct(">IBHIQ")  # the length word, then _BATCH_HDR
_ACK_BODY = struct.Struct(">BQ")     # kind, cumulative channel seq

#: the highest channel seq: a run must end at or below it.
_SEQ_MAX = 2 ** 64 - 1
#: a plain update's ok response body, around its id and its tid's
#: quoted origin (unclosed) and seq.
_PLAIN_REPLY = (
    b'{"type":"response","id":%d,"ok":true,"tid":%s:%d","values":{}}'
)


@functools.lru_cache(maxsize=None)
def _table(count: int) -> struct.Struct:
    """A ``count``-entry batch's blob-length table: one struct per count,
    at most ``MAX_BATCH_ENTRIES`` of them, under 1 MB all told."""
    return struct.Struct(">%dI" % count)


# -- framing -----------------------------------------------------------------

def _encode(obj: Any) -> bytes:
    """Compact UTF-8 JSON of ``obj``.  orjson writes a non-finite float
    as ``null``, so a document holding one — an overflowed store value
    — is encoded by the stdlib, which keeps it.  (``find``: a bytes
    ``in`` first tries its operand as an int, at twice the cost.)"""
    body = orjson.dumps(obj)
    if body.find(b"null") >= 0 and not _finite(obj):
        text = json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
        return text.encode("utf-8")
    return body


def encode_line(obj: Any) -> bytes:
    """:func:`_encode` as one line of a durable log."""
    return _encode(obj) + b"\n"


def loads(doc: Any) -> Any:
    """``json.loads`` of ``doc`` as UTF-8 text — same accepted set,
    values and exceptions — but for an integer literal outside 64 bits,
    read as the nearest float: orjson parses ``bytes`` and ``str``, and
    what it refuses (``NaN``, lone surrogates) goes to ``json.loads``.
    Bytes are read as the logs read a line, strict UTF-8: a BOM or
    UTF-16/32 is refused."""
    if type(doc) is bytes or type(doc) is str:
        try:
            return orjson.loads(doc)
        except orjson.JSONDecodeError:
            if type(doc) is bytes:
                doc = doc.decode("utf-8")
    return json.loads(doc)


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """Serialize one message to its on-wire representation."""
    body = _encode(obj)
    if len(body) > MAX_FRAME:
        raise ProtocolError("frame of %d bytes exceeds MAX_FRAME" % len(body))
    return _LEN.pack(len(body)) + body


def read_frame(body: bytes, binary: int) -> Dict[str, Any]:
    """Decode one frame's body; ``binary``: the length word's high bit.

    The per-frame decoder :class:`FrameProtocol` calls for every frame
    it cuts out of a connection's receive buffer.  Binary frames come
    back as dicts too (``mset-batch`` carries its entries under
    ``"blobs"`` as undecoded payload bytes), so every consumer
    dispatches on ``frame["type"]``.
    """
    if binary:
        return decode_bin_frame(body)
    try:
        obj = loads(body)
    except ValueError as exc:
        raise ProtocolError("undecodable frame: %s" % exc) from exc
    if not isinstance(obj, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return obj


class FrameWriter:
    """Everything one loop turn writes to a connection, as one
    transport write.

    :meth:`write` (encoded bytes) and :meth:`send` (a JSON frame)
    append to one ordered buffer, and the first of a turn schedules a
    ``call_soon`` flush that hands the whole buffer to the transport in
    a single ``write``: a turn's frames leave in call order, whichever
    callback or coroutine wrote them and whichever kind they are.
    Nothing bounds the batch — no size cap, no timer: it is what the
    turn produced, so a lone frame waits for nothing but the end of its
    turn.

    A frame may carry a *waiter*, a future that is failed if the frame
    never reaches the transport (the connection was closing when the
    turn ended, or the write raised): exactly the requests a lost
    buffer carried fail, and no one else.

    Back-pressure is :meth:`drain`: a producer that awaits it after
    writing waits while the transport's buffer is over its high-water
    mark (:meth:`pause` / :meth:`resume`, driven by the protocol's
    ``pause_writing`` / ``resume_writing``), however many producers do.
    """

    def __init__(self, transport: asyncio.WriteTransport) -> None:
        self._transport = transport
        self._loop = asyncio.get_running_loop()
        self._frames: List[bytes] = []
        self._waiters: List["asyncio.Future[Any]"] = []
        #: set while the transport is over its high-water mark.
        self.paused: Optional["asyncio.Future[None]"] = None

    def write(
        self, data: bytes, waiter: Optional["asyncio.Future[Any]"] = None
    ) -> None:
        """Queue one complete encoded frame for this turn's write."""
        if not self._frames:
            self._loop.call_soon(self._flush)
        self._frames.append(data)
        if waiter is not None:
            self._waiters.append(waiter)

    def send(
        self,
        obj: Dict[str, Any],
        waiter: Optional["asyncio.Future[Any]"] = None,
    ) -> None:
        """Queue one JSON frame for this turn's write."""
        self.write(encode_frame(obj), waiter)

    def _flush(self) -> None:
        frames, self._frames = self._frames, []
        waiters, self._waiters = self._waiters, []
        try:
            if self._transport.is_closing():
                raise ConnectionResetError("connection lost before the write")
            self._transport.write(b"".join(frames))
        except (ConnectionError, OSError) as exc:
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_exception(exc)

    def pause(self) -> None:
        if self.paused is None:
            self.paused = self._loop.create_future()

    def resume(self) -> None:
        paused, self.paused = self.paused, None
        if paused is not None:
            paused.set_result(None)

    async def drain(self) -> None:
        """Return once the transport takes more; at once unless it is
        paused."""
        while self.paused is not None:
            # Shielded: a cancelled producer must not cancel the future
            # every other producer is parked on.
            await asyncio.shield(self.paused)


#: unparsed bytes a held connection buffers before it stops reading.
READ_AHEAD = 1 << 18


class FrameProtocol(asyncio.Protocol):
    """One connection of the live runtime, both directions: an
    :class:`asyncio.Protocol`, so no stream and no reader task.

    :meth:`data_received` cuts every complete frame out of the bytes it
    is given — one growable receive buffer holds only what straddles a
    read — decodes each with :func:`read_frame` and hands it to
    ``on_frame(conn, frame)`` in the same step.  A consumer that must
    not see the next frame in this step calls :meth:`hold`: the parser
    returns to the loop and goes on next turn, so one connection's
    batch frames take turns with every other connection's.  Bytes that
    arrive meanwhile are buffered, up to :data:`READ_AHEAD`, then the
    connection stops reading.  A frame that does not decode —
    oversized, truncated, not an object — is handed to
    ``on_error(exc)`` and closes the connection.

    Writes go through :attr:`frames`, the connection's
    :class:`FrameWriter`.  While the transport's write buffer is over
    its high-water mark, :meth:`FrameWriter.drain` waits and, with
    ``throttle_reads``, the connection reads nothing either: a side
    that answers what it reads takes no more than its answers drain.
    """

    def __init__(
        self,
        on_frame: Callable[["FrameProtocol", Dict[str, Any]], None],
        on_error: Optional[Callable[[ProtocolError], None]] = None,
        throttle_reads: bool = False,
    ) -> None:
        self._on_frame = on_frame
        self._on_error = on_error
        self._throttle = throttle_reads
        self._buf = bytearray()
        #: no further frame is parsed this turn (or ever, once closed).
        self._held = False
        #: why reading is paused ("writes", "buffer"); empty: reading.
        self._stops: Set[str] = set()
        #: the loop the connection runs on.
        self.loop = asyncio.get_running_loop()
        #: resolved by ``connection_lost``.
        self.lost: "asyncio.Future[None]" = self.loop.create_future()
        self.transport: Optional[asyncio.Transport] = None
        self.frames: FrameWriter

    # -- transport callbacks ---------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.frames = FrameWriter(transport)  # type: ignore[arg-type]

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._held = True
        self.frames.resume()  # a parked producer finds the loss itself
        if not self.lost.done():
            self.lost.set_result(None)

    def pause_writing(self) -> None:
        self.frames.pause()
        if self._throttle:
            self._stop("writes")

    def resume_writing(self) -> None:
        self.frames.resume()
        if self._throttle:
            self._go("writes")

    def data_received(self, data: bytes) -> None:
        buf = self._buf
        if buf or self._held:
            buf += data
            if not self._held:
                self._parse()
        else:
            used = self._cut(data)
            if used < len(data):
                buf += memoryview(data)[used:]
        if self._held and len(buf) > READ_AHEAD:
            self._stop("buffer")

    # -- parsing ---------------------------------------------------------------

    def _cut(self, src: Any) -> int:
        """Hand each complete frame at the start of ``src`` to the
        consumer, until it holds; returns the bytes consumed."""
        pos = 0
        size = len(src)
        with memoryview(src) as view:
            while size - pos >= 4 and not self._held:
                (length,) = _LEN.unpack_from(view, pos)
                binary = length & _BIN_FLAG
                length &= ~_BIN_FLAG
                if length > MAX_FRAME:
                    self._fail(
                        ProtocolError(
                            "frame of %d bytes exceeds MAX_FRAME" % length
                        )
                    )
                    break
                end = pos + 4 + length
                if end > size:
                    break
                body = bytes(view[pos + 4:end])
                pos = end
                try:
                    frame = read_frame(body, binary)
                except ProtocolError as exc:
                    self._fail(exc)
                    break
                self._on_frame(self, frame)
        return pos

    def _parse(self) -> None:
        buf = self._buf
        del buf[:self._cut(buf)]
        if not self._held or len(buf) <= READ_AHEAD:
            self._go("buffer")

    def hold(self) -> None:
        """Parse no further frame in this step: go on next turn."""
        self._held = True
        self.loop.call_soon(self._release)

    def _release(self) -> None:
        if self.transport is not None and not self.transport.is_closing():
            self._held = False
            self._parse()

    def _fail(self, exc: ProtocolError) -> None:
        if self._on_error is not None:
            self._on_error(exc)
        self.close()

    def _stop(self, reason: str) -> None:
        if not self._stops:
            self.transport.pause_reading()  # type: ignore[union-attr]
        self._stops.add(reason)

    def _go(self, reason: str) -> None:
        if reason in self._stops:
            self._stops.discard(reason)
            if not self._stops:
                self.transport.resume_reading()  # type: ignore[union-attr]

    # -- lifetime --------------------------------------------------------------

    @property
    def closing(self) -> bool:
        return self.transport is None or self.transport.is_closing()

    def close(self) -> None:
        """Stop parsing; close once what is buffered for writing left."""
        self._held = True
        if self.transport is not None:
            self.transport.close()

    def abort(self) -> None:
        """Stop parsing and drop the connection now (a crash)."""
        self._held = True
        if self.transport is not None:
            self.transport.abort()

    async def wait_closed(self) -> None:
        await asyncio.shield(self.lost)


async def connect_frames(
    addr: Tuple[str, int],
    on_frame: Callable[[FrameProtocol, Dict[str, Any]], None],
    link: Any = None,
) -> FrameProtocol:
    """Dial ``addr`` and run a :class:`FrameProtocol` on the socket.  A
    :class:`~repro.live.faults.Link` refuses the dial while severed and
    otherwise faults every frame the connection writes."""
    if link is not None:
        link.check()
    loop = asyncio.get_running_loop()
    _, conn = await loop.create_connection(
        lambda: FrameProtocol(on_frame), addr[0], addr[1]
    )
    if link is not None:
        link.attach(conn)
    return conn


# -- binary frames -----------------------------------------------------------


def payload_blob(payload: Dict[str, Any]) -> bytes:
    """Canonical bytes of one channel payload dict.

    This is the unit of the zero re-encode relay: computed once when
    an MSet enters its outbox, then forwarded verbatim inside binary
    batch frames *and* spliced verbatim into durable-log JSON lines
    (see :mod:`repro.live.durable_queue`), in the module's codec and
    value domain; JSON keeps the logs debuggable, the binary framing
    around it removes the per-hop re-encode.  Held until every peer
    acks it, a blob is copied to its exact size: orjson's ``bytes``
    keep a ~1 KiB allocation each, ~100 MB for 100k held blobs.
    """
    return bytes(memoryview(_encode(payload)))


@functools.lru_cache(maxsize=None)
def _encoded_name(name: str) -> bytes:
    return _encode(name)


def plain_update_blob(ops: list) -> bytes:
    """:func:`payload_blob` of a plain update, whose payload is its
    operations' arrays ``ops`` (its tid is where it is logged, its
    origin whose log that is): one encode, copied to its exact size.
    Not :func:`payload_blob` itself, so a benchmark that times that
    function times the payloads of other entries alone."""
    return bytes(memoryview(_encode(ops)))


def check_request_id(rid: Any) -> None:
    """Refuse, as ``ProtocolError``, a request id no reply can carry
    back: an int past 64 bits, or anything else :func:`encode_frame`
    would not encode (a lone surrogate) — :func:`loads` yields those
    from a frame that ``json.loads`` parsed.  Such a request is refused
    unexecuted, with a null id."""
    if type(rid) is int:
        if -(2 ** 63) <= rid <= _SEQ_MAX:
            return
    elif rid is None or type(rid) is str and rid.isascii():
        return
    else:
        try:
            _encode(rid)
            return
        except (TypeError, ValueError):
            pass
    raise ProtocolError("request id cannot be carried by a reply")


def plain_reply_frame(rid: int, origin: str, seq: int) -> bytes:
    """:func:`encode_frame` of the ok response to the plain update
    ``origin`` logged as ``seq`` — ``{"type": "response", "id": rid,
    "ok": True, "tid": "<origin>:<seq>", "values": {}}`` — byte for
    byte, spliced around the site name's encoding: a ``:`` and digits
    need no escape, so the tid encodes as the name does with ``:<seq>``
    inside its quotes.
    Raises ``TypeError`` for an ``rid`` orjson would not encode as
    that integer (not exactly an ``int``, or past 64 bits), and
    ``ProtocolError`` past ``MAX_FRAME``, as :func:`encode_frame`
    would."""
    if type(rid) is not int or not -(2 ** 63) <= rid <= _SEQ_MAX:
        raise TypeError("request id %r is not a 64-bit int" % (rid,))
    body = _PLAIN_REPLY % (rid, _encoded_name(origin)[:-1], seq)
    if len(body) > MAX_FRAME:
        raise ProtocolError("frame of %d bytes exceeds MAX_FRAME" % len(body))
    return _LEN.pack(len(body)) + body


def _read_blob(blob: bytes) -> Any:
    """One blob as the logs' reader reads it (:func:`loads`)."""
    try:
        return loads(blob)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError("payload blob is not JSON: %s" % exc) from exc


def decode_batch_payloads(blobs: Sequence[bytes]) -> List[Any]:
    """The payload of each of a run of batch entries, in order, for
    :func:`~repro.replica.mset.decode_payloads`.  The run is accepted
    iff each blob is — iff the inbox log line it is spliced into reads
    back as it: holding no raw newline to cut that line in two (one
    search over the run), and parsed on its own by the logs' reader
    (orjson mapped over the run, else :func:`loads` blob by blob).  A
    refused run raises :class:`ProtocolError`."""
    if b"".join(blobs).find(b"\n") >= 0:
        raise ProtocolError("payload blob holds a raw newline")
    try:
        return list(map(orjson.loads, blobs))
    except orjson.JSONDecodeError:
        return list(map(_read_blob, blobs))


def encode_bin_batch_frame(
    src: str, first: int, blobs: Sequence[bytes]
) -> bytes:
    """One complete binary ``mset-batch`` frame (header included): the
    payload ``blobs`` of channel seqs ``first``, ``first + 1``, ...,
    behind one header and one length table, written by one join."""
    count = len(blobs)
    if not 0 < count <= MAX_BATCH_ENTRIES:
        raise ProtocolError(
            "mset-batch of %d entries (1 to MAX_BATCH_ENTRIES)" % count
        )
    if first < 0 or first + count - 1 > _SEQ_MAX:
        raise ProtocolError(
            "mset-batch run %d+%d is not within 64-bit seqs" % (first, count)
        )
    src_bytes = src.encode("utf-8")
    if len(src_bytes) > 0xFFFF:
        raise ProtocolError("site name of %d bytes" % len(src_bytes))
    if count == 1:
        size = len(blobs[0])
        table = _LEN.pack(size)
    else:
        lengths = list(map(len, blobs))
        size = sum(lengths)
        table = _table(count).pack(*lengths)
    size += _BATCH_HDR.size + len(src_bytes) + 4 * count
    if size > MAX_FRAME:
        raise ProtocolError("frame of %d bytes exceeds MAX_FRAME" % size)
    return b"".join([
        _BATCH_HEAD.pack(
            _BIN_FLAG | size, _BIN_BATCH, len(src_bytes), count, first
        ),
        src_bytes,
        table,
        *blobs,
    ])


def encode_bin_ack_frame(seq: int) -> bytes:
    """One complete binary cumulative-ack frame (header included)."""
    return _LEN.pack(_BIN_FLAG | _ACK_BODY.size) + _ACK_BODY.pack(
        _BIN_ACK, seq
    )


def decode_bin_frame(body: bytes) -> Dict[str, Any]:
    """Decode one binary frame body into the normalized dict form.

    An ``mset-batch`` comes back as its run: the channel seq of its
    first entry under ``"first"`` and the *undecoded* payload blobs
    under ``"blobs"`` — the receiver decodes each blob exactly once,
    on the apply path.  Every malformation raises
    :class:`ProtocolError`, never an untyped exception.
    """
    if not body:
        raise ProtocolError("empty binary frame")
    kind = body[0]
    if kind == _BIN_ACK:
        if len(body) != _ACK_BODY.size:
            raise ProtocolError(
                "binary ack of %d bytes (want %d)"
                % (len(body), _ACK_BODY.size)
            )
        _, seq = _ACK_BODY.unpack(body)
        return {"type": "ack", "seq": seq}
    if kind != _BIN_BATCH:
        raise ProtocolError("unknown binary frame kind %d" % kind)
    try:
        _, src_len, count, first = _BATCH_HDR.unpack_from(body, 0)
    except struct.error as exc:
        raise ProtocolError("truncated binary batch header") from exc
    if not 0 < count <= MAX_BATCH_ENTRIES:
        raise ProtocolError(
            "mset-batch of %d entries (1 to MAX_BATCH_ENTRIES)" % count
        )
    if first + count - 1 > _SEQ_MAX:
        raise ProtocolError(
            "mset-batch run %d+%d passes 64-bit seqs" % (first, count)
        )
    offset = _BATCH_HDR.size + src_len
    if len(body) < offset:
        raise ProtocolError("truncated binary batch src")
    try:
        src = body[_BATCH_HDR.size:offset].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError("undecodable batch src: %s" % exc) from exc
    end = offset + 4 * count
    if len(body) < end:
        raise ProtocolError("truncated batch length table")
    if count == 1:
        start, end = end, end + _LEN.unpack_from(body, offset)[0]
        blobs = [body[start:end]]
    else:
        blobs = []
        for length in _table(count).unpack_from(body, offset):
            start, end = end, end + length
            blobs.append(body[start:end])
    if end > len(body):
        raise ProtocolError("truncated batch entry blob")
    if end < len(body):
        raise ProtocolError(
            "%d trailing bytes after binary batch" % (len(body) - end)
        )
    return {"type": "mset-batch", "src": src, "first": first,
            "blobs": tuple(blobs)}


# -- epsilon specs -----------------------------------------------------------


def _limit_in(value: Any) -> float:
    if value is None:
        return UNLIMITED
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ProtocolError("non-numeric epsilon limit %r" % (value,)) from exc


def encode_spec(spec: EpsilonSpec) -> Dict[str, Any]:
    """The finite limits only: :func:`decode_spec` reads an absent
    limit (or a ``null`` one) as unlimited, so a query request carries
    no ``null`` for :func:`_encode` to check."""
    limits = (("import", spec.import_limit), ("value", spec.value_limit))
    return {name: value for name, value in limits if value != UNLIMITED}


def decode_spec(data: Optional[Dict[str, Any]]) -> EpsilonSpec:
    if not data:
        return EpsilonSpec()
    return EpsilonSpec(
        import_limit=_limit_in(data.get("import")),
        value_limit=_limit_in(data.get("value")),
    )


# -- heartbeat gossip ----------------------------------------------------------


def decode_gossip(data: Any) -> Optional[Tuple[List[Dict[str, Any]], Any]]:
    """Decode a heartbeat's gossip digest, totally: ``None`` for no
    digest, else ``(node records, leadership)``, the leadership as
    ``(epoch, leader, base)`` or ``None`` when absent.  Any malformed
    digest raises :class:`ProtocolError`, so a receiver checks it whole
    before it changes anything.  The fields of one node record are read
    by ``MembershipTable.merge``, which skips a record it cannot read."""
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ProtocolError("gossip must be an object: %r" % (data,))
    nodes = data.get("nodes", [])
    if not isinstance(nodes, list) or not all(
        isinstance(rec, dict) for rec in nodes
    ):
        raise ProtocolError("gossip nodes must be objects: %r" % (nodes,))
    leader = data.get("leader")
    if leader is None:
        return nodes, None
    if not isinstance(leader, dict):
        raise ProtocolError("gossip leader must be an object: %r" % (leader,))
    epoch, who, base = (
        leader.get("epoch", 0), leader.get("leader"), leader.get("base", 0)
    )
    if type(epoch) is not int or type(base) is not int or not (
        who is None or isinstance(who, str)
    ):
        raise ProtocolError("malformed gossip leader: %r" % (leader,))
    return nodes, (epoch, who, base)
