"""One peer channel's outbound state, without a socket.

Each peer channel ships what the replication log owes the peer as
``mset-batch`` frames (everything pending, up to ``FRAME_MSETS`` a
frame) with ``FRAMES_IN_FLIGHT`` of them unacknowledged instead of
stop-and-waiting on each.  Acks are *cumulative* — ``ack.seq`` covers
every channel sequence number ``<= seq`` — so one reply can retire
several frames and the peer's cursor moves in one step.  A
:class:`PeerChannel` holds that window and does no I/O; the server
dials, writes and waits around it, and moves the log's cursor.
"""

from __future__ import annotations

import asyncio
from bisect import bisect_right
from collections import deque
from itertools import accumulate
from typing import Any, Deque, List, Optional, Tuple

from ..obs.registry import DEFAULT_LATENCY_BUCKETS, DEFAULT_SIZE_BUCKETS
from .protocol import MAX_FRAME

__all__ = ["FRAME_MSETS", "FRAMES_IN_FLIGHT", "ChannelFamilies", "PeerChannel"]

#: MSets per ``mset-batch`` frame, at most, and frames a channel keeps
#: unacknowledged.  The first bounds how long one frame holds the
#: receiver's loop, so it is not "everything pending" (docs/LIVE.md).
FRAME_MSETS = 256
FRAMES_IN_FLIGHT = 4


def _resolve(waiter: asyncio.Future) -> None:
    if not waiter.done():
        waiter.set_result(None)


class _Wakeup:
    """A flag one coroutine parks on, without a task per wait.

    :meth:`set` raises the flag and wakes the parked :meth:`wait`;
    :meth:`wait` returns at once while the flag is up, else parks one
    future with one ``call_later`` deadline (``asyncio.wait_for`` would
    wrap a task around every wake-up on Python 3.10 and 3.11).
    """

    __slots__ = ("is_set", "_waiter")

    def __init__(self) -> None:
        self.is_set = True
        self._waiter: Optional[asyncio.Future] = None

    def set(self) -> None:
        self.is_set = True
        if self._waiter is not None:
            _resolve(self._waiter)

    def clear(self) -> None:
        self.is_set = False

    async def wait(self, timeout: float) -> None:
        if self.is_set:
            return
        loop = asyncio.get_running_loop()
        waiter = self._waiter = loop.create_future()
        timer = loop.call_later(timeout, _resolve, waiter)
        try:
            await waiter
        finally:
            timer.cancel()
            self._waiter = None


class ChannelFamilies:
    """A replica's channel metric families, registered with or without
    peers (docs/OBSERVABILITY.md)."""

    def __init__(self, reg: Any) -> None:
        self.acked_msets = reg.counter(
            "channel_acked_msets_total",
            "MSets cumulatively acknowledged by one peer since boot",
            labels=("peer",),
        )
        self.ack_latency = reg.histogram(
            "ack_latency_seconds",
            "batch send-to-cumulative-ack latency per peer channel",
            labels=("peer",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.batch_msets = reg.histogram(
            "batch_msets",
            "MSets coalesced into each outbound propagation frame",
            buckets=DEFAULT_SIZE_BUCKETS + (512,),  # past FRAME_MSETS
        )
        self.errors = reg.counter(
            "channel_errors_total",
            "peer channel sessions ended by a transport/protocol error",
            labels=("peer",),
        )
        self.frames = reg.counter(
            "propagation_frames_total",
            "outbound propagation batch frames written",
            labels=("peer",),
        )
        self.relayed = reg.counter(
            "frames_relayed_total",
            "MSets forwarded as already-encoded payload bytes "
            "(zero re-encode relay)",
            labels=("peer",),
        )


class PeerChannel:
    """One peer's outbound channel: its wake-up, the current
    connection's window, the owed ``peer-reset`` and its statistics."""

    def __init__(
        self, peer: str, reset_owed: bool, families: ChannelFamilies
    ) -> None:
        self.peer = peer
        #: the sender's wake-up: an append, an ack or a lost connection.
        self.wakeup = _Wakeup()
        #: per connection: the highest channel seq handed to it, the
        #: (last_seq, sent_at, n_msets) record of each un-retired
        #: frame, and when it heartbeats next.
        self.sent_hi = 0
        self.inflight: Deque[Tuple[int, float, int]] = deque()
        self.hb_next = 0.0
        #: the peer is owed a ``peer-reset`` frame.
        self.reset_owed = reset_owed
        #: consecutive connect/send failures.
        self.failures = 0
        #: MSets cumulatively acknowledged since boot, and the rolling
        #: frame-ack latencies (seconds).
        self.acked_msets = 0
        self.ack_latencies: Deque[float] = deque(maxlen=512)
        self._m_acked = families.acked_msets.labels(peer=peer)
        self._m_latency = families.ack_latency.labels(peer=peer)
        self._m_errors = families.errors.labels(peer=peer)
        self._m_frames = families.frames.labels(peer=peer)
        self._m_relayed = families.relayed.labels(peer=peer)
        self._m_batch = families.batch_msets

    def connect(self, frontier: int) -> None:
        """A new connection sends from the durable ``frontier`` and
        heartbeats at once."""
        self.restart(frontier)
        self.hb_next = 0.0

    def failed(self) -> None:
        self.failures += 1
        self._m_errors.inc()

    def restart(self, frontier: int) -> None:
        """Forget what is in flight and send again from ``frontier``."""
        self.inflight.clear()
        self.sent_hi = frontier

    def stalled(self, now: float, timeout: float, frontier: int) -> bool:
        """Stalled pipeline (dropped/reordered frames or a dead peer):
        the oldest frame in flight went unacknowledged past ``timeout``.
        Fall back to the durable ``frontier`` and re-send."""
        if self.inflight and now - self.inflight[0][1] > timeout:
            self.restart(frontier)
            return True
        return False

    def want(self) -> int:
        """Bounded fetch: one send round uses at most a full frame per
        free window slot; scanning (or planning) more would cost
        O(backlog) per wakeup and make a deep backlog's drain
        quadratic."""
        return max(0, FRAMES_IN_FLIGHT - len(self.inflight)) * FRAME_MSETS

    def cut(
        self, first: int, blobs: List[bytes], now: float
    ) -> List[Tuple[int, List[bytes]]]:
        """Cut ``blobs`` — the run of consecutive seqs from ``first``
        the log's :meth:`~repro.live.durable_queue.DurableOutbox.
        pending_after` handed out — into at most the free window's
        runs, ``(first seq, blobs)`` each, and record them as in flight.

        A run ends at ``FRAME_MSETS`` MSets or before its blobs pass
        ``MAX_FRAME // 2`` bytes (a blob over that goes alone), found by
        a bisect over the blobs' running sizes; the rest waits for the
        next round, and ``sent_hi`` is the last seq written.
        """
        room = FRAMES_IN_FLIGHT - len(self.inflight)
        ends = list(accumulate(map(len, blobs)))
        budget = MAX_FRAME // 2
        runs: List[Tuple[int, List[bytes]]] = []
        start, sent = 0, 0
        while start < len(blobs) and len(runs) < room:
            hi = min(len(blobs), start + FRAME_MSETS)
            stop = max(start + 1, bisect_right(ends, sent + budget, start, hi))
            runs.append((first + start, blobs[start:stop]))
            self.sent_hi = first + stop - 1
            self.inflight.append((self.sent_hi, now, stop - start))
            self._m_batch.observe(stop - start)
            self._m_relayed.inc(stop - start)
            self._m_frames.inc()
            start, sent = stop, ends[stop - 1]
        return runs

    def retire(self, seq: int, now: float) -> None:
        """A cumulative ack of ``seq`` retires every frame in flight at
        or below it."""
        inflight = self.inflight
        while inflight and inflight[0][0] <= seq:
            _, sent_at, count = inflight.popleft()
            self.ack_latencies.append(now - sent_at)
            self._m_latency.observe(now - sent_at)
            self.acked_msets += count
            self._m_acked.set_to(self.acked_msets)

    def wait_timeout(
        self, now: float, retry_base: float, ack_timeout: float
    ) -> float:
        """How long the idle sender parks: until its next heartbeat or,
        with frames in flight, the oldest one's stall deadline."""
        timeout = max(0.01, self.hb_next - now)
        if self.inflight:
            timeout = min(
                timeout,
                max(retry_base, ack_timeout - (now - self.inflight[0][1])),
            )
        return timeout

    @property
    def ack_ms(self) -> Optional[float]:
        """The rolling mean frame-ack latency in ms (None before any)."""
        lats = self.ack_latencies
        return round(sum(lats) / len(lats) * 1000.0, 3) if lats else None
