"""Stable queues: persistent, retrying message channels.

Paper section 2.2: "we factor out the problem of message losses by
encapsulating it in stable queues which persistently retry message
delivery until successful", citing recoverable queues [5] and
persistent pipes [17].  Each MSet is an element of a stable queue.

The queue provides an **at-least-once, eventually-delivered** contract
over the lossy, partitionable network: every enqueued message is
retried until the receiver acknowledges it.  Receivers deduplicate via
per-channel sequence numbers, so the application-visible contract is
exactly-once.  Delivery order is *not* guaranteed unless ``fifo=True``
— ORDUP explicitly tolerates out-of-order delivery ("a 'later' MSet can
be delivered before an 'earlier' MSet", section 3.1), while the FIFO
mode models site-sequential channels.

Queue contents survive site crashes (they are stable storage): a
crashed receiver simply acknowledges nothing until it recovers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set

from .events import Simulator
from .network import Network

__all__ = ["StableQueue", "QueueStats", "Envelope"]


@dataclass(frozen=True)
class Envelope:
    """A queued message with its channel sequence number."""

    src: str
    dst: str
    seqno: int
    payload: Any


@dataclass
class QueueStats:
    enqueued: int = 0
    delivered: int = 0
    retries: int = 0
    duplicates_suppressed: int = 0


class StableQueue:
    """One outbound stable queue per (source, destination) channel."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        src: str,
        dst: str,
        deliver: Callable[[Any], None],
        retry_interval: float = 5.0,
        fifo: bool = False,
        jitter: float = 0.0,
        size_of: Optional[Callable[[Any], float]] = None,
    ) -> None:
        """Args:
            deliver: receiver-side handler invoked exactly once per
                payload (after deduplication).
            retry_interval: base delay before re-sending an
                unacknowledged message.
            fifo: when True, hold back message *n+1* until *n* has been
                acknowledged (site-sequential channel).
            jitter: +/- fraction of retry_interval randomized per retry
                to avoid lockstep retries in large fleets.
            size_of: message-size estimator for bandwidth-limited
                networks (default: every message is 1 unit).
        """
        self.sim = sim
        self.network = network
        self.src = src
        self.dst = dst
        self._deliver = deliver
        self.retry_interval = retry_interval
        self.fifo = fifo
        self.jitter = jitter
        self.size_of = size_of or (lambda payload: 1.0)
        self.stats = QueueStats()
        self._seq = itertools.count(1)
        #: messages awaiting acknowledgement, by seqno.
        self._pending: Dict[int, Envelope] = {}
        #: seqnos already applied at the receiver (dedup filter).
        self._acked: Set[int] = set()
        self._receiver_seen: Set[int] = set()
        #: next seqno the FIFO channel may transmit.
        self._fifo_frontier = 1
        #: paused while the *sender* site is crashed.
        self._paused = False

    # -- sending ----------------------------------------------------------------

    def enqueue(self, payload: Any) -> Envelope:
        """Persistently queue ``payload`` for delivery to ``dst``."""
        envelope = Envelope(self.src, self.dst, next(self._seq), payload)
        self._pending[envelope.seqno] = envelope
        self.stats.enqueued += 1
        self._transmit(envelope)
        return envelope

    def pause(self) -> None:
        """Sender crashed: stop transmitting (queue content survives)."""
        self._paused = True

    def resume(self) -> None:
        """Sender recovered: resume retrying everything still pending."""
        self._paused = False
        for envelope in sorted(self._pending.values(), key=lambda e: e.seqno):
            self._transmit(envelope)

    def _transmit(self, envelope: Envelope) -> None:
        if self._paused or envelope.seqno not in self._pending:
            return
        if self.fifo and envelope.seqno != self._fifo_frontier:
            return  # held back until predecessors are acknowledged
        self.network.send(
            self.src,
            self.dst,
            envelope,
            on_deliver=self._on_receive,
            on_drop=self._on_drop,
            size=self.size_of(envelope.payload),
        )

    def _on_drop(self, envelope: Envelope) -> None:
        self._schedule_retry(envelope)

    def _schedule_retry(self, envelope: Envelope) -> None:
        if envelope.seqno not in self._pending:
            return
        delay = self.retry_interval
        if self.jitter:
            spread = self.retry_interval * self.jitter
            delay += self.sim.rng.uniform(-spread, spread)
        self.stats.retries += 1
        self.sim.schedule(max(delay, 0.001), lambda: self._transmit(envelope))

    # -- receiving ---------------------------------------------------------------

    def _on_receive(self, envelope: Envelope) -> None:
        if envelope.seqno in self._receiver_seen:
            self.stats.duplicates_suppressed += 1
            self._ack(envelope.seqno)
            return
        self._receiver_seen.add(envelope.seqno)
        self.stats.delivered += 1
        self._deliver(envelope.payload)
        self._ack(envelope.seqno)

    def _ack(self, seqno: int) -> None:
        """Acknowledgement travels back over the network too."""

        def apply_ack(_: Any) -> None:
            self._pending.pop(seqno, None)
            self._acked.add(seqno)
            if self.fifo:
                while self._fifo_frontier in self._acked:
                    self._fifo_frontier += 1
                nxt = self._pending.get(self._fifo_frontier)
                if nxt is not None:
                    self._transmit(nxt)

        def ack_lost(_: Any) -> None:
            # The sender never learned of the delivery; retry the
            # original message — receiver-side dedup absorbs the
            # duplicate and triggers a fresh ack attempt.
            envelope = self._pending.get(seqno)
            if envelope is not None:
                self._schedule_retry(envelope)

        self.network.send(
            self.dst, self.src, seqno, on_deliver=apply_ack, on_drop=ack_lost
        )

    # -- monitoring ----------------------------------------------------------------

    def drained(self) -> bool:
        """True when everything enqueued has been delivered and acked."""
        return not self._pending

    def kick(self) -> None:
        """Force an immediate retry of all pending messages.

        Called after a partition heals so the benchmarks need not wait
        for the next retry tick (the paper's reconnection processing).
        """
        for envelope in sorted(self._pending.values(), key=lambda e: e.seqno):
            self._transmit(envelope)
