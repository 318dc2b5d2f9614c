"""Seeded fault injection for the live replica runtime.

The live analogue of :mod:`repro.sim.failures`, on the real transport.
The adversary lives on the connection, not in the replica: a connection
dialed with a plan's :class:`Link` (``connect_frames(addr, on_frame,
link)``) decides the fate of each frame it writes, once, as it leaves.
A frame is *dropped*, *duplicated*, *delayed* — it leaves at
``max(previous leave time, now + delay)``, bandwidth included, so the
connection stays FIFO and no sender awaits a fault — or *reordered*:
swapped with its successor in its flush.  Whole frames are reordered,
never the entries of one: a real sender writes only contiguous runs,
and to a receiver a gap is a gap, whether a frame was lost or
overtaken.  A severed link refuses every dial between its two sites,
either way, before any socket exists, and :meth:`FaultPlan.sever`
aborts the connections open between them.  A dialer waiting out its
backoff over a severed link (:meth:`Link.backoff`) redials when the
plan heals the link, as the simulator's heal kicks the queues
(:mod:`repro.sim.failures`).  Only frames the *dialer*
writes take fate, not replies or acks; the at-least-once retry +
frontier dedup machinery must absorb it all.

Each directed link draws its fates from its own :class:`random.Random`
seeded by ``(plan seed, src, dst)``: the fault *pressure* per link is
reproducible however asyncio interleaves the connections.

Usage::

    plan = FaultPlan(seed=7, default=LinkFaults(drop=0.05, delay_max=0.01))
    cluster = LiveCluster(n_sites=3, faults=plan)
    plan.partition([["site2"], ["site0", "site1"]])   # sever cross links
    plan.heal_all()                                   # end the partition
"""

from __future__ import annotations

import asyncio
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from .channel import _resolve
from .protocol import FrameProtocol, FrameWriter

__all__ = ["LinkFaults", "Link", "FaultPlan", "WAN_INTRA", "WAN_INTER"]


@dataclass(frozen=True)
class LinkFaults:
    """Per-directed-link fault rates applied to outbound frames."""

    #: probability an outbound frame is silently dropped.
    drop: float = 0.0
    #: probability a (non-dropped) frame is sent twice.
    duplicate: float = 0.0
    #: probability a frame is swapped with its successor in its flush.
    reorder: float = 0.0
    #: uniform added latency range, seconds.
    delay_min: float = 0.0
    delay_max: float = 0.0
    #: bytes/second (0 = unmodelled): ``nbytes / bandwidth`` of
    #: transmission delay is added to each frame's propagation delay.
    bandwidth: float = 0.0

    def quiet(self) -> bool:
        """True when this spec injects nothing."""
        return not any((self.drop, self.duplicate, self.reorder,
                        self.delay_max, self.bandwidth))


#: Intra-region link profile: sub-millisecond propagation, no
#: meaningful bandwidth ceiling at our frame sizes.
WAN_INTRA = LinkFaults(delay_min=0.0005, delay_max=0.002)

#: Inter-region WAN profile: tens of milliseconds of propagation plus
#: a 4 MiB/s bandwidth model, so big mset-batch frames pay a visible
#: serialization cost crossing regions.
WAN_INTER = LinkFaults(delay_min=0.02, delay_max=0.06, bandwidth=4 << 20)


class Link:
    """The directed link ``src -> dst`` of a plan: its fate stream, its
    :class:`LinkFaults`, its sever state and its open connections."""

    def __init__(self, plan: "FaultPlan", src: str, dst: str) -> None:
        self.plan, self.src, self.dst = plan, src, dst
        # str seeding hashes with sha512 — stable across processes,
        # unlike hash() which PYTHONHASHSEED randomizes.
        self.rng = random.Random("%d|%s>%s" % (plan.seed, src, dst))
        #: connections dialed over this link, until each is lost.
        self.conns: Set[FrameProtocol] = set()
        #: dialers parked in :meth:`backoff` while the link is severed.
        self.retries: Set[asyncio.Future] = set()

    @property
    def faults(self) -> LinkFaults:
        return self.plan._specs.get((self.src, self.dst), self.plan.default)

    @property
    def severed(self) -> bool:
        """Either direction is cut: a connection needs both."""
        cut = self.plan._severed
        return (self.src, self.dst) in cut or (self.dst, self.src) in cut

    def fate(self, nbytes: int) -> Tuple[int, float]:
        """``(copies, delay)`` of the next outbound frame of ``nbytes``:
        0 copies drops it, 2 duplicate it; ``delay`` is in seconds."""
        faults = self.faults
        if faults.quiet():
            return 1, 0.0
        rng, counts = self.rng, self.plan.counts
        copies = 1
        if rng.random() < faults.drop:
            copies = 0
            counts["dropped"] += 1
        elif rng.random() < faults.duplicate:
            copies = 2
            counts["duplicated"] += 1
        delay = 0.0
        if faults.delay_max > 0:
            delay = rng.uniform(faults.delay_min, faults.delay_max)
        if faults.bandwidth > 0:
            delay += nbytes / faults.bandwidth
        if delay:
            counts["delayed"] += 1
        return copies, delay

    def reorder(self, frames: List[bytes]) -> None:
        """Swap each of one flush's frames with its successor with the
        link's ``reorder`` probability (a swapped pair stays swapped)."""
        i = 0
        while i < len(frames) - 1:
            if self.rng.random() < self.faults.reorder:
                frames[i], frames[i + 1] = frames[i + 1], frames[i]
                self.plan.counts["reordered"] += 1
                i += 1
            i += 1

    def check(self) -> None:
        """Refuse a dial over a severed link, before any socket."""
        if self.severed:
            self.plan.counts["blocked"] += 1
            raise ConnectionRefusedError("no route to peer %s" % self.dst)

    async def backoff(self, delay: float) -> None:
        """Wait ``delay`` seconds before the next dial over this link;
        while it is severed, only until the plan heals it.  So a healed
        link is redialed at the heal, not at a timer whose phase the
        traffic before the heal happened to set."""
        if not self.severed:
            await asyncio.sleep(delay)
            return
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()
        timer = loop.call_later(delay, _resolve, waiter)
        self.retries.add(waiter)
        try:
            await waiter
        finally:
            timer.cancel()
            self.retries.discard(waiter)

    def attach(self, conn: FrameProtocol) -> None:
        """Write a connection just dialed over this link through it."""
        conn.frames = _LinkWriter(conn.transport, self)  # type: ignore
        self.conns.add(conn)
        conn.lost.add_done_callback(lambda _: self.conns.discard(conn))
        if self.severed:  # cut while the dial was in flight
            self.abort()

    def abort(self) -> None:
        """Drop every connection open on this link now."""
        for conn in list(self.conns):
            self.plan.counts["blocked"] += 1
            conn.abort()


class _LinkWriter(FrameWriter):
    """A :class:`FrameWriter` whose frames meet the link's fate as each
    turn's flush hands them on.  Delayed frames wait, in leave order,
    for ``loop.call_at``; a frame past the flush is the link's, so,
    dropped or late, its waiter is not failed."""

    def __init__(self, transport: asyncio.WriteTransport, link: Link) -> None:
        super().__init__(transport)
        self._link = link
        #: frames not yet written, as (leave time, bytes), in order.
        self._late: Deque[Tuple[float, bytes]] = deque()

    def _flush(self) -> None:
        link, late = self._link, self._late
        if self._transport.is_closing() or (link.faults.quiet() and not late):
            super()._flush()
            return
        frames, self._frames, self._waiters = self._frames, [], []
        if len(frames) > 1 and link.faults.reorder:
            link.reorder(frames)
        waiting = bool(late)  # a release is already scheduled
        now = self._loop.time()
        for data in frames:
            copies, delay = link.fate(len(data))
            leave = max(now + delay, late[-1][0] if late else now)
            late.extend([(leave, data)] * copies)
        if late and not waiting:
            self._release(now)

    def _release(self, due: float) -> None:
        """Write every frame due by ``due``; schedule the next."""
        late = self._late
        if self._transport.is_closing():
            late.clear()
            return
        out: List[bytes] = []
        while late and late[0][0] <= due:
            out.append(late.popleft()[1])
        if out:
            self._transport.write(b"".join(out))
        if late:
            self._loop.call_at(late[0][0], self._release, late[0][0])


class FaultPlan:
    """A seeded, deterministic schedule of transport misbehavior,
    shared by every replica of a cluster: each hands :meth:`link` to
    every connection it dials.  Rates are read frame by frame and a
    sever acts at once, so tests drive partitions while a cluster runs.
    """

    def __init__(
        self, seed: int = 0, default: Optional[LinkFaults] = None
    ) -> None:
        self.seed = seed
        self.default = default if default is not None else LinkFaults()
        self._specs: Dict[Tuple[str, str], LinkFaults] = {}
        self._severed: Set[Tuple[str, str]] = set()
        self._links: Dict[Tuple[str, str], Link] = {}
        #: region name -> site names, when set_regions configured one.
        self.regions: Dict[str, Tuple[str, ...]] = {}
        #: observability: how much damage was actually injected;
        #: ``blocked`` counts refused dials plus aborted connections.
        self.counts: Dict[str, int] = dict.fromkeys(
            ("dropped", "duplicated", "delayed", "reordered", "blocked"), 0
        )

    def set_link(self, src: str, dst: str, faults: LinkFaults) -> None:
        """Override the fault rates of one directed link."""
        self._specs[(src, dst)] = faults

    def set_regions(
        self,
        regions: Dict[str, Sequence[str]],
        intra: Optional[LinkFaults] = None,
        inter: Optional[LinkFaults] = None,
    ) -> None:
        """Model regions (name -> site names): ``intra`` links inside
        each (:data:`WAN_INTRA`), ``inter`` across (:data:`WAN_INTER`)."""
        intra = WAN_INTRA if intra is None else intra
        inter = WAN_INTER if inter is None else inter
        self.regions = {name: tuple(sites) for name, sites in regions.items()}
        site_region = {
            site: name for name, sites in regions.items() for site in sites
        }
        for src, src_region in site_region.items():
            for dst, dst_region in site_region.items():
                if src == dst:
                    continue
                profile = intra if src_region == dst_region else inter
                self.set_link(src, dst, profile)

    def region_groups(self) -> List[List[str]]:
        """Site groups for :meth:`partition`, one per configured region."""
        return [list(sites) for sites in self.regions.values()]

    def link(self, src: str, dst: str) -> Link:
        """The directed link ``src -> dst``, for a dial to carry."""
        key = (src, dst)
        if key not in self._links:
            self._links[key] = Link(self, src, dst)
        return self._links[key]

    def sever(self, src: str, dst: str) -> None:
        """Cut the directed link ``src -> dst``: dials between the two
        sites are refused either way, and the connections open between
        them are aborted now."""
        self._severed.add((src, dst))
        for key in ((src, dst), (dst, src)):
            if key in self._links:
                self._links[key].abort()

    def partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Sever every directed link that crosses a group boundary."""
        for i, group in enumerate(groups):
            for j, other in enumerate(groups):
                for src, dst in itertools.product(group, other):
                    if i != j:
                        self.sever(src, dst)

    def heal(self, src: str, dst: str) -> None:
        self._severed.discard((src, dst))
        self._wake_healed()

    def heal_all(self) -> None:
        """End every partition; links resume their rate-based faults."""
        self._severed.clear()
        self._wake_healed()

    def _wake_healed(self) -> None:
        """End the backoff of every dialer parked on a link no longer
        severed."""
        for link in self._links.values():
            if link.retries and not link.severed:
                for waiter in link.retries:
                    _resolve(waiter)
