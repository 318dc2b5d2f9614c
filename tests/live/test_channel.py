"""Socket-free tests of :class:`repro.live.channel.PeerChannel`.

The frame cut is checked on its own, and a hypothesis state machine
drives one channel the way the server's sender and its ack handler do
— sends, cumulative acks (fresh, duplicate, regressed), stalls, log
rewinds and reconnects — with no socket and no event loop, against a
reference of the window: the frames in flight, ``sent_hi`` and the
MSets acknowledged.
"""

from hypothesis import given
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.live import channel
from repro.live.channel import FRAMES_IN_FLIGHT, ChannelFamilies, PeerChannel
from repro.obs.registry import NULL_REGISTRY, Registry


def _channel(registry=NULL_REGISTRY):
    return PeerChannel("p", False, ChannelFamilies(registry))


def _blob(seq):
    """A payload blob whose size varies with ``seq`` (1 to 600 bytes)."""
    return b"x" * (seq * 37 % 600 + 1)


def _bytes(frame):
    return sum(len(blob) for blob in frame[1])


def _entries(frames):
    """The (seq, blob) pairs a list of ``(first, blobs)`` runs carries."""
    return [
        (first + i, blob) for first, blobs in frames
        for i, blob in enumerate(blobs)
    ]


def _cut(ch, owed, now):
    """``ch.cut`` of ``owed``, (seq, blob) pairs of consecutive seqs,
    handed over as the log's run: the first seq and the blobs."""
    return ch.cut(owed[0][0], [blob for _, blob in owed], now)


def test_frames_are_cut_at_half_the_frame_limit(monkeypatch):
    """The byte cut: with ``MAX_FRAME`` at 8 KiB and ~1 KiB blobs, a
    backlog leaves in frames of at most 4 KiB of blobs, more of them
    than a send round has room for; ``sent_hi`` is the last seq
    written, not the last fetched."""
    monkeypatch.setattr(channel, "MAX_FRAME", 8 * 1024)
    budget = channel.MAX_FRAME // 2
    owed = [(seq, b"%04d" % seq * 250) for seq in range(1, 41)]
    registry = Registry()
    ch = _channel(registry)
    ch.connect(0)
    rounds = []  # per send round: (sent_hi, last written, last fetched)
    written = []
    while ch.sent_hi < owed[-1][0]:
        fetched = [e for e in owed if e[0] > ch.sent_hi][: ch.want()]
        frames = _cut(ch, fetched, 0.0)
        assert len(frames) <= FRAMES_IN_FLIGHT
        written += frames
        rounds.append((ch.sent_hi, _entries(frames)[-1][0], fetched[-1][0]))
        ch.retire(ch.sent_hi, 0.0)
    assert len(written) >= 40 // 4
    assert all(_bytes(frame) <= budget for frame in written)
    assert _entries(written) == owed
    assert all(sent_hi == last for sent_hi, last, _ in rounds)
    # Some round fetched more than its frames could carry.
    assert any(last < fetched for _, last, fetched in rounds)
    assert ch.acked_msets == 40
    assert registry.get_sample("frames_relayed_total", peer="p") == 40
    assert registry.get_sample(
        "propagation_frames_total", peer="p"
    ) == len(written)


def test_a_blob_over_half_the_frame_limit_goes_alone(monkeypatch):
    """A blob larger than the ``MAX_FRAME // 2`` budget cannot share a
    frame: it leaves alone, between the runs before and after it."""
    monkeypatch.setattr(channel, "MAX_FRAME", 8 * 1024)
    big = b"b" * (channel.MAX_FRAME // 2 + 1)
    owed = [(1, b"a"), (2, b"a"), (3, big), (4, b"c"), (5, b"c")]
    ch = _channel()
    ch.connect(0)
    frames = _cut(ch, owed, 0.0)
    assert frames == [(1, [b"a", b"a"]), (3, [big]), (4, [b"c", b"c"])]
    assert ch.sent_hi == 5
    assert [n for _, _, n in ch.inflight] == [2, 1, 2]


@given(
    first=st.integers(1, 2 ** 40),
    sizes=st.lists(st.integers(0, 700), min_size=1, max_size=40),
    frame_msets=st.integers(1, 6),
    inflight=st.integers(0, FRAMES_IN_FLIGHT),
)
def test_runs_are_contiguous_and_bounded(first, sizes, frame_msets, inflight):
    """However the blobs are sized, the runs carry a prefix of the owed
    seqs, each run contiguous with the one before, none longer than
    ``FRAME_MSETS`` nor (unless a lone blob) past the byte budget, at
    most the free window's worth of them; ``sent_hi`` is the last seq
    of the last run."""
    saved = channel.FRAME_MSETS, channel.MAX_FRAME
    channel.FRAME_MSETS, channel.MAX_FRAME = frame_msets, 2048
    try:
        ch = _channel()
        ch.connect(first - 1)
        for _ in range(inflight):
            ch.inflight.append((first - 1, 0.0, 1))
        owed = [(first + i, b"x" * n) for i, n in enumerate(sizes)]
        frames = _cut(ch, owed, 0.0)
        budget = channel.MAX_FRAME // 2
    finally:
        channel.FRAME_MSETS, channel.MAX_FRAME = saved
    room = FRAMES_IN_FLIGHT - inflight
    written = _entries(frames)
    assert len(frames) <= room
    assert written == owed[: len(written)]
    for run in frames:
        assert 0 < len(run[1]) <= frame_msets
        assert len(run[1]) == 1 or _bytes(run) <= budget
    if frames:
        assert ch.sent_hi == written[-1][0]
        assert len(written) == len(owed) or len(frames) == room
    else:
        assert room == 0 and ch.sent_hi == first - 1


class Reference:
    """The window's contract: (last seq, sent at, MSets) per frame."""

    def __init__(self):
        self.frames, self.sent_hi, self.acked = [], 0, 0

    def restart(self, frontier):
        self.frames, self.sent_hi = [], frontier

    def send(self, frames, now):
        self.frames += [
            (first + len(blobs) - 1, now, len(blobs))
            for first, blobs in frames
        ]
        self.sent_hi = self.frames[-1][0] if frames else self.sent_hi

    def ack(self, seq):
        retired = [f for f in self.frames if f[0] <= seq]
        self.frames = [f for f in self.frames if f[0] > seq]
        self.acked += sum(f[2] for f in retired)
        return retired


TIMEOUT = 2.0


class ChannelMachine(RuleBasedStateMachine):
    """One channel and the log around it: ``assigned`` records, the
    peer's durable cursor ``frontier``, the highest seq ever sent and a
    clock."""

    @initialize()
    def boot(self):
        self.saved = channel.FRAME_MSETS, channel.MAX_FRAME
        channel.FRAME_MSETS, channel.MAX_FRAME = 3, 2048
        self.ch, self.ref = _channel(), Reference()
        self.assigned = self.frontier = self.sent_max = 0
        self.now = 0.0
        self.prev_sent_hi, self.restarted = 0, False
        self.ch.connect(0)

    def teardown(self):
        if hasattr(self, "saved"):
            channel.FRAME_MSETS, channel.MAX_FRAME = self.saved

    def _restart(self):
        self.ref.restart(self.frontier)
        self.restarted = True

    @rule(n=st.integers(0, 30), dt=st.floats(0.0, 1.0))
    def send(self, n, dt):
        """``n`` appends, then the sender's round: fetch what the log
        owes above ``sent_hi`` (``pending_after``), bounded by
        ``want``."""
        self.assigned += n
        self.now += dt
        first = max(self.ch.sent_hi, self.frontier) + 1
        last = min(self.assigned, first - 1 + self.ch.want())
        owed = [(seq, _blob(seq)) for seq in range(first, last + 1)]
        room = FRAMES_IN_FLIGHT - len(self.ch.inflight)
        frames = self.ch.cut(first, [b for _, b in owed], self.now)
        assert len(frames) <= room
        written = _entries(frames)
        assert written == owed[: len(written)]
        assert len(written) == len(owed) or len(frames) == room
        budget = channel.MAX_FRAME // 2
        for i, frame in enumerate(frames):
            assert 0 < len(frame[1]) <= channel.FRAME_MSETS
            assert _bytes(frame) <= budget
            end = sum(len(f[1]) for f in frames[: i + 1])
            if end < len(owed):  # cut before the next blob: it did not fit
                assert len(frame[1]) == channel.FRAME_MSETS or (
                    _bytes(frame) + len(owed[end][1]) > budget
                )
        self.ref.send(frames, self.now)
        self.sent_max = max(self.sent_max, self.ch.sent_hi)

    @precondition(lambda self: self.ref.frames)
    @rule(data=st.data(), dt=st.floats(0.0, 1.0))
    def ack_in_flight(self, data, dt):
        """A cumulative ack of a frame's tail."""
        tails = [f[0] for f in self.ref.frames]
        self._ack(data.draw(st.sampled_from(tails)), dt)

    @rule(data=st.data(), dt=st.floats(0.0, 1.0))
    def ack_any(self, data, dt):
        """Just below a frame's tail, the frontier again (duplicate),
        below it (regressed) or anything ever sent."""
        choices = [self.frontier, max(0, self.frontier - 1)]
        choices += [f[0] - 1 for f in self.ref.frames]
        seq = st.sampled_from(choices) | st.integers(0, self.sent_max)
        self._ack(data.draw(seq), dt)

    def _ack(self, seq, dt):
        self.now += dt
        before = self.ch.acked_msets, len(self.ch.ack_latencies)
        self.ch.retire(seq, self.now)
        retired = self.ref.ack(seq)
        assert self.ch.acked_msets - before[0] == sum(f[2] for f in retired)
        assert len(self.ch.ack_latencies) - before[1] == len(retired)
        self.frontier = max(self.frontier, seq)

    @rule(dt=st.floats(0.0, 3.0))
    def stall(self, dt):
        self.now += dt
        frames = self.ref.frames
        expect = bool(frames) and self.now - frames[0][1] > TIMEOUT
        assert self.ch.stalled(self.now, TIMEOUT, self.frontier) == expect
        if expect:
            self._restart()

    @precondition(lambda self: self.frontier > 0)
    @rule(data=st.data())
    def rewind(self, data):
        """The receiver regressed: the log's cursor moves back
        (``rewind_to``) and the session restarts from it."""
        self.frontier = data.draw(st.integers(0, self.frontier - 1))
        self.ch.restart(self.frontier)
        self._restart()

    @rule()
    def reconnect(self):
        self.ch.connect(self.frontier)
        assert self.ch.hb_next == 0.0
        self._restart()

    @invariant()
    def window_matches(self):
        if not hasattr(self, "ch"):
            return
        assert len(self.ch.inflight) <= FRAMES_IN_FLIGHT
        assert list(self.ch.inflight) == self.ref.frames
        assert self.ch.sent_hi == self.ref.sent_hi
        assert self.ch.acked_msets == self.ref.acked

    @invariant()
    def sent_hi_moves_back_only_by_restart(self):
        if not hasattr(self, "ch"):
            return
        if self.restarted:
            assert self.ch.sent_hi == self.frontier
        else:
            assert self.ch.sent_hi >= self.prev_sent_hi
        self.prev_sent_hi, self.restarted = self.ch.sent_hi, False


TestChannelModel = ChannelMachine.TestCase
