"""Microbenchmarks — substrate performance engineering.

Not a paper artifact: these track the cost of the building blocks so
substrate regressions are visible independently of the experiment
suite (which would hide a 2× simulator slowdown inside seconds-long
runs).
"""

import pytest

from repro.core.history import History
from repro.core.operations import IncrementOp, ReadOp, TimestampedWriteOp
from repro.core.serializability import is_serializable
from repro.sim.events import Simulator
from repro.sim.network import ConstantLatency, Network
from repro.sim.stable_queue import StableQueue
from repro.storage.kv import KeyValueStore
from repro.storage.mvstore import MultiVersionStore


def test_simulator_event_throughput(benchmark):
    """Schedule-and-run cost of 10k chained events."""

    def run():
        sim = Simulator(seed=1)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 10_000


def test_stable_queue_throughput(benchmark):
    """End-to-end delivery of 1k messages over a reliable link."""

    def run():
        sim = Simulator(seed=1)
        net = Network(sim, ConstantLatency(0.1))
        received = []
        queue = StableQueue(sim, net, "a", "b", received.append)
        for i in range(1_000):
            queue.enqueue(i)
        sim.run()
        return len(received)

    assert benchmark(run) == 1_000


def test_kv_store_apply_throughput(benchmark):
    """Operation application rate on the flat store."""

    def run():
        store = KeyValueStore()
        for i in range(5_000):
            store.apply(IncrementOp("k%d" % (i % 50), 1))
        return store.get("k0")

    assert benchmark(run) == 100


def test_mvstore_install_and_read(benchmark):
    """Versioned install + bounded read on the multiversion store."""

    def run():
        store = MultiVersionStore()
        for i in range(1, 2_001):
            store.install("k%d" % (i % 20), i, i)
        store.advance_vtnc(1_000)
        total = 0
        for i in range(20):
            total += store.read_visible("k%d" % i).txn_number
        return total

    benchmark(run)


def test_thomas_rule_throughput(benchmark):
    """Timestamped-write application rate (RITU's hot path)."""

    def run():
        store = KeyValueStore()
        for i in range(5_000):
            store.apply(
                TimestampedWriteOp("k%d" % (i % 50), i, (i, 0))
            )
        return store.get("k49")

    benchmark(run)


def test_sr_checker_scaling(benchmark):
    """Conflict-graph construction on a 200-txn, 1000-op history."""
    history = History()
    for i in range(1_000):
        tid = i % 200 + 1
        key = "k%d" % (i % 25)
        if i % 3:
            history.record(tid, IncrementOp(key, 1))
        else:
            history.record(tid, ReadOp(key))
    benchmark(lambda: is_serializable(history))

# -- wire codec (live runtime) ------------------------------------------------


def _wire_batch(n=64):
    """One outbox window of encoded channel payloads: n MSets of a few
    mixed ops each, the shape the propagation hot path actually ships."""
    from repro.core.operations import AppendOp, WriteOp
    from repro.live.protocol import encode_mset
    from repro.replica.mset import MSet

    payloads = []
    for seq in range(1, n + 1):
        mset = MSet(
            tid="site0:%d" % seq,
            ops=(
                IncrementOp("balance%d" % (seq % 8), seq),
                WriteOp("status%d" % (seq % 8), "v-%032d" % seq),
                AppendOp("audit", {"seq": seq, "who": "site0"}),
            ),
            origin="site0",
            info=(("reads", ["balance%d" % (seq % 8)]),),
        )
        payloads.append((seq, {"mset": encode_mset(mset)}))
    return payloads


def test_wire_bin_batch_relay(benchmark):
    """One binary frame from pre-encoded payload blobs — the zero
    re-encode relay's per-send cost (struct pack + memcpy)."""
    from repro.live.protocol import encode_bin_batch_frame, payload_blob

    entries = _wire_batch()
    blobs = [payload_blob(payload) for _, payload in entries]

    def run():
        return len(encode_bin_batch_frame("site0", entries[0][0], blobs))

    assert benchmark(run) > 0


def test_wire_bin_batch_decode(benchmark):
    """Receive: split the binary envelope into its run of blobs; blob
    JSON decode happens once, on the apply path."""
    from repro.live.protocol import (
        decode_bin_frame,
        encode_bin_batch_frame,
        payload_blob,
    )

    entries = _wire_batch()
    data = encode_bin_batch_frame(
        "site0", entries[0][0], [payload_blob(p) for _, p in entries]
    )

    def run():
        return len(decode_bin_frame(data[4:])["blobs"])

    assert benchmark(run) == 64
