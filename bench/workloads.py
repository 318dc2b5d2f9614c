"""The benchmark workloads and their seeded request plans.

This module is the only consumer of ``--seed``: it turns the seed into
a plan of plain request tuples, and the program under test receives
nothing but those requests.  A plan is ``{"warmup": [...], "segments":
[...]}``; every segment is a list of request tuples of fixed length
(``Workload.segment_ops``), consumed by 32 closed-loop callers.

Request tuples (first field is the request class):

* ``("xfer", a, b, tally)`` -- one update ET ``decrement(a)``,
  ``increment(b)``, ``increment(tally)``;
* ``("inc", key, session)`` -- one single-increment update ET
  (``session`` indexes the session-token pool, -1 for none);
* ``("cached" | "bounded" | "strict", key)`` -- one single-key read at
  that consistency level;
* ``("session", key, session)`` -- one session read;
* ``("many", k1, k2, k3, k4)`` -- one strict four-key ``read_many``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.workload.zipf import ZipfSampler

__all__ = [
    "CALLERS",
    "CONNECTIONS",
    "PRELOAD_VALUE",
    "RUN_SECONDS",
    "SESSION_TOKENS",
    "WORKLOADS",
    "Workload",
    "key_name",
    "make_plan",
    "tally_name",
]

#: logical callers in flight (closed loop) and the client connections
#: they are pipelined over (one per core of the reference box).
CALLERS = 32
CONNECTIONS = 2
#: every data key starts at this value, so transfers never go negative
#: and the conservation check has a non-trivial total.
PRELOAD_VALUE = 1000
#: size of the session-token pool of ``read_mix``.
SESSION_TOKENS = 64
#: warm-up segments run (and discarded) at the end of every set-up.
WARMUP_SEGMENTS = 2
#: the ``--seconds`` (``run_seconds`` in ``BENCHMARK.json``) at which a
#: run measures ``Workload.segments`` segments.
RUN_SECONDS = 20

Request = Tuple
Plan = Dict[str, List[List[Request]]]


@dataclass(frozen=True)
class Workload:
    """Fixed shape of one workload (nothing here depends on the seed);
    why each is in the set is recorded in ``BENCHMARK.json``."""

    name: str
    #: cluster shape: "commu" (3-site LiveCluster), "commu-faults" (the
    #: same with a FaultPlan for partition/heal), or "ordup-sharded".
    cluster: str
    #: request class whose latency is reported as p50_ms / p95_ms.
    primary: str
    #: what ``ops_s`` counts.
    unit: str
    n_keys: int
    #: requests per measured segment and per warm-up segment.
    segment_ops: int
    warmup_ops: int
    #: measured segments of a run at ``RUN_SECONDS``: fixed work, the
    #: same on every commit and host (a multiple of ``snapshot_every``).
    segments: int
    #: ``snapshot_all()`` (snapshot + log compaction) after every this
    #: many segments, outside the timed window.
    snapshot_every: int
    #: why the workload is left out of ``BENCHMARK.json`` (it still runs
    #: with ``--workload``); empty for the workloads the driver gates.
    not_gated: str = ""


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="write_stream",
            cluster="commu",
            primary="update",
            unit="ET",
            n_keys=4096,
            segment_ops=2048,
            warmup_ops=1024,
            segments=24,
            snapshot_every=4,
        ),
        Workload(
            name="drain_backlog",
            cluster="commu-faults",
            primary="update",
            unit="MSet",
            n_keys=4096,
            segment_ops=6144,
            warmup_ops=1536,
            segments=10,
            snapshot_every=1,
        ),
        Workload(
            name="read_mix",
            cluster="commu",
            primary="read",
            unit="request",
            n_keys=2048,
            segment_ops=2048,
            warmup_ops=1024,
            segments=32,
            snapshot_every=4,
        ),
        Workload(
            name="ordup_sharded",
            cluster="ordup-sharded",
            primary="update",
            unit="request",
            n_keys=512,
            segment_ops=1024,
            warmup_ops=512,
            segments=24,
            snapshot_every=4,
            not_gated="on the checkout's ext4 each order grant rewrites "
            "a file by rename, 0.25-0.7 ms of device wait per request "
            "(40 % of the wall time, 3x from run to run): only its "
            "cpu_us_per_op repeats",
        ),
    )
}


def key_name(index: int) -> str:
    return "k%04d" % index


def tally_name(index: int) -> str:
    return "tally_%02d" % index


def _xfer_segment(rng: random.Random, w: Workload, count: int) -> List[Request]:
    out: List[Request] = []
    for i in range(count):
        a = rng.randrange(w.n_keys)
        b = rng.randrange(w.n_keys - 1)
        if b >= a:
            b += 1  # distinct keys: an ET may not write one key twice
        out.append(("xfer", key_name(a), key_name(b), tally_name(i % CALLERS)))
    return out


def _inc_segment(rng: random.Random, w: Workload, count: int) -> List[Request]:
    return [
        ("inc", key_name(rng.randrange(w.n_keys)), -1) for _ in range(count)
    ]


def _stratified(
    rng: random.Random, shares: Sequence[Tuple[str, float]], count: int
) -> List[str]:
    """``count`` class labels in exactly the given shares (largest
    remainder), shuffled: every segment carries the same mix, so a
    segment's cost does not depend on how the dice fell."""
    labels: List[str] = []
    for label, share in shares:
        labels.extend([label] * int(share * count))
    by_remainder = sorted(
        shares, key=lambda item: -(item[1] * count - int(item[1] * count))
    )
    for label, _ in by_remainder[: count - len(labels)]:
        labels.append(label)
    rng.shuffle(labels)
    return labels


#: 10 % increments; the rest in loadgen's read-class mix
#: (cached 50, bounded 30, session 15, strict 5).
_READ_MIX = (
    ("inc", 0.10),
    ("cached", 0.45),
    ("bounded", 0.27),
    ("session", 0.135),
    ("strict", 0.045),
)
_ORDUP_MIX = (("inc", 0.75), ("strict", 0.20), ("many", 0.05))


@functools.lru_cache(maxsize=None)
def _zipf(n_keys: int) -> ZipfSampler:
    return ZipfSampler(n_keys, 1.1)


def _read_mix_segment(
    rng: random.Random, w: Workload, count: int
) -> List[Request]:
    sampler = _zipf(w.n_keys)
    out: List[Request] = []
    for cls in _stratified(rng, _READ_MIX, count):
        key = key_name(sampler.sample(rng))
        session = rng.randrange(SESSION_TOKENS)
        if cls in ("inc", "session"):
            out.append((cls, key, session))
        else:
            out.append((cls, key))
    return out


def _ordup_segment(rng: random.Random, w: Workload, count: int) -> List[Request]:
    out: List[Request] = []
    for cls in _stratified(rng, _ORDUP_MIX, count):
        if cls == "inc":
            out.append(("inc", key_name(rng.randrange(w.n_keys)), -1))
        elif cls == "strict":
            out.append(("strict", key_name(rng.randrange(w.n_keys))))
        else:
            keys = rng.sample(range(w.n_keys), 4)
            out.append(("many",) + tuple(key_name(k) for k in keys))
    return out


_GENERATORS: Dict[str, Callable[[random.Random, Workload, int], List[Request]]] = {
    "write_stream": _xfer_segment,
    "drain_backlog": _inc_segment,
    "read_mix": _read_mix_segment,
    "ordup_sharded": _ordup_segment,
}


def make_plan(workload: Workload, seed: int, n_segments: int) -> Plan:
    """The whole request plan of one run, a pure function of the seed
    (segment *i* is the same however many segments follow it)."""
    rng = random.Random("%s/%d" % (workload.name, seed))
    generate = _GENERATORS[workload.name]
    sizes = [workload.warmup_ops] * WARMUP_SEGMENTS
    sizes += [workload.segment_ops] * n_segments
    segments = [generate(rng, workload, size) for size in sizes]
    return {
        "warmup": segments[:WARMUP_SEGMENTS],
        "segments": segments[WARMUP_SEGMENTS:],
    }
