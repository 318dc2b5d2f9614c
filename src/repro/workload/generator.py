"""Workload generation: streams of ETs for the benchmark harness.

A :class:`WorkloadSpec` describes the shape (mix, skew, arrival rate,
operation style); :class:`WorkloadGenerator` turns it into a
deterministic schedule of (time, site, ET) submissions for a
:class:`~repro.replica.base.ReplicatedSystem`.

Operation styles map to the methods' restrictions:

* ``"commutative"`` — increments/decrements (COMMU/COMPE-eligible),
* ``"blind"`` — value overwrites (RITU-eligible),
* ``"mixed"`` — commutative plus occasional multiplies (forces COMPE's
  rollback-and-replay path and exercises ORDUP's generality).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from ..core.operations import (
    DecrementOp,
    IncrementOp,
    MultiplyOp,
    Operation,
    ReadOp,
    WriteOp,
)
from ..core.transactions import (
    EpsilonSpec,
    EpsilonTransaction,
    QueryET,
    UNLIMITED,
    UpdateET,
)

__all__ = ["WorkloadSpec", "WorkloadGenerator", "Submission"]


@dataclass(frozen=True)
class Submission:
    """One scheduled ET submission."""

    time: float
    site: str
    et: EpsilonTransaction
    #: COMPE only: whether the global update is doomed to abort.
    will_abort: bool = False


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a synthetic workload."""

    n_keys: int = 20
    key_prefix: str = "x"
    #: fraction of submissions that are queries.
    query_fraction: float = 0.5
    #: operations per update ET.
    update_ops: int = 2
    #: reads per query ET.
    query_ops: int = 3
    #: zipf skew over keys (0 = uniform).
    skew: float = 0.0
    #: mean inter-arrival time of submissions.
    mean_interarrival: float = 1.0
    #: total submissions to generate.
    count: int = 100
    #: operation style: "commutative" | "blind" | "mixed".
    style: str = "commutative"
    #: probability an update is non-commutative in "mixed" style.
    mixed_multiply_fraction: float = 0.2
    #: epsilon import limit applied to query ETs.
    epsilon: float = UNLIMITED
    #: COMPE abort probability.
    abort_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.query_fraction <= 1.0:
            raise ValueError("query_fraction must be within [0, 1]")
        if self.style not in ("commutative", "blind", "mixed"):
            raise ValueError("unknown style %r" % self.style)
        if not 0.0 <= self.abort_rate <= 1.0:
            raise ValueError("abort_rate must be within [0, 1]")

    def keys(self) -> List[str]:
        return ["%s%d" % (self.key_prefix, i) for i in range(self.n_keys)]


class WorkloadGenerator:
    """Deterministic ET stream for one experiment run."""

    def __init__(
        self,
        spec: WorkloadSpec,
        sites: Sequence[str],
        seed: int = 0,
    ) -> None:
        from .zipf import ZipfSampler

        self.spec = spec
        self.sites = list(sites)
        if not self.sites:
            raise ValueError("at least one site is required")
        self.rng = random.Random(seed)
        self._sampler = (
            ZipfSampler(spec.n_keys, spec.skew) if spec.skew > 0 else None
        )
        self._keys = spec.keys()

    # -- key and op selection -------------------------------------------------

    def _pick_key(self) -> str:
        if self._sampler is not None:
            return self._keys[self._sampler.sample(self.rng)]
        return self.rng.choice(self._keys)

    def _pick_keys(self, count: int) -> List[str]:
        """Distinct keys when possible (an ET touches a key once)."""
        picked: List[str] = []
        attempts = 0
        while len(picked) < count and attempts < count * 10:
            key = self._pick_key()
            attempts += 1
            if key not in picked:
                picked.append(key)
        while len(picked) < count:
            picked.append(self._pick_key())
        return picked

    def _update_ops(self) -> List[Operation]:
        keys = self._pick_keys(self.spec.update_ops)
        ops: List[Operation] = []
        for key in keys:
            ops.append(self._one_write(key))
        return ops

    def _one_write(self, key: str) -> Operation:
        style = self.spec.style
        if style == "blind":
            return WriteOp(key, self.rng.randint(0, 1000))
        if style == "mixed":
            if self.rng.random() < self.spec.mixed_multiply_fraction:
                return MultiplyOp(key, 2)
            style = "commutative"
        if self.rng.random() < 0.5:
            return IncrementOp(key, self.rng.randint(1, 10))
        return DecrementOp(key, self.rng.randint(1, 10))

    def _query_ops(self) -> List[Operation]:
        return [ReadOp(key) for key in self._pick_keys(self.spec.query_ops)]

    # -- stream ------------------------------------------------------------------

    def generate(self) -> List[Submission]:
        """The full deterministic submission schedule."""
        submissions: List[Submission] = []
        time = 0.0
        for _ in range(self.spec.count):
            time += self.rng.expovariate(1.0 / self.spec.mean_interarrival)
            site = self.rng.choice(self.sites)
            if self.rng.random() < self.spec.query_fraction:
                et: EpsilonTransaction = QueryET(
                    self._query_ops(),
                    EpsilonSpec(import_limit=self.spec.epsilon),
                    origin_site=site,
                )
                submissions.append(Submission(time, site, et))
            else:
                et = UpdateET(self._update_ops(), origin_site=site)
                will_abort = self.rng.random() < self.spec.abort_rate
                submissions.append(Submission(time, site, et, will_abort))
        return submissions


def drive(system, submissions, compe_aborts: bool = False) -> None:
    """Schedule every submission into a replicated system.

    ``compe_aborts=True`` routes update submissions through COMPE's
    ``will_abort`` parameter.  Import kept local to avoid a cycle.
    """
    for sub in submissions:
        if compe_aborts and sub.et.is_update:
            system.sim.schedule_at(
                sub.time,
                lambda s=sub: _submit_compe(system, s),
            )
        else:
            system.submit_at(sub.time, sub.et, sub.site)


def _submit_compe(system, sub: Submission) -> None:
    system._pending_ets += 1  # noqa: SLF001 - mirrors ReplicatedSystem.submit

    def done(result) -> None:
        system._pending_ets -= 1  # noqa: SLF001
        system.results.append(result)

    system.method.submit_update(
        sub.et, sub.site, done, will_abort=sub.will_abort
    )
