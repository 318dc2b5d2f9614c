"""Extension — offline partition merging vs online ESR (section 5.3).

The paper's contrast: optimistic partition handling processes logs at
reconnection time (work and backouts grow with the partition), while
ESR "control[s] divergence dynamically" and needs no reconnection
processing.  The benchmark sweeps partition duration: the offline
merger's examined-pairs and backed-out transactions grow, while the
equivalent COMMU run converges with zero reconnect work beyond its
normal queue draining.
"""

import random

import pytest

from conftest import run_once

from repro.core.operations import IncrementOp, MultiplyOp
from repro.core.transactions import UpdateET, reset_tid_counter
from repro.harness.report import render_series
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations
from repro.replica.merge import LoggedOp, merge_partition_logs
from repro.sim.failures import FailureInjector, PartitionEvent
from repro.sim.network import ConstantLatency

DURATIONS = (10, 30, 90)
RATE = 1.0  # updates per time unit per partition side


def _partition_logs(duration, seed, multiply_fraction=0.1):
    """Synthesize the two sides' logs for a partition of ``duration``."""
    rng = random.Random(seed)
    keys = ["k%d" % i for i in range(5)]

    def side(base_tid):
        log = []
        for i in range(int(duration * RATE)):
            key = rng.choice(keys)
            if rng.random() < multiply_fraction:
                op = MultiplyOp(key, 2)
            else:
                op = IncrementOp(key, rng.randint(1, 5))
            log.append(LoggedOp(base_tid + i, op))
        return log

    return side(1_000), side(2_000)


def _esr_reconnect_work(duration):
    """The same offered load run under COMMU through a real partition:
    reconnection work = messages exchanged after healing."""
    reset_tid_counter()
    system = ReplicatedSystem(
        CommutativeOperations(),
        SystemConfig(
            n_sites=2,
            seed=int(duration),
            latency=ConstantLatency(1.0),
            retry_interval=3.0,
            initial=tuple(("k%d" % i, 0) for i in range(5)),
        ),
    )
    injector = FailureInjector(
        system.sim, system.network, system.sites,
        on_heal=system.kick_queues,
    )
    injector.schedule_partition(
        PartitionEvent((("site0",), ("site1",)), at=0.0, duration=duration)
    )
    for i in range(int(duration * RATE * 2)):
        system.submit_at(
            i * 0.5,
            UpdateET([IncrementOp("k%d" % (i % 5), 1)]),
            "site%d" % (i % 2),
        )
    system.run(until=duration)
    sent_before_heal = system.network.stats.sent
    quiescence = system.run_to_quiescence()
    return {
        "catchup_messages": system.network.stats.sent - sent_before_heal,
        "catchup_time": quiescence - duration,
        "backouts": 0,  # ESR never backs out committed updates
        "converged": system.converged(),
    }


def test_ext_partition_merge(benchmark, show):
    def sweep():
        data = {}
        for duration in DURATIONS:
            log_a, log_b = _partition_logs(duration, seed=duration)
            merged = merge_partition_logs(log_a, log_b)
            esr = _esr_reconnect_work(duration)
            data[duration] = {
                "merge_pairs": merged.ops_examined,
                "merge_backouts": len(merged.backed_out),
                "esr_catchup_msgs": esr["catchup_messages"],
                "esr_backouts": esr["backouts"],
                "esr_converged": esr["converged"],
            }
        return data

    data = run_once(benchmark, sweep)
    show(render_series(
        "Extension: offline merge vs ESR reconnect, by partition length",
        "duration",
        list(DURATIONS),
        {
            "pairs": [data[d]["merge_pairs"] for d in DURATIONS],
            "backouts": [data[d]["merge_backouts"] for d in DURATIONS],
            "esr_msgs": [data[d]["esr_catchup_msgs"] for d in DURATIONS],
        },
    ))

    # Offline merge work grows superlinearly with partition length
    # (pairwise comparison), and backouts grow with it.
    assert data[90]["merge_pairs"] > data[10]["merge_pairs"] * 9
    assert data[90]["merge_backouts"] >= data[10]["merge_backouts"]
    assert data[90]["merge_backouts"] > 0

    # ESR: zero backouts at every duration, always converges.
    for duration in DURATIONS:
        assert data[duration]["esr_backouts"] == 0
        assert data[duration]["esr_converged"]
