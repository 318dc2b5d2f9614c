"""Replay witnesses: state-level serializability checks.

The conflict-graph 1SR test is necessary but abstract; these tests
assert the concrete consequence: replaying the update operations *in
the order one site logged them* against a fresh store reproduces the
exact converged state.  If any site's application pipeline dropped,
duplicated, or reordered an effect, the replay diverges.
"""

import pytest

from repro.core.operations import is_write
from repro.core.transactions import reset_tid_counter
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations
from repro.replica.host import OrderedUpdates
from repro.replica.host import ReadIndependentUpdates
from repro.sim.network import UniformLatency
from repro.storage.kv import KeyValueStore
from repro.workload.generator import WorkloadGenerator, WorkloadSpec, drive


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _run(factory, style, seed=3):
    config = SystemConfig(
        n_sites=4,
        seed=seed,
        latency=UniformLatency(0.3, 3.0),
        loss_rate=0.05,
        retry_interval=2.5,
        initial=tuple(("k%d" % i, 1) for i in range(6)),
    )
    system = ReplicatedSystem(factory(), config)
    spec = WorkloadSpec(
        n_keys=6,
        count=120,
        query_fraction=0.3,
        style=style,
        mean_interarrival=0.6,
    )
    drive(system, WorkloadGenerator(spec, sorted(system.sites), 11).generate())
    system.run_to_quiescence()
    assert system.converged()
    return system


def _replay_site(system, site_name):
    """Apply the site's logged update ops, in log order, from scratch."""
    store = KeyValueStore(
        {key: value for key, value in system.config.initial}
    )
    history = system.sites[site_name].history
    for event in history:
        if is_write(event.op):
            store.apply(event.op, default=0)
    return store.as_dict()


@pytest.mark.parametrize("factory,style", [
    (OrderedUpdates, "mixed"),
    (lambda: OrderedUpdates(ordering="lamport"), "mixed"),
    (CommutativeOperations, "commutative"),
    (ReadIndependentUpdates, "blind"),
])
def test_every_site_log_replays_to_converged_state(factory, style):
    system = _run(factory, style)
    final = system.sites["site0"].values()
    for name in system.sites:
        replayed = _replay_site(system, name)
        assert replayed == final, (
            "site %s's log does not replay to the converged state" % name
        )


def test_replay_witness_detects_tampering():
    """Sanity: the witness actually discriminates — a corrupted log
    replays to a different state."""
    from repro.core.history import Event
    from repro.core.operations import IncrementOp

    system = _run(CommutativeOperations, "commutative")
    final = system.sites["site0"].values()
    # Inject a phantom operation into one site's log.
    system.sites["site1"].history.append(
        Event(99999, IncrementOp("k0", 1000), "site1", 0.0)
    )
    assert _replay_site(system, "site1") != final
