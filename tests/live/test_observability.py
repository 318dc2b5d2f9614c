"""Observability layer over the live runtime, plus regression tests
for the latent-bug sweep (silent error handlers, settle error
attribution, fsync-window durability claims).
"""

import ast
import asyncio
import pathlib
import re

import pytest

from repro.core.transactions import EpsilonSpec
from repro.live import LiveCluster
from repro.live.engine import ENGINES
from repro.live.protocol import encode_bin_batch_frame

from .wire import RawConn


def run(coro):
    return asyncio.run(coro)


async def _booted(tmp_path, **kwargs):
    cluster = LiveCluster(
        n_sites=kwargs.pop("n_sites", 2), data_dir=tmp_path, **kwargs
    )
    await cluster.start()
    return cluster


REPO = pathlib.Path(__file__).resolve().parents[2]
OBSERVABILITY_MD = REPO / "docs" / "OBSERVABILITY.md"
#: the ``TraceRecorder`` methods that record events of a literal kind.
TRACE_CALLS = ("event", "event_each", "event_rows")


def _documented_replica_families():
    """family -> type, from the live-replica table of OBSERVABILITY.md."""
    text = OBSERVABILITY_MD.read_text(encoding="utf-8")
    section = text.split("## Metric families — live replica", 1)[1]
    section = section.split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `(repro_\w+)` \| (\w+) \|", section, re.M))


def _emitted_trace_events():
    """kind -> the literal field names, and literal ``phase`` /
    ``status`` values, of every ``TraceRecorder`` call under
    ``src/repro`` (the recorder's own module aside); plus the calls
    whose kind is not a literal."""
    emitted, computed = {}, []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        if path.parts[-2:] == ("obs", "trace.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in TRACE_CALLS
            ):
                continue
            kind = node.args[0] if node.args else None
            if not (
                isinstance(kind, ast.Constant) and isinstance(kind.value, str)
            ):
                computed.append("%s:%d" % (path.name, node.lineno))
                continue
            words = emitted.setdefault(kind.value, set())
            for arg in node.args[1:2]:  # event_each's field, event_rows' names
                for name in ast.walk(arg):
                    if isinstance(name, ast.Constant):
                        words.add(name.value)
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue  # ``**fields``: documented by hand
                words.add(keyword.arg)
                value = keyword.value
                if keyword.arg in ("phase", "status") and isinstance(
                    value, ast.Constant
                ):
                    words.add(value.value)
    return emitted, computed


def _documented_trace_rows():
    """kind -> the rest of its row, from the trace table of
    OBSERVABILITY.md."""
    text = OBSERVABILITY_MD.read_text(encoding="utf-8")
    section = text.split("## Trace schema", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `([\w-]+)` \|(.*)$", section, re.M))


class TestDocsSync:
    def test_documented_families_are_the_registered_ones(self, tmp_path):
        """One replica per method: the union of the families their
        ``metrics`` verb serves, with their types, is exactly the
        documented table — a family added, renamed or retyped without
        its row (or a row left behind) fails here."""

        async def families(method):
            cluster = await _booted(
                tmp_path / method, n_sites=1, method=method
            )
            try:
                client = await cluster.client("site0")
                scrape = await client.metrics()
            finally:
                await cluster.stop()
            return {
                name: family["type"]
                for name, family in scrape["metrics"].items()
            }

        registered = {}
        for method in sorted(ENGINES):
            registered.update(run(families(method)))
        assert registered == _documented_replica_families()

    def test_documented_trace_kinds_are_the_recorded_ones(self):
        """The kinds the source records are exactly the trace table's
        rows, and each row names its kind's literal fields and literal
        ``phase``/``status`` values — a kind, field or phase added
        without its row (or a row left behind) fails here."""
        emitted, computed = _emitted_trace_events()
        assert computed == [], "a trace kind must be a literal"
        rows = _documented_trace_rows()
        assert sorted(emitted) == sorted(rows)
        undocumented = {
            kind: sorted(w for w in words if "`%s`" % w not in rows[kind])
            for kind, words in emitted.items()
        }
        assert {k: w for k, w in undocumented.items() if w} == {}


class TestMetricsVerb:
    def test_scrape_exposes_key_series(self, tmp_path):
        """The acceptance smoke: after traffic, the metrics verb
        serves well-formed Prometheus text containing the epsilon
        gauge and the ack-latency histogram."""

        async def scenario():
            cluster = await _booted(tmp_path)
            try:
                client = await cluster.client("site0")
                for i in range(8):
                    await client.increment("x", 1)
                await client.query(["x"], EpsilonSpec(import_limit=5))
                await cluster.settle(timeout=30)

                scrape = await client.metrics()
                text = scrape["prometheus"]
                assert scrape["site"] == "site0"

                # Key series: per-method epsilon gauge + ack latency.
                assert re.search(
                    r'repro_epsilon_last\{method="COMMU",site="site0"\} \d',
                    text,
                )
                assert (
                    'repro_ack_latency_seconds_bucket{peer="site1",'
                    'site="site0",le="+Inf"}' in text
                )
                # Exposition well-formedness: every series typed, every
                # histogram closed by +Inf, bucket counts monotone.
                for family in (
                    "repro_epsilon_last",
                    "repro_ack_latency_seconds",
                    "repro_applied_msets_total",
                ):
                    assert "# TYPE %s " % family in text
                buckets = [
                    int(m.group(1))
                    for m in re.finditer(
                        r'repro_ack_latency_seconds_bucket\{peer="site1",'
                        r'site="site0",le="[^"]+"\} (\d+)',
                        text,
                    )
                ]
                assert buckets == sorted(buckets) and buckets[-1] >= 1

                # The JSON mirror carries the same sample.
                fam = scrape["metrics"]["repro_epsilon_last"]
                assert fam["type"] == "gauge"
                assert any(
                    s["labels"].get("method") == "COMMU"
                    for s in fam["samples"]
                )
            finally:
                await cluster.stop()

        run(scenario())

    def test_update_lifecycle_appears_in_trace(self, tmp_path):
        async def scenario():
            cluster = await _booted(tmp_path)
            try:
                client = await cluster.client("site0")
                await client.increment("x", 1)
                await cluster.settle(timeout=30)
                kinds = {
                    e["kind"]
                    for e in cluster.servers["site0"].trace.snapshot()
                }
                assert {"update-submit", "update-apply"} <= kinds
                assert "update-ack" in kinds  # peer ack arrived
            finally:
                await cluster.stop()

        run(scenario())

    def test_each_acked_update_has_one_ack_row_in_log_order(self, tmp_path):
        """The origin's ``update-ack`` rows name every update once, in
        the order its ``update-submit`` rows (the replication log's
        order) name them, however the peer acks group them."""

        async def scenario():
            cluster = await _booted(tmp_path, n_sites=3)
            try:
                client = await cluster.client("site0")
                for _ in range(3):
                    await asyncio.gather(
                        *(client.increment("k%d" % i, 1) for i in range(20))
                    )
                await cluster.settle(timeout=30)
                events = cluster.servers["site0"].trace.snapshot()
                submitted = [
                    e["tid"] for e in events if e["kind"] == "update-submit"
                ]
                acked = [e["tid"] for e in events if e["kind"] == "update-ack"]
                assert len(submitted) == 60
                assert acked == submitted
            finally:
                await cluster.stop()

        run(scenario())

    def test_observability_off_serves_empty_registry(self, tmp_path):
        async def scenario():
            cluster = await _booted(tmp_path, observability=False)
            try:
                client = await cluster.client("site0")
                await client.increment("x", 1)
                scrape = await client.metrics()
                assert scrape["prometheus"] == ""
                assert scrape["metrics"] == {}
                assert cluster.servers["site0"].trace.recorded == 0
            finally:
                await cluster.stop()

        run(scenario())


class TestSilentHandlerRegressions:
    def test_unknown_peer_frame_is_counted_not_silent(self, tmp_path):
        """Regression: frames from unknown peers were dropped with a
        bare ``return`` — invisible.  Now the drop lands in the
        ``frames_dropped_total{reason="unknown_peer"}`` counter."""

        async def scenario():
            cluster = await _booted(tmp_path)
            try:
                raw = await RawConn.open(*cluster.addrs["site0"])
                raw.send({"type": "peer-hello", "src": "stranger"})
                raw.write(encode_bin_batch_frame("stranger", 1, [b"{}"]))
                await asyncio.sleep(0.1)
                await raw.close()
                server = cluster.servers["site0"]
                assert (
                    server.registry.get_sample(
                        "frames_dropped_total", reason="unknown_peer"
                    )
                    == 1
                )
            finally:
                await cluster.stop()

        run(scenario())

    def test_crashed_degraded_monitor_is_counted(self, tmp_path):
        """Regression: the degraded monitor was the one long-lived task
        spawned without the crash callback, so its death silently
        stopped degraded-flip reporting.  Now it counts as
        ``frames_dropped_total{reason="task_crash"}`` while the replica
        keeps serving."""

        async def scenario():
            cluster = await _booted(tmp_path)
            try:
                server = cluster.servers["site0"]
                check = server._check_degraded_transition
                crashed = []

                def crash_once():
                    if not crashed:
                        crashed.append(True)
                        raise RuntimeError("injected monitor crash")
                    check()

                server._check_degraded_transition = crash_once
                deadline = asyncio.get_running_loop().time() + 5.0
                while not crashed:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                await asyncio.sleep(0)  # the done callback runs
                assert (
                    server.registry.get_sample(
                        "frames_dropped_total", reason="task_crash"
                    )
                    == 1
                )
                client = await cluster.client("site0")
                await client.increment("x", 1)
                assert (await client.values())["x"] == 1
            finally:
                await cluster.stop()

        run(scenario())

    def test_degraded_transition_flips_gauge(self, tmp_path):
        """Severing both links must flip the degraded gauge to 1 and
        count a transition (visible to an operator, not just pollers
        of the stats verb)."""
        from repro.live.faults import FaultPlan

        async def scenario():
            plan = FaultPlan()
            cluster = await _booted(
                tmp_path,
                faults=plan,
                heartbeat_interval=0.05,
                suspect_after=0.15,
            )
            try:
                cluster.partition([["site0"], ["site1"]])
                deadline = asyncio.get_event_loop().time() + 5.0
                server = cluster.servers["site0"]
                while asyncio.get_event_loop().time() < deadline:
                    if server.degraded():
                        break
                    await asyncio.sleep(0.05)
                assert server.degraded()
                # Let the monitor tick observe the flip.
                await asyncio.sleep(0.1)
                reg = server.registry
                assert reg.get_sample("degraded") == 1
                assert (
                    reg.get_sample("degraded_transitions_total") >= 1
                )
                kinds = [
                    e
                    for e in server.trace.snapshot()
                    if e["kind"] == "degraded"
                ]
                assert kinds and kinds[-1]["value"] == 1
            finally:
                await cluster.stop()

        run(scenario())


class TestSettleErrorAttribution:
    def test_replica_failure_names_the_replica(self, tmp_path):
        """Regression: a real replica error during the settle sweep
        surfaced as a bare client exception with no site attribution
        (and non-timeout errors were matched by string)."""

        async def scenario():
            cluster = await _booted(tmp_path)
            try:

                async def broken(frame):
                    raise RuntimeError("lock table corrupt")

                cluster.servers["site1"]._handle_settle = broken
                with pytest.raises(RuntimeError) as excinfo:
                    await cluster.settle(timeout=5)
                message = str(excinfo.value)
                assert "site1" in message
                assert "lock table corrupt" in message
            finally:
                await cluster.stop()

        run(scenario())

    def test_settle_timeout_names_the_stuck_replica(self, tmp_path):
        async def scenario():
            cluster = await _booted(tmp_path)
            try:

                async def stuck(frame):
                    raise TimeoutError(
                        "settle timed out after 0.1s: backlog {}"
                    )

                cluster.servers["site1"]._handle_settle = stuck
                with pytest.raises(TimeoutError) as excinfo:
                    await cluster.settle(timeout=5)
                assert "site1" in str(excinfo.value)
            finally:
                await cluster.stop()

        run(scenario())


class TestFsyncWindowDurabilityClaims:
    def test_no_dirty_log_behind_any_ack(self, tmp_path):
        """Regression for the written-not-yet-synced window: an append
        only writes, so between it and the ``sync()`` that follows the
        log is dirty.  Every ack path (to clients and to peers) forces
        ``sync()`` first, so no log an acknowledgement depends on may
        be dirty once the ack is out."""

        async def scenario():
            cluster = await _booted(tmp_path, fsync=True)
            try:
                client = await cluster.client("site0")
                for i in range(5):
                    await client.increment("x", 1)
                    origin = cluster.servers["site0"]
                    # Client ack implies the replication log is synced.
                    assert not origin.log.dirty
                await cluster.settle(timeout=30)
                receiver = cluster.servers["site1"]
                # The channel ack advanced site0's frontier, so the
                # receiving inbox must have been synced first.
                assert not receiver.inboxes["site0"].dirty
                assert cluster.servers["site0"].log.backlog("site1") == 0
            finally:
                await cluster.stop()

        run(scenario())

    def test_fsync_metrics_exposed(self, tmp_path):
        async def scenario():
            cluster = await _booted(tmp_path, fsync=True)
            try:
                client = await cluster.client("site0")
                await client.increment("x", 1)
                await cluster.settle(timeout=30)
                scrape = await client.metrics()
                text = scrape["prometheus"]
                assert re.search(
                    r'repro_log_fsync_total\{log="replication",'
                    r'site="site0"\} [1-9]',
                    text,
                )
                assert "repro_log_bytes_total" in text
                # A COMMU site grants no order token, but its membership
                # records are synced on the control log, and counted.
                assert re.search(
                    r'repro_log_fsync_total\{log="control",'
                    r'site="site0"\} [1-9]',
                    text,
                )
            finally:
                await cluster.stop()

        run(scenario())
