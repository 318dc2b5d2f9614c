"""Tests of the benchmark itself (outside tier-1's ``testpaths``).

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench import check, harness, metrics, trace  # noqa: E402
from bench.workloads import WORKLOADS, make_plan  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT),
    )


# -- plans -----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plan_is_a_pure_function_of_the_seed(name):
    workload = WORKLOADS[name]
    first = json.dumps(make_plan(workload, 7, 3))
    assert json.dumps(make_plan(workload, 7, 3)) == first
    assert json.dumps(make_plan(workload, 8, 3)) != first


def test_plan_prefix_does_not_depend_on_its_length():
    workload = WORKLOADS["read_mix"]
    short, long = make_plan(workload, 5, 2), make_plan(workload, 5, 6)
    assert long["warmup"] == short["warmup"]
    assert long["segments"][:2] == short["segments"]
    assert all(
        len(segment) == workload.segment_ops for segment in long["segments"]
    )


def test_work_is_fixed_by_the_workload_not_by_the_clock():
    from bench.workloads import RUN_SECONDS

    assert MANIFEST["run_seconds"] == RUN_SECONDS
    for entry in MANIFEST["workloads"]:
        workload = WORKLOADS[entry["name"]]
        options = harness.RunOptions(workload, 1, float(RUN_SECONDS), False)
        assert options.n_segments == workload.segments
        assert options.n_segments % workload.snapshot_every == 0
        # the fixed sizes are recorded in the manifest
        assert "%d segments" % workload.segments in entry["why"]
        assert str(workload.segment_ops) in entry["why"]


# -- manifest ----------------------------------------------------------------------


def test_manifest_matches_the_metric_tables():
    def rows(table, bounded):
        return [
            {
                "name": m.name, "unit": m.unit, "better": m.better,
                **({"bound": m.bound} if bounded else {}),
            }
            for m in table
        ]

    assert MANIFEST["end_to_end"] == rows(metrics.END_TO_END, True)
    assert MANIFEST["per_layer"] == rows(metrics.PER_LAYER, False)
    # ordup_sharded runs with --workload but is not gated (not_gated)
    assert [w["name"] for w in MANIFEST["workloads"]] == [
        w.name for w in WORKLOADS.values() if not w.not_gated
    ]


def test_manifest_stays_inside_the_contract():
    names = [
        m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    ] + [w["name"] for w in MANIFEST["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in MANIFEST["workloads"])
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert MANIFEST["paths"] == ["bench"]


# -- the command ------------------------------------------------------------------


def test_list_prints_every_workload_and_its_reason():
    out = _run("--list").stdout
    for workload in MANIFEST["workloads"]:
        assert workload["name"] in out and workload["why"] in out


@pytest.mark.parametrize("traced", [0, 1])
def test_quick_run_prints_exactly_the_manifest_metrics(traced):
    started = time.monotonic()
    done = _run(
        "--workload", "read_mix", "--seed", "3", "--trace", str(traced),
        "--quick",
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = MANIFEST["per_layer"] if traced else MANIFEST["end_to_end"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in table}
    # every name is also printed as a human-readable line
    for m in table:
        assert re.search(
            r"^%s\s" % re.escape(m["name"]), done.stdout, re.MULTILINE
        )
    if not traced:
        assert all(e["value"] > 0 for e in result["metrics"].values())
    assert elapsed < 30, "--quick took %.1fs" % elapsed


def test_no_result_without_the_program_under_test(tmp_path):
    """In a directory holding only the benchmark, the command fails
    and prints no result line."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", "read_mix",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- host sampler ------------------------------------------------------------------


def test_host_sampler_ticks_on_the_loop_and_cleans_up():
    async def scenario():
        sampler = harness.HostSampler()
        assert sampler.since(sampler.mark()) == (1.0, 0.0)  # never ticked
        sampler.start()
        try:
            mark = sampler.mark()
            await asyncio.sleep(0.1)
            host, ticking = sampler.since(mark)
            ticks = sampler.ticks[mark:]
        finally:
            sampler.stop()
        return sampler, host, ticking, ticks

    sampler, host, ticking, ticks = asyncio.run(scenario())
    assert len(ticks) >= 5
    assert ticking == pytest.approx(sum(ticks))
    assert host == pytest.approx(
        sum(ticks) / len(ticks) * 1e3 / harness.REFERENCE_TICK_MS
    )
    assert sampler._near is None and sampler._far is None
    # with no tick since the mark the latest one stands in
    assert sampler.since(sampler.mark()) == (
        pytest.approx(ticks[-1] * 1e3 / harness.REFERENCE_TICK_MS), 0.0,
    )


def test_reported_times_are_measured_times_over_the_host_factor():
    window = harness.Window(0, False)
    window.ops = 1000
    window.host, window.latency_host = 2.0, 4.0
    window.measured_wall, window.measured_cpu = 1.0, 0.8
    window.wall, window.cpu = 0.5, 0.4
    window.latencies = {"update": [0.008] * 10}
    assert window.end_to_end("update", measured=True) == {
        "ops_s": 1000.0, "p50_ms": 8.0, "p95_ms": 8.0, "cpu_us_per_op": 800.0,
    }
    assert window.end_to_end("update") == {
        "ops_s": 2000.0, "p50_ms": 2.0, "p95_ms": 2.0, "cpu_us_per_op": 400.0,
    }


# -- tracer ------------------------------------------------------------------------


def _targets():
    """(owner, attr, current value) of every entry point in TARGETS."""
    import importlib

    out = []
    for target in trace.TARGETS:
        module_name, _, class_name = target.owner.partition(":")
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        out.append((owner, target.attr, owner.__dict__[target.attr]))
    return out


def test_tracer_restores_every_attribute_when_a_segment_raises():
    from repro.live import client as client_module, protocol

    before = _targets()
    imported_by_name = client_module.encode_ops
    assert imported_by_name is protocol.encode_ops

    class Boom(RuntimeError):
        pass

    class BrokenBench:
        workload = WORKLOADS["write_stream"]

        def reset_window(self):
            pass

        async def counters(self):
            return {}

        async def run_requests(self, requests):
            # the wrappers are in place while the segment runs ...
            assert client_module.encode_ops is not imported_by_name
            assert protocol.encode_ops is client_module.encode_ops
            raise Boom()

    options = harness.RunOptions(WORKLOADS["write_stream"], 1, 1.0, True, True)
    measurement = harness.Measurement(BrokenBench(), options)
    with pytest.raises(Boom):
        asyncio.run(measurement._window(1, [], traced=True))
    # ... and gone afterwards, by identity, everywhere
    assert not measurement.tracer.installed
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert client_module.encode_ops is imported_by_name


def test_self_time_is_run_time_minus_nested_spans():
    tracer = trace.Tracer(sample_every=1)

    def spin(ms):
        end = time.perf_counter() + ms / 1e3
        while time.perf_counter() < end:
            pass

    def leaf():
        spin(4)

    leaf = tracer._wrap_sync("layer.leaf", leaf, None)
    tracer.layers["layer.leaf"] = "layer"

    async def parent():
        spin(2)
        await asyncio.sleep(0.02)  # suspended: on nobody's account
        leaf()
        return "done"

    parent = tracer._wrap_async("layer.parent", parent, None)
    tracer.layers["layer.parent"] = "layer"

    assert asyncio.run(parent()) == "done"
    leaf_total = tracer.totals["layer.leaf"]
    parent_total = tracer.totals["layer.parent"]
    assert parent_total[trace.STEPS] == 2  # one suspension
    assert parent_total[trace.WALL] >= 0.02 + 0.006
    assert 0.006 <= parent_total[trace.RUN] < 0.015
    assert parent_total[trace.SELF] == pytest.approx(
        parent_total[trace.RUN] - leaf_total[trace.RUN]
    )
    by_name = {span["name"]: span for span in tracer.spans}
    assert by_name["layer.leaf"]["parent"] == by_name["layer.parent"]["id"]
    assert by_name["layer.parent"]["parent"] is None


# -- correctness gate ---------------------------------------------------------------


def test_verify_catches_a_lost_update_and_divergence():
    ledger = check.Ledger(
        preload_total=20, acked_transfers=3, attempted=3
    )
    good = {"k0": 9, "k1": 11, "tally_00": 2, "tally_01": 1}
    assert check.verify([{"a": good, "b": dict(good)}], ledger) == []
    lost = dict(good, tally_01=0)
    assert any(
        "tallies" in p for p in check.verify([{"a": lost, "b": lost}], ledger)
    )
    assert any(
        "diverge" in p for p in check.verify([{"a": good, "b": lost}], ledger)
    )
    leaked = dict(good, k0=10)
    assert any(
        "data keys" in p
        for p in check.verify([{"a": leaked, "b": leaked}], ledger)
    )
    ledger.failed = 1
    assert any("failed" in p for p in check.verify([{"a": good}], ledger))


def test_check_fails_when_settle_is_skipped(tmp_path):
    """A deliberately broken run: read the replicas while site0 still
    holds an undelivered backlog, without healing or settling."""
    workload = WORKLOADS["drain_backlog"]
    plan = make_plan(workload, 1, 1)

    async def scenario():
        bench = harness.Bench(workload, tmp_path / "data")
        try:
            await bench.boot()
            await bench.preload()
            await bench.settle()
            bench.partition()
            await bench.run_requests(plan["warmup"][0][:200])
            bench.ledger.attempted = bench.window_attempted
            broken = check.verify(await bench.final_values(), bench.ledger)
            bench.heal()
            await bench.settle()
            mended = check.verify(await bench.final_values(), bench.ledger)
        finally:
            await bench.stop()
        return broken, mended

    device_fsync = os.fsync
    with harness.device_fsync_skipped():
        assert os.fsync is not device_fsync
        broken, mended = asyncio.run(scenario())
    assert os.fsync is device_fsync  # the patch does not outlive the run
    assert any("diverge" in problem for problem in broken)
    assert mended == []
