"""Unit tests for metrics aggregation."""

import pytest

from repro.core.operations import IncrementOp, ReadOp
from repro.core.transactions import (
    EpsilonSpec,
    ETResult,
    ETStatus,
    QueryET,
    UpdateET,
    reset_tid_counter,
)
from repro.harness.runner import (
    divergence_of,
    percentile,
    summarize,
)


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_out_of_range_p(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)


def _update_result(latency, status=ETStatus.COMMITTED):
    et = UpdateET([IncrementOp("x", 1)])
    return ETResult(et, status=status, start_time=0.0, finish_time=latency)


def _query_result(latency, inconsistency=0, limit=None, waits=0):
    spec = EpsilonSpec() if limit is None else EpsilonSpec(import_limit=limit)
    et = QueryET([ReadOp("x")], spec)
    return ETResult(
        et,
        start_time=0.0,
        finish_time=latency,
        inconsistency=inconsistency,
        waits=waits,
    )


class TestSummarize:
    def test_counts_by_status(self):
        results = [
            _update_result(1.0),
            _update_result(1.0, ETStatus.ABORTED),
            _update_result(1.0, ETStatus.COMPENSATED),
        ]
        m = summarize(results, duration=10.0)
        assert m.total_ets == 3
        assert m.committed == 1
        assert m.aborted == 1
        assert m.compensated == 1

    def test_throughput(self):
        m = summarize([_update_result(1.0)] * 5, duration=10.0)
        assert m.throughput == pytest.approx(0.5)

    def test_latency_split_by_kind(self):
        results = [_update_result(2.0), _query_result(4.0)]
        m = summarize(results, duration=10.0)
        assert m.update_latency_mean == pytest.approx(2.0)
        assert m.query_latency_mean == pytest.approx(4.0)

    def test_inconsistency_stats(self):
        results = [
            _query_result(1.0, inconsistency=0),
            _query_result(1.0, inconsistency=4),
        ]
        m = summarize(results, duration=10.0)
        assert m.inconsistency_mean == pytest.approx(2.0)
        assert m.inconsistency_max == 4

    def test_within_bound_fraction(self):
        results = [
            _query_result(1.0, inconsistency=1, limit=2),
            _query_result(1.0, inconsistency=3, limit=2),
        ]
        m = summarize(results, duration=10.0)
        assert m.within_bound_fraction == pytest.approx(0.5)

    def test_waits_accumulate(self):
        results = [_query_result(1.0, waits=2), _query_result(1.0, waits=3)]
        m = summarize(results, duration=10.0)
        assert m.waits == 5

    def test_empty_run(self):
        m = summarize([], duration=0.0)
        assert m.total_ets == 0
        assert m.throughput == 0.0
        # No queries -> no bound compliance to report.  A default of
        # 1.0 here would inflate "in_bound" aggregates across sweeps
        # that include query-free runs.
        assert m.within_bound_fraction is None
        assert m.as_row()["in_bound"] is None

    def test_update_only_run_has_no_bound_fraction(self):
        m = summarize([_update_result(1.0)], duration=2.0)
        assert m.within_bound_fraction is None

    def test_as_row_is_flat(self):
        m = summarize([_update_result(1.0)], duration=2.0)
        row = m.as_row()
        assert row["ets"] == 1
        assert isinstance(row["thruput"], float)


class TestDivergence:
    def test_identical_sites_zero(self):
        values = {"s0": {"a": 5}, "s1": {"a": 5}}
        assert divergence_of(values) == 0.0

    def test_numeric_spread(self):
        values = {"s0": {"a": 1}, "s1": {"a": 4}, "s2": {"a": 2}}
        assert divergence_of(values) == 3.0

    def test_sums_over_keys(self):
        values = {"s0": {"a": 1, "b": 10}, "s1": {"a": 3, "b": 10}}
        assert divergence_of(values) == 2.0

    def test_non_numeric_counts_one_per_diff(self):
        values = {"s0": {"a": "x"}, "s1": {"a": "y"}}
        assert divergence_of(values) == 1.0

    def test_missing_key_counts(self):
        values = {"s0": {"a": 1}, "s1": {}}
        assert divergence_of(values) == 1.0

    def test_single_site_zero(self):
        assert divergence_of({"s0": {"a": 1}}) == 0.0
