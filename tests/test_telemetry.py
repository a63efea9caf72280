"""Telemetry invariants: the percentile estimator and zero-safe stats.

``percentile`` is property-tested against the nearest-rank oracle —
``sorted(values)[ceil(q/100 * n) - 1]`` — across random samples and the
1–3-sample edge cases where off-by-one rank bugs live.
``RuntimeStats.table()`` must render an idle server (zero requests,
zero uptime, a zero-request per-kernel row) without dividing by any of
those counts.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.runtime.telemetry import (
    KernelServingStats,
    RuntimeStats,
    Telemetry,
    percentile,
)

_SAMPLES = st.lists(
    st.floats(
        min_value=-1e9, max_value=1e9,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=1,
    max_size=64,
)


def _oracle(values, q):
    """The sorted-index nearest-rank definition."""
    ordered = sorted(values)
    if q <= 0:
        return ordered[0]
    # q * n is an exact small-int product, so the division (and its
    # ceiling) is free of the float drift q / 100 * n would pick up.
    rank = min(math.ceil(q * len(ordered) / 100), len(ordered))
    return ordered[rank - 1]


class TestPercentile:
    @given(values=_SAMPLES, q=st.integers(min_value=0, max_value=100))
    def test_matches_sorted_index_oracle(self, values, q):
        assert percentile(values, q) == _oracle(values, q)

    @given(values=_SAMPLES, q=st.integers(min_value=1, max_value=100))
    def test_result_is_a_sample_with_enough_mass_below(self, values, q):
        result = percentile(values, q)
        assert result in values
        at_or_below = sum(1 for v in values if v <= result)
        assert at_or_below / len(values) >= q / 100

    def test_empty_returns_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_sample_any_q(self):
        for q in (0, 1, 50, 99, 100):
            assert percentile([7.0], q) == 7.0

    def test_two_samples(self):
        values = [2.0, 1.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 1.0   # ceil(1.0) = 1
        assert percentile(values, 51) == 2.0   # ceil(1.02) = 2
        assert percentile(values, 100) == 2.0

    def test_three_samples(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 33) == 1.0   # ceil(0.99) = 1
        assert percentile(values, 34) == 2.0   # ceil(1.02) = 2
        assert percentile(values, 67) == 3.0   # ceil(2.01) = 3
        assert percentile(values, 95) == 3.0

    def test_out_of_range_q_clamps(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, -5) == 1.0
        assert percentile(values, 250) == 3.0


class TestZeroSafety:
    def _stats(self, **overrides):
        base = dict(
            uptime_s=0.0,
            requests=0,
            completed=0,
            failed=0,
            queue_depth=0,
            batches=0,
            max_batch_size=0,
            tier_counts={},
            p50_latency_s=0.0,
            p95_latency_s=0.0,
        )
        base.update(overrides)
        return RuntimeStats(**base)

    def test_idle_table_renders(self):
        table = self._stats().table()
        assert "0/0 served" in table
        assert "0.0 req/s" in table

    def test_zero_request_kernel_row_renders(self):
        stats = self._stats(
            per_kernel={
                "gemm": KernelServingStats(
                    requests=0,
                    p50_latency_s=0.0,
                    p95_latency_s=0.0,
                    throughput_rps=0.0,
                    mean_tflops=0.0,
                )
            }
        )
        assert "gemm" in stats.table()

    def test_zero_uptime_throughput_and_tier_rate(self):
        stats = self._stats()
        assert stats.throughput_rps == 0.0
        assert stats.tier_rate("memory") == 0.0

    def test_fresh_collector_snapshot_renders(self):
        stats = Telemetry().snapshot()
        assert stats.requests == 0
        assert "graphs:" not in stats.table()  # no graphs yet

    def test_graph_counters_flow_into_snapshot(self):
        telemetry = Telemetry()
        telemetry.count("graphs", 2)
        telemetry.count("graph_nodes", 7)
        telemetry.count("graph_nodes", 3)
        telemetry.record_graph_done(0.25)
        telemetry.count("graphs_failed")
        stats = telemetry.snapshot()
        assert stats.graphs == 2
        assert stats.graph_nodes == 10
        assert stats.graphs_completed == 1
        assert stats.graphs_failed == 1
        assert stats.p50_graph_makespan_s == 0.25
        table = stats.table()
        assert "graphs:" in table and "1/2 completed" in table

    def test_count_rejects_an_undeclared_counter(self):
        with pytest.raises(KeyError):
            Telemetry().count("no_such_counter")
