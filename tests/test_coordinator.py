"""Tests for the measurement harness (coordinator)."""

import pytest

from repro.core.plan import linear_plan
from repro.core.strategies import (
    AllMat,
    NoMatLineage,
    NoMatRestart,
    standard_schemes,
)
from repro.engine.cluster import Cluster
from repro.engine.coordinator import (
    compare_schemes,
    measure_scheme,
    pure_baseline_runtime,
    run_with_extension,
)
from repro.engine.executor import SimulatedEngine
from repro.engine.traces import FailureTrace, generate_trace, generate_trace_set


@pytest.fixture
def long_chain():
    return linear_plan([(100.0, 5.0), (100.0, 5.0), (100.0, 5.0)])


class TestBaseline:
    def test_pure_baseline_has_no_extra_materialization(self, long_chain):
        cluster = Cluster(nodes=2, mttr=1.0)
        engine = SimulatedEngine(cluster)
        baseline = pure_baseline_runtime(
            long_chain, engine, cluster.stats(3600)
        )
        assert baseline == pytest.approx(300.0)


class TestMeasureScheme:
    def test_no_failures_all_mat_overhead_is_mat_tax(self, long_chain):
        cluster = Cluster(nodes=2, mttr=1.0)
        engine = SimulatedEngine(cluster)
        stats = cluster.stats(1e12)
        traces = [FailureTrace.empty(2)]
        measurement = measure_scheme(
            AllMat(), long_chain, engine, stats, traces
        )
        # 15 s of materialization (all three ops) over a 300 s baseline
        assert measurement.overhead_percent == pytest.approx(5.0, rel=0.01)

    def test_no_failures_no_mat_overhead_is_zero(self, long_chain):
        cluster = Cluster(nodes=2, mttr=1.0)
        engine = SimulatedEngine(cluster)
        stats = cluster.stats(1e12)
        traces = [FailureTrace.empty(2)]
        measurement = measure_scheme(
            NoMatLineage(), long_chain, engine, stats, traces
        )
        assert measurement.overhead_percent == pytest.approx(0.0, abs=1e-9)

    def test_aborted_runs_are_counted(self, long_chain):
        cluster = Cluster(nodes=1, mttr=0.0, max_restarts=2)
        engine = SimulatedEngine(cluster)
        stats = cluster.stats(10.0)
        trace = generate_trace(1, 10.0, 50_000.0, seed=0)
        measurement = measure_scheme(
            NoMatRestart(), long_chain, engine, stats, [trace]
        )
        assert measurement.aborted_runs == 1
        assert measurement.all_aborted
        assert measurement.overhead_percent == float("inf")

    def test_materialized_ids_reported(self, long_chain):
        cluster = Cluster(nodes=2, mttr=1.0)
        engine = SimulatedEngine(cluster)
        stats = cluster.stats(1e12)
        measurement = measure_scheme(
            AllMat(), long_chain, engine, stats, [FailureTrace.empty(2)]
        )
        assert set(measurement.materialized_ids) == {1, 2, 3}


class TestCompareSchemes:
    def test_rows_in_scheme_order(self, long_chain):
        rows = compare_schemes(
            standard_schemes(), long_chain, "chain",
            Cluster(nodes=2, mttr=1.0), mtbf=3600.0, trace_count=3,
        )
        assert [row.scheme for row in rows] == [
            "all-mat", "no-mat (lineage)", "no-mat (restart)", "cost-based"
        ]

    def test_cost_based_is_competitive(self, long_chain):
        rows = compare_schemes(
            standard_schemes(), long_chain, "chain",
            Cluster(nodes=4, mttr=1.0), mtbf=600.0, trace_count=5,
        )
        by_scheme = {row.scheme: row for row in rows}
        finished = [row.overhead_percent for row in rows
                    if not row.aborted and row.scheme != "cost-based"]
        assert by_scheme["cost-based"].overhead_percent <= \
            min(finished) + 15.0  # small trace-noise allowance

    def test_formatted_overhead(self, long_chain):
        rows = compare_schemes(
            [NoMatLineage()], long_chain, "chain",
            Cluster(nodes=1, mttr=1.0), mtbf=1e12, trace_count=1,
        )
        assert rows[0].formatted_overhead().endswith("%")


class TestExtension:
    def test_extension_recovers_from_short_horizon(self, long_chain):
        cluster = Cluster(nodes=1, mttr=1.0)
        engine = SimulatedEngine(cluster)
        stats = cluster.stats(200.0)
        configured = NoMatLineage().configure(long_chain, stats)
        # far too short a horizon: the run must extend it transparently
        trace = generate_trace(1, 200.0, 10.0, seed=1)
        result = run_with_extension(engine, configured, trace)[0]
        assert result.finished

    def test_extended_result_matches_long_trace(self, long_chain):
        cluster = Cluster(nodes=1, mttr=1.0)
        engine = SimulatedEngine(cluster)
        stats = cluster.stats(200.0)
        configured = NoMatLineage().configure(long_chain, stats)
        short = generate_trace(1, 200.0, 10.0, seed=1)
        long = generate_trace(1, 200.0, 1_000_000.0, seed=1)
        extended_runtime = run_with_extension(
            engine, configured, short
        )[0].runtime
        assert extended_runtime == pytest.approx(
            engine.execute(configured, long).runtime
        )
