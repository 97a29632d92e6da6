"""Tests for the workload-level runner."""

import pytest

from repro.core.strategies import (
    AllMat,
    CostBased,
    NoMatLineage,
)
from repro.engine.cluster import Cluster
from repro.engine.traces import FailureTrace, generate_trace
from repro.workloads import generate_mixed_workload
from repro.workloads.runner import (
    compare_workload,
    format_comparison,
    run_workload,
)


@pytest.fixture(scope="module")
def small_workload():
    return generate_mixed_workload(count=4, seed=2, sf_range=(1.0, 30.0))


class TestTraceShift:
    def test_shift_drops_past_failures_and_rebases(self):
        trace = FailureTrace(node_failures=((10.0, 30.0), (20.0,)),
                             mtbf=1.0, horizon=100.0)
        shifted = trace.shifted(15.0)
        assert shifted.node_failures == ((15.0,), (5.0,))
        assert shifted.horizon == 85.0

    def test_shift_zero_is_identity_valued(self):
        trace = generate_trace(2, 50.0, 1_000.0, seed=1)
        shifted = trace.shifted(0.0)
        assert shifted.node_failures == trace.node_failures

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            FailureTrace.empty(1).shifted(-1.0)


class TestRunWorkload:
    def test_makespan_is_sum_of_runtimes(self, small_workload):
        cluster = Cluster(nodes=4, mttr=1.0)
        run = run_workload(small_workload, NoMatLineage(), cluster,
                           mtbf=86400.0, seed=5)
        assert run.makespan == pytest.approx(
            sum(outcome.runtime for outcome in run.outcomes)
        )
        assert len(run.outcomes) == len(small_workload)

    def test_failure_free_baseline(self, small_workload):
        cluster = Cluster(nodes=4, mttr=1.0)
        run = run_workload(
            small_workload, NoMatLineage(), cluster, mtbf=1e12,
            trace=FailureTrace.empty(4),
        )
        assert run.finished
        assert all(o.share_restarts == 0 for o in run.outcomes)

    def test_later_queries_see_later_failures(self, small_workload):
        """The same trace replayed per query would hit identical failure
        times; the runner's continuous timeline must not."""
        cluster = Cluster(nodes=4, mttr=1.0)
        run = run_workload(small_workload, NoMatLineage(), cluster,
                           mtbf=600.0, seed=9)
        # the cumulative timeline keeps moving: total restarts across the
        # workload reflect a continuous failure process
        assert run.makespan > sum(
            q.baseline_cost for q in small_workload
        ) * 0.99

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            run_workload([], NoMatLineage(), Cluster(nodes=2), mtbf=100.0)


class TestCompareWorkload:
    def test_all_schemes_run_on_the_same_timeline(self, small_workload):
        cluster = Cluster(nodes=4, mttr=1.0)
        runs = compare_workload(small_workload, cluster, mtbf=1800.0,
                                seed=3)
        assert [r.scheme for r in runs] == [
            "all-mat", "no-mat (lineage)", "no-mat (restart)", "cost-based"
        ]

    def test_cost_based_is_competitive_at_workload_level(
            self, small_workload):
        cluster = Cluster(nodes=4, mttr=1.0)
        runs = compare_workload(small_workload, cluster, mtbf=1800.0,
                                seed=3)
        by_scheme = {run.scheme: run for run in runs}
        finished = [run.makespan for run in runs
                    if run.finished and run.scheme != "cost-based"]
        assert by_scheme["cost-based"].makespan <= min(finished) * 1.15

    def test_format_lists_every_scheme(self, small_workload):
        cluster = Cluster(nodes=4, mttr=1.0)
        runs = compare_workload(
            small_workload, cluster, mtbf=1e9, seed=1,
            schemes=[AllMat(), CostBased()],
        )
        rendering = format_comparison(runs)
        assert "all-mat" in rendering and "cost-based" in rendering
