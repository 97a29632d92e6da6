"""Tests for the mid-operator checkpointing extension (Section 7)."""

import pytest

from repro.core.checkpointing import (
    CheckpointSpec,
    checkpointed_runtime,
    estimated_runtime_with_checkpoints,
    group_snapshot_cost,
    plan_operator_checkpoints,
    young_daly_interval,
)
from repro.core.collapse import collapse_plan
from repro.core.cost_model import ClusterStats, operator_runtime
from repro.core.plan import Operator, Plan, linear_plan
from repro.core.strategies import (
    CostBased,
    CostBasedWithOpCheckpoints,
    NoMatLineage,
)
from repro.engine.cluster import Cluster
from repro.engine.executor import SimulatedEngine
from repro.engine.traces import FailureTrace, generate_trace


def _long_op_plan(duration=2000.0, snapshot_cost=5.0) -> Plan:
    """One very long operator with snapshot support, plus a bound sink."""
    plan = Plan()
    plan.add_operator(Operator(
        1, "LongUDF", duration, 10.0, state_ckpt_cost=snapshot_cost,
    ))
    plan.add_operator(Operator(
        2, "sink", 1.0, 1.0, materialize=True, free=False,
        state_ckpt_cost=0.5,
    ))
    plan.add_edge(1, 2)
    return plan


class TestYoungDaly:
    def test_formula(self):
        assert young_daly_interval(8.0, 100.0) == pytest.approx(40.0)

    def test_interval_grows_with_both_inputs(self):
        assert young_daly_interval(2.0, 100.0) < \
            young_daly_interval(8.0, 100.0)
        assert young_daly_interval(8.0, 100.0) < \
            young_daly_interval(8.0, 1000.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            young_daly_interval(0.0, 100.0)
        with pytest.raises(ValueError):
            young_daly_interval(1.0, 0.0)


class TestCheckpointSpec:
    def test_chunking_covers_the_work(self):
        spec = CheckpointSpec(interval=30.0, snapshot_cost=1.0,
                              estimated_runtime=0.0)
        chunks = spec.chunks_for(100.0)
        assert sum(chunks) == pytest.approx(100.0)
        assert all(chunk <= 30.0 + 1e-9 for chunk in chunks)

    def test_exact_multiple_has_no_empty_tail(self):
        spec = CheckpointSpec(interval=25.0, snapshot_cost=1.0,
                              estimated_runtime=0.0)
        assert spec.chunks_for(100.0) == [25.0] * 4

    def test_zero_work(self):
        spec = CheckpointSpec(interval=10.0, snapshot_cost=1.0,
                              estimated_runtime=0.0)
        assert spec.chunks_for(0.0) == [0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointSpec(interval=0.0, snapshot_cost=1.0,
                           estimated_runtime=0.0)
        with pytest.raises(ValueError):
            CheckpointSpec(interval=1.0, snapshot_cost=-1.0,
                           estimated_runtime=0.0)


class TestCheckpointedRuntime:
    def test_beats_plain_model_for_long_operators(self):
        """The extension's raison d'etre: a 2000 s operator on a
        600 s-MTBF node is hopeless without snapshots."""
        stats = ClusterStats(mtbf=600.0, mttr=1.0)
        plain = operator_runtime(2000.0, stats)
        chunked, interval = checkpointed_runtime(2000.0, 5.0, stats)
        assert chunked < plain / 2
        assert 0 < interval < 2000.0

    def test_not_worth_it_for_short_operators(self):
        stats = ClusterStats(mtbf=1e9, mttr=1.0)
        plain = operator_runtime(10.0, stats)
        chunked, _ = checkpointed_runtime(10.0, 5.0, stats)
        assert chunked >= plain  # snapshots are pure overhead here

    def test_explicit_interval_is_respected(self):
        stats = ClusterStats(mtbf=600.0, mttr=1.0)
        _, interval = checkpointed_runtime(2000.0, 5.0, stats,
                                           interval=100.0)
        assert interval == 100.0

    def test_interval_clamped_to_operator_length(self):
        stats = ClusterStats(mtbf=1e9, mttr=1.0)
        _, interval = checkpointed_runtime(10.0, 5.0, stats,
                                           interval=500.0)
        assert interval == 10.0

    def test_validation(self):
        stats = ClusterStats(mtbf=100.0)
        with pytest.raises(ValueError):
            checkpointed_runtime(-1.0, 5.0, stats)
        with pytest.raises(ValueError):
            checkpointed_runtime(10.0, 0.0, stats)


class TestPlanning:
    def test_group_snapshot_cost_sums_members(self):
        plan = _long_op_plan()
        collapsed = collapse_plan(plan)
        (group,) = list(collapsed)
        assert group_snapshot_cost(plan, group) == pytest.approx(5.5)

    def test_unsupported_member_disables_the_group(self):
        plan = linear_plan([(100.0, 1.0), (100.0, 1.0)])
        collapsed = collapse_plan(plan)
        for group in collapsed:
            assert group_snapshot_cost(plan, group) is None

    def test_long_groups_get_checkpointed(self):
        plan = _long_op_plan()
        stats = ClusterStats(mtbf=600.0, mttr=1.0)
        chosen = plan_operator_checkpoints(plan, stats)
        assert list(chosen) == [2]   # the single collapsed group's anchor
        assert chosen[2].estimated_runtime < operator_runtime(
            collapse_plan(plan)[2].total_cost, stats
        )

    def test_short_groups_are_left_alone(self):
        plan = _long_op_plan(duration=10.0)
        stats = ClusterStats(mtbf=1e9, mttr=1.0)
        assert plan_operator_checkpoints(plan, stats) == {}

    def test_estimated_runtime_with_checkpoints(self):
        plan = _long_op_plan()
        stats = ClusterStats(mtbf=600.0, mttr=1.0)
        chosen = plan_operator_checkpoints(plan, stats)
        with_ckpt = estimated_runtime_with_checkpoints(plan, stats, chosen)
        without = estimated_runtime_with_checkpoints(plan, stats, {})
        assert with_ckpt < without


class TestScheme:
    def test_scheme_attaches_checkpoints(self):
        plan = _long_op_plan()
        stats = ClusterStats(mtbf=600.0, mttr=1.0)
        configured = CostBasedWithOpCheckpoints().configure(plan, stats)
        assert configured.op_checkpoints
        assert configured.scheme == "cost-based (+op-ckpt)"

    def test_plain_cost_based_has_none(self):
        plan = _long_op_plan()
        stats = ClusterStats(mtbf=600.0, mttr=1.0)
        configured = CostBased().configure(plan, stats)
        assert not configured.op_checkpoints


class TestEngineIntegration:
    def test_failure_free_runtime_includes_snapshot_overhead(self):
        plan = _long_op_plan()
        stats = ClusterStats(mtbf=600.0, mttr=1.0)
        engine = SimulatedEngine(Cluster(nodes=1, mttr=1.0))
        plain = engine.execute(NoMatLineage().configure(plan, stats))
        chunked = engine.execute(
            CostBasedWithOpCheckpoints().configure(plan, stats)
        )
        assert chunked.runtime > plain.runtime     # snapshots cost time
        assert chunked.runtime < plain.runtime * 1.5

    def test_failure_resumes_from_last_snapshot(self):
        plan = _long_op_plan(duration=100.0, snapshot_cost=1.0)
        stats = ClusterStats(mtbf=600.0, mttr=1.0)
        configured = CostBasedWithOpCheckpoints().configure(plan, stats)
        engine = SimulatedEngine(Cluster(nodes=1, mttr=0.0))
        if not configured.op_checkpoints:
            pytest.skip("optimizer chose not to checkpoint at this size")
        interval = configured.op_checkpoints[2].interval
        failure_time = interval * 2.5
        trace = FailureTrace(node_failures=((failure_time,),), mtbf=1.0)
        result = engine.execute(configured, trace)
        baseline = engine.execute(configured).runtime
        # lost work is bounded by one chunk plus its snapshot
        assert result.runtime - baseline <= interval + 1.5 + 1e-6

    def test_checkpointing_survives_brutal_failure_rates(self):
        """A 2000 s operator under MTBF = 300 s: without snapshots the
        share essentially cannot finish; with them it does."""
        plan = _long_op_plan(duration=2000.0, snapshot_cost=5.0)
        stats = ClusterStats(mtbf=300.0, mttr=1.0)
        trace = generate_trace(1, 300.0, horizon=10_000_000.0, seed=3)
        engine = SimulatedEngine(Cluster(nodes=1, mttr=1.0))
        plain = engine.execute(
            NoMatLineage().configure(plan, stats), trace
        )
        chunked = engine.execute(
            CostBasedWithOpCheckpoints().configure(plan, stats), trace
        )
        assert chunked.runtime < plain.runtime / 3
