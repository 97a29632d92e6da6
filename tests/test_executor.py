"""Unit and integration tests for the simulated engine."""

import pytest

from repro.core.plan import Operator, Plan, linear_plan
from repro.core.strategies import (
    AllMat,
    ConfiguredPlan,
    NoMatLineage,
    NoMatRestart,
    RecoveryMode,
)
from repro.engine.cluster import Cluster
from repro.engine.executor import SimulatedEngine, TraceExhausted
from repro.engine.storage import LocalStorage
from repro.engine.timeline import EventKind
from repro.engine.traces import FailureTrace


def _trace(node_failures, mtbf=1.0, horizon=float("inf")):
    return FailureTrace(
        node_failures=tuple(tuple(f) for f in node_failures),
        mtbf=mtbf, horizon=horizon,
    )


def _stats(nodes, mtbf=1e12, mttr=1.0):
    return Cluster(nodes=nodes, mttr=mttr).stats(mtbf)


class TestFailureFreeExecution:
    def test_chain_runtime_is_sum_of_ops(self, chain_plan):
        engine = SimulatedEngine(Cluster(nodes=2, mttr=1.0))
        configured = NoMatLineage().configure(chain_plan, _stats(2))
        result = engine.execute(configured)
        # 10 + 20 + 5 + 1 + tm(sink)=0.5
        assert result.runtime == pytest.approx(36.5)
        assert result.finished and result.failures_hit == 0

    def test_all_mat_adds_materialization_on_the_path(self, chain_plan):
        engine = SimulatedEngine(Cluster(nodes=2, mttr=1.0))
        configured = AllMat().configure(chain_plan, _stats(2))
        result = engine.execute(configured)
        # every tm on the chain adds up: 36 + 2 + 4 + 1 + 0.5
        assert result.runtime == pytest.approx(43.5)

    def test_parallel_branches_overlap(self):
        """Two sources feeding a sink run concurrently."""
        plan = Plan()
        plan.add_operator(Operator(1, "left", 10.0, 0.0))
        plan.add_operator(Operator(2, "right", 30.0, 0.0))
        plan.add_operator(Operator(3, "sink", 5.0, 0.0, materialize=True,
                                   free=False))
        plan.add_edge(1, 3)
        plan.add_edge(2, 3)
        engine = SimulatedEngine(Cluster(nodes=1))
        configured = NoMatLineage().configure(plan, _stats(1))
        # makespan = max(10, 30) + 5, not 10 + 30 + 5
        assert engine.execute(configured).runtime == pytest.approx(35.0)

    def test_scans_overlap_with_upstream_groups(self):
        """The all-mat regression: a group's base work starts at time 0
        even when its materialized input arrives later."""
        plan = Plan()
        plan.add_operator(Operator(1, "upstream", 50.0, 1.0))
        plan.add_operator(Operator(2, "local-heavy", 60.0, 1.0))
        plan.add_operator(Operator(3, "join", 10.0, 1.0, materialize=True,
                                   free=False))
        plan.add_edge(1, 3)
        plan.add_edge(2, 3)
        engine = SimulatedEngine(Cluster(nodes=1))
        configured = plan.with_mat_config({1: True, 2: False})
        result = engine.execute(ConfiguredPlan(
            plan=configured, recovery=RecoveryMode.FINE_GRAINED,
            scheme="test",
        ))
        # group {2, 3} waits for op 1 (done at 51) only at the join step:
        # op 2 runs [0, 60], join [60, 71]; not 51 + 71
        assert result.runtime == pytest.approx(71.0)

    def test_off_path_member_gates_the_dominant_path(self):
        """A group member off the dominant path passes its external
        input's completion on to the dominant-path operator it feeds."""
        operators = [
            Operator(1, "upstream", 50.0, 1.0, materialize=True),
            Operator(2, "off-path", 1.0, 1.0),
            Operator(3, "heavy", 10.0, 1.0),
            Operator(4, "sink", 5.0, 0.0, materialize=True, free=False),
        ]
        plan = Plan.from_edges(operators, [(1, 2), (2, 4), (3, 4)])
        result = SimulatedEngine(Cluster(nodes=2)).execute(ConfiguredPlan(
            plan=plan, recovery=RecoveryMode.FINE_GRAINED, scheme="test",
        ))
        # group {2, 3, 4}: path 3 -> 4 dominates; op 4 still waits for
        # op 1 (done at 51) through op 2, so it runs [51, 56]
        assert result.runtime == pytest.approx(56.0)


class TestFineGrainedRecovery:
    def test_single_failure_adds_lost_work_and_mttr(self):
        plan = linear_plan([(100.0, 0.0)])
        engine = SimulatedEngine(Cluster(nodes=1, mttr=2.0))
        configured = NoMatLineage().configure(plan, _stats(1))
        trace = _trace([[40.0]])
        result = engine.execute(configured, trace)
        # 40s wasted, 2s repair, then a clean 100s run
        assert result.runtime == pytest.approx(142.0)
        assert result.share_restarts == 1
        assert result.failures_hit == 1

    def test_materialized_checkpoint_limits_lost_work(self):
        plan = linear_plan([(50.0, 0.0), (50.0, 0.0)])
        engine = SimulatedEngine(Cluster(nodes=1, mttr=0.0))
        checkpointed = plan.with_mat_config({1: True, 2: False})
        configured = ConfiguredPlan(
            plan=checkpointed, recovery=RecoveryMode.FINE_GRAINED,
            scheme="checkpointed",
        )
        trace = _trace([[75.0]])   # failure mid-second-operator
        result = engine.execute(configured, trace)
        # op1 done at 50 and materialized; failure at 75 loses 25s
        assert result.runtime == pytest.approx(125.0)

    def test_without_checkpoint_the_whole_chain_reruns(self):
        plan = linear_plan([(50.0, 0.0), (50.0, 0.0)])
        engine = SimulatedEngine(Cluster(nodes=1, mttr=0.0))
        configured = NoMatLineage().configure(plan, _stats(1))
        trace = _trace([[75.0]])
        result = engine.execute(configured, trace)
        # 75s wasted, then a clean 100s pass
        assert result.runtime == pytest.approx(175.0)

    def test_only_failed_node_restarts(self):
        plan = linear_plan([(100.0, 0.0)])
        engine = SimulatedEngine(Cluster(nodes=3, mttr=0.0))
        configured = NoMatLineage().configure(plan, _stats(3))
        trace = _trace([[50.0], [], []])
        result = engine.execute(configured, trace)
        # nodes 1 and 2 finish at 100; node 0 restarts and finishes at 150
        assert result.runtime == pytest.approx(150.0)
        assert result.share_restarts == 1

    def test_repeated_failures_on_one_node(self):
        plan = linear_plan([(100.0, 0.0)])
        engine = SimulatedEngine(Cluster(nodes=1, mttr=0.0))
        configured = NoMatLineage().configure(plan, _stats(1))
        trace = _trace([[10.0, 50.0, 200.0]])
        result = engine.execute(configured, trace)
        # attempts: [0,10) killed, [10,50) killed, [50,150) clean
        assert result.runtime == pytest.approx(150.0)
        assert result.share_restarts == 2

    def test_failure_while_waiting_for_gate_kills_nothing(self):
        plan = linear_plan([(10.0, 0.0), (10.0, 0.0)])
        checkpointed = plan.with_mat_config({1: True, 2: False})
        engine = SimulatedEngine(Cluster(nodes=2, mttr=0.0))
        configured = ConfiguredPlan(
            plan=checkpointed, recovery=RecoveryMode.FINE_GRAINED,
            scheme="test",
        )
        # node 1 fails before the query starts any work on it? No --
        # failures before a share's work start are ignored; here node 1
        # fails at 10.0 exactly when group 2 starts: next_failure is
        # strictly after the start, so 10.0 during group 1 is a real hit
        trace = _trace([[], [5.0]])
        result = engine.execute(configured, trace)
        # node 1 loses 5s on group 1: group 1 completes at max(10, 15)=15
        # (+ tm 0) then group 2 runs 10s
        assert result.runtime == pytest.approx(25.0)


class TestCoarseRecovery:
    def test_restart_on_any_failure(self, chain_plan):
        engine = SimulatedEngine(Cluster(nodes=2, mttr=1.0))
        configured = NoMatRestart().configure(chain_plan, _stats(2))
        trace = _trace([[10.0], []])
        result = engine.execute(configured, trace)
        # makespan 36.5; failure at 10 -> restart at 11 -> clean pass
        assert result.runtime == pytest.approx(47.5)
        assert result.restarts == 1

    def test_abort_after_max_restarts(self, chain_plan):
        engine = SimulatedEngine(Cluster(nodes=1, mttr=0.0,
                                         max_restarts=3))
        configured = NoMatRestart().configure(chain_plan, _stats(1))
        # a failure every 5 seconds forever (well past any attempt)
        failures = [5.0 * (i + 1) for i in range(200)]
        result = engine.execute(configured, _trace([failures]))
        assert result.aborted
        assert result.restarts == 4  # 3 allowed restarts + the fatal one
        assert result.timeline.count(EventKind.QUERY_ABORTED) == 1

    def test_fine_grained_never_emits_query_restarts(self, chain_plan):
        engine = SimulatedEngine(Cluster(nodes=1, mttr=0.0))
        configured = NoMatLineage().configure(chain_plan, _stats(1))
        result = engine.execute(configured, _trace([[10.0, 60.0]]))
        assert result.timeline.count(EventKind.QUERY_RESTARTED) == 0


class TestFailureBoundaries:
    """Failure instants that coincide with a share's or attempt's edges.

    Fine-grained shares lose an attempt only to a failure strictly
    inside ``(work_start, finish)``; a coarse attempt restarts on any
    failure in ``(attempt_start, end]``.
    """

    @pytest.mark.parametrize("record_events", [True, False])
    def test_failure_at_work_start_kills_nothing(self, record_events):
        plan = linear_plan([(100.0, 0.0)])
        engine = SimulatedEngine(Cluster(nodes=2, mttr=1.0),
                                 record_events=record_events)
        configured = NoMatLineage().configure(plan, _stats(2))
        result = engine.execute(configured, _trace([[0.0], []]))
        assert result.runtime == 100.0
        assert result.share_restarts == 0
        assert result.failures_hit == 0

    @pytest.mark.parametrize("record_events", [True, False])
    def test_failure_at_gate_kills_nothing(self, record_events):
        # node 1 fails at 10.0: the instant its group-1 share finishes
        # and its group-2 share starts
        plan = linear_plan([(10.0, 0.0), (10.0, 0.0)])
        configured = ConfiguredPlan(
            plan=plan.with_mat_config({1: True, 2: False}),
            recovery=RecoveryMode.FINE_GRAINED, scheme="test",
        )
        engine = SimulatedEngine(Cluster(nodes=2, mttr=0.0),
                                 record_events=record_events)
        result = engine.execute(configured, _trace([[], [10.0]]))
        assert result.runtime == 20.0
        assert result.share_restarts == 0

    @pytest.mark.parametrize("record_events", [True, False])
    def test_failure_at_finish_kills_nothing(self, record_events):
        plan = linear_plan([(100.0, 0.0)])
        engine = SimulatedEngine(Cluster(nodes=3, mttr=1.0),
                                 record_events=record_events)
        configured = NoMatLineage().configure(plan, _stats(3))
        at_finish = engine.execute(configured, _trace([[], [100.0], []]))
        assert at_finish.runtime == 100.0
        assert at_finish.share_restarts == 0
        just_before = engine.execute(configured, _trace([[], [99.5], []]))
        assert just_before.runtime == pytest.approx(200.5)
        assert just_before.share_restarts == 1

    def test_failure_at_attempt_end_restarts_the_query(self, chain_plan):
        engine = SimulatedEngine(Cluster(nodes=2, mttr=1.0))
        configured = NoMatRestart().configure(chain_plan, _stats(2))
        # the failure-free attempt ends at 36.5 exactly
        result = engine.execute(configured, _trace([[], [36.5]]))
        assert result.restarts == 1
        assert result.runtime == pytest.approx(36.5 + 1.0 + 36.5)

    def test_coincident_failures_restart_on_lowest_node(self, chain_plan):
        engine = SimulatedEngine(Cluster(nodes=3, mttr=1.0))
        configured = NoMatRestart().configure(chain_plan, _stats(3))
        result = engine.execute(configured, _trace([[], [10.0], [10.0]]))
        assert result.restarts == 1
        failed = result.timeline.of_kind(EventKind.NODE_FAILED)
        assert [(event.time, event.node) for event in failed] == [(10.0, 1)]
        assert result.runtime == pytest.approx(10.0 + 1.0 + 36.5)

    def test_coincident_failures_restart_both_fine_shares(self):
        plan = linear_plan([(100.0, 0.0)])
        engine = SimulatedEngine(Cluster(nodes=3, mttr=1.0))
        configured = NoMatLineage().configure(plan, _stats(3))
        result = engine.execute(configured, _trace([[], [10.0], [10.0]]))
        assert result.share_restarts == 2
        assert result.failures_hit == 2
        assert result.runtime == pytest.approx(111.0)


class TestFailingNodes:
    def test_empty_trace(self):
        assert FailureTrace.empty(3).failing_nodes(0.0, 1e12) == []

    def test_one_node_window_is_open_at_both_ends(self):
        trace = _trace([[5.0, 10.0]])
        assert trace.failing_nodes(0.0, 5.0) == []
        assert trace.failing_nodes(0.0, 5.5) == [0]
        assert trace.failing_nodes(5.0, 10.0) == []
        assert trace.failing_nodes(5.0, 10.5) == [0]
        assert trace.failing_nodes(10.0, 1e12) == []

    def test_nodes_come_back_ascending(self):
        trace = _trace([[7.0], [], [3.0], [20.0]])
        assert trace.failing_nodes(0.0, 10.0) == [0, 2]


class TestStorageMedia:
    def test_local_storage_pays_lineage_recompute(self):
        plan = linear_plan([(50.0, 0.0), (50.0, 0.0)])
        checkpointed = plan.with_mat_config({1: True, 2: False})
        configured = ConfiguredPlan(
            plan=checkpointed, recovery=RecoveryMode.FINE_GRAINED,
            scheme="test",
        )
        trace = _trace([[75.0]])
        ft_engine = SimulatedEngine(Cluster(nodes=1, mttr=0.0))
        local_engine = SimulatedEngine(
            Cluster(nodes=1, mttr=0.0, storage=LocalStorage())
        )
        ft_runtime = ft_engine.execute(configured, trace).runtime
        local_runtime = local_engine.execute(configured, trace).runtime
        # with local storage the retry first recomputes group 1 (50s)
        assert local_runtime == pytest.approx(ft_runtime + 50.0)

    def test_local_storage_equals_ft_without_failures(self, chain_plan):
        configured = AllMat().configure(chain_plan, _stats(2))
        ft = SimulatedEngine(Cluster(nodes=2)).execute(configured)
        local = SimulatedEngine(
            Cluster(nodes=2, storage=LocalStorage())
        ).execute(configured)
        assert local.runtime == pytest.approx(ft.runtime)


class TestGuards:
    def test_trace_node_mismatch_rejected(self, chain_plan):
        engine = SimulatedEngine(Cluster(nodes=3))
        configured = NoMatLineage().configure(chain_plan, _stats(3))
        with pytest.raises(ValueError):
            engine.execute(configured, FailureTrace.empty(2))

    def test_trace_exhaustion_detected(self, chain_plan):
        engine = SimulatedEngine(Cluster(nodes=1, mttr=0.0))
        configured = NoMatLineage().configure(chain_plan, _stats(1))
        # horizon 30 but the failure pushes the run past it
        trace = _trace([[20.0]], horizon=30.0)
        with pytest.raises(TraceExhausted):
            engine.execute(configured, trace)

    def test_runs_within_horizon_pass(self, chain_plan):
        engine = SimulatedEngine(Cluster(nodes=1, mttr=0.0))
        configured = NoMatLineage().configure(chain_plan, _stats(1))
        trace = _trace([[]], horizon=100.0)
        assert engine.execute(configured, trace).runtime < 100.0


class TestTimelineEvents:
    def test_events_cover_lifecycle(self, chain_plan):
        engine = SimulatedEngine(Cluster(nodes=1, mttr=1.0))
        configured = NoMatLineage().configure(chain_plan, _stats(1))
        result = engine.execute(configured, _trace([[10.0]]))
        timeline = result.timeline
        # one group-level start plus one per node share
        assert timeline.count(EventKind.GROUP_STARTED) == 2
        assert timeline.count(EventKind.NODE_FAILED) == 1
        assert timeline.count(EventKind.SHARE_RESTARTED) == 1
        assert timeline.count(EventKind.QUERY_COMPLETED) == 1

    def test_query_completed_time_equals_runtime(self, chain_plan):
        engine = SimulatedEngine(Cluster(nodes=2))
        configured = AllMat().configure(chain_plan, _stats(2))
        result = engine.execute(configured)
        completed = result.timeline.of_kind(EventKind.QUERY_COMPLETED)
        assert completed[0].time == pytest.approx(result.runtime)
