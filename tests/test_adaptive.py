"""Tests for adaptive mid-query re-optimization."""

import pytest

from repro.core.cost_model import ClusterStats
from repro.core.plan import linear_plan
from repro.core.strategies import CostBased
from repro.engine.adaptive import AdaptiveExecutor, DriftMonitor
from repro.engine.cluster import Cluster
from repro.engine.executor import SimulatedEngine
from repro.engine.traces import FailureTrace, generate_trace
from repro.experiments import adaptive_drift
from repro.stats.perturbation import PerturbationKind, perturb_plan


@pytest.fixture
def chain():
    return linear_plan([(100.0, 4.0), (100.0, 4.0), (100.0, 4.0),
                        (100.0, 4.0)])


def _executor(nodes=1, mtbf=200.0, mttr=1.0, skew=()):
    cluster = Cluster(nodes=nodes, mttr=mttr, node_skew=skew)
    engine = SimulatedEngine(cluster)
    stats = ClusterStats(mtbf=mtbf, mttr=mttr, nodes=nodes)
    return AdaptiveExecutor(engine, stats), engine, stats


class TestPerfectStatistics:
    def test_matches_static_cost_based_without_failures(self, chain):
        adaptive, engine, stats = _executor()
        static = engine.execute(CostBased().configure(chain, stats))
        result = adaptive.execute(chain)
        assert result.runtime == pytest.approx(static.runtime)
        assert result.final_correction == pytest.approx(1.0)

    def test_matches_static_under_failures(self, chain):
        adaptive, engine, stats = _executor()
        trace = generate_trace(1, 200.0, horizon=1e6, seed=4)
        static = engine.execute(
            CostBased().configure(chain, stats), trace
        )
        result = adaptive.execute(chain, trace=trace)
        assert result.runtime == pytest.approx(static.runtime)

    def test_reconfiguration_log_covers_group_boundaries(self, chain):
        adaptive, _, _ = _executor()
        result = adaptive.execute(chain)
        # one reconfiguration per completed group except the last
        assert len(result.reconfigurations) >= 1
        times = [r.time for r in result.reconfigurations]
        assert times == sorted(times)


class TestMisestimatedStatistics:
    def test_correction_converges_towards_truth(self, chain):
        """The optimizer believes everything is 10x cheaper; the
        correction factor should move towards 10 as groups complete."""
        adaptive, _, _ = _executor()
        estimated = perturb_plan(chain, PerturbationKind.COMPUTE_AND_IO,
                                 0.1)
        result = adaptive.execute(chain, estimated_plan=estimated)
        assert result.final_correction > 3.0

    def test_adaptive_beats_static_with_bad_estimates(self, chain):
        """Under a low MTBF, a 10x underestimate makes the static scheme
        skip checkpoints it badly needs; the adaptive runner inserts
        them once observations arrive."""
        adaptive, engine, stats = _executor(mtbf=150.0)
        estimated = perturb_plan(chain, PerturbationKind.COMPUTE_AND_IO,
                                 0.1)
        trace = generate_trace(1, 150.0, horizon=1e7, seed=11)
        static_configured = CostBased().configure(estimated, stats)
        # run the static decision against the TRUE costs
        static_plan = chain.with_mat_config({
            op_id: static_configured.plan[op_id].materialize
            for op_id in chain.free_operators
        })
        from repro.core.strategies import ConfiguredPlan, RecoveryMode
        static_result = engine.execute(ConfiguredPlan(
            plan=static_plan, recovery=RecoveryMode.FINE_GRAINED,
            scheme="static-misled",
        ), trace)
        adaptive_result = adaptive.execute(
            chain, estimated_plan=estimated, trace=trace
        )
        assert adaptive_result.runtime <= static_result.runtime + 1e-6

    def test_adaptive_reacts_to_skew(self, chain):
        """With one node 3x slower, observed work exceeds estimates and
        the correction factor rises above 1."""
        adaptive, _, _ = _executor(nodes=4, skew=(1.0, 1.0, 1.0, 3.0))
        result = adaptive.execute(chain)
        assert result.final_correction > 1.5


class TestValidation:
    def test_mismatched_plans_rejected(self, chain):
        adaptive, _, _ = _executor()
        other = linear_plan([(1.0, 1.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            adaptive.execute(chain, estimated_plan=other)

    def test_invalid_smoothing(self, chain):
        _, engine, stats = _executor()
        with pytest.raises(ValueError):
            AdaptiveExecutor(engine, stats, smoothing=0.0)

    def test_empty_trace_default(self, chain):
        adaptive, _, _ = _executor()
        result = adaptive.execute(chain, trace=FailureTrace.empty(1))
        assert result.result.failures_hit == 0


class TestSkewedExecution:
    def test_skew_slows_the_measured_runtime(self, chain):
        _, engine_plain, stats = _executor(nodes=4)
        cluster_skewed = Cluster(nodes=4, mttr=1.0,
                                 node_skew=(1.0, 1.0, 1.0, 2.0))
        engine_skewed = SimulatedEngine(cluster_skewed)
        configured = CostBased().configure(chain, stats)
        plain = engine_plain.execute(configured).runtime
        skewed = engine_skewed.execute(configured).runtime
        assert skewed == pytest.approx(plain * 2.0)

    def test_skew_validation(self):
        with pytest.raises(ValueError):
            Cluster(nodes=2, node_skew=(1.0,))
        with pytest.raises(ValueError):
            Cluster(nodes=2, node_skew=(1.0, 0.0))


def _chain_with_boundary():
    """Four 100 s stages; stage 2 always materializes, so even an
    optimistic initial decision leaves one adaptation boundary (the
    documented limitation: no boundary, no adaptation)."""
    from repro.core.plan import Operator, Plan

    plan = Plan()
    for op_id in range(1, 5):
        plan.add_operator(Operator(
            op_id, f"op{op_id}", 100.0, 4.0,
            materialize=op_id == 2, free=op_id != 2,
        ))
        if op_id > 1:
            plan.add_edge(op_id - 1, op_id)
    return plan


class TestMtbfTracking:
    def test_posterior_moves_towards_observed_rate(self):
        """Prior says 1 week; the run sees a failure every ~3 minutes."""
        plan = _chain_with_boundary()
        cluster = Cluster(nodes=1, mttr=1.0)
        engine = SimulatedEngine(cluster)
        optimistic = ClusterStats(mtbf=604800.0, mttr=1.0, nodes=1)
        adaptive = AdaptiveExecutor(engine, optimistic, track_mtbf=True)
        trace = generate_trace(1, 180.0, horizon=1e7, seed=6)
        result = adaptive.execute(plan, trace=trace)
        assert result.result.finished
        # after the first boundary the MLE collapses far below the
        # weekly prior, so the next decision adds checkpoints (the very
        # last boundary only has the sink left, which is always durable)
        assert any(
            flag
            for event in result.reconfigurations
            for _, flag in event.mat_config
        )

    def test_tracking_beats_optimistic_static_prior(self):
        """A weekly-MTBF prior on a 3-minute-MTBF cluster: the static
        scheme skips optional checkpoints; tracking inserts them."""
        plan = _chain_with_boundary()
        cluster = Cluster(nodes=1, mttr=1.0)
        engine = SimulatedEngine(cluster)
        optimistic = ClusterStats(mtbf=604800.0, mttr=1.0, nodes=1)
        trace = generate_trace(1, 180.0, horizon=1e7, seed=6)
        static = engine.execute(
            CostBased().configure(plan, optimistic), trace
        )
        tracked = AdaptiveExecutor(
            engine, optimistic, track_mtbf=True
        ).execute(plan, trace=trace)
        assert tracked.runtime <= static.runtime + 1e-6

    def test_tracking_off_keeps_prior(self):
        stats = ClusterStats(mtbf=604800.0, mttr=1.0, nodes=1)

        def replan_stats(track_mtbf):
            # eager mode: 100 failures over 1000 node-seconds
            monitor = DriftMonitor(stats, envelope=None,
                                   track_mtbf=track_mtbf)
            monitor.tracker.observe(1000.0)
            monitor.tracker.record_failure(100)
            return monitor.replan_stats(monitor.decide())

        assert replan_stats(False) is stats
        assert replan_stats(True).mtbf == pytest.approx(10.0)


class TestDriftSweepGates:
    """The ``adaptive-drift`` sweep's acceptance gates (docs/adaptive.md),
    at the default operating point (Q5 @ sf 100, assumed MTBF 4 h) with
    10 traces per regime."""

    #: never-worse slack, as a fraction of the static regret
    TOLERANCE = 0.005
    #: how far below static the adaptive regret must fall somewhere
    MARGIN = 1e-6

    def test_identity_never_worse_and_pays_somewhere(self):
        zero, *drifting = adaptive_drift.run(
            query="Q5", scale_factor=100.0, mtbf=4.0 * 3600.0,
            trace_count=10, jobs=1,
        ).rows
        assert zero.regime == "zero drift"
        assert zero.replans == 0
        assert zero.identical_to_static
        for row in drifting:
            assert row.adaptive_regret <= \
                row.static_regret * (1.0 + self.TOLERANCE), row.regime
        assert any(row.adaptive_regret < row.static_regret - self.MARGIN
                   for row in drifting)
