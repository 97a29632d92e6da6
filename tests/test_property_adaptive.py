"""Property tests for drift-aware adaptive re-planning.

Pins the contract of :mod:`repro.engine.adaptive` rather than specific
numbers:

* **zero-drift identity** -- with reality matching the statistics the
  envelope never fires and the adaptive scheme is byte-identical to the
  static cost-based scheme over whole campaigns;
* **trigger monotonicity** -- tightening the envelope can only add
  triggers: wherever a loose envelope fires on an observation history, a
  uniformly tighter one fires too;
* **sunk-cost invariant** -- a re-plan never revisits completed work:
  executed materialization flags are frozen forever and the frontier
  search sees completed operators at zero remaining cost;
* **determinism** -- identical runs make identical decisions, and
  ``jobs=4`` campaigns are bit-identical to serial under every chaos
  preset.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import (
    FaultPolicy,
    FlakyWrites,
    MtbfDrift,
    Stragglers,
    WorkerCrashes,
)
from repro.chaos.policy import PRESET_NAMES, preset
from repro.core.cost_model import ClusterStats
from repro.core.plan import Operator, Plan
from repro.core.strategies import CostBased
from repro.engine.adaptive import (
    AdaptiveCostBased,
    AdaptiveExecutor,
    DriftEnvelope,
    DriftMonitor,
    frontier_plan,
    run_adaptive_with_extension,
)
from repro.engine.campaign import CampaignCell, run_campaign
from repro.engine.cluster import Cluster
from repro.engine.executor import SimulatedEngine
from repro.engine.traces import generate_trace

MTBF = 3600.0


def chain_plan() -> Plan:
    """A five-operator chain with a pinned mid-plan checkpoint.

    The pinned materialization guarantees a group boundary -- i.e. an
    adaptive decision point -- whatever the free operators decide, so
    these properties are exercised even when the static choice is the
    empty configuration.
    """
    operators = [
        Operator(1, "Scan", 100.0, 4.0),
        Operator(2, "Join", 100.0, 4.0),
        Operator(3, "Checkpoint", 100.0, 4.0,
                 materialize=True, free=False),
        Operator(4, "Map", 100.0, 4.0),
        Operator(5, "Reduce", 100.0, 4.0),
    ]
    edges = [(1, 2), (2, 3), (3, 4), (4, 5)]
    return Plan.from_edges(operators, edges)


def small_cluster() -> Cluster:
    return Cluster(nodes=4, mttr=10.0)


# ----------------------------------------------------------------------
# zero-drift identity
# ----------------------------------------------------------------------
class TestZeroDriftIdentity:
    def test_campaign_byte_identical_to_static(self):
        """No drift => no re-plans, and the serialized campaign payloads
        of the static and adaptive schemes are byte-equal."""
        cell = CampaignCell(
            label="chain", plan=chain_plan(), mtbf=MTBF,
            schemes=(CostBased(), AdaptiveCostBased()),
            trace_count=6, base_seed=11,
        )
        static, adaptive = run_campaign([cell], small_cluster())
        assert adaptive.error is None
        assert adaptive.replans == 0
        assert adaptive.aborted_runs == 0
        payload = {
            "runtimes": list(static.runtimes),
            "materialized_ids": list(static.materialized_ids),
            "aborted_runs": static.aborted_runs,
        }
        adaptive_payload = {
            "runtimes": list(adaptive.runtimes),
            "materialized_ids": list(adaptive.materialized_ids),
            "aborted_runs": adaptive.aborted_runs,
        }
        assert json.dumps(payload, sort_keys=True) \
            == json.dumps(adaptive_payload, sort_keys=True)

    def test_null_chaos_policy_preserves_identity(self):
        """A zero-rate policy (inactive drift included) is invisible:
        same byte-identity as the clean run."""
        null_policy = FaultPolicy(
            seed=5,
            mtbf_drift=MtbfDrift(scale=1.0, amplitude=0.0),
            flaky_writes=FlakyWrites(rate=0.0),
            stragglers=Stragglers(rate=0.0),
            worker_crashes=WorkerCrashes(rate=0.0),
        )
        cell = CampaignCell(
            label="chain", plan=chain_plan(), mtbf=MTBF,
            schemes=(CostBased(), AdaptiveCostBased()),
            trace_count=6, base_seed=11,
        )
        clean = run_campaign([cell], small_cluster())
        chaotic = run_campaign([cell], small_cluster(),
                               chaos=null_policy)
        for a, b in zip(clean, chaotic):
            assert a.runtimes == b.runtimes
            assert a.replans == b.replans
        assert chaotic[1].replans == 0

    def test_executor_reproduces_on_model_trace(self):
        """Direct executor run on an on-model trace: zero triggers."""
        cluster = small_cluster()
        engine = SimulatedEngine(cluster)
        stats = cluster.stats(MTBF)
        executor = AdaptiveExecutor(engine, stats,
                                    envelope=DriftEnvelope())
        trace = generate_trace(cluster.nodes, MTBF,
                               horizon=100_000.0, seed=3)
        result, _ = run_adaptive_with_extension(
            executor, chain_plan(), trace
        )
        assert result.replans == 0
        assert result.triggers == 0
        assert result.suppressed > 0  # decision points existed


# ----------------------------------------------------------------------
# trigger monotonicity
# ----------------------------------------------------------------------
def _histories():
    """A deterministic grid of observation histories.

    Failure logs spanning on-model to 8x-too-fast rates crossed with
    runtime corrections from on-estimate to 2x-slow.
    """
    stats = ClusterStats(mtbf=1000.0, mttr=1.0, nodes=4)
    grid = []
    for failures, window in [
        (0, 2000.0), (1, 500.0), (2, 8000.0), (3, 1500.0),
        (6, 1500.0), (12, 1500.0), (12, 48_000.0),
    ]:
        for ratio in (0.4, 0.8, 1.0, 1.4, 2.2):
            grid.append((stats, failures, window, ratio))
    return grid


def _monitor_for(stats, failures, window, ratio,
                 envelope) -> DriftMonitor:
    monitor = DriftMonitor(stats, envelope=envelope)
    if failures:
        gap = window / (failures + 1)
        times = [gap * (i + 1) for i in range(failures)]
        monitor.tracker.ingest(times, upto=window, nodes=stats.nodes)
    else:
        monitor.tracker.ingest([], upto=window, nodes=stats.nodes)
    for _ in range(4):
        monitor.observe_group(100.0, 100.0 * ratio)
    return monitor


class TestTriggerMonotonicity:
    TIGHT = DriftEnvelope(mtbf_ratio=1.5, runtime_ratio=1.2,
                          min_failures=2, use_ci=False)
    LOOSE = DriftEnvelope(mtbf_ratio=3.0, runtime_ratio=2.0,
                          min_failures=3, use_ci=False)

    def test_tighter_envelope_fires_on_superset(self):
        fired_somewhere = False
        for history in _histories():
            loose = _monitor_for(*history, envelope=self.LOOSE).decide()
            tight = _monitor_for(*history, envelope=self.TIGHT).decide()
            if loose is not None:
                fired_somewhere = True
                assert tight is not None, history
        assert fired_somewhere  # the grid actually exercises triggers

    def test_ci_gate_only_suppresses(self):
        """Dropping the CI requirement can only add triggers."""
        with_ci = DriftEnvelope(mtbf_ratio=2.0, runtime_ratio=None,
                                use_ci=True)
        without = DriftEnvelope(mtbf_ratio=2.0, runtime_ratio=None,
                                use_ci=False)
        for history in _histories():
            gated = _monitor_for(*history, envelope=with_ci).decide()
            free = _monitor_for(*history, envelope=without).decide()
            if gated is not None:
                assert free is not None, history

    def test_never_envelope_never_fires(self):
        for history in _histories():
            monitor = _monitor_for(*history,
                                   envelope=DriftEnvelope.never())
            assert monitor.decide() is None

    def test_end_to_end_first_replan_ordering(self):
        """On a drifting trace, a tighter envelope re-plans no later
        than a looser one (identical prefixes up to the first trigger),
        and the never-envelope does not re-plan at all."""
        cluster = small_cluster()
        stats = cluster.stats(MTBF)
        trace = generate_trace(
            cluster.nodes, MTBF, horizon=200_000.0, seed=3,
            drift=MtbfDrift(scale=6.0),
        )
        results = {}
        for name, envelope in [
            ("tight", DriftEnvelope(mtbf_ratio=1.5, min_failures=2)),
            ("default", DriftEnvelope()),
            ("never", DriftEnvelope.never()),
        ]:
            engine = SimulatedEngine(cluster)
            executor = AdaptiveExecutor(engine, stats,
                                        envelope=envelope)
            results[name], _ = run_adaptive_with_extension(
                executor, chain_plan(), trace
            )
        assert results["never"].replans == 0
        assert results["default"].replans >= 1  # the drift is real
        assert results["tight"].replans >= 1
        first = {
            name: result.reconfigurations[0].time
            for name, result in results.items()
            if result.reconfigurations
        }
        assert first["tight"] <= first["default"]


# ----------------------------------------------------------------------
# sunk-cost invariant
# ----------------------------------------------------------------------
class TestSunkCostInvariant:
    def _drifting_run(self):
        cluster = small_cluster()
        stats = cluster.stats(MTBF)
        engine = SimulatedEngine(cluster)
        executor = AdaptiveExecutor(engine, stats,
                                    envelope=DriftEnvelope())
        trace = generate_trace(
            cluster.nodes, MTBF, horizon=200_000.0, seed=3,
            drift=MtbfDrift(scale=6.0),
        )
        result, _ = run_adaptive_with_extension(
            executor, chain_plan(), trace
        )
        assert result.replans >= 1
        return result

    def test_replans_never_touch_completed_operators(self):
        result = self._drifting_run()
        plan = chain_plan()
        for reconfiguration in result.reconfigurations:
            completed = set(reconfiguration.completed_ops)
            for op_id, _ in reconfiguration.mat_config:
                assert op_id not in completed
                assert plan[op_id].free

    def test_executed_flags_frozen_across_replans(self):
        result = self._drifting_run()
        recs = result.reconfigurations
        for earlier_index, earlier in enumerate(recs):
            frozen = dict(earlier.frozen_config)
            for later in recs[earlier_index + 1:]:
                later_config = dict(later.frozen_config)
                for op_id in earlier.completed_ops:
                    assert later_config[op_id] == frozen[op_id]

    def test_frontier_sinks_completed_work(self):
        result = self._drifting_run()
        plan = chain_plan()
        for reconfiguration in result.reconfigurations:
            frontier = frontier_plan(
                plan,
                dict(reconfiguration.frozen_config),
                set(reconfiguration.completed_ops),
                reconfiguration.correction,
            )
            for op_id, operator in plan.operators.items():
                sunk = frontier[op_id]
                if op_id in reconfiguration.completed_ops:
                    assert sunk.runtime_cost == 0.0
                    assert sunk.mat_cost == 0.0
                    assert not sunk.free
                else:
                    assert sunk.runtime_cost == (
                        operator.runtime_cost
                        * reconfiguration.correction
                    )


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_trace_same_decisions(self):
        cluster = small_cluster()
        stats = cluster.stats(MTBF)
        trace = generate_trace(
            cluster.nodes, MTBF, horizon=200_000.0, seed=9,
            drift=MtbfDrift(scale=6.0),
        )
        outcomes = []
        for _ in range(2):
            engine = SimulatedEngine(cluster)
            executor = AdaptiveExecutor(engine, stats,
                                        envelope=DriftEnvelope())
            result, _ = run_adaptive_with_extension(
                executor, chain_plan(), trace
            )
            outcomes.append((
                result.runtime,
                result.reconfigurations,
                result.final_correction,
                result.triggers,
                result.suppressed,
                result.observed_mtbf,
            ))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_jobs4_bit_identical_to_serial(self, name):
        policy = preset(name, seed=2, mtbf=MTBF)
        cell = CampaignCell(
            label="chain", plan=chain_plan(), mtbf=MTBF,
            schemes=(CostBased(), AdaptiveCostBased()),
            trace_count=4, base_seed=7,
        )
        serial = run_campaign([cell], small_cluster(), jobs=1,
                              chaos=policy)
        fanned = run_campaign([cell], small_cluster(), jobs=4,
                              chaos=policy)
        for a, b in zip(serial, fanned):
            assert a.error is None and b.error is None
            assert a.runtimes == b.runtimes
            assert a.replans == b.replans
            assert a.aborted_runs == b.aborted_runs
            assert a.materialized_ids == b.materialized_ids
