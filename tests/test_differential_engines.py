"""Differential tests: the fast search engine vs the naive oracle.

The fast engine (windowed Gray-code scan, cached group states,
memoized runtime lookups, Rule-3 bound) must be *bit-identical* to the
naive reference -- same winning configuration, same cost to the last
ulp -- on realistic inputs.  These tests sweep the TPC-H join graphs
(``repro.joinorder.tpch_graphs``) through phase 1 and compare both
engines with exact ``==``, not ``approx``: any floating-point
reassociation in the fast path is a bug.
"""

from __future__ import annotations

import pytest

from repro.core.cost_model import ClusterStats
from repro.core.enumeration import count_mat_configs, find_best_ft_plan
from repro.core.pruning import PruningConfig
from repro.joinorder.dp import top_k_plans
from repro.joinorder.tpch_graphs import q3_join_graph, q5_join_graph
from repro.joinorder.trees import tree_to_plan
from repro.stats.calibration import default_parameters

GRAPHS = {
    "q3": q3_join_graph,
    "q5": q5_join_graph,
}

#: (mtbf seconds, scale factor) grid; spans heavy- and light-failure
#: regimes so both mat-heavy and mat-free optima get exercised
REGIMES = [(300.0, 10.0), (3600.0, 10.0), (86400.0, 100.0)]


def _candidate_plans(graph_name: str, scale_factor: float, k: int = 4):
    graph = GRAPHS[graph_name](scale_factor)
    params = default_parameters(nodes=10)
    ranked = top_k_plans(graph, k=k)
    return [tree_to_plan(entry.tree, graph, params) for entry in ranked]


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("mtbf,scale_factor", REGIMES)
class TestFastVsNaive:
    def test_engines_bit_identical(self, graph_name, mtbf, scale_factor):
        plans = _candidate_plans(graph_name, scale_factor)
        stats = ClusterStats(mtbf=mtbf, mttr=1.0, nodes=10)
        fast = find_best_ft_plan(plans, stats, engine="fast")
        naive = find_best_ft_plan(plans, stats, engine="naive")
        assert fast.cost == naive.cost          # exact, not approx
        assert fast.mat_config == naive.mat_config
        assert fast.materialized_ids == naive.materialized_ids
        assert fast.estimate.cost == naive.estimate.cost
        assert fast.estimate.failure_free_cost == \
            naive.estimate.failure_free_cost

    def test_engines_agree_under_every_pruning_config(
        self, graph_name, mtbf, scale_factor
    ):
        plans = _candidate_plans(graph_name, scale_factor, k=2)
        stats = ClusterStats(mtbf=mtbf, mttr=1.0, nodes=10)
        results = {}
        for pruning in (PruningConfig.none(), PruningConfig.only(3),
                        PruningConfig.all()):
            fast = find_best_ft_plan(plans, stats, engine="fast",
                                     pruning=pruning)
            naive = find_best_ft_plan(plans, stats, engine="naive",
                                      pruning=pruning)
            assert fast.cost == naive.cost, pruning
            assert fast.mat_config == naive.mat_config, pruning
            results[pruning] = fast
        # without rules every configuration is scored; the rules score
        # fewer paths and stay within the documented boundary gaps
        brute = results[PruningConfig.none()]
        pruned = results[PruningConfig.all()]
        assert brute.pruning.configs_enumerated == \
            sum(count_mat_configs(plan) for plan in plans)
        assert pruned.pruning.paths_estimated < \
            brute.pruning.paths_estimated
        assert pruned.cost <= brute.cost * 1.01


class TestFastVsNaiveUnderChaosStats:
    """Chaos reaches the search layer only *through statistics*.

    An operator compensating for a known burst regime feeds the model
    the regime's effective MTBF; the engines must stay bit-identical on
    those perturbed statistics, and running a chaos-injected campaign
    must not perturb a search happening before or after it.
    """

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_engines_bit_identical_on_effective_mtbf(self, graph_name):
        from repro.chaos import CorrelatedFailures

        plans = _candidate_plans(graph_name, 10.0)
        for spec in (
            CorrelatedFailures(burst_mtbf=1800.0, rack_size=3),
            CorrelatedFailures(burst_mtbf=450.0, rack_size=5,
                               jitter=2.0),
            CorrelatedFailures(burst_mtbf=3600.0, intensity=0.3),
        ):
            effective = spec.effective_mtbf(10, 3600.0)
            stats = ClusterStats(mtbf=effective, mttr=1.0, nodes=10)
            fast = find_best_ft_plan(plans, stats, engine="fast")
            naive = find_best_ft_plan(plans, stats, engine="naive")
            assert fast.cost == naive.cost
            assert fast.mat_config == naive.mat_config

    def test_search_is_oblivious_to_injected_campaigns(self):
        from repro.chaos import FlakyWrites, FaultPolicy, Stragglers
        from repro.engine.campaign import CampaignCell, run_campaign
        from repro.engine.cluster import Cluster

        plans = _candidate_plans("q3", 10.0, k=2)
        stats = ClusterStats(mtbf=900.0, mttr=1.0, nodes=10)
        before = find_best_ft_plan(plans, stats, engine="fast")
        policy = FaultPolicy(
            seed=1,
            flaky_writes=FlakyWrites(rate=0.5),
            stragglers=Stragglers(rate=0.5, factor=3.0),
        )
        cluster = Cluster(nodes=10, mttr=1.0)
        run_campaign(
            [CampaignCell(label="q3", plan=plans[0], mtbf=900.0,
                          trace_count=2)],
            cluster, chaos=policy,
        )
        after = find_best_ft_plan(plans, stats, engine="fast")
        assert before.cost == after.cost
        assert before.mat_config == after.mat_config
        assert before.materialized_ids == after.materialized_ids


class TestReplanFrontierSearches:
    """Every recorded adaptive re-plan replays identically on every
    engine.

    A drifting adaptive run logs, per re-plan, the full pre-replan
    configuration, the durable frontier, the runtime correction, and the
    MTBF it searched under (:class:`repro.engine.adaptive.
    Reconfiguration`).  That record is enough to reconstruct the exact
    frontier search -- so the fast, naive, and sharded engines are each
    replayed over it and compared with exact ``==``: mid-query searches
    get the same differential guarantee as the initial one.
    """

    def _drifting_reconfigurations(self):
        from repro.chaos import MtbfDrift
        from repro.engine.adaptive import (
            AdaptiveExecutor,
            DriftEnvelope,
            run_adaptive_with_extension,
        )
        from repro.engine.cluster import Cluster
        from repro.engine.executor import SimulatedEngine
        from repro.engine.traces import generate_trace

        from .test_property_adaptive import MTBF, chain_plan

        plan = chain_plan()
        cluster = Cluster(nodes=4, mttr=10.0)
        stats = cluster.stats(MTBF)
        reconfigurations = []
        for seed in (3, 9, 17):
            engine = SimulatedEngine(cluster)
            executor = AdaptiveExecutor(
                engine, stats,
                envelope=DriftEnvelope(mtbf_ratio=1.5, min_failures=2),
            )
            trace = generate_trace(
                cluster.nodes, MTBF, horizon=200_000.0, seed=seed,
                drift=MtbfDrift(scale=6.0),
            )
            result, _ = run_adaptive_with_extension(
                executor, plan, trace
            )
            reconfigurations.extend(result.reconfigurations)
        assert reconfigurations  # the drift must actually trigger
        return plan, stats, reconfigurations

    def test_replayed_replans_bit_identical_across_engines(self):
        from repro.engine.adaptive import frontier_plan

        plan, stats, reconfigurations = \
            self._drifting_reconfigurations()
        for reconfiguration in reconfigurations:
            remaining = frontier_plan(
                plan,
                dict(reconfiguration.frozen_config),
                set(reconfiguration.completed_ops),
                reconfiguration.correction,
            )
            replan_stats = stats.with_mtbf(reconfiguration.stats_mtbf)
            fast = find_best_ft_plan(
                [remaining], replan_stats, pruning=PruningConfig.all(),
                engine="fast",
            )
            naive = find_best_ft_plan(
                [remaining], replan_stats, pruning=PruningConfig.all(),
                engine="naive",
            )
            sharded = find_best_ft_plan(
                [remaining], replan_stats, pruning=PruningConfig.all(),
                engine="fast", shards=2,
            )
            assert fast.cost == naive.cost == sharded.cost
            assert fast.mat_config == naive.mat_config \
                == sharded.mat_config
            assert fast.materialized_ids == naive.materialized_ids \
                == sharded.materialized_ids

    def test_replay_reproduces_the_recorded_decision(self):
        """The replayed search picks exactly the flags the in-flight
        re-plan committed to (the ``mat_config`` the record carries)."""
        from repro.engine.adaptive import frontier_plan

        plan, stats, reconfigurations = \
            self._drifting_reconfigurations()
        for reconfiguration in reconfigurations:
            remaining = frontier_plan(
                plan,
                dict(reconfiguration.frozen_config),
                set(reconfiguration.completed_ops),
                reconfiguration.correction,
            )
            search = find_best_ft_plan(
                [remaining], stats.with_mtbf(reconfiguration.stats_mtbf),
                pruning=PruningConfig.all(),
            )
            searched = dict(search.plan.mat_config())
            completed = set(reconfiguration.completed_ops)
            expected = {
                op_id: flag
                for op_id, flag in searched.items()
                if plan[op_id].free and op_id not in completed
            }
            assert dict(reconfiguration.mat_config) == expected


class TestFastVsNaiveExactWaste:
    def test_exact_waste_integral_matches_too(self):
        plans = _candidate_plans("q5", 10.0)
        stats = ClusterStats(mtbf=1800.0, mttr=1.0, nodes=10)
        fast = find_best_ft_plan(plans, stats, engine="fast",
                                 exact_waste=True)
        naive = find_best_ft_plan(plans, stats, engine="naive",
                                  exact_waste=True)
        assert fast.cost == naive.cost
        assert fast.mat_config == naive.mat_config

    def test_parallel_fast_matches_serial_naive(self):
        plans = _candidate_plans("q5", 10.0, k=4)
        stats = ClusterStats(mtbf=1800.0, mttr=1.0, nodes=10)
        fast = find_best_ft_plan(plans, stats, engine="fast",
                                 parallelism=2)
        naive = find_best_ft_plan(plans, stats, engine="naive")
        assert fast.cost == naive.cost
        assert fast.mat_config == naive.mat_config
