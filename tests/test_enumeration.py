"""Unit tests for fault-tolerant plan enumeration (Listing 1)."""

import pytest

from repro.core import cost_model
from repro.core.collapse import collapse_plan
from repro.core.cost_model import ClusterStats
from repro.core.enumeration import (
    count_mat_configs,
    enumerate_mat_configs,
    estimate_plan_cost,
    find_best_ft_plan,
)
from repro.core.paths import enumerate_paths, path_total_costs
from repro.core.plan import Plan, linear_plan
from repro.core.pruning import PruningConfig


class TestConfigEnumeration:
    def test_two_to_the_n_configs(self, paper_plan):
        configs = list(enumerate_mat_configs(paper_plan))
        assert len(configs) == 2 ** 5
        assert count_mat_configs(paper_plan) == 32

    def test_configs_cover_free_operators_only(self, paper_plan):
        for config in enumerate_mat_configs(paper_plan):
            assert [op_id for op_id, _ in config] == [1, 2, 3, 4, 5]

    def test_configs_are_unique(self, paper_plan):
        configs = list(enumerate_mat_configs(paper_plan))
        assert len(set(configs)) == len(configs)

    def test_first_config_is_no_mat_last_is_all_mat(self, chain_plan):
        configs = list(enumerate_mat_configs(chain_plan))
        assert all(not flag for _, flag in configs[0])
        assert all(flag for _, flag in configs[-1])

    def test_no_free_operators_yields_single_empty_config(self):
        plan = linear_plan([(1, 1), (2, 2)])
        bound = Plan()
        for op in plan.operators.values():
            bound.add_operator(op.as_bound(materialize=False))
        for e in plan.edges():
            bound.add_edge(*e)
        assert list(enumerate_mat_configs(bound)) == [()]


class TestEstimatePlanCost:
    def test_matches_manual_dominant_path(self, paper_plan, stats_table2):
        estimate = estimate_plan_cost(paper_plan, stats_table2)
        collapsed = collapse_plan(paper_plan)
        manual = max(
            cost_model.path_cost(path_total_costs(p), stats_table2)
            for p in enumerate_paths(collapsed)
        )
        assert estimate.cost == pytest.approx(manual)

    def test_paper_example_dominant_is_pt2(self, paper_plan, stats_table2):
        # collapsed t(c) of the fixture are (5, 4, 2) along Pt2; the
        # paper's Table 2 narrates the same plan with given t(c) values
        estimate = estimate_plan_cost(paper_plan, stats_table2)
        assert [g.anchor_id for g in estimate.dominant_path] == [3, 5, 7]
        assert estimate.cost == pytest.approx(
            cost_model.path_cost([5, 4, 2], stats_table2)
        )
        assert estimate.failure_free_cost == pytest.approx(11.0)

    def test_const_pipe_flows_through_stats(self, paper_plan):
        stats = ClusterStats(mtbf=60, const_pipe=0.8)
        estimate = estimate_plan_cost(paper_plan, stats)
        assert estimate.collapsed[3].runtime_cost == pytest.approx(3.2)


class TestFindBestFtPlan:
    def _brute_force(self, plan, stats):
        best = None
        for config in enumerate_mat_configs(plan):
            candidate = plan.with_mat_config(config)
            cost = estimate_plan_cost(candidate, stats).cost
            if best is None or cost < best[0]:
                best = (cost, config)
        return best

    def test_matches_brute_force_without_pruning(self, chain_plan,
                                                 stats_hour):
        result = find_best_ft_plan([chain_plan], stats_hour)
        cost, config = self._brute_force(chain_plan, stats_hour)
        assert result.cost == pytest.approx(cost)

    def test_matches_brute_force_with_rule3(self, chain_plan, stats_hour):
        result = find_best_ft_plan(
            [chain_plan], stats_hour, pruning=PruningConfig.only(3)
        )
        cost, _ = self._brute_force(chain_plan, stats_hour)
        assert result.cost == pytest.approx(cost)

    def test_all_pruning_rules_preserve_the_optimum(self, paper_plan,
                                                    stats_hour):
        unpruned = find_best_ft_plan(
            [paper_plan], stats_hour, pruning=PruningConfig.none()
        )
        pruned = find_best_ft_plan(
            [paper_plan], stats_hour, pruning=PruningConfig.all()
        )
        assert pruned.cost == pytest.approx(unpruned.cost)

    def test_empty_plan_list_rejected(self, stats_hour):
        with pytest.raises(ValueError):
            find_best_ft_plan([], stats_hour)

    def test_materialized_ids_reflect_config(self, chain_plan, stats_hour):
        result = find_best_ft_plan([chain_plan], stats_hour)
        for op_id in result.materialized_ids:
            assert result.plan[op_id].materialize

    def test_best_plan_flags_match_config(self, chain_plan, stats_hour):
        result = find_best_ft_plan([chain_plan], stats_hour)
        for op_id, flag in result.mat_config:
            assert result.plan[op_id].materialize == flag

    def test_multiple_candidate_plans(self, stats_hour):
        cheap = linear_plan([(10, 1), (10, 1)])
        costly = linear_plan([(100, 1), (100, 1)])
        result = find_best_ft_plan([costly, cheap], stats_hour)
        assert result.plan.total_runtime_cost == pytest.approx(20.0)

    def test_high_failure_rate_prefers_materialization(self):
        # a long pipeline under a tiny MTBF should checkpoint somewhere
        plan = linear_plan([(50, 1), (50, 1), (50, 1), (50, 1)])
        stats = ClusterStats(mtbf=100, mttr=1)
        result = find_best_ft_plan([plan], stats)
        assert len(result.materialized_ids) >= 1

    def test_low_failure_rate_prefers_no_materialization(self):
        plan = linear_plan([(50, 10), (50, 10), (50, 10)])
        stats = ClusterStats(mtbf=1e9)
        result = find_best_ft_plan([plan], stats)
        assert result.materialized_ids == ()

    def test_pruning_stats_accounting(self, paper_plan, stats_hour):
        result = find_best_ft_plan(
            [paper_plan], stats_hour, pruning=PruningConfig.none()
        )
        assert result.pruning.configs_total == 32
        assert result.pruning.configs_enumerated == 32
        assert result.pruning.configs_pruned == 0
