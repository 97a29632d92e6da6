"""Unit tests for the pruning rules (Section 4)."""

import pytest

from repro.core.cost_model import ClusterStats
from repro.core.enumeration import find_best_ft_plan
from repro.core.plan import Operator, Plan
from repro.core.pruning import (
    DominantPathMemo,
    PruningConfig,
    PruningStats,
    apply_rule1,
    apply_rule2,
)


def _figure5_unary_plan() -> Plan:
    """Figure 5 (left): o with huge tm under a cheap parent p."""
    plan = Plan()
    plan.add_operator(Operator(1, "o", 2.0, 10.0))
    plan.add_operator(Operator(2, "p", 2.0, 1.0, materialize=True,
                               free=False))
    plan.add_edge(1, 2)
    return plan


def _figure5_nary_plan() -> Plan:
    """Figure 5 (right): two children under an n-ary parent."""
    plan = Plan()
    plan.add_operator(Operator(1, "o1", 2.0, 10.0))
    plan.add_operator(Operator(2, "o2", 4.0, 5.0))
    plan.add_operator(Operator(3, "p", 2.0, 1.0, materialize=True,
                               free=False))
    plan.add_edge(1, 3)
    plan.add_edge(2, 3)
    return plan


def _figure6_plan() -> Plan:
    """Figure 6: a short-running operator under a unary parent."""
    plan = Plan()
    plan.add_operator(Operator(1, "o", 0.5, 1.0))
    plan.add_operator(Operator(2, "p", 0.2, 0.15, materialize=True,
                               free=False))
    plan.add_edge(1, 2)
    return plan


class TestRule1:
    def test_figure5_unary_marks_child(self):
        # t({o,p}) = 4.2 <= t({o}) = 12 with CONST_pipe = 0.8
        plan = apply_rule1(_figure5_unary_plan(), const_pipe=0.8)
        assert not plan[1].free
        assert not plan[1].materialize

    def test_figure5_nary_marks_both_children(self):
        # t({o1,o2,p}) = 5.8 <= t({o1}) = 12 and <= t({o2}) = 9
        plan = apply_rule1(_figure5_nary_plan(), const_pipe=0.8)
        assert not plan[1].free
        assert not plan[2].free

    def test_cheap_materialization_is_kept_free(self):
        plan = Plan()
        plan.add_operator(Operator(1, "o", 10.0, 0.1))
        plan.add_operator(Operator(2, "p", 10.0, 0.1, materialize=True,
                                   free=False))
        plan.add_edge(1, 2)
        pruned = apply_rule1(plan, const_pipe=1.0)
        assert pruned[1].free

    def test_rule1_skips_bound_operators(self):
        plan = _figure5_unary_plan()
        bound = Plan()
        bound.add_operator(plan[1].as_bound(materialize=True))
        bound.add_operator(plan[2])
        bound.add_edge(1, 2)
        pruned = apply_rule1(bound, const_pipe=0.8)
        assert pruned[1].materialize  # untouched

    def test_rule1_counts_marks(self):
        stats_out = PruningStats()
        apply_rule1(_figure5_nary_plan(), 0.8, stats_out=stats_out)
        assert stats_out.rule1_marked == 2

    def test_rule1_returns_same_plan_when_nothing_marked(self):
        plan = Plan()
        plan.add_operator(Operator(1, "o", 10.0, 0.1))
        plan.add_operator(Operator(2, "p", 10.0, 0.1, materialize=True,
                                   free=False))
        plan.add_edge(1, 2)
        assert apply_rule1(plan, 1.0) is plan

    def test_rule1_is_safe_for_the_search(self, stats_hour):
        """Pruned search finds the same optimum as brute force."""
        plan = _figure5_nary_plan()
        pruned = find_best_ft_plan([plan], stats_hour,
                                   pruning=PruningConfig.only(1))
        brute = find_best_ft_plan([plan], stats_hour,
                                  pruning=PruningConfig.none())
        assert pruned.cost == pytest.approx(brute.cost)


class TestRule2:
    def test_figure6_marks_short_running_child(self):
        # gamma({o,p}) = 0.99976 >= 0.95 at MTBF_cost = 3600
        stats = ClusterStats(mtbf=3600)
        plan = apply_rule2(_figure6_plan(), stats)
        assert not plan[1].free
        assert not plan[1].materialize

    def test_low_mtbf_keeps_operator_free(self):
        stats = ClusterStats(mtbf=10)   # gamma({o,p}) = e^{-0.105} ~ 0.9
        plan = apply_rule2(_figure6_plan(), stats)
        assert plan[1].free

    def test_nary_parent_is_skipped(self):
        stats = ClusterStats(mtbf=1e9)
        plan = apply_rule2(_figure5_nary_plan(), stats)
        assert plan[1].free and plan[2].free

    def test_folded_base_input_makes_parent_binary(self):
        """A parent that also reads a base table is not unary."""
        plan = Plan()
        plan.add_operator(Operator(1, "o", 0.5, 1.0))
        plan.add_operator(Operator(2, "p", 0.2, 0.15, materialize=True,
                                   free=False, base_inputs=1))
        plan.add_edge(1, 2)
        pruned = apply_rule2(plan, ClusterStats(mtbf=1e9))
        assert pruned[1].free

    def test_rule2_counts_marks(self):
        stats_out = PruningStats()
        apply_rule2(_figure6_plan(), ClusterStats(mtbf=3600),
                    stats_out=stats_out)
        assert stats_out.rule2_marked == 1

    def test_rule2_fires_more_for_higher_mtbf(self, paper_plan):
        low = apply_rule2(paper_plan, ClusterStats(mtbf=10))
        high = apply_rule2(paper_plan, ClusterStats(mtbf=1e9))
        assert len(high.free_operators) <= len(low.free_operators)


class TestRule3Memo:
    def test_record_keeps_best_cost(self):
        memo = DominantPathMemo()
        memo.record_dominant([4, 3, 2], 11.0)
        memo.record_dominant([3, 3, 1], 9.0)
        assert memo.best_cost == 9.0

    def test_failure_free_check_fires(self, stats_hour):
        memo = DominantPathMemo()
        memo.record_dominant([2, 2], 5.0)
        decision = memo.should_skip_plan([3, 3], stats_hour)
        assert decision.skip and decision.cheap
        assert decision.estimated is None

    def test_estimated_check_fires(self):
        # R_Pt < bestT but T_Pt >= bestT under a low MTBF
        stats = ClusterStats(mtbf=10)
        memo = DominantPathMemo()
        memo.best_cost = 9.0
        decision = memo.should_skip_plan([4, 4], stats)
        assert decision.skip and not decision.cheap
        assert decision.estimated is not None

    def test_cheaper_path_is_not_skipped(self, stats_hour):
        memo = DominantPathMemo()
        memo.record_dominant([100, 100], 250.0)
        decision = memo.should_skip_plan([1, 1], stats_hour)
        assert not decision.skip
        assert decision.estimated is not None

    def test_figure7_dominance(self):
        """Figure 7: Pt >= Ptm2 holds but Pt >= Ptm1 does not."""
        memo = DominantPathMemo()
        # Ptm1: three collapsed operators (5, 3, 1); Ptm2: two (4, 4);
        # give them large recorded costs so best_cost stays above the
        # analyzed path's failure-free runtime
        memo.record_dominant([5, 3, 1], 1000.0)
        assert not memo.dominates([4, 4, 1])     # 4 < 5 at index 0
        memo.record_dominant([4, 4], 1000.0)
        assert memo.dominates([4, 4, 1])         # padded (4, 4, 0)

    def test_dominance_with_fewer_operators_pads_with_zero(self):
        memo = DominantPathMemo()
        memo.record_dominant([2.0], 100.0)
        assert memo.dominates([3.0, 1.0])
        assert not memo.dominates([1.0, 1.0])

    def test_empty_memo_never_dominates(self):
        assert not DominantPathMemo().dominates([1.0])


class TestPruningConfig:
    def test_none_and_all(self):
        assert not any([PruningConfig.none().rule1,
                        PruningConfig.none().rule2,
                        PruningConfig.none().rule3])
        assert all([PruningConfig.all().rule1,
                    PruningConfig.all().rule2,
                    PruningConfig.all().rule3])

    def test_only(self):
        config = PruningConfig.only(2)
        assert (config.rule1, config.rule2, config.rule3) == \
            (False, True, False)

    def test_only_invalid_rule(self):
        with pytest.raises(ValueError):
            PruningConfig.only(4)


class TestPruningSafety:
    """The paper's guarantee: rules never lose the model's optimum."""

    @pytest.mark.parametrize("rule", [1, 2, 3])
    def test_each_rule_preserves_optimum_on_paper_plan(
            self, paper_plan, stats_hour, rule):
        pruned = find_best_ft_plan([paper_plan], stats_hour,
                                   pruning=PruningConfig.only(rule))
        brute = find_best_ft_plan([paper_plan], stats_hour,
                                  pruning=PruningConfig.none())
        assert pruned.cost == pytest.approx(brute.cost)

    def test_merge_pruning_stats(self):
        a = PruningStats(rule1_marked=1, configs_total=10,
                         configs_enumerated=8)
        b = PruningStats(rule1_marked=2, configs_total=5,
                         configs_enumerated=5, rule3_plan_cutoffs=3)
        a.merge(b)
        assert a.rule1_marked == 3
        assert a.configs_total == 15
        assert a.configs_pruned == 2
        assert a.rule3_plan_cutoffs == 3


class TestRule1NaryProofGap:
    """Regression pin for a gap in the paper's Section 4.1 n-ary proof.

    On DAG-structured plans, binding *all* children of an n-ary parent
    changes the execution-path structure (a materialized child forms its
    own path segment), so at the boundary ``t({o.., p}) == t({o_i})`` the
    rule can exclude a configuration that is globally optimal by a tiny
    margin.  Found by property testing; we keep the rule as published and
    assert the regret stays negligible.
    """

    def _counterexample_plan(self):
        plan = Plan()
        plan.add_operator(Operator(1, "op1", 2.0, 205.0))
        plan.add_operator(Operator(2, "op2", 1.0, 1.0))
        plan.add_operator(Operator(3, "op3", 19.0, 187.0))
        plan.add_operator(Operator(4, "op4", 1.0, 206.0))
        plan.add_operator(Operator(5, "sink", 1.0, 204.0,
                                   materialize=True, free=False))
        for edge in [(1, 5), (2, 3), (3, 4), (4, 5)]:
            plan.add_edge(*edge)
        return plan

    def test_rule1_fires_at_the_boundary(self):
        plan = apply_rule1(self._counterexample_plan(), const_pipe=1.0)
        assert not plan[1].free and not plan[4].free

    def test_regret_is_negligible(self):
        plan = self._counterexample_plan()
        stats = ClusterStats(mtbf=30.0, mttr=1.0)
        brute = find_best_ft_plan([plan], stats,
                                  pruning=PruningConfig.none())
        pruned = find_best_ft_plan([plan], stats,
                                   pruning=PruningConfig.only(1))
        assert pruned.cost > brute.cost           # the gap is real
        assert pruned.cost < brute.cost * 1.0001  # and negligible


class TestRule2ProofGap:
    """Regression pin for Rule 2's boundary gap.

    ``gamma({o,p}) >= S`` inspects the pairwise collapse only; in the
    configuration the rule forgoes, ``p`` does not materialize either,
    the realized group extends beyond ``p``, and its success probability
    drops just below ``S`` -- so a checkpoint at ``o`` would have been
    (marginally) better.  Found by property testing; kept as published.
    """

    def _counterexample_plan(self):
        plan = Plan()
        costs = [(1, 1), (1, 1), (5, 1), (1, 1)]
        for op_id, (tr, tm) in enumerate(costs, start=1):
            plan.add_operator(Operator(op_id, f"op{op_id}",
                                       float(tr), float(tm)))
            if op_id > 1:
                plan.add_edge(op_id - 1, op_id)
        plan.add_operator(Operator(5, "sink", 1.0, 182.0,
                                   materialize=True, free=False))
        plan.add_edge(4, 5)
        return plan

    def test_rule2_marks_the_useful_checkpoint(self):
        stats = ClusterStats(mtbf=3600.0, mttr=1.0)
        plan = apply_rule2(self._counterexample_plan(), stats)
        assert not plan[3].free   # the checkpoint brute force would pick

    def test_regret_is_negligible(self):
        plan = self._counterexample_plan()
        stats = ClusterStats(mtbf=3600.0, mttr=1.0)
        brute = find_best_ft_plan([plan], stats,
                                  pruning=PruningConfig.none())
        pruned = find_best_ft_plan([plan], stats,
                                   pruning=PruningConfig.only(2))
        assert pruned.cost > brute.cost
        assert pruned.cost < brute.cost * 1.001
