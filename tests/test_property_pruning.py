"""Property-based safety tests for the pruning rules.

The paper proves Rules 1 and 2 never prune a configuration that is
strictly better (under the cost model) than everything retained, and
Rule 3 only skips plans provably at least as expensive as the memoized
best.  These tests check exactly that on random chain and tree plans:
the pruned search returns the same optimal cost as brute force.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import ClusterStats
from repro.core.enumeration import find_best_ft_plan
from repro.core.plan import Operator, Plan
from repro.core.pruning import PruningConfig

cost_values = st.floats(min_value=0.01, max_value=500.0)


@st.composite
def random_chain_plans(draw):
    """Random pipelines with a bound materialized sink (<= 6 free ops)."""
    length = draw(st.integers(min_value=2, max_value=6))
    plan = Plan()
    for op_id in range(1, length + 1):
        is_sink = op_id == length
        plan.add_operator(Operator(
            op_id=op_id,
            name=f"op{op_id}",
            runtime_cost=draw(cost_values),
            mat_cost=draw(cost_values),
            materialize=is_sink,
            free=not is_sink,
        ))
        if op_id > 1:
            plan.add_edge(op_id - 1, op_id)
    return plan


@st.composite
def random_tree_plans(draw):
    """Random binary in-trees: two branches meeting at a bound sink."""
    left_len = draw(st.integers(min_value=1, max_value=3))
    right_len = draw(st.integers(min_value=1, max_value=3))
    plan = Plan()
    op_id = 0

    def add(materialize=False, free=True):
        nonlocal op_id
        op_id += 1
        plan.add_operator(Operator(
            op_id=op_id, name=f"op{op_id}",
            runtime_cost=draw(cost_values), mat_cost=draw(cost_values),
            materialize=materialize, free=free,
        ))
        return op_id

    left = [add() for _ in range(left_len)]
    for a, b in zip(left, left[1:]):
        plan.add_edge(a, b)
    right = [add() for _ in range(right_len)]
    for a, b in zip(right, right[1:]):
        plan.add_edge(a, b)
    sink = add(materialize=True, free=False)
    plan.add_edge(left[-1], sink)
    plan.add_edge(right[-1], sink)
    return plan


mtbf_values = st.sampled_from([30.0, 300.0, 3600.0, 86400.0])


class TestPruningSafety:
    @given(plan=random_chain_plans(), mtbf=mtbf_values)
    @settings(max_examples=40, deadline=None)
    def test_all_rules_on_chains_have_bounded_regret(self, plan, mtbf):
        """Rule 2's boundary gap (see repro.core.pruning) keeps this from
        being an exact equality even on chains.  The 6 % bound is
        empirical for this generator's ranges (chains of <= 6 operators,
        costs <= 500, MTBF >= 30).  It is not a proven bound: the chains
        pinned in ``TestRule2ChainCounterexample`` lie inside those
        ranges and reach up to 1.171923x, so this property (and the 5 %
        Rule 2 one below) fails whenever Hypothesis draws such a
        case."""
        stats = ClusterStats(mtbf=mtbf, mttr=1.0)
        brute = find_best_ft_plan([plan], stats,
                                  pruning=PruningConfig.none())
        pruned = find_best_ft_plan([plan], stats,
                                   pruning=PruningConfig.all())
        assert pruned.cost >= brute.cost - 1e-9
        assert pruned.cost <= brute.cost * 1.06

    @given(plan=random_tree_plans(), mtbf=mtbf_values)
    @settings(max_examples=40, deadline=None)
    def test_rule_3_preserves_optimum_on_trees(self, plan, mtbf):
        """Rule 3 is exactly safe on DAGs; rules 1 and 2 carry the
        documented boundary gaps (see repro.core.pruning) and are pinned
        by the bounded-regret checks."""
        stats = ClusterStats(mtbf=mtbf, mttr=1.0)
        brute = find_best_ft_plan([plan], stats,
                                  pruning=PruningConfig.none())
        pruned = find_best_ft_plan([plan], stats,
                                   pruning=PruningConfig.only(3))
        assert pruned.cost == pytest.approx(brute.cost, rel=1e-9)

    @given(plan=random_tree_plans(), mtbf=mtbf_values)
    @settings(max_examples=40, deadline=None)
    def test_all_rules_on_trees_have_bounded_regret(self, plan, mtbf):
        """On DAGs, Rule 1's n-ary case can exclude the true optimum.
        The 6 % bound is empirical and falsifiable: the tree pinned in
        ``TestRule1TreeCounterexample`` reaches 1.219913x."""
        stats = ClusterStats(mtbf=mtbf, mttr=1.0)
        brute = find_best_ft_plan([plan], stats,
                                  pruning=PruningConfig.none())
        pruned = find_best_ft_plan([plan], stats,
                                   pruning=PruningConfig.all())
        assert pruned.cost >= brute.cost - 1e-9   # never below brute force
        assert pruned.cost <= brute.cost * 1.06

    @given(plan=random_chain_plans(), mtbf=mtbf_values,
           rule=st.sampled_from([1, 3]))
    @settings(max_examples=40, deadline=None)
    def test_rules_1_and_3_exactly_safe_on_chains(self, plan, mtbf, rule):
        """On chains with a free-parent structure, Rule 1 (unary case)
        and Rule 3 provably never lose the model's optimum."""
        stats = ClusterStats(mtbf=mtbf, mttr=1.0)
        brute = find_best_ft_plan([plan], stats,
                                  pruning=PruningConfig.none())
        pruned = find_best_ft_plan([plan], stats,
                                   pruning=PruningConfig.only(rule))
        assert pruned.cost == pytest.approx(brute.cost, rel=1e-9)

    @given(plan=random_chain_plans(), mtbf=mtbf_values)
    @settings(max_examples=40, deadline=None)
    def test_rule2_bounded_regret_on_chains(self, plan, mtbf):
        stats = ClusterStats(mtbf=mtbf, mttr=1.0)
        brute = find_best_ft_plan([plan], stats,
                                  pruning=PruningConfig.none())
        pruned = find_best_ft_plan([plan], stats,
                                   pruning=PruningConfig.only(2))
        assert pruned.cost >= brute.cost - 1e-9
        assert pruned.cost <= brute.cost * 1.05

    @given(plan=random_chain_plans(), mtbf=mtbf_values)
    @settings(max_examples=40, deadline=None)
    def test_pruning_never_enumerates_more(self, plan, mtbf):
        stats = ClusterStats(mtbf=mtbf, mttr=1.0)
        brute = find_best_ft_plan([plan], stats,
                                  pruning=PruningConfig.none())
        pruned = find_best_ft_plan([plan], stats,
                                   pruning=PruningConfig.all())
        assert pruned.pruning.configs_enumerated <= \
            brute.pruning.configs_enumerated


def _pinned_plan(costs, edges):
    """A plan of ``(tr, tm)`` operators numbered from 1; the last is a
    bound materialized sink, every other operator is free."""
    plan = Plan()
    for op_id, (tr, tm) in enumerate(costs, start=1):
        sink = op_id == len(costs)
        plan.add_operator(Operator(op_id, f"op{op_id}", float(tr),
                                   float(tm), materialize=sink,
                                   free=not sink))
    for producer, consumer in edges:
        plan.add_edge(producer, consumer)
    return plan


class TestRule2ChainCounterexample:
    """Chains inside the generators' ranges that break the regret bounds.

    * ``x1.060012`` (MTBF 3600): Rule 2 pins ops 1-3 to not materialize
      (``gamma`` of each with its parent clears ``S``), so neither pruned
      search can checkpoint after op 3's 68 s of work -- the checkpoint
      brute force picks.  It exceeds the 5 % bound of
      ``test_rule2_bounded_regret_on_chains`` and the 6 % bound of
      ``test_all_rules_on_chains_have_bounded_regret``.
    * ``x1.055042`` (MTBF 300): Rule 2 pins ops 1-4, so the pruned
      searches lose brute force's cheap checkpoint after op 4
      (``tm = 0.125``) ahead of the sink's 13 s write.  It exceeds the
      5 % Rule 2 bound only; it is the smallest regret above 5 % found
      so far.
    * ``x1.171923`` (MTBF 3600): the worst chain regret found by a
      seeded sampler over the generator's ranges.  Rule 2 pins ops 1-4,
      so the pruned searches cannot take brute force's checkpoints
      after ops 2 and 4.

    Both property tests are falsifiable until the bound is derived or
    the rule is made exactly safe.
    """

    #: name -> (``(tr, tm)`` per op, the last a bound materialized sink;
    #: MTBF; brute-force cost and checkpoints; pruned cost and
    #: checkpoints; the largest regret bound the pruned cost breaks)
    CASES = {
        "x1.060012": (
            [(1, 1), (1, 1), (68, 1), (1, 22), (1, 254)], 3600.0,
            342.25911086474133, (3,), 362.79883012581035, (), 1.06,
        ),
        "x1.055042": (
            [(1, 1), (1, 1), (4, 1), (1, 0.125), (1, 13)], 300.0,
            21.125, (4,), 22.287753000782125, (), 1.05,
        ),
        "x1.171923": (
            [(78, 131.65516136004945), (55, 5), (97, 22), (7, 4), (2, 87),
             (0.5, 254)], 3600.0,
            517.8903305606907, (2, 4), 606.9274875340224, (), 1.06,
        ),
    }

    @staticmethod
    def _plan(costs):
        return _pinned_plan(
            costs, [(op_id, op_id + 1) for op_id in range(1, len(costs))]
        )

    def test_pinned_costs_and_choices(self):
        for case, (costs, mtbf, brute_cost, brute_ids, pruned_cost,
                   pruned_ids, broken_bound) in self.CASES.items():
            stats = ClusterStats(mtbf=mtbf, mttr=1.0)
            brute = find_best_ft_plan([self._plan(costs)], stats,
                                      pruning=PruningConfig.none())
            assert brute.cost == brute_cost, case
            assert brute.materialized_ids == brute_ids, case
            for pruning in (PruningConfig.only(2), PruningConfig.all()):
                pruned = find_best_ft_plan([self._plan(costs)], stats,
                                           pruning=pruning)
                assert pruned.cost == pruned_cost, case
                assert pruned.materialized_ids == pruned_ids, case
                assert pruned.cost > brute.cost * broken_bound, case


class TestRule1TreeCounterexample:
    """A tree inside ``random_tree_plans``' ranges that breaks the 6 %
    bound of ``test_all_rules_on_trees_have_bounded_regret``.

    Ops 1->2 and 3->4 feed the bound sink 5 (MTBF 300).  Rule 1's n-ary
    case binds the sink's children, ops 2 and 4, so ``only(1)`` and
    ``all()`` lose brute force's checkpoint after op 4: ``x1.219913``,
    the worst regret found by a seeded sampler over the generator's
    ranges.
    """

    COSTS = [(500, 88), (291.88396780933533, 329.3739366640223),
             (203.23701473683977, 68), (422.5228288191753, 48), (28, 3)]
    EDGES = [(1, 2), (3, 4), (2, 5), (4, 5)]

    def _plan(self):
        return _pinned_plan(self.COSTS, self.EDGES)

    def test_pinned_costs_and_choices(self):
        stats = ClusterStats(mtbf=300.0, mttr=1.0)
        brute = find_best_ft_plan([self._plan()], stats,
                                  pruning=PruningConfig.none())
        assert brute.cost == 7441.846982240479
        assert brute.materialized_ids == (1, 3, 4)
        for pruning in (PruningConfig.only(1), PruningConfig.all()):
            pruned = find_best_ft_plan([self._plan()], stats,
                                       pruning=pruning)
            assert pruned.cost == 9078.40489958737
            assert pruned.materialized_ids == (1, 3)
            assert pruned.cost > brute.cost * 1.06
