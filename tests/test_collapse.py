"""Unit tests for collapsed-plan construction (Section 3.3)."""

import pytest

from repro.core.collapse import collapse_plan, collapsed_total_costs
from repro.core.plan import Operator, Plan


class TestPaperExample:
    """Figure 3: the collapse of the Figure 2 plan."""

    def test_groups(self, paper_plan):
        collapsed = collapse_plan(paper_plan)
        groups = {anchor: set(group.members)
                  for anchor, group in collapsed.groups.items()}
        assert groups == {
            3: {1, 2, 3},
            5: {4, 5},
            6: {6},
            7: {7},
        }

    def test_edges(self, paper_plan):
        collapsed = collapse_plan(paper_plan)
        assert collapsed.consumers(3) == [5]
        assert sorted(collapsed.consumers(5)) == [6, 7]
        assert collapsed.producers(6) == [5]

    def test_sources_and_sinks(self, paper_plan):
        collapsed = collapse_plan(paper_plan)
        assert collapsed.sources == [3]
        assert collapsed.sinks == [6, 7]

    def test_dominant_path_inside_group(self, paper_plan):
        # tr(2) = 2 >= tr(1) = 1, so dom({1,2,3}) = (2, 3)
        collapsed = collapse_plan(paper_plan)
        assert collapsed[3].dominant_path == (2, 3)

    def test_runtime_costs(self, paper_plan):
        collapsed = collapse_plan(paper_plan)
        assert collapsed[3].runtime_cost == pytest.approx(4.0)  # tr(2)+tr(3)
        assert collapsed[5].runtime_cost == pytest.approx(3.0)  # tr(4)+tr(5)
        assert collapsed[6].runtime_cost == pytest.approx(1.0)
        assert collapsed[7].runtime_cost == pytest.approx(2.0)

    def test_mat_costs_use_anchor(self, paper_plan):
        collapsed = collapse_plan(paper_plan)
        assert collapsed[3].mat_cost == 1.0   # tm(3)
        assert collapsed[5].mat_cost == 1.0   # tm(5)
        assert collapsed[6].mat_cost == 0.0   # sink with tm = 0

    def test_total_costs_helper(self, paper_plan):
        totals = collapsed_total_costs(collapse_plan(paper_plan))
        assert totals == {3: 5.0, 5: 4.0, 6: 1.0, 7: 2.0}


class TestConstPipe:
    def test_multi_operator_pipelines_are_discounted(self, paper_plan):
        collapsed = collapse_plan(paper_plan, const_pipe=0.8)
        # Figure 5 arithmetic: (tr(2) + tr(3)) * 0.8
        assert collapsed[3].runtime_cost == pytest.approx(3.2)

    def test_singleton_groups_keep_raw_runtime(self, paper_plan):
        collapsed = collapse_plan(paper_plan, const_pipe=0.8)
        assert collapsed[6].runtime_cost == pytest.approx(1.0)

    def test_invalid_const_pipe(self, paper_plan):
        with pytest.raises(ValueError):
            collapse_plan(paper_plan, const_pipe=0.0)
        with pytest.raises(ValueError):
            collapse_plan(paper_plan, const_pipe=1.5)


class TestFigure5Arithmetic:
    """The Rule 1 examples of Figure 5 expressed as collapses."""

    def test_unary_example(self):
        plan = Plan()
        plan.add_operator(Operator(1, "o", 2.0, 10.0))
        plan.add_operator(Operator(2, "p", 2.0, 1.0, materialize=True,
                                   free=False))
        plan.add_edge(1, 2)
        collapsed = collapse_plan(plan, const_pipe=0.8)
        group = collapsed[2]
        assert group.runtime_cost == pytest.approx(3.2)
        assert group.total_cost == pytest.approx(4.2)

    def test_nary_example(self):
        plan = Plan()
        plan.add_operator(Operator(1, "o1", 2.0, 10.0))
        plan.add_operator(Operator(2, "o2", 4.0, 5.0))
        plan.add_operator(Operator(3, "p", 2.0, 1.0, materialize=True,
                                   free=False))
        plan.add_edge(1, 3)
        plan.add_edge(2, 3)
        collapsed = collapse_plan(plan, const_pipe=0.8)
        group = collapsed[3]
        assert group.members == frozenset({1, 2, 3})
        assert group.runtime_cost == pytest.approx(4.8)  # (4 + 2) * 0.8
        assert group.total_cost == pytest.approx(5.8)


class TestCollapseSemantics:
    def test_all_materialized_collapses_to_singletons(self, chain_plan):
        configured = chain_plan.with_mat_config(
            {op_id: True for op_id in chain_plan.free_operators}
        )
        collapsed = collapse_plan(configured)
        assert len(collapsed) == len(chain_plan)
        for group in collapsed:
            assert len(group.members) == 1

    def test_nothing_materialized_collapses_to_one_group_per_sink(
            self, chain_plan):
        collapsed = collapse_plan(chain_plan)
        assert len(collapsed) == 1
        assert collapsed[4].members == frozenset({1, 2, 3, 4})

    def test_shared_operator_appears_in_both_sink_groups(self):
        # a -> b, a -> c with nothing materialized: recovering either sink
        # re-runs a, so a belongs to both groups
        plan = Plan()
        plan.add_operator(Operator(1, "a", 1.0, 1.0))
        plan.add_operator(Operator(2, "b", 2.0, 0.0, materialize=True,
                                   free=False))
        plan.add_operator(Operator(3, "c", 3.0, 0.0, materialize=True,
                                   free=False))
        plan.add_edge(1, 2)
        plan.add_edge(1, 3)
        collapsed = collapse_plan(plan)
        assert collapsed[2].members == frozenset({1, 2})
        assert collapsed[3].members == frozenset({1, 3})

    def test_groups_cover_every_operator(self, paper_plan):
        for config_value in (False, True):
            configured = paper_plan.with_mat_config(
                {op_id: config_value for op_id in paper_plan.free_operators}
            )
            collapsed = collapse_plan(configured)
            covered = set()
            for group in collapsed:
                covered |= set(group.members)
            assert covered == set(paper_plan.operators)

    def test_diamond_dominant_path_picks_heavier_branch(self):
        # 1 -> {2 cheap, 3 expensive} -> 4, nothing materialized
        plan = Plan()
        plan.add_operator(Operator(1, "src", 1.0, 0.0))
        plan.add_operator(Operator(2, "cheap", 1.0, 0.0))
        plan.add_operator(Operator(3, "costly", 10.0, 0.0))
        plan.add_operator(Operator(4, "sink", 1.0, 0.0, materialize=True,
                                   free=False))
        for edge in [(1, 2), (1, 3), (2, 4), (3, 4)]:
            plan.add_edge(*edge)
        collapsed = collapse_plan(plan)
        assert collapsed[4].dominant_path == (1, 3, 4)
        assert collapsed[4].runtime_cost == pytest.approx(12.0)

    def test_topological_order_of_collapsed_plan(self, paper_plan):
        collapsed = collapse_plan(paper_plan)
        order = collapsed.topological_order()
        assert order.index(3) < order.index(5) < order.index(6)

    def test_pretty_mentions_every_group(self, paper_plan):
        rendering = collapse_plan(paper_plan).pretty()
        for anchor in (3, 5, 6, 7):
            assert f"{anchor}" in rendering
