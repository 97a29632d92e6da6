"""Unit tests for execution-path enumeration (Section 3.4)."""

from repro.core.collapse import collapse_plan
from repro.core.paths import (
    count_paths,
    enumerate_paths,
    path_ids,
    path_total_costs,
)
from repro.core.plan import Operator, Plan


def _diamond_plan() -> Plan:
    """Two sources, shared middle, two sinks -- 4 paths when collapsed
    per-operator."""
    plan = Plan()
    for op_id in range(1, 6):
        plan.add_operator(Operator(
            op_id, f"op{op_id}", float(op_id), 0.5,
            materialize=True, free=False,
        ))
    for edge in [(1, 3), (2, 3), (3, 4), (3, 5)]:
        plan.add_edge(*edge)
    return plan


class TestEnumeration:
    def test_paper_plan_has_two_paths(self, paper_plan):
        collapsed = collapse_plan(paper_plan)
        paths = list(enumerate_paths(collapsed))
        assert [path_ids(p) for p in paths] == [(3, 5, 6), (3, 5, 7)]

    def test_diamond_has_four_paths(self):
        collapsed = collapse_plan(_diamond_plan())
        paths = {path_ids(p) for p in enumerate_paths(collapsed)}
        assert paths == {(1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5)}

    def test_single_group_single_path(self, chain_plan):
        collapsed = collapse_plan(chain_plan)
        paths = list(enumerate_paths(collapsed))
        assert len(paths) == 1
        assert path_ids(paths[0]) == (4,)

    def test_enumeration_is_deterministic(self, paper_plan):
        collapsed = collapse_plan(paper_plan)
        first = [path_ids(p) for p in enumerate_paths(collapsed)]
        second = [path_ids(p) for p in enumerate_paths(collapsed)]
        assert first == second


class TestCountPaths:
    def test_count_matches_enumeration(self, paper_plan):
        collapsed = collapse_plan(paper_plan)
        assert count_paths(collapsed) == len(list(enumerate_paths(collapsed)))

    def test_count_diamond(self):
        collapsed = collapse_plan(_diamond_plan())
        assert count_paths(collapsed) == 4

    def test_count_single(self, chain_plan):
        assert count_paths(collapse_plan(chain_plan)) == 1


class TestPathHelpers:
    def test_path_total_costs(self, paper_plan):
        collapsed = collapse_plan(paper_plan)
        first = next(enumerate_paths(collapsed))
        assert path_total_costs(first) == [5.0, 4.0, 1.0]

    def test_path_ids_are_anchor_ids(self, paper_plan):
        collapsed = collapse_plan(paper_plan)
        for path in enumerate_paths(collapsed):
            for group, anchor in zip(path, path_ids(path)):
                assert group.anchor_id == anchor
