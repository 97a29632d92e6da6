"""Unit tests for DAG plans and operators."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import fingerprint
from repro.core.enumeration import plan_fingerprint
from repro.core.plan import Operator, Plan, PlanError, linear_plan
from repro.core.serialize import plan_from_dict, plan_to_dict


class TestOperator:
    def test_total_cost_without_materialization(self):
        op = Operator(1, "a", 10.0, 5.0, materialize=False)
        assert op.total_cost == 10.0

    def test_total_cost_with_materialization(self):
        op = Operator(1, "a", 10.0, 5.0, materialize=True)
        assert op.total_cost == 15.0

    def test_negative_runtime_rejected(self):
        with pytest.raises(PlanError):
            Operator(1, "a", -1.0, 0.0)

    def test_negative_mat_cost_rejected(self):
        with pytest.raises(PlanError):
            Operator(1, "a", 1.0, -0.5)

    def test_negative_base_inputs_rejected(self):
        with pytest.raises(PlanError):
            Operator(1, "a", 1.0, 0.0, base_inputs=-1)

    def test_as_bound_freezes_flag(self):
        op = Operator(1, "a", 1.0, 1.0).as_bound(materialize=True)
        assert op.materialize and not op.free

    def test_with_materialize_on_free_operator(self):
        op = Operator(1, "a", 1.0, 1.0, free=True)
        assert op.with_materialize(True).materialize

    def test_with_materialize_on_bound_operator_rejected(self):
        op = Operator(1, "a", 1.0, 1.0, free=False, materialize=False)
        with pytest.raises(PlanError):
            op.with_materialize(True)

    def test_with_materialize_noop_on_bound_operator_allowed(self):
        op = Operator(1, "a", 1.0, 1.0, free=False, materialize=True)
        assert op.with_materialize(True).materialize


class TestPlanConstruction:
    def test_duplicate_operator_rejected(self):
        plan = Plan()
        plan.add_operator(Operator(1, "a", 1.0, 1.0))
        with pytest.raises(PlanError):
            plan.add_operator(Operator(1, "b", 1.0, 1.0))

    def test_edge_to_unknown_operator_rejected(self):
        plan = Plan()
        plan.add_operator(Operator(1, "a", 1.0, 1.0))
        with pytest.raises(PlanError):
            plan.add_edge(1, 2)

    def test_self_edge_rejected(self):
        plan = Plan()
        plan.add_operator(Operator(1, "a", 1.0, 1.0))
        with pytest.raises(PlanError):
            plan.add_edge(1, 1)

    def test_duplicate_edge_rejected(self):
        plan = linear_plan([(1, 1), (1, 1)])
        with pytest.raises(PlanError):
            plan.add_edge(1, 2)

    def test_cycle_rejected_and_rolled_back(self):
        plan = linear_plan([(1, 1), (1, 1), (1, 1)])
        with pytest.raises(PlanError, match="would create a cycle"):
            plan.add_edge(3, 1)
        # the offending edge was rolled back; the plan stays valid
        plan.validate()

    def test_from_edges(self, paper_plan):
        assert len(paper_plan) == 7
        assert set(paper_plan.edges()) == {
            (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7)
        }

    def test_from_edges_rejects_a_cycle(self):
        operators = [Operator(i, f"op{i}", 1.0, 1.0) for i in (1, 2, 3)]
        with pytest.raises(PlanError, match="cycle"):
            Plan.from_edges(operators, [(1, 2), (2, 3), (3, 1)])

    @pytest.mark.parametrize("edges", [
        [(1, 2), (1, 2)],   # duplicate
        [(1, 1)],           # self edge
        [(1, 9)],           # unknown operator
    ])
    def test_from_edges_rejects_bad_edges(self, edges):
        operators = [Operator(i, f"op{i}", 1.0, 1.0) for i in (1, 2)]
        with pytest.raises(PlanError):
            Plan.from_edges(operators, edges)

    def test_from_edges_keeps_add_edge_adjacency_order(self, paper_plan):
        edges = [(5, 7), (2, 3), (5, 6), (1, 3), (4, 5), (3, 4)]
        incremental = Plan()
        for operator in paper_plan.operators.values():
            incremental.add_operator(operator)
        for producer, consumer in edges:
            incremental.add_edge(producer, consumer)
        bulk = Plan.from_edges(paper_plan.operators.values(), edges)
        for op_id in paper_plan.operators:
            assert bulk.consumers(op_id) == incremental.consumers(op_id)
            assert bulk.producers(op_id) == incremental.producers(op_id)
        assert list(bulk.edges()) == list(incremental.edges())

    def test_empty_plan_fails_validation(self):
        with pytest.raises(PlanError):
            Plan().validate()


class TestPlanStructure:
    def test_sources_and_sinks(self, paper_plan):
        assert sorted(paper_plan.sources) == [1, 2]
        assert sorted(paper_plan.sinks) == [6, 7]

    def test_consumers_and_producers(self, paper_plan):
        assert paper_plan.consumers(5) == [6, 7]
        assert paper_plan.producers(3) == [1, 2]

    def test_topological_order_is_valid(self, paper_plan):
        order = paper_plan.topological_order()
        position = {op_id: i for i, op_id in enumerate(order)}
        for producer, consumer in paper_plan.edges():
            assert position[producer] < position[consumer]

    def test_topological_order_is_deterministic(self, paper_plan):
        assert paper_plan.topological_order() == \
            paper_plan.topological_order()

    def test_ancestors(self, paper_plan):
        assert paper_plan.ancestors(5) == [1, 2, 3, 4]
        assert paper_plan.ancestors(1) == []

    def test_descendants(self, paper_plan):
        assert paper_plan.descendants(3) == [4, 5, 6, 7]
        assert paper_plan.descendants(6) == []

    def test_free_operators(self, paper_plan):
        assert paper_plan.free_operators == [1, 2, 3, 4, 5]

    def test_contains_and_getitem(self, paper_plan):
        assert 3 in paper_plan
        assert 99 not in paper_plan
        assert paper_plan[3].name == "HashJoin"

    def test_arity_counts_base_inputs(self):
        plan = Plan()
        plan.add_operator(Operator(1, "scan-join", 1.0, 1.0, base_inputs=2))
        plan.add_operator(Operator(2, "join", 1.0, 1.0, base_inputs=1))
        plan.add_edge(1, 2)
        assert plan.arity(1) == 2
        assert plan.arity(2) == 2


class TestMatConfig:
    def test_with_mat_config_applies_flags(self, chain_plan):
        configured = chain_plan.with_mat_config({1: True, 2: False, 3: True})
        assert configured[1].materialize
        assert not configured[2].materialize
        assert configured[3].materialize
        # the original plan is untouched
        assert not chain_plan[1].materialize

    def test_with_mat_config_rejects_unknown_ids(self, chain_plan):
        with pytest.raises(PlanError):
            chain_plan.with_mat_config({42: True})

    def test_with_mat_config_rejects_bound_flip(self, chain_plan):
        with pytest.raises(PlanError):
            chain_plan.with_mat_config({4: False})  # bound sink

    def test_mat_config_roundtrip(self, chain_plan):
        configured = chain_plan.with_mat_config({1: True, 2: True, 3: False})
        config = configured.mat_config()
        assert config[1] and config[2] and not config[3] and config[4]

    def test_with_mat_config_preserves_edges(self, paper_plan):
        configured = paper_plan.with_mat_config({4: True})
        assert set(configured.edges()) == set(paper_plan.edges())


class TestAggregateCosts:
    def test_total_runtime_cost(self, chain_plan):
        assert chain_plan.total_runtime_cost == pytest.approx(36.0)

    def test_total_mat_cost_counts_materializing_only(self, chain_plan):
        assert chain_plan.total_mat_cost == pytest.approx(0.5)  # bound sink
        configured = chain_plan.with_mat_config({2: True})
        assert configured.total_mat_cost == pytest.approx(4.5)


class TestHelpers:
    def test_linear_plan_shape(self):
        plan = linear_plan([(1, 1), (2, 2), (3, 3)])
        assert plan.sources == [1]
        assert plan.sinks == [3]
        assert list(plan.edges()) == [(1, 2), (2, 3)]

    def test_linear_plan_with_names(self):
        plan = linear_plan([(1, 1)], names=["only"])
        assert plan[1].name == "only"

    def test_pretty_contains_all_operators(self, paper_plan):
        rendering = paper_plan.pretty()
        for op_id in paper_plan.operators:
            assert f"[{op_id}]" in rendering


class TestLinearConstruction:
    """Building a plan sorts it a constant number of times, not once per
    edge (counted, not timed)."""

    CHAIN = 2000

    @staticmethod
    def _count_sorts(monkeypatch):
        calls = []
        original = Plan.topological_order

        def counting(self):
            calls.append(len(self))
            return original(self)

        monkeypatch.setattr(Plan, "topological_order", counting)
        return calls

    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["forward", "reverse"])
    def test_decode_sorts_constant_times(self, monkeypatch, reverse):
        plan = linear_plan([(1.0, 1.0)] * self.CHAIN)
        payload = plan_to_dict(plan)
        if reverse:
            payload["edges"].reverse()
        calls = self._count_sorts(monkeypatch)
        decoded = plan_from_dict(payload)
        assert len(calls) <= 2
        assert set(decoded.edges()) == set(plan.edges())
        assert decoded.topological_order() == list(
            range(1, self.CHAIN + 1)
        )

    def test_copies_sort_constant_times(self, monkeypatch):
        plan = linear_plan([(1.0, 1.0)] * self.CHAIN)
        calls = self._count_sorts(monkeypatch)
        configured = plan.with_mat_config({1: True})
        assert len(calls) <= 2
        assert list(configured.edges()) == list(plan.edges())

    def test_add_edge_checks_cycles_without_sorting(self, monkeypatch):
        calls = self._count_sorts(monkeypatch)
        plan = Plan()
        for op_id in range(1, 51):
            plan.add_operator(Operator(op_id, f"op{op_id}", 1.0, 1.0))
        for op_id in range(50, 1, -1):  # reverse topological order
            plan.add_edge(op_id - 1, op_id)
        with pytest.raises(PlanError, match="would create a cycle"):
            plan.add_edge(50, 1)
        assert calls == []


class TestFingerprintMemo:
    """plan_fingerprint memoizes on the plan without entering its value
    identity (fields, ==, repr, pickles, replay row digests)."""

    @staticmethod
    def _fresh(plan):
        # a pickle round-trip rebuilds the plan without the memo
        return plan_fingerprint(pickle.loads(pickle.dumps(plan)))

    @given(st.lists(
        st.one_of(
            st.tuples(st.just("op"), st.integers(1, 6),
                      st.floats(0.0, 100.0)),
            st.tuples(st.just("edge"), st.integers(1, 6),
                      st.integers(1, 6)),
        ),
        max_size=20,
    ))
    @settings(max_examples=60, deadline=None)
    def test_memo_tracks_every_change(self, steps):
        plan = Plan()
        for step in steps:
            try:
                if step[0] == "op":
                    plan.add_operator(
                        Operator(step[1], f"op{step[1]}", step[2], 1.0)
                    )
                else:
                    plan.add_edge(step[1], step[2])
            except PlanError:
                pass  # a rejected change leaves plan and memo as they were
            memo = plan_fingerprint(plan)
            assert memo == self._fresh(plan)
            assert plan_fingerprint(plan) is memo

    def test_copies_start_without_the_memo(self, paper_plan):
        plan_fingerprint(paper_plan)
        configured = paper_plan.with_mat_config({1: True})
        assert configured._fingerprint is None
        assert plan_fingerprint(configured) == self._fresh(configured)
        assert plan_fingerprint(configured) != plan_fingerprint(paper_plan)

    def test_pickle_bytes_unchanged(self, paper_plan):
        before = pickle.dumps(paper_plan)
        plan_fingerprint(paper_plan)
        assert pickle.dumps(paper_plan) == before
        assert "_fingerprint" not in pickle.loads(before).__dict__

    def test_hash_is_stored_but_never_pickled(self, paper_plan):
        memo = plan_fingerprint(paper_plan)
        plain = tuple(memo)
        assert type(plain) is tuple
        assert memo == plain and plain == memo
        assert hash(memo) == hash(plain)
        assert {plain: 1}[memo] == 1
        # string hashes are salted per process: the stored hash stays
        # behind and a pickle (or copy) carries the plain tuple
        restored = pickle.loads(pickle.dumps(memo))
        assert type(restored) is tuple and restored == plain
        assert type(copy.copy(memo)) is tuple
        assert b"_hash" not in pickle.dumps(memo)

    def test_value_identity_unchanged(self, paper_plan):
        untouched = Plan.from_edges(paper_plan.operators.values(),
                                    paper_plan.edges())
        fields = dataclasses.fields(paper_plan)
        digest = fingerprint(paper_plan)
        text = repr(paper_plan)
        plan_fingerprint(paper_plan)
        assert dataclasses.fields(paper_plan) == fields
        assert "_fingerprint" not in {f.name for f in fields}
        assert paper_plan == untouched and untouched == paper_plan
        assert fingerprint(paper_plan) == digest == fingerprint(untouched)
        assert repr(paper_plan) == text


class TestTopologicalOrderMemo:
    """topological_order memoizes on the plan like plan_fingerprint:
    dropped by every change, never pickled, and each call's list is the
    caller's own."""

    @staticmethod
    def _fresh(plan):
        # a pickle round-trip rebuilds the plan without the memo
        return pickle.loads(pickle.dumps(plan)).topological_order()

    @given(st.lists(
        st.one_of(
            st.tuples(st.just("op"), st.integers(1, 6)),
            st.tuples(st.just("edge"), st.integers(1, 6),
                      st.integers(1, 6)),
        ),
        max_size=20,
    ))
    @settings(max_examples=60, deadline=None)
    def test_memo_tracks_every_change(self, steps):
        plan = Plan()
        for step in steps:
            try:
                if step[0] == "op":
                    plan.add_operator(
                        Operator(step[1], f"op{step[1]}", 1.0, 1.0)
                    )
                else:
                    plan.add_edge(step[1], step[2])
            except PlanError:
                pass  # a rejected change leaves plan and memo as they were
            order = plan.topological_order()
            assert order == self._fresh(plan)
            assert plan._topo_order == tuple(order)

    def test_add_operator_and_add_edge_drop_the_memo(self, chain_plan):
        before = chain_plan.topological_order()
        new_id = max(chain_plan.operators) + 1
        chain_plan.add_operator(Operator(new_id, "late", 1.0, 1.0))
        assert chain_plan._topo_order is None
        assert chain_plan.topological_order() == before + [new_id]
        # a new source feeding the first operator moves ahead of it
        source_id = new_id + 1
        chain_plan.add_operator(Operator(source_id, "src", 1.0, 1.0))
        chain_plan.topological_order()
        chain_plan.add_edge(source_id, before[0])
        assert chain_plan._topo_order is None
        order = chain_plan.topological_order()
        assert order.index(source_id) < order.index(before[0])
        assert order == self._fresh(chain_plan)

    def test_pickle_bytes_unchanged(self, paper_plan):
        before = pickle.dumps(paper_plan)
        paper_plan.topological_order()
        assert paper_plan._topo_order is not None
        assert pickle.dumps(paper_plan) == before
        restored = pickle.loads(before)
        assert "_topo_order" not in restored.__dict__
        assert copy.deepcopy(paper_plan)._topo_order is None

    def test_callers_may_mutate_the_returned_list(self, paper_plan):
        order = paper_plan.topological_order()
        expected = list(order)
        order.reverse()
        order.append(-1)
        again = paper_plan.topological_order()
        assert again == expected
        assert again is not paper_plan.topological_order()
        assert paper_plan.free_operators == [
            op_id for op_id in expected if paper_plan[op_id].free
        ]

    def test_value_identity_unchanged(self, paper_plan):
        text = repr(paper_plan)
        digest = fingerprint(paper_plan)
        paper_plan.topological_order()
        assert "_topo_order" not in {
            f.name for f in dataclasses.fields(paper_plan)
        }
        assert repr(paper_plan) == text
        assert fingerprint(paper_plan) == digest
