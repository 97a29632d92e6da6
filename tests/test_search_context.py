"""Units behind the fast engine: the SearchContext search kernel."""

from __future__ import annotations

import pytest

from repro.core import (
    ClusterStats,
    Operator,
    Plan,
    SearchContext,
    collapse_plan,
    enumerate_mat_configs,
    estimate_plan_cost,
    find_best_ft_plan,
    path_cost_failure_free,
)
from repro.core import enumeration as enumeration_module
from repro.core.pruning import apply_rule1, apply_rule2


def _plan_variants(paper_plan, stats):
    """``paper_plan`` plus variants that exercise every flag source:
    Rules 1/2 bind some operators to ``m(o) = 0``, one variant binds an
    inner join to ``1``, and one frees a sink (its flag decides only
    ``tm``, never whether it anchors)."""
    from dataclasses import replace

    def rebuilt(op_id, change):
        return Plan.from_edges(
            [
                change(operator) if operator.op_id == op_id else operator
                for operator in paper_plan.operators.values()
            ],
            paper_plan.edges(),
        )

    return [
        paper_plan,
        apply_rule2(apply_rule1(paper_plan, stats.const_pipe), stats),
        rebuilt(3, lambda operator: operator.as_bound(True)),
        rebuilt(7, lambda operator: replace(operator, free=True,
                                               mat_cost=1.5)),
    ]


class TestSearchContext:
    def _assert_same_collapse(self, built, reference):
        assert set(built.groups) == set(reference.groups)
        for anchor, group in reference.groups.items():
            mine = built[anchor]
            assert mine.members == group.members
            assert mine.runtime_cost == group.runtime_cost
            assert mine.mat_cost == group.mat_cost
            assert mine.dominant_path == group.dominant_path
            assert (sorted(built.producers(anchor))
                    == sorted(reference.producers(anchor)))
            assert (sorted(built.consumers(anchor))
                    == sorted(reference.consumers(anchor)))

    def test_collapsed_matches_collapse_plan(self, paper_plan, stats_hour):
        """Every configuration, in Gray order (so consecutive calls hit
        the group cache), produces the same collapsed plan as a
        from-scratch collapse -- also with bound operators."""
        for plan in _plan_variants(paper_plan, stats_hour):
            context = SearchContext(plan, stats_hour)
            total = 1 << len(context.free_ids)
            for index in range(2 * total):  # second pass: all cached
                mask = (index ^ (index >> 1)) % total
                reference = collapse_plan(
                    plan.with_mat_config(context.config_for(mask)),
                    const_pipe=stats_hour.const_pipe,
                )
                self._assert_same_collapse(context.collapsed(mask),
                                           reference)

    def test_scores_match_estimate_plan_cost(self, paper_plan, stats_hour):
        for plan in _plan_variants(paper_plan, stats_hour):
            context = SearchContext(plan, stats_hour)
            for mask in range(1 << len(context.free_ids)):
                candidate = plan.with_mat_config(context.config_for(mask))
                estimate = estimate_plan_cost(candidate, stats_hour)
                r_max, t_max = context.scores(mask)
                assert t_max == estimate.cost  # exact
                assert r_max == max(
                    path_cost_failure_free(costs)
                    for costs in _all_path_costs(candidate, stats_hour)
                )

    def test_config_for_matches_enumerate_mat_configs(
        self, paper_plan, stats_hour
    ):
        context = SearchContext(paper_plan, stats_hour)
        expected = list(enumerate_mat_configs(paper_plan))
        got = [context.config_for(mask)
               for mask in range(2 ** len(paper_plan.free_operators))]
        assert got == expected

    def test_out_of_range_mask_rejected(self, chain_plan, stats_hour):
        context = SearchContext(chain_plan, stats_hour)
        for mask in (-1, 2 ** len(chain_plan.free_operators)):
            with pytest.raises(ValueError):
                context.scores(mask)
            with pytest.raises(ValueError):
                context.collapsed(mask)

    def test_switching_pinned_and_back_rescores_exactly(self, stats_hour):
        """Re-preparing the window for another pinned state, and back,
        scores every configuration exactly like a fresh context.

        Sink 2's whole ancestry (op 1, bit 0) is outside the window, so
        it is a *static* collapsed sink whose group changes with the
        pinned bit -- and its path dominates the plan.
        """
        operators = [
            Operator(1, "a", 50.0, 5.0),
            Operator(2, "sink_a", 40.0, 0.0, materialize=True, free=False),
            Operator(3, "b", 1.0, 1.0),
            Operator(4, "c", 2.0, 1.0),
            Operator(5, "sink_b", 1.0, 0.0, materialize=True, free=False),
        ]
        plan = Plan.from_edges(operators, [(1, 2), (3, 4), (4, 5)])
        expected = [SearchContext(plan, stats_hour).scores(mask)
                    for mask in range(8)]
        assert expected[0] != expected[1]  # the pinned bit matters
        context = SearchContext(plan, stats_hour)
        for pinned in (1, 0, 1):
            context.prepare_window(0b110, pinned)
            for high in range(4):
                mask = (high << 1) | pinned
                r_max = context.window_bound(mask)
                assert (r_max, context.window_cost()) == expected[mask]


class TestPreflightMemo:
    def test_preflight_runs_once_per_plan_and_stats(
        self, paper_plan, stats_hour, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            enumeration_module, "_preflight_check",
            lambda plan, stats: calls.append(1),
        )
        monkeypatch.setattr(
            enumeration_module, "_PREFLIGHT_SEEN", set()
        )
        find_best_ft_plan([paper_plan], stats_hour)
        find_best_ft_plan([paper_plan], stats_hour)
        assert len(calls) == 1
        # a different ClusterStats is a different memo key
        other = ClusterStats(mtbf=stats_hour.mtbf * 2.0)
        find_best_ft_plan([paper_plan], other)
        assert len(calls) == 2


def _all_path_costs(plan, stats):
    from repro.core import enumerate_paths, path_total_costs

    collapsed = collapse_plan(plan, const_pipe=stats.const_pipe)
    return [path_total_costs(path) for path in enumerate_paths(collapsed)]


class TestCacheIntrospection:
    """The fast engine's caches must be observable *and* effective."""

    @staticmethod
    def _swept(plan, stats):
        """A context that scored every configuration in Gray order."""
        context = SearchContext(plan, stats)
        for index in range(1 << len(context.free_ids)):
            context.scores(index ^ (index >> 1))
        return context

    def test_group_cache_takes_hits_during_gray_sweep(
        self, paper_plan, stats_hour
    ):
        context = self._swept(paper_plan, stats_hour)
        assert context.group_cache_hits > 0
        assert context.group_cache_misses > 0
        # a Gray sweep revisits group shapes, so the cache must win
        # at least some lookups back
        total = context.group_cache_hits + context.group_cache_misses
        assert context.group_cache_hits / total > 0.2

    def test_runtime_cache_hits_dominate(self, paper_plan, stats_hour):
        context = self._swept(paper_plan, stats_hour)
        assert context.runtime_cache_misses > 0
        assert context.runtime_cache_hits > 0
        # distinct t(c) values are few; most lookups must be hits
        assert context.runtime_cache_hits > context.runtime_cache_misses

    def test_full_window_is_prepared_once(self, paper_plan, stats_hour):
        context = self._swept(paper_plan, stats_hour)
        assert context.window_preps == 1

    def test_counters_mapping_is_complete(self, paper_plan, stats_hour):
        context = self._swept(paper_plan, stats_hour)
        counters = context.counters()
        assert counters["cache.group.hit"] == context.group_cache_hits
        assert counters["cache.group.miss"] == context.group_cache_misses
        assert counters["cache.runtime.hit"] == context.runtime_cache_hits
        assert (counters["cache.runtime.miss"]
                == context.runtime_cache_misses)
        assert counters["cache.window.preps"] == context.window_preps
        assert all(value >= 0 for value in counters.values())


class TestDominantPathMemoIntrospection:
    def _exercised_memo(self, stats_hour):
        from repro.core.pruning import DominantPathMemo

        memo = DominantPathMemo()
        # seed with a cheap dominant path, then probe strictly worse,
        # dominated, and genuinely cheaper candidates
        memo.record_dominant([5.0, 4.0, 2.0], total_cost=12.0)
        memo.should_skip_plan([50.0, 40.0, 20.0], stats_hour)   # skip
        memo.should_skip_plan([6.0, 5.0, 3.0], stats_hour)      # dominated
        memo.should_skip_plan([1.0, 1.0, 1.0], stats_hour)      # pass
        return memo

    def test_memo_counts_hits_and_misses(self, stats_hour):
        memo = self._exercised_memo(stats_hour)
        assert memo.checks == 3
        assert memo.hits == 2
        assert memo.misses == 1
        assert memo.records == 1
        assert memo.improvements == 1
        assert memo.hit_rate() == pytest.approx(2.0 / 3.0)

    def test_memo_skip_kinds_sum_to_hits(self, stats_hour):
        memo = self._exercised_memo(stats_hour)
        assert memo.hits == (memo.cheap_skips + memo.dominance_skips
                             + memo.estimated_skips)

    def test_rule3_memo_counters_surface_through_obs(
        self, paper_plan, stats_hour
    ):
        from repro import obs
        from repro.core.pruning import PruningConfig

        obs.disable()
        with obs.recording() as recorder:
            # the naive engine drives Rule 3 through the memo's
            # should_skip_plan checks (the fast engine only consumes
            # the scalar bestT bound, counted as rule3.plan_cutoffs)
            find_best_ft_plan([paper_plan], stats_hour,
                              pruning=PruningConfig.only(3),
                              engine="naive")
            counters = dict(recorder.counters)
        obs.disable()
        checks = (counters.get("search.rule3.cheap_skips", 0)
                  + counters.get("search.rule3.dominance_skips", 0)
                  + counters.get("search.rule3.estimated_skips", 0)
                  + counters.get("search.rule3.memo_misses", 0))
        assert checks > 0
        assert counters.get("search.rule3.memo_records", 0) > 0


class TestSearchContextPickle:
    """Slim pickling: contexts travel to pool workers cheaply and
    resume bit-identically (PR 8's shareable-SearchContext contract)."""

    @staticmethod
    def _deep_chain():
        from repro.core.plan import Operator, Plan

        operators = [
            Operator(op_id, f"op{op_id}", 1.0 + 0.25 * op_id,
                     0.5 + 0.125 * op_id)
            for op_id in range(1, 10)
        ] + [Operator(10, "sink", 1.0, 0.0, materialize=True,
                      free=False)]
        edges = [(op_id, op_id + 1) for op_id in range(1, 10)]
        return Plan.from_edges(operators, edges)

    def test_round_trip_resumes_bit_identical(
        self, paper_plan, stats_hour
    ):
        import pickle

        ctx = SearchContext(paper_plan, stats_hour)
        masks = range(1 << len(ctx.free_ids))
        # warm the original's caches on half the space
        for mask in masks[: len(masks) // 2]:
            ctx.scores(mask)
        clone = pickle.loads(pickle.dumps(ctx))
        assert type(clone) is SearchContext
        for mask in masks:
            assert clone.scores(mask) == ctx.scores(mask)
            assert clone.config_for(mask) == ctx.config_for(mask)

    @pytest.mark.parametrize("exact_waste", [False, True])
    def test_shard_kernel_round_trip_preserves_type(
        self, paper_plan, stats_hour, exact_waste
    ):
        """A context warmed by a windowed shard scan round-trips as a
        plain ``SearchContext`` with its cost-model knobs intact."""
        import pickle

        kernel = SearchContext(paper_plan, stats_hour,
                               exact_waste=exact_waste)
        everything = (1 << len(kernel.free_ids)) - 1
        kernel.prepare_window(everything ^ 1, 1)
        for mask in range(1, everything + 1, 2):
            kernel.window_bound(mask)
            kernel.window_cost()
        clone = pickle.loads(pickle.dumps(kernel))
        assert type(clone) is SearchContext
        assert clone.exact_waste is exact_waste
        for mask in range(everything + 1):
            assert clone.scores(mask) == kernel.scores(mask)

    def test_warm_pickle_equals_fresh_pickle(self, stats_hour):
        """A full sweep's caches add nothing to the payload: the pickle
        of a warmed context is byte-identical to a fresh one's."""
        import pickle

        plan = self._deep_chain()
        warm = SearchContext(plan, stats_hour)
        for mask in range(1 << len(warm.free_ids)):
            warm.scores(mask)
            warm.collapsed(mask)
        fresh = SearchContext(plan, stats_hour)
        assert pickle.dumps(warm) == pickle.dumps(fresh)

    def test_getstate_carries_only_inputs(self, paper_plan, stats_hour):
        ctx = SearchContext(paper_plan, stats_hour, exact_waste=True)
        state = ctx.__getstate__()
        assert set(state) == {"plan", "stats", "exact_waste"}
        assert state["exact_waste"] is True
