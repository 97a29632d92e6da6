"""Units behind the fast engine: the SearchContext search kernel."""

from __future__ import annotations

import pytest

from repro.core import (
    ClusterStats,
    SearchContext,
    collapse_plan,
    enumerate_mat_configs,
    estimate_plan_cost,
    find_best_ft_plan,
    path_cost_failure_free,
)
from repro.core import enumeration as enumeration_module


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

    def test_incremental_collapse_matches_collapse_plan(
        self, paper_plan, stats_hour
    ):
        """Every configuration, visited by Gray-code single-bit flips,
        produces the same collapsed plan as a from-scratch collapse."""
        context = SearchContext(paper_plan, stats_hour)
        seen = []
        for mask in context.iter_masks(order="gray"):
            seen.append(mask)
            config = context.config_for(mask)
            reference = collapse_plan(
                paper_plan.with_mat_config(config),
                const_pipe=stats_hour.const_pipe,
            )
            self._assert_same_collapse(context.build_collapsed(), reference)
        total = 2 ** len(paper_plan.free_operators)
        assert sorted(seen) == list(range(total))  # every mask, once

    def test_scores_match_estimate_plan_cost(self, paper_plan, stats_hour):
        context = SearchContext(paper_plan, stats_hour)
        for mask in context.iter_masks(order="sequential"):
            candidate = paper_plan.with_mat_config(context.config_for(mask))
            estimate = estimate_plan_cost(candidate, stats_hour)
            assert context.dominant_cost() == estimate.cost  # exact
            assert (context.failure_free_dominant()
                    == max(
                        path_cost_failure_free(costs)
                        for costs in _all_path_costs(candidate, stats_hour)
                    ))

    def test_config_for_matches_enumerate_mat_configs(
        self, paper_plan, stats_hour
    ):
        context = SearchContext(paper_plan, stats_hour)
        expected = list(enumerate_mat_configs(paper_plan))
        got = [context.config_for(mask)
               for mask in range(2 ** len(paper_plan.free_operators))]
        assert got == expected

    def test_sequential_order_is_mask_ascending(self, chain_plan, stats_hour):
        context = SearchContext(chain_plan, stats_hour)
        masks = list(context.iter_masks(order="sequential"))
        assert masks == list(range(2 ** len(chain_plan.free_operators)))

    def test_set_mask_bounds(self, chain_plan, stats_hour):
        context = SearchContext(chain_plan, stats_hour)
        with pytest.raises(ValueError):
            context.set_mask(-1)
        with pytest.raises(ValueError):
            context.set_mask(2 ** len(chain_plan.free_operators))

    def test_unknown_iteration_order_rejected(self, chain_plan, stats_hour):
        context = SearchContext(chain_plan, stats_hour)
        with pytest.raises(ValueError):
            list(context.iter_masks(order="random"))


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


def _scores(context):
    """``(R_max, T_max)`` of the context's current configuration."""
    return context.failure_free_dominant(), context.dominant_cost()


def _all_path_costs(plan, stats):
    from repro.core import enumerate_paths, path_total_costs

    collapsed = collapse_plan(plan, const_pipe=stats.const_pipe)
    return [path_total_costs(path) for path in enumerate_paths(collapsed)]


class TestCacheIntrospection:
    """The fast engine's caches must be observable *and* effective."""

    def test_group_cache_takes_hits_during_gray_sweep(
        self, paper_plan, stats_hour
    ):
        context = SearchContext(paper_plan, stats_hour)
        for mask in context.iter_masks():
            context.dominant_cost()
        assert context.group_cache_hits > 0
        assert context.group_cache_misses > 0
        # a Gray sweep revisits group shapes, so the cache must win
        # at least some lookups back
        total = context.group_cache_hits + context.group_cache_misses
        assert context.group_cache_hits / total > 0.2

    def test_runtime_cache_hits_dominate(self, paper_plan, stats_hour):
        context = SearchContext(paper_plan, stats_hour)
        for mask in context.iter_masks():
            context.dominant_cost()
        assert context.runtime_cache_misses > 0
        assert context.runtime_cache_hits > 0
        # distinct t(c) values are few; most lookups must be hits
        assert context.runtime_cache_hits > context.runtime_cache_misses

    def test_incremental_flips_replace_full_collapses(
        self, paper_plan, stats_hour
    ):
        context = SearchContext(paper_plan, stats_hour)
        for mask in context.iter_masks():
            context.dominant_cost()
        free = len(paper_plan.free_operators)
        assert context.full_collapses == 1
        # the Gray sweep covers every remaining mask with single-bit
        # flips (plus at most a couple of repositioning flips)
        assert 2 ** free - 1 <= context.incremental_flips < 2 ** free + 4

    def test_counters_mapping_is_complete(self, paper_plan, stats_hour):
        context = SearchContext(paper_plan, stats_hour)
        for mask in context.iter_masks():
            context.dominant_cost()
        counters = context.counters()
        assert counters["search.collapse.full"] == context.full_collapses
        assert counters["cache.group.hit"] == context.group_cache_hits
        assert counters["cache.group.miss"] == context.group_cache_misses
        assert counters["cache.runtime.hit"] == context.runtime_cache_hits
        assert (counters["cache.runtime.miss"]
                == context.runtime_cache_misses)
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
        masks = list(ctx.iter_masks())
        # park the original mid-scan, with warmed caches
        for mask in masks[: len(masks) // 2]:
            ctx.set_mask(mask)
            _scores(ctx)
        clone = pickle.loads(pickle.dumps(ctx))
        assert type(clone) is SearchContext
        assert clone.mask == ctx.mask
        for mask in masks:
            ctx.set_mask(mask)
            clone.set_mask(mask)
            assert _scores(clone) == _scores(ctx)
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
        kernel.prepare_window(everything)
        for mask in range(everything + 1):
            kernel.window_bound(mask)
            kernel.window_cost()
        clone = pickle.loads(pickle.dumps(kernel))
        assert type(clone) is SearchContext
        assert clone.exact_waste is exact_waste
        for mask in kernel.iter_masks():
            clone.set_mask(mask)
            assert _scores(clone) == _scores(kernel)

    def test_slim_payload_beats_naive_by_5x(self, stats_hour):
        import pickle

        plan = self._deep_chain()
        ctx = SearchContext(plan, stats_hour)
        for mask in ctx.iter_masks():
            _scores(ctx)
        slim = len(pickle.dumps(ctx))
        # the naive payload a __dict__ pickle would ship: every derived
        # cache the full sweep just populated
        naive = len(pickle.dumps(dict(vars(ctx))))
        assert naive >= 5 * slim, (naive, slim)

    def test_getstate_carries_only_inputs(self, paper_plan, stats_hour):
        ctx = SearchContext(paper_plan, stats_hour, exact_waste=True)
        state = ctx.__getstate__()
        assert set(state) == {"plan", "stats", "exact_waste", "mask"}
        assert state["exact_waste"] is True
