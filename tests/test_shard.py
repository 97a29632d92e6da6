"""Property suite for the sharded large-DAG search (``repro.core.shard``).

Every ``engine="fast"`` search runs the sharded scan, a performance
implementation certified against the naive oracle.  All equality here
is exact ``==`` on the ``(cost, plan, mask)`` key -- the search kernel
changes *where* numbers come from, never *which* float operations
compute them, so any ulp of drift is a bug.

Covered:

* windowed subspace parameterization (``subspace_params`` /
  ``subspace_mask``) -- the capped Gray sequences shards scan;
* kernel scoring bit-identity against the naive
  ``estimate_plan_cost(plan.with_mat_config(...))`` per configuration;
* sharded == naive across shard counts, worker counts, DAG sizes,
  pruning configs and config limits, and ``parallelism=1`` routing
  through the shards;
* resilience: crashing workers (chaos ``WorkerCrashes``) degrade to
  retries and finally the in-process serial path, same answer;
* bound propagation observability: a large DAG in a rare-failure
  regime must produce nonzero ``search.bound_skips``.
"""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.chaos import FaultPolicy, WorkerCrashes
from repro.core import pool
from repro.core.collapse import collapse_plan
from repro.core.cost_model import ClusterStats, path_cost_failure_free
from repro.core.enumeration import (
    _find_best_naive,
    estimate_plan_cost,
    find_best_ft_plan,
    plan_fingerprint,
)
from repro.core.paths import enumerate_paths, path_total_costs
from repro.core.plan import Operator, Plan
from repro.core.pruning import PruningConfig
from repro.core.search_context import SearchContext
from repro.core.shard import (
    BoundChannel,
    partition_shards,
    sharded_search,
    subspace_mask,
    subspace_params,
)
from repro.joinorder.synthetic import (
    SyntheticSpec,
    scaling_specs,
    synthetic_plan,
)


def _plan(n_joins: int, seed: int):
    return synthetic_plan(SyntheticSpec(n_joins=n_joins, seed=seed))


def _base_runtime(plan) -> float:
    return sum(op.runtime_cost for op in plan.operators.values())


def _rare_failure_stats(plan) -> ClusterStats:
    """MTBF far above the plan runtime: mat-free optima, deep pruning."""
    base = _base_runtime(plan)
    return ClusterStats(mtbf=base * 20.0, mttr=base * 0.1, const_pipe=0.9)


def _frequent_failure_stats(plan) -> ClusterStats:
    base = _base_runtime(plan)
    return ClusterStats(mtbf=base / 5.0, mttr=base * 0.05, const_pipe=0.85)


def _result_key(result, plan_index: int = 0):
    """``SearchResult`` -> the sharded engine's ``(cost, plan, mask)``."""
    mask = 0
    for bit, (_op, flag) in enumerate(result.mat_config):
        if flag:
            mask |= 1 << bit
    return (result.cost, plan_index, mask)


def _naive_scores(plan, stats, mask):
    """``(R_max, T_max)`` of one configuration, from the naive pipeline."""
    free_ids = plan.free_operators
    candidate = plan.with_mat_config(tuple(
        (op_id, bool(mask >> bit & 1)) for bit, op_id in enumerate(free_ids)
    ))
    collapsed = collapse_plan(candidate, const_pipe=stats.const_pipe)
    r_max = max(
        path_cost_failure_free(path_total_costs(path))
        for path in enumerate_paths(collapsed)
    )
    return r_max, estimate_plan_cost(candidate, stats).cost


# ----------------------------------------------------------------------
# subspace parameterization
# ----------------------------------------------------------------------
class TestSubspaceParams:
    def test_uncapped_covers_full_space(self):
        count, shift, pinned = subspace_params(6, None)
        assert (count, shift, pinned) == (64, 0, 0)
        masks = {subspace_mask(i, shift, pinned) for i in range(count)}
        assert masks == set(range(64))

    def test_limit_at_or_above_space_is_uncapped(self):
        assert subspace_params(4, 16) == subspace_params(4, None)
        assert subspace_params(4, 1000) == subspace_params(4, None)

    def test_limit_one_pins_everything(self):
        count, shift, pinned = subspace_params(5, 1)
        assert count == 1
        # the window keeps at least one free bit; the rest are pinned
        # materialized, matching the naive engine's capped enumeration
        assert shift == 4
        assert pinned == 0b1111
        assert subspace_mask(0, shift, pinned) == 0b01111

    def test_window_spans_highest_bits(self):
        count, shift, pinned = subspace_params(10, 100)
        # ceil(log2(100)) = 7 window bits over the top of 10
        assert count == 100
        assert shift == 3
        assert pinned == 0b111
        masks = [subspace_mask(i, shift, pinned) for i in range(count)]
        assert len(set(masks)) == count
        for mask in masks:
            assert mask & pinned == pinned  # deep ops stay materialized

    def test_gray_sequence_flips_one_bit(self):
        count, shift, pinned = subspace_params(8, 64)
        previous = subspace_mask(0, shift, pinned)
        for i in range(1, count):
            current = subspace_mask(i, shift, pinned)
            assert bin(previous ^ current).count("1") == 1
            previous = current

    def test_zero_free_operators(self):
        count, shift, pinned = subspace_params(0, None)
        assert (count, shift, pinned) == (1, 0, 0)


# ----------------------------------------------------------------------
# shard partitioning
# ----------------------------------------------------------------------
class TestPartitionShards:
    def test_covers_every_position_once(self):
        subspaces = [(100, 0, 0), (37, 2, 3)]
        specs = partition_shards(subspaces, shards=8)
        for plan_index, (count, shift, pinned) in enumerate(subspaces):
            ranges = sorted(
                (s.start, s.end) for s in specs
                if s.plan_index == plan_index
            )
            covered = []
            for start, end in ranges:
                assert start < end
                covered.extend(range(start, end))
            assert covered == list(range(count))
            for spec in specs:
                if spec.plan_index == plan_index:
                    assert (spec.shift, spec.pinned) == (shift, pinned)

    def test_never_spans_plans_and_indices_are_sequential(self):
        specs = partition_shards([(64, 0, 0), (64, 0, 0)], shards=6)
        assert [s.index for s in specs] == list(range(len(specs)))

    def test_min_shard_floors_granularity(self):
        specs = partition_shards([(64, 0, 0)], shards=64, min_shard=16)
        assert len(specs) == 4
        assert all(s.end - s.start == 16 for s in specs)

    def test_deterministic(self):
        subspaces = [(1000, 1, 1), (321, 0, 0)]
        assert partition_shards(subspaces, 7) == \
            partition_shards(subspaces, 7)

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            partition_shards([(8, 0, 0)], shards=0)


# ----------------------------------------------------------------------
# the shared best-cost bound
# ----------------------------------------------------------------------
class TestBoundChannel:
    def test_local_monotone_decrease(self):
        channel = BoundChannel()
        channel.publish(10.0)
        channel.publish(12.0)  # worse: ignored
        assert channel.best == 10.0
        assert channel.updates == 1
        channel.publish(4.0)
        assert channel.best == 4.0
        assert channel.updates == 2

    def test_refresh_without_cell_is_noop(self):
        channel = BoundChannel()
        channel.refresh()
        assert channel.best == float("inf")

    def test_cell_propagation_and_refresh(self):
        cell = multiprocessing.Value("d", float("inf"))
        writer = BoundChannel(cell)
        reader = BoundChannel(cell)
        writer.publish(7.0)
        assert cell.value == 7.0
        reader.refresh()
        assert reader.best == 7.0
        # an externally lowered cell wins on refresh...
        with cell.get_lock():
            cell.value = 3.0
        writer.refresh()
        assert writer.best == 3.0
        # ...and a worse publish does not raise it back
        writer.publish(5.0)
        assert cell.value == 3.0


# ----------------------------------------------------------------------
# kernel scoring bit-identity vs the naive oracle
# ----------------------------------------------------------------------
class TestKernelBitIdentity:
    @pytest.fixture(scope="class")
    def setup(self):
        plan = _plan(10, seed=7)
        stats = _rare_failure_stats(plan)
        return plan, stats, SearchContext(plan, stats)

    def test_cheap_bounds_match_failure_free_dominant(self, setup):
        plan, stats, kernel = setup
        for mask in (0, 1, 0b1010, 0b1111111111, 0b0101010101):
            assert kernel.scores(mask) == _naive_scores(plan, stats, mask)

    def test_window_scorers_match_reference_per_mask(self, setup):
        plan, stats, kernel = setup
        n = len(plan.free_operators)
        kernel.prepare_window((1 << n) - 1, 0)
        # a windowed Gray walk plus arbitrary probes: the scorers are
        # pure functions of the mask
        probes = [i ^ (i >> 1) for i in range(64)]
        probes += [0, (1 << n) - 1, 0b1100110011 % (1 << n)]
        for mask in probes:
            r_max = kernel.window_bound(mask)
            total = kernel.window_cost()
            assert (r_max, total) == _naive_scores(plan, stats, mask)

    def test_windowed_subspace_matches_reference(self, setup):
        plan, stats, kernel = setup
        n = len(plan.free_operators)
        count, shift, pinned = subspace_params(n, 32)
        kernel.prepare_window(((1 << n) - 1) ^ pinned, pinned)
        for i in range(count):
            mask = subspace_mask(i, shift, pinned)
            r_max = kernel.window_bound(mask)
            assert (r_max, kernel.window_cost()) \
                == _naive_scores(plan, stats, mask)

    def test_scorers_need_a_prepared_window(self):
        plan = _plan(8, seed=1)
        kernel = SearchContext(plan, _rare_failure_stats(plan))
        with pytest.raises(RuntimeError):
            kernel.window_bound(0)
        with pytest.raises(RuntimeError):
            kernel.window_cost()


# ----------------------------------------------------------------------
# delta scoring: any call sequence scores like a fresh context
# ----------------------------------------------------------------------
class _References:
    """One plan's per-mask references: the naive pipeline (memoized per
    mask) and a fresh context prepared for the same window."""

    def __init__(self, plan, stats):
        self.plan = plan
        self.stats = stats
        self._naive = {}

    def naive(self, mask):
        if mask not in self._naive:
            self._naive[mask] = _naive_scores(self.plan, self.stats, mask)
        return self._naive[mask]

    def fresh(self, window, pinned, mask):
        context = SearchContext(self.plan, self.stats)
        context.prepare_window(window, pinned)
        r_max = context.window_bound(mask)
        return r_max, context.window_cost()


def _drive(kernel, references, steps):
    """Run ``("window", window, pinned)``, ``("bound", mask)`` and
    ``("cost",)`` steps on one kernel; every bound and cost must equal
    the naive pipeline's and a fresh context's, exactly."""
    window = pinned = bounded = None
    for step in steps:
        if step[0] == "window":
            if step[1:] != (window, pinned):
                bounded = None  # a new window resets the memo
            _, window, pinned = step
            kernel.prepare_window(window, pinned)
        elif step[0] == "bound":
            bounded = step[1]
            assert kernel.window_bound(bounded) \
                == references.naive(bounded)[0], step
        elif bounded is None:
            with pytest.raises(RuntimeError):
                kernel.window_cost()
        else:
            got = (kernel.window_bound(bounded), kernel.window_cost())
            assert got == references.naive(bounded), bounded
            assert got == references.fresh(window, pinned, bounded)


class TestDeltaScoring:
    """The window scorers keep a memo of the last bounded and costed
    masks and re-score only the anchors a changed bit can reach; no call
    order may change a result."""

    @pytest.fixture(scope="class")
    def setup(self):
        plan = _plan(10, seed=7)
        stats = _rare_failure_stats(plan)
        return plan, _References(plan, stats)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_sequences_with_repeats_and_jumps(self, setup, seed):
        import random

        plan, references = setup
        rng = random.Random(seed)
        n = len(plan.free_operators)
        full = (1 << n) - 1
        steps = [("window", full, 0)]
        mask = rng.getrandbits(n)
        for _ in range(250):
            kind = rng.random()
            if kind < 0.15:
                pass  # the same mask again
            elif kind < 0.55:
                mask ^= 1 << rng.randrange(n)  # a Gray-like step
            else:
                mask = rng.getrandbits(n)  # a multi-bit jump
            steps.append(("bound", mask))
            if rng.random() < 0.6:
                steps.append(("cost",))
            if rng.random() < 0.05:
                steps.append(("cost",))  # a second cost of one bound
        _drive(SearchContext(plan, references.stats), references, steps)

    def test_gray_runs_start_mid_sequence(self, setup):
        """Shards of one plan reuse one kernel, each starting where
        another shard's Gray range left the memo."""
        plan, references = setup
        n = len(plan.free_operators)
        count, shift, pinned = subspace_params(n, 64)
        specs = partition_shards([(count, shift, pinned)], shards=5,
                                 min_shard=1)
        assert len(specs) == 5
        window = ((1 << n) - 1) ^ pinned
        steps = []
        for spec in (specs[3], specs[0], specs[4], specs[1], specs[2]):
            steps.append(("window", window, pinned))  # idempotent
            for position in range(spec.start, spec.end):
                steps += [("bound", subspace_mask(position, shift, pinned)),
                          ("cost",)]
        _drive(SearchContext(plan, references.stats), references, steps)

    @pytest.mark.parametrize("every", [2, 5, 17])
    def test_bounds_without_cost_are_caught_up(self, setup, every):
        """Rule 3 skips bound a run of masks without costing them; the
        next cost re-scores from the last *costed* mask."""
        plan, references = setup
        n = len(plan.free_operators)
        steps = [("window", (1 << n) - 1, 0)]
        for index in range(1, 200):
            steps.append(("bound", index ^ (index >> 1)))
            if index % every == 0:
                steps.append(("cost",))
        _drive(SearchContext(plan, references.stats), references, steps)

    @pytest.mark.parametrize("prefixes", ["_prefix_ff", "_prefix_t"])
    def test_pass_cut_short_by_an_error(self, setup, prefixes):
        """A bound or cost pass that raises half-way has already
        overwritten some prefixes; the next pass must re-score from
        scratch, not from the state before the failed one.  Each step
        flips one bit of the last mask that scored, so a step after a
        failure often agrees with that mask on the failed step's bit."""
        import random

        plan, references = setup
        kernel = SearchContext(plan, references.stats)
        n = len(plan.free_operators)
        kernel.prepare_window((1 << n) - 1, 0)
        rng = random.Random(3)

        class Failing(dict):
            def __setitem__(self, key, value):
                if rng.random() < 0.1:
                    raise MemoryError("injected")
                super().__setitem__(key, value)

        setattr(kernel, prefixes, Failing(getattr(kernel, prefixes)))
        last = failures = 0
        for _ in range(400):
            mask = last ^ (1 << rng.randrange(n))
            try:
                got = (kernel.window_bound(mask), kernel.window_cost())
            except MemoryError:
                failures += 1
                continue
            assert got == references.naive(mask), mask
            last = mask
        assert failures

    def test_window_switch_mid_run(self, setup):
        plan, references = setup
        n = len(plan.free_operators)
        full = (1 << n) - 1
        count, shift, pinned = subspace_params(n, 16)
        high = full ^ pinned
        steps = [("window", full, 0)]
        for index in range(20):
            steps += [("bound", index ^ (index >> 1)), ("cost",)]
        steps.append(("bound", 0b1011))  # bounded, never costed
        steps += [("window", high, pinned), ("cost",)]  # needs a bound
        for position in range(count):
            steps.append(("bound", subspace_mask(position, shift, pinned)))
            if position % 3 == 0:
                steps.append(("cost",))
        steps += [("window", full, 0), ("bound", 7), ("cost",),
                  ("bound", 6), ("window", high, 0), ("bound", high),
                  ("cost",), ("bound", 1 << (n - 1)), ("cost",)]
        _drive(SearchContext(plan, references.stats), references, steps)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_dags_and_call_orders(self, data):
        plan = data.draw(_random_dags())
        stats = ClusterStats(
            mtbf=data.draw(st.sampled_from([30.0, 400.0, 1e5])),
            mttr=1.0,
            const_pipe=data.draw(st.sampled_from([0.8, 1.0])),
        )
        references = _References(plan, stats)
        full = (1 << len(plan.free_operators)) - 1
        window, pinned = full, 0
        steps = [("window", window, pinned)]
        for kind, raw in data.draw(st.lists(
            st.tuples(st.sampled_from(["bound", "bound", "cost", "window"]),
                      st.integers(0, 255)),
            max_size=30,
        )):
            if kind == "window":
                window = raw & full
                pinned = data.draw(st.integers(0, 255)) & full & ~window
                steps.append(("window", window, pinned))
            elif kind == "bound":
                steps.append(("bound", (raw & window) | pinned))
            else:
                steps.append(("cost",))
        _drive(SearchContext(plan, stats), references, steps)


@st.composite
def _random_dags(draw):
    """Small DAGs mixing free and bound operators, several sources and
    often several sinks."""
    size = draw(st.integers(2, 8))
    operators = []
    for op_id in range(1, size + 1):
        free = draw(st.integers(0, 3)) > 0
        operators.append(Operator(
            op_id, f"op{op_id}",
            draw(st.floats(0.5, 200.0)), draw(st.floats(0.0, 50.0)),
            materialize=False if free else draw(st.booleans()),
            free=free,
        ))
    edges = []
    for consumer in range(2, size + 1):
        producers = draw(st.lists(st.integers(1, consumer - 1),
                                  max_size=min(3, consumer - 1),
                                  unique=True))
        edges += [(producer, consumer) for producer in producers]
    return Plan.from_edges(operators, edges)


class TestDeltaScoringWork:
    """Delta scoring changes how many anchors a scan visits, never which
    group states or ``T(c)`` values it builds: the misses and the search
    counters below were measured with the scorer that re-walked every
    volatile anchor for every mask, and must stay exactly as they were."""

    @staticmethod
    def _q5_plans():
        import itertools

        from repro.joinorder import (
            enumerate_join_trees,
            q5_join_graph,
            tree_to_plan,
        )
        from repro.stats.calibration import default_parameters

        graph = q5_join_graph(100.0)
        params = default_parameters()
        return [tree_to_plan(tree, graph, params) for tree in
                itertools.islice(enumerate_join_trees(graph), 60)]

    @staticmethod
    def _counters(plans, stats, pruning, limit):
        with obs.recording() as recorder:
            find_best_ft_plan(plans, stats, pruning=pruning,
                              parallelism=1, config_limit=limit)
        return recorder.counters

    # (group misses, T(c) misses, configs, paths estimated, Rule 3 cuts)
    @pytest.mark.parametrize("case,expected", [
        ("q5-all", (616, 480, 544, 544, 0)),
        ("q5-none", (1500, 1020, 1920, 1920, 0)),
        ("n40-rare", (255, 57, 2048, 456, 2045)),
        ("n100", (868, 153, 16384, 16384, 0)),
    ])
    def test_builds_and_search_counters_unchanged(self, case, expected):
        if case.startswith("q5"):
            plans = self._q5_plans()
            stats = ClusterStats(mtbf=3600.0, mttr=1.0, nodes=10)
            pruning = (PruningConfig.all() if case == "q5-all"
                       else PruningConfig.none())
            limit = None
        else:
            plan = (_plan(40, seed=40) if case == "n40-rare"
                    else synthetic_plan(scaling_specs((100,))[0]))
            plans, stats = [plan], _rare_failure_stats(plan)
            pruning = PruningConfig.all()
            limit = 2048 if case == "n40-rare" else 16384
        counters = self._counters(plans, stats, pruning, limit)
        assert (
            counters["cache.group.miss"],
            counters["cache.runtime.miss"],
            counters["search.configs_enumerated"],
            counters["search.paths_estimated"],
            counters.get("search.rule3.plan_cutoffs", 0),
        ) == expected
        if case == "n100":
            # the full re-walk visited 131,157 anchors on this search;
            # a Gray step reaches about a third of them
            visits = (counters["cache.group.hit"]
                      + counters["cache.group.miss"])
            assert 2 * visits < 131_157


# ----------------------------------------------------------------------
# the headline property: sharded == naive
# ----------------------------------------------------------------------
class TestShardedEqualsSerial:
    PRUNINGS = [
        ("none", PruningConfig(rule1=False, rule2=False, rule3=False)),
        ("rule3", PruningConfig(rule1=False, rule2=False, rule3=True)),
        ("all", PruningConfig.all()),
    ]

    @pytest.mark.parametrize("pruning_name,pruning",
                             PRUNINGS, ids=[p[0] for p in PRUNINGS])
    @pytest.mark.parametrize("n_joins,seed", [(10, 3), (12, 5)])
    def test_serial_shards_match_both_references(
        self, n_joins, seed, pruning_name, pruning
    ):
        plan = _plan(n_joins, seed)
        for stats in (_rare_failure_stats(plan),
                      _frequent_failure_stats(plan)):
            for limit in (1, 7, 100, None):
                naive = _find_best_naive([plan], stats, pruning, False,
                                         config_limit=limit)
                fast = find_best_ft_plan([plan], stats, pruning=pruning,
                                         config_limit=limit)
                assert _result_key(naive) == _result_key(fast)
                for shards in (1, 3, 8):
                    key, _stats_out = sharded_search(
                        [plan], stats, pruning,
                        shards=shards, config_limit=limit,
                    )
                    assert key == _result_key(naive), (
                        f"shards={shards} limit={limit} "
                        f"pruning={pruning_name}"
                    )

    def test_worker_pool_matches_serial(self):
        # plus the two smallest scaling_specs ladder plans at a
        # 2048-config cap; the naive oracle certifies n <= 20
        cases = [(_plan(12, seed=5), 1024)] + [
            (synthetic_plan(spec), 2048) for spec in scaling_specs((20, 40))
        ]
        pruning = PruningConfig.all()
        for plan, limit in cases:
            stats = _rare_failure_stats(plan)
            fast = find_best_ft_plan([plan], stats, pruning=pruning,
                                     config_limit=limit)
            key, _ = sharded_search(
                [plan], stats, pruning,
                parallelism=2, shards=6, config_limit=limit,
            )
            assert key == _result_key(fast)
            if len(plan.free_operators) <= 20:
                naive = _find_best_naive([plan], stats, pruning, False,
                                         config_limit=limit)
                assert key == _result_key(naive)

    def test_multi_plan_tie_ordering(self):
        # identical plans tie on cost; the reduce must prefer the lower
        # plan index, exactly like the naive engine's first-wins scan
        plan = _plan(8, seed=2)
        stats = _rare_failure_stats(plan)
        pruning = PruningConfig.none()
        key, _ = sharded_search([plan, plan], stats, pruning, shards=5)
        naive = _find_best_naive([plan, plan], stats, pruning, False)
        assert key == _result_key(naive)
        assert key[1] == 0

    def test_find_best_ft_plan_routes_to_sharded(self):
        plan = _plan(10, seed=3)
        stats = _rare_failure_stats(plan)
        serial = find_best_ft_plan([plan], stats,
                                   pruning=PruningConfig.all())
        sharded = find_best_ft_plan([plan], stats,
                                    pruning=PruningConfig.all(),
                                    shards=4)
        assert sharded.cost == serial.cost
        assert sharded.mat_config == serial.mat_config

    def test_serial_search_runs_the_shard_kernel(self):
        # parallelism=1 has no separate engine: it scans shards in-process,
        # and the shard count changes neither the answer nor the
        # deterministic accounting
        plans = [_plan(10, seed=3), _plan(10, seed=4)]
        stats = _rare_failure_stats(plans[0])
        pruning = PruningConfig.all()
        with obs.recording() as recorder:
            default = find_best_ft_plan(plans, stats, pruning=pruning,
                                        parallelism=1)
        assert recorder.counters.get("search.shards", 0) >= 1
        eight = find_best_ft_plan(plans, stats, pruning=pruning,
                                  parallelism=1, shards=8)
        assert (default.cost, default.mat_config) \
            == (eight.cost, eight.mat_config)
        assert plan_fingerprint(default.plan) == plan_fingerprint(eight.plan)
        for field in ("configs_total", "configs_enumerated",
                      "rule1_marked", "rule2_marked"):
            assert getattr(default.pruning, field) \
                == getattr(eight.pruning, field), field

    def test_argument_validation(self):
        plan = _plan(8, seed=2)
        stats = _rare_failure_stats(plan)
        with pytest.raises(ValueError):
            sharded_search([], stats, PruningConfig.none())
        with pytest.raises(ValueError):
            sharded_search([plan], stats, PruningConfig.none(),
                           parallelism=0)
        with pytest.raises(ValueError):
            sharded_search([plan], stats, PruningConfig.none(),
                           config_limit=0)
        with pytest.raises(ValueError):
            find_best_ft_plan([plan], stats, engine="naive",
                              parallelism=2)
        with pytest.raises(ValueError):
            find_best_ft_plan([plan], stats, engine="naive", shards=4)


# ----------------------------------------------------------------------
# resilience: crashing workers
# ----------------------------------------------------------------------
class TestWorkerCrashResilience:
    @pytest.fixture(autouse=True)
    def _no_backoff(self, monkeypatch):
        monkeypatch.setattr(pool, "RETRY_BACKOFF", 0.0)
        monkeypatch.setattr(pool, "MAX_RETRIES", 1)

    def _search(self, chaos):
        plan = _plan(10, seed=3)
        stats = _rare_failure_stats(plan)
        pruning = PruningConfig.all()
        expected = _result_key(
            find_best_ft_plan([plan], stats, pruning=pruning,
                              config_limit=256)
        )
        key, _ = sharded_search(
            [plan], stats, pruning,
            parallelism=2, shards=4, config_limit=256,
            chaos=chaos,
        )
        assert key == expected

    def test_intermittent_crashes_retry_to_same_answer(self, monkeypatch):
        monkeypatch.setattr(pool, "MAX_RETRIES", 3)
        chaos = FaultPolicy(seed=13,
                            worker_crashes=WorkerCrashes(rate=0.5))
        self._search(chaos)

    def test_total_crash_falls_back_to_serial(self):
        # every worker dies every round: retries exhaust and the driver
        # must finish in-process, not hang or surface BrokenProcessPool
        chaos = FaultPolicy(seed=7,
                            worker_crashes=WorkerCrashes(rate=1.0))
        self._search(chaos)

    def test_fallback_is_counted(self):
        plan = _plan(8, seed=2)
        stats = _rare_failure_stats(plan)
        chaos = FaultPolicy(seed=7,
                            worker_crashes=WorkerCrashes(rate=1.0))
        with obs.recording() as recorder:
            sharded_search([plan], stats, PruningConfig.all(),
                           parallelism=2, shards=4, config_limit=64,
                           chaos=chaos)
        counters = recorder.counters
        assert counters.get("search.retries", 0) >= 1
        # every shard still pending when retries exhausted is counted
        assert 1 <= counters.get("search.serial_fallbacks", 0) <= 4


@pytest.mark.usefixtures("spawn_pool")
class TestWorkerCrashResilienceSpawn(TestWorkerCrashResilience):
    """The same crashes with workers started by ``spawn``."""


# ----------------------------------------------------------------------
# observability: bound propagation on a large DAG
# ----------------------------------------------------------------------
class TestBoundPropagation:
    def test_large_dag_produces_bound_skips(self):
        plan = _plan(40, seed=40)
        stats = _rare_failure_stats(plan)
        with obs.recording() as recorder:
            key, stats_out = sharded_search(
                [plan], stats, PruningConfig.all(),
                shards=4, config_limit=2048,
            )
        counters = recorder.counters
        assert counters["search.shards"] == 4
        assert counters["search.bound_skips"] > 0
        assert counters["search.bound_updates"] >= 1
        assert stats_out.rule3_plan_cutoffs == \
            counters["search.bound_skips"]
        # the skips are real work avoided: strictly fewer exact scores
        # than enumerated configurations
        assert stats_out.paths_estimated < stats_out.configs_enumerated
        assert key is not None

    def test_exhaustive_mode_never_skips(self):
        plan = _plan(12, seed=5)
        stats = _rare_failure_stats(plan)
        with obs.recording() as recorder:
            _key, stats_out = sharded_search(
                [plan], stats,
                PruningConfig(rule1=True, rule2=True, rule3=False),
                shards=4, config_limit=512,
            )
        assert recorder.counters.get("search.bound_skips", 0) == 0
        assert stats_out.paths_estimated == stats_out.configs_enumerated
