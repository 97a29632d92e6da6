"""Fault-tolerant plan enumeration (Listing 1 and Section 3.2).

This module glues the pieces together:

* :func:`enumerate_mat_configs` -- the ``2^n`` materialization
  configurations over a plan's free operators,
* :func:`estimate_plan_cost` -- steps 2-4 of the procedure for one
  fault-tolerant plan ``[P, M_P]`` (collapse, enumerate paths, score them,
  pick the dominant one), and
* :func:`find_best_ft_plan` -- Listing 1: search over candidate plans and
  configurations for the fault-tolerant plan with the cheapest dominant
  path, with the pruning rules of Section 4 wired in.

Two engines implement the search:

* ``engine="fast"`` (the default) runs the sharded scan
  (:func:`repro.core.shard.sharded_search`) for every search.  Each
  plan's (capped) Gray-code configuration space is cut into shards, and
  each shard is scanned by a
  :class:`~repro.core.search_context.SearchContext` -- one validation
  and adjacency precomputation per plan, cached group states, windowed
  dominant-path scoring by dynamic programming -- against a best-cost
  bound shared across shards and plans, so Rule 3 pruning compounds.
  ``parallelism=1`` scans the shards in-process, one after another;
  ``parallelism=N`` dispatches them on a resilient process-pool work
  queue.  It is one algorithm either way, with no separate serial
  engine.
* ``engine="naive"`` is the literal Listing 1 transcription -- a full
  plan rebuild and DAG collapse per configuration.  It is kept as the
  correctness oracle: the engines return bit-identical results
  (``tests/test_property_enumeration.py``, ``tests/test_shard.py``),
  the naive engine is just slower (see ``docs/perf.md`` and the
  ``search-*`` workloads of ``benchmarks/e2e``).

Large plans make the full ``2^n`` space intractable for *any* engine, so
every engine accepts ``config_limit=K``: only the first ``K``
configurations of the Gray sequence are searched.  The subspace is
defined by *membership*, not visit order -- the naive oracle enumerates
the same ``K`` masks in its usual ascending numeric order -- so results
stay bit-identical across engines at any limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .. import obs
from . import cost_model
from .collapse import CollapsedPlan, collapse_plan
from .cost_model import ClusterStats
from .paths import ExecutionPath, enumerate_paths, path_total_costs
from .plan import Plan
from .pruning import (
    DominantPathMemo,
    PruningConfig,
    PruningStats,
    apply_binding_rules,
)
from .shard import (
    _BestKey,
    config_space,
    sharded_search,
    subspace_mask,
    subspace_params,
)

MatConfig = Tuple[Tuple[int, bool], ...]


def enumerate_mat_configs(plan: Plan) -> Iterator[MatConfig]:
    """Yield all materialization configurations over ``plan``'s free ops.

    Configurations are tuples of ``(op_id, materialize)`` pairs covering
    exactly the free operators, enumerated in a stable order: free ids
    ascending, bitmask counting up from all-zeros (no materialization) to
    all-ones (materialize everything).  Bound operators are never touched.
    """
    free_ids = plan.free_operators
    for mask in range(2 ** len(free_ids)):
        yield tuple(
            (op_id, bool(mask >> bit & 1))
            for bit, op_id in enumerate(free_ids)
        )


def count_mat_configs(plan: Plan) -> int:
    """``2^n`` for ``n`` free operators."""
    return 2 ** len(plan.free_operators)


@dataclass(frozen=True)
class PlanCostEstimate:
    """Result of scoring one fault-tolerant plan ``[P, M_P]``.

    Attributes
    ----------
    cost:
        ``T_Pt`` of the dominant path -- the plan's estimated runtime
        under mid-query failures.
    failure_free_cost:
        ``R_Pt`` of the dominant path (no failures).
    dominant_path:
        The dominant execution path (collapsed operators).
    collapsed:
        The collapsed plan the estimate was computed on.
    dominant_costs:
        ``t(c)`` of each collapsed operator along the dominant path --
        the vector Rule 3's memo consumes, threaded through so callers
        never recompute ``path_total_costs(dominant_path)``.
    """

    cost: float
    failure_free_cost: float
    dominant_path: ExecutionPath
    collapsed: CollapsedPlan
    dominant_costs: Tuple[float, ...] = ()


def estimate_plan_cost(
    plan: Plan,
    stats: ClusterStats,
    exact_waste: bool = False,
) -> PlanCostEstimate:
    """Steps 2-4 for one fault-tolerant plan: collapse, score, pick dominant.

    The materialization configuration is read from the plan's ``m(o)``
    flags (apply one with :meth:`Plan.with_mat_config` first).
    """
    collapsed = collapse_plan(plan, const_pipe=stats.const_pipe)
    best: Optional[PlanCostEstimate] = None
    for path in enumerate_paths(collapsed):
        costs = path_total_costs(path)
        total = cost_model.path_cost(costs, stats, exact_waste=exact_waste)
        if best is None or total > best.cost:
            best = PlanCostEstimate(
                cost=total,
                failure_free_cost=cost_model.path_cost_failure_free(costs),
                dominant_path=path,
                collapsed=collapsed,
                dominant_costs=tuple(costs),
            )
    assert best is not None  # a valid plan always has >= 1 path
    return best


@dataclass(frozen=True)
class SearchResult:
    """Outcome of :func:`find_best_ft_plan`."""

    plan: Plan                       #: best plan with ``m(o)`` flags applied
    mat_config: MatConfig            #: the chosen configuration (free ops)
    cost: float                      #: estimated runtime under failures
    estimate: PlanCostEstimate       #: full scoring detail
    pruning: PruningStats            #: search-effort accounting

    @property
    def materialized_ids(self) -> Tuple[int, ...]:
        """Ids of free operators the configuration materializes."""
        return tuple(op_id for op_id, flag in self.mat_config if flag)


# ----------------------------------------------------------------------
# preflight linting: cached import + per-process (plan, stats) memo
# ----------------------------------------------------------------------
_preflight_check: Optional[Callable[..., None]] = None
_PREFLIGHT_SEEN: Set[Any] = set()
_PREFLIGHT_CAPACITY = 4096


def _load_preflight_check() -> Callable[..., None]:
    """Import ``preflight_check`` once per process.

    The import stays inside a function because ``repro.analysis`` imports
    ``repro.core`` (a top-level import here would be circular), but it is
    resolved a single time instead of on every search call.
    """
    global _preflight_check
    if _preflight_check is None:
        from ..analysis.plan_lint import preflight_check

        _preflight_check = preflight_check
    return _preflight_check


class PlanFingerprint(tuple):
    """A plan fingerprint: a plain tuple whose hash is computed once.

    Equal to, and hashing like, the plain ``(operators, edges)`` tuple,
    but every advisory cache probe hashes its key, and CPython does not
    cache tuple hashes, so the nested operator tuples would be rehashed
    on each call.  The stored hash never travels: string hashes are
    salted per process, so pickles and copies carry a plain tuple.
    """

    def __new__(cls, parts: Tuple[Any, Any]) -> "PlanFingerprint":
        self = super().__new__(cls, parts)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> Tuple[Any, ...]:
        return (tuple, (tuple(self),))


def plan_fingerprint(plan: Plan) -> Any:
    """Hashable identity of a plan's operators, flags, costs and edges.

    Two plans with equal fingerprints are interchangeable for every
    search in this module: the fingerprint covers exactly the inputs the
    engines read (operator attributes and the edge set), so it doubles
    as the preflight memo key here and as the plan component of the
    advisory cache key in :mod:`repro.serve`.

    Memoized on the plan (see :class:`~repro.core.plan.Plan`): callers
    that pass the same plan again -- every advisory cache hit, the
    preflight memo, the campaign's baseline key -- get the stored tuple
    back, so their key probes compare it by identity and reuse its
    stored hash (:class:`PlanFingerprint`).
    """
    memo = plan._fingerprint
    if memo is None:
        operators = tuple(
            (
                op.op_id, op.name, op.runtime_cost, op.mat_cost,
                op.materialize, op.free, op.cardinality, op.base_inputs,
                op.state_ckpt_cost,
            )
            for _, op in sorted(plan.operators.items())
        )
        memo = PlanFingerprint((operators, tuple(sorted(plan.edges()))))
        setattr(plan, "_fingerprint", memo)  # shadows the ClassVar None
    return memo


def _preflight_once(plan: Plan, stats: ClusterStats) -> None:
    """Run the preflight lint unless this (plan, stats) pair already passed.

    The memo only remembers *clean* pairs, so a failing plan raises on
    every call.  Capacity-capped: once full the memo resets rather than
    growing without bound (re-linting is cheap relative to the search).
    """
    key = (plan_fingerprint(plan), stats)
    if key in _PREFLIGHT_SEEN:
        return
    _load_preflight_check()(plan, stats)
    if len(_PREFLIGHT_SEEN) >= _PREFLIGHT_CAPACITY:
        _PREFLIGHT_SEEN.clear()
    _PREFLIGHT_SEEN.add(key)


def find_best_ft_plan(
    plans: Iterable[Plan],
    stats: ClusterStats,
    pruning: PruningConfig = PruningConfig.none(),
    exact_waste: bool = False,
    preflight_lint: bool = True,
    engine: str = "fast",
    parallelism: int = 1,
    shards: Optional[int] = None,
    config_limit: Optional[int] = None,
) -> SearchResult:
    """Listing 1: pick the fault-tolerant plan with the cheapest dominant path.

    Parameters
    ----------
    plans:
        Candidate execution plans (e.g. the top-k join orders from the
        first phase of ``enumFTPlans``; a single-element list reproduces
        the paper's per-plan experiments).
    stats:
        Cluster statistics for the cost model.
    pruning:
        Which of the Section 4 rules to apply.  Rule 1 and 2 bind
        operators before configuration enumeration; Rule 3 short-circuits
        scoring against the best dominant cost seen so far, shared
        across *all* candidate plans as suggested in Section 4.3.
    exact_waste:
        Use the exact wasted-runtime integral instead of ``t(c)/2``.
    preflight_lint:
        Statically validate each candidate plan (structure, costs,
        cost-model invariants -- :mod:`repro.analysis.plan_lint`) before
        enumerating its ``2^n`` configurations; raises
        :class:`~repro.analysis.diagnostics.LintError` on error-severity
        findings.  The check runs once per *distinct* ``(plan, stats)``
        pair per process (memoized), so its cost is negligible next to
        the search.
    engine:
        ``"fast"`` (default) or ``"naive"``.  ``"fast"`` always runs the
        sharded scan (:func:`repro.core.shard.sharded_search`), whatever
        ``parallelism`` and ``shards`` are; the naive engine is the
        literal per-config rebuild-and-collapse transcription kept as the
        correctness oracle.  Both return bit-identical results.
    parallelism:
        Scan the shards with ``N`` worker processes (``engine="fast"``
        only).  Workers exchange the best dominant cost through a shared
        bound cell, so Rule 3 keeps compounding across shards and plans;
        the deterministic reduce makes results identical to
        ``parallelism=1``, which scans the same shards in-process.
    shards:
        Partition the (plan x config subspace) space into this many
        shards (``None``: ``4 * parallelism``); more shards than workers
        gives work-queue stealing its granularity.  The shard count never
        changes the result, only how the work is cut.
    config_limit:
        Search only the first ``config_limit`` configurations of each
        plan's Gray sequence (the same subspace in every engine).  Makes
        plans with dozens of free operators tractable; ``None`` (the
        default) searches the full ``2^n`` space.

    Raises
    ------
    ValueError
        If ``plans`` is empty, ``engine`` is unknown, ``parallelism`` /
        ``shards`` / ``config_limit`` are invalid (or parallelism is
        combined with the naive engine), or -- with ``preflight_lint`` --
        when a candidate plan fails validation (``LintError`` is a
        ``ValueError``).
    """
    plan_list = list(plans)
    if not plan_list:
        raise ValueError("no candidate plans supplied")
    if engine not in ("fast", "naive"):
        raise ValueError(f"unknown search engine {engine!r} "
                         "(expected 'fast' or 'naive')")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if shards is not None and shards < 1:
        raise ValueError("shards must be >= 1")
    if config_limit is not None and config_limit < 1:
        raise ValueError("config_limit must be >= 1")
    if engine == "naive" and (parallelism > 1 or shards is not None):
        raise ValueError("parallelism/shards require engine='fast' "
                         "(the naive oracle is single-process)")
    if preflight_lint:
        for plan in plan_list:
            _preflight_once(plan, stats)

    with obs.span("search", engine=engine, plans=len(plan_list),
                  parallelism=parallelism, shards=shards or 1):
        if engine == "naive":
            result = _find_best_naive(
                plan_list, stats, pruning, exact_waste, config_limit
            )
        else:
            best_key, pruning_stats = sharded_search(
                plan_list, stats, pruning, exact_waste=exact_waste,
                parallelism=parallelism, shards=shards,
                config_limit=config_limit,
            )
            result = _rebuild_result(
                plan_list, best_key, stats, pruning, exact_waste,
                pruning_stats,
            )
        _record_search_counters(result.pruning)
    return result


def _record_search_counters(stats: PruningStats) -> None:
    """Fold one search's pruning accounting into the observability layer.

    No-op while observability is disabled.  Counters *accumulate* across
    searches within a recording (e.g. one increment per scheme configure
    in a campaign).
    """
    recorder = obs.get_recorder()
    if recorder is None:
        return
    recorder.add("search.runs")
    recorder.add("search.configs_total", stats.configs_total)
    recorder.add("search.configs_enumerated", stats.configs_enumerated)
    recorder.add("search.configs_pruned", stats.configs_pruned)
    recorder.add("search.paths_estimated", stats.paths_estimated)
    recorder.add("search.rule1.marked", stats.rule1_marked)
    recorder.add("search.rule2.marked", stats.rule2_marked)
    recorder.add("search.rule3.plan_cutoffs", stats.rule3_plan_cutoffs)


def _record_memo_counters(recorder: Optional[Any],
                          memo: DominantPathMemo) -> None:
    """Fold a ``DominantPathMemo``'s effectiveness counters into ``obs``."""
    if recorder is None:
        return
    recorder.add("search.rule3.cheap_skips", memo.cheap_skips)
    recorder.add("search.rule3.dominance_skips", memo.dominance_skips)
    recorder.add("search.rule3.estimated_skips", memo.estimated_skips)
    recorder.add("search.rule3.memo_misses", memo.misses)
    recorder.add("search.rule3.memo_records", memo.records)


# ----------------------------------------------------------------------
# the naive engine (correctness oracle): rebuild + collapse per config
# ----------------------------------------------------------------------
def _subspace_masks(plan: Plan, config_limit: Optional[int]) -> Iterable[int]:
    """The masks a limited search visits, in naive (ascending) order.

    The searched subspace is a windowed Gray sequence
    (:func:`repro.core.shard.subspace_params`) -- the shape the sharded
    scan partitions -- but membership is what defines it: here
    the same masks come back sorted ascending so the naive engine's
    first-wins tie-break remains the lexicographic ``(cost, plan,
    mask)`` minimum all engines share.
    """
    count, shift, pinned = subspace_params(
        len(plan.free_operators), config_limit
    )
    if shift == 0 and pinned == 0:
        return range(count)
    return sorted(
        subspace_mask(position, shift, pinned)
        for position in range(count)
    )


def _find_best_naive(
    plan_list: Sequence[Plan],
    stats: ClusterStats,
    pruning: PruningConfig,
    exact_waste: bool,
    config_limit: Optional[int] = None,
) -> SearchResult:
    pruning_stats = PruningStats()
    memo = DominantPathMemo()
    best: Optional[SearchResult] = None

    for plan_index, plan in enumerate(plan_list):
        with obs.span("search.plan", plan=plan_index, engine="naive"):
            pruning_stats.configs_total += config_space(plan, config_limit)
            pruned_plan = apply_binding_rules(
                plan, stats, pruning, stats_out=pruning_stats
            )

            free_ids = pruned_plan.free_operators
            for mask in _subspace_masks(pruned_plan, config_limit):
                config = tuple(
                    (op_id, bool(mask >> bit & 1))
                    for bit, op_id in enumerate(free_ids)
                )
                pruning_stats.configs_enumerated += 1
                candidate = pruned_plan.with_mat_config(config)
                outcome = _score_with_rule3(
                    candidate, stats, memo,
                    use_rule3=pruning.rule3,
                    exact_waste=exact_waste,
                    pruning_stats=pruning_stats,
                )
                if outcome is None and best is None:
                    # Rule 3 can only cut off the first-ever
                    # configuration when its estimate and bestT are both
                    # infinite (some operator is unrecoverable at this
                    # MTBF); score it in full so the search still
                    # returns the first configuration, exactly like the
                    # fast engine, which never skips before a finite
                    # best exists.
                    outcome = _score_with_rule3(
                        candidate, stats, memo,
                        use_rule3=False,
                        exact_waste=exact_waste,
                        pruning_stats=pruning_stats,
                    )
                if outcome is None:
                    continue  # Rule 3 proved it cannot beat the best
                memo.record_dominant(outcome.dominant_costs, outcome.cost)
                if best is None or outcome.cost < best.cost:
                    best = SearchResult(
                        plan=candidate,
                        mat_config=config,
                        cost=outcome.cost,
                        estimate=outcome,
                        pruning=pruning_stats,
                    )
    _record_memo_counters(obs.get_recorder(), memo)
    assert best is not None
    return best


def _score_with_rule3(
    plan: Plan,
    stats: ClusterStats,
    memo: DominantPathMemo,
    use_rule3: bool,
    exact_waste: bool,
    pruning_stats: PruningStats,
) -> Optional[PlanCostEstimate]:
    """Score one candidate; ``None`` when Rule 3 cuts it off early."""
    collapsed = collapse_plan(plan, const_pipe=stats.const_pipe)
    best: Optional[PlanCostEstimate] = None
    for path in enumerate_paths(collapsed):
        costs = path_total_costs(path)
        if use_rule3:
            decision = memo.should_skip_plan(
                costs, stats, exact_waste=exact_waste
            )
            if decision.estimated is not None:
                pruning_stats.paths_estimated += 1
            if decision.skip:
                pruning_stats.rule3_plan_cutoffs += 1
                return None
            total = decision.estimated
        else:
            total = cost_model.path_cost(costs, stats, exact_waste=exact_waste)
            pruning_stats.paths_estimated += 1
        assert total is not None
        if best is None or total > best.cost:
            best = PlanCostEstimate(
                cost=total,
                failure_free_cost=cost_model.path_cost_failure_free(costs),
                dominant_path=path,
                collapsed=collapsed,
                dominant_costs=tuple(costs),
            )
    return best


# ----------------------------------------------------------------------
# the fast engine's result: re-score the winning key once
# ----------------------------------------------------------------------
def _rebuild_result(
    plan_list: Sequence[Plan],
    best_key: _BestKey,
    stats: ClusterStats,
    pruning: PruningConfig,
    exact_waste: bool,
    pruning_stats: PruningStats,
) -> SearchResult:
    """Reconstruct the winning ``SearchResult`` from its ``(cost, plan,
    mask)`` key by re-scoring just that one configuration through the
    naive pipeline -- the returned estimate (cost, dominant path,
    collapsed plan) is therefore byte-identical to the naive engine's."""
    _, plan_index, mask = best_key
    pruned_plan = apply_binding_rules(plan_list[plan_index], stats, pruning)
    config = tuple(
        (op_id, bool(mask >> bit & 1))
        for bit, op_id in enumerate(pruned_plan.free_operators)
    )
    candidate = pruned_plan.with_mat_config(config)
    estimate = estimate_plan_cost(candidate, stats, exact_waste=exact_waste)
    return SearchResult(
        plan=candidate,
        mat_config=config,
        cost=estimate.cost,
        estimate=estimate,
        pruning=pruning_stats,
    )
