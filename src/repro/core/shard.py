"""Sharded search: the one scan every ``engine="fast"`` search runs.

:func:`find_best_ft_plan` routes every fast search here, serial or
parallel.  This module chops the (join order x Gray-code config
subspace) space into shards: with ``parallelism=1`` they are scanned
in-process, one after another; otherwise there are many more shards
than workers, dispatched over the resilient process pool
(:func:`repro.core.pool.resilient_map`) so a slow shard never idles the
other workers (work stealing by over-partitioning) and a dead worker
only costs its shards a retry.  One algorithm runs per partition.

Two mechanisms make the scan fast and still *bit-identical* to the
naive oracle:

* **The search kernel.**  Each shard is scanned by a
  :class:`~repro.core.search_context.SearchContext` prepared for the
  plan's windowed subspace: it freezes the static-region DP once and
  scores every configuration of the window as a pure function of its
  mask, with exactly the float operations of the naive pipeline -- the
  property suite (``tests/test_shard.py``) pins exact ``==`` equality
  against the naive oracle.

* **Shared best-cost bound.**  A :class:`BoundChannel` carries the best
  dominant cost across shards and plans -- through a
  ``multiprocessing.Value`` double between workers; each shard folds it
  in at shard start and every :data:`BOUND_STRIDE` configurations, so
  late shards inherit early shards' Rule-3 cutoffs instead of
  rediscovering them.  Skips test ``R_max > bound`` *strictly* (ties
  are still scored), so a stale or racy bound can only cost a skip,
  never a result: any skipped configuration is provably worse than the
  final winner, and the reduce below never sees it.

Determinism: each shard returns its best ``(cost, plan, mask)`` key,
and the final reduce takes the lexicographic minimum -- the same total
order the naive engine's first-wins tie-breaking induces -- so the
result is independent of shard boundaries, completion order, worker
count and bound propagation timing.  ``python -m repro sanitize``
replays a sharded search at ``shards=1`` vs ``shards=N`` and diffs
result fingerprints
(:func:`repro.analysis.sanitizer.replay_sharded_search`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..chaos.policy import FaultPolicy
from .cost_model import ClusterStats
from .plan import Plan
from .pool import maybe_crash, resilient_map, worker_state
from .pruning import PruningConfig, PruningStats, apply_binding_rules
from .search_context import SearchContext

#: (cost, plan index, config mask) -- lexicographic minimum reproduces the
#: naive engine's first-wins tie ordering
_BestKey = Tuple[float, int, int]

#: configurations between shared-cell reads inside a shard scan
BOUND_STRIDE = 64

#: default over-partitioning factor: shards per requested worker
SHARDS_PER_WORKER = 4

#: floor on shard size -- below this the per-shard setup (preparing the
#: kernel's window, reading the cell) outweighs the scan itself
MIN_SHARD_CONFIGS = 16


def _gray(index: int) -> int:
    """The ``index``-th Gray code."""
    return index ^ (index >> 1)


# ----------------------------------------------------------------------
# the searched subspace: a windowed Gray sequence
# ----------------------------------------------------------------------
def subspace_params(
    n_free: int, config_limit: Optional[int]
) -> Tuple[int, int, int]:
    """``(count, shift, pinned)`` describing the searched mask set.

    Without a limit the search covers all ``2^n`` masks (``shift=0``,
    ``pinned=0``): position ``i`` maps to plain ``gray(i)``.  With
    ``config_limit = K < 2^n`` the search varies the ``w = ceil(log2 K)``
    *highest* free bits -- the operators nearest the sink, where
    materialization choices interact most -- and pins every deeper free
    operator to materialized (bit set):

        ``mask(i) = (gray(i) << shift) | pinned``

    with ``shift = n - w`` and ``pinned = 2^shift - 1``.  Pinning deep
    operators keeps their groups small, so the subspace has genuine cost
    variation (a prefix over the *low* bits would leave every config
    sharing one giant unmaterialized pipeline and the scan would be
    flat).  The naive oracle enumerates the same set sorted ascending.
    """
    space = 1 << n_free
    if config_limit is None or config_limit >= space:
        return space, 0, 0
    width = max(1, (config_limit - 1).bit_length())
    shift = n_free - width
    return config_limit, shift, (1 << shift) - 1


def subspace_mask(position: int, shift: int, pinned: int) -> int:
    """The mask at ``position`` of a windowed Gray sequence."""
    return (_gray(position) << shift) | pinned


# ----------------------------------------------------------------------
# shards: partitioning, the shared bound, the per-shard scan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One unit of search work: a Gray-sequence range of one plan.

    The shard covers positions ``[start, end)`` of ``plan_index``'s
    windowed Gray sequence (see :func:`subspace_params`): position ``i``
    scans mask ``(gray(i) << shift) | pinned``.  Plain ints: cheap to
    pickle, trivially re-submittable after a worker death.
    """

    index: int        #: global shard number (merge order)
    plan_index: int   #: candidate plan this shard scans
    start: int        #: first Gray-sequence position (inclusive)
    end: int          #: last Gray-sequence position (exclusive)
    shift: int = 0    #: window offset of the searched subspace
    pinned: int = 0   #: mask bits pinned to materialized


@dataclass(frozen=True)
class ShardOutcome:
    """What one shard scan found and how hard it worked."""

    index: int
    best: Optional[_BestKey]
    enumerated: int          #: configurations visited
    scored: int              #: exact scoring DP runs
    bound_skips: int         #: Rule-3 skips against the shared bound
    bound_updates: int       #: strict improvements published to the bound


class BoundChannel:
    """Monotone best-dominant-cost bound, optionally shared across processes.

    ``best`` only ever decreases.  ``refresh`` folds in the shared cell
    (when present); ``publish`` lowers the local bound and propagates
    strict improvements to the cell.  All cell access is lock-guarded, so
    a torn read can never produce a bound lower than any true cost.
    """

    def __init__(self, cell: Optional[Any] = None) -> None:
        self._cell = cell
        self.best = float("inf")
        self.updates = 0

    def refresh(self) -> None:
        if self._cell is None:
            return
        with self._cell.get_lock():
            external = self._cell.value
        if external < self.best:
            self.best = external

    def publish(self, cost: float) -> None:
        if cost >= self.best:
            return
        self.best = cost
        self.updates += 1
        if self._cell is not None:
            with self._cell.get_lock():
                if cost < self._cell.value:
                    self._cell.value = cost


def partition_shards(
    subspaces: Sequence[Tuple[int, int, int]],
    shards: int,
    min_shard: int = MIN_SHARD_CONFIGS,
) -> List[ShardSpec]:
    """Chop per-plan subspaces (``(count, shift, pinned)`` triples, as
    from :func:`subspace_params`) into at most ``shards`` ranges.

    The target size is ``ceil(total / shards)`` floored at ``min_shard``;
    each plan's space is cut independently (a shard never spans plans, so
    a worker's kernel cache stays hot within a shard).  Deterministic in
    its inputs -- the driver and any retry round derive identical specs.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    total = sum(count for count, _, _ in subspaces)
    size = max(min_shard, -(-total // shards))
    specs: List[ShardSpec] = []
    for plan_index, (count, shift, pinned) in enumerate(subspaces):
        start = 0
        while start < count:
            end = min(count, start + size)
            specs.append(ShardSpec(
                index=len(specs), plan_index=plan_index,
                start=start, end=end, shift=shift, pinned=pinned,
            ))
            start = end
    return specs


def scan_shard(
    kernel: SearchContext,
    spec: ShardSpec,
    use_rule3: bool,
    channel: BoundChannel,
    stride: int = BOUND_STRIDE,
) -> ShardOutcome:
    """Scan one Gray-sequence range; return the shard's best key.

    With ``use_rule3``, a configuration whose failure-free dominant
    runtime ``R_max`` strictly exceeds the bound is skipped
    (``T >= R`` per path, so it cannot win); on an exact tie it is still
    scored, so the ``(cost, plan, mask)`` tie-break matches the naive
    engine's first-wins order.  The bound may have been published by
    other shards or workers, but it only ever discards configurations
    strictly worse than the final winner, so the reduced minimum is
    unchanged.
    """
    best: Optional[_BestKey] = None
    enumerated = 0
    bound_skips = 0
    scored = 0
    updates_before = channel.updates
    channel.refresh()
    shift, pinned = spec.shift, spec.pinned
    # freeze the static-region DP tables (cached across shards of the
    # same plan: the window never changes mid-search).  The window
    # scorers' results are pure functions of the mask, so the Gray
    # sequence below is plain int arithmetic; each step flips one bit,
    # and the kernel re-scores only the anchors that bit can reach.
    kernel.prepare_window(((1 << len(kernel.free_ids)) - 1) ^ pinned, pinned)
    for position in range(spec.start, spec.end):
        mask = ((position ^ (position >> 1)) << shift) | pinned
        if position != spec.start and (position - spec.start) % stride == 0:
            channel.refresh()
        enumerated += 1
        r_max = kernel.window_bound(mask)
        if use_rule3:
            bound = channel.best
            if r_max >= bound:
                bound_skips += 1
                if r_max > bound:
                    continue
        total = kernel.window_cost()
        scored += 1
        key = (total, spec.plan_index, mask)
        if best is None or key < best:
            best = key
        channel.publish(total)
    return ShardOutcome(
        index=spec.index,
        best=best,
        enumerated=enumerated,
        scored=scored,
        bound_skips=bound_skips,
        bound_updates=channel.updates - updates_before,
    )


# ----------------------------------------------------------------------
# pool workers (run through repro.core.pool.resilient_map)
# ----------------------------------------------------------------------
def _shard_init(
    plans: Sequence[Plan],
    stats: ClusterStats,
    pruning: PruningConfig,
    exact_waste: bool,
    cell: Any,
) -> Dict[str, Any]:
    # plans arrive Rule 1/2-pruned; kernels persist across shards
    return dict(plans=plans, stats=stats, pruning=pruning,
                exact_waste=exact_waste, channel=BoundChannel(cell),
                kernels={}, folded={})


def _fold_kernel_counters(
    recorder: Any,
    kernel: SearchContext,
    plan_index: int,
    folded: Dict[int, Dict[str, int]],
) -> None:
    """Add the kernel's tallies *since the last fold* to the recorder.

    Worker kernels outlive shards (a worker reuses them across tasks)
    while the worker recorder resets per task, so deltas -- not totals --
    must ship with each snapshot or recycled kernels would double-count.
    """
    current = kernel.counters()
    last = folded.get(plan_index, {})
    for name, value in current.items():
        delta = value - last.get(name, 0)
        if delta:
            recorder.add(name, delta)
    folded[plan_index] = current


def _scan_shard_task(spec: ShardSpec) -> ShardOutcome:
    """Worker-side entry: scan one shard with worker-local state."""
    maybe_crash(spec.index)
    state = worker_state()
    kernels: Dict[int, SearchContext] = state["kernels"]
    kernel = kernels.get(spec.plan_index)
    if kernel is None:
        kernel = kernels[spec.plan_index] = SearchContext(
            state["plans"][spec.plan_index], state["stats"],
            exact_waste=state["exact_waste"],
        )
    outcome = scan_shard(
        kernel, spec, state["pruning"].rule3, state["channel"]
    )
    recorder = obs.get_recorder()
    if recorder is not None:
        _fold_kernel_counters(
            recorder, kernel, spec.plan_index, state["folded"]
        )
    return outcome


def _scan_serial(
    plans: Sequence[Plan],
    stats: ClusterStats,
    pruning: PruningConfig,
    exact_waste: bool,
    specs: Sequence[ShardSpec],
    channel: Optional[BoundChannel] = None,
) -> List[ShardOutcome]:
    """In-process shard scan: the ``parallelism=1`` path and the
    pooled search's in-process fallback (which passes a cell-backed
    channel so bounds published by dead workers still apply).

    Specs are plan-ordered and never span plans, so one kernel is live
    at a time: its counters are folded and it is released as soon as
    the spec list moves on to the next plan.
    """
    if channel is None:
        channel = BoundChannel()
    recorder = obs.get_recorder()
    outcomes: List[ShardOutcome] = []
    for plan_index, plan_specs in groupby(
        specs, key=lambda spec: spec.plan_index
    ):
        kernel = SearchContext(
            plans[plan_index], stats, exact_waste=exact_waste
        )
        for spec in plan_specs:
            outcomes.append(scan_shard(kernel, spec, pruning.rule3, channel))
        if recorder is not None:
            _fold_kernel_counters(recorder, kernel, plan_index, {})
    return outcomes


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def config_space(plan: Plan, config_limit: Optional[int] = None) -> int:
    """``2^n`` capped at ``config_limit`` (the searched subspace size)."""
    space = 1 << len(plan.free_operators)
    if config_limit is not None:
        space = min(space, config_limit)
    return space


def sharded_search(
    plans: Sequence[Plan],
    stats: ClusterStats,
    pruning: PruningConfig,
    exact_waste: bool = False,
    parallelism: int = 1,
    shards: Optional[int] = None,
    config_limit: Optional[int] = None,
    chaos: Optional[FaultPolicy] = None,
) -> Tuple[_BestKey, PruningStats]:
    """Scan every plan's (capped) config space across shards; reduce.

    Rule 1/2 run once per plan *in the parent*, so their ``marked``
    counters are deterministic and every shard scans the same pruned
    plan.  Returns the lexicographically minimal ``(cost, plan, mask)``
    key -- bit-identical to the naive oracle over the same subspace --
    plus the merged :class:`PruningStats` (Rule-3 / estimation counters
    are timing-dependent under ``parallelism > 1``; totals and
    enumerated counts are not).
    """
    plan_list = list(plans)
    if not plan_list:
        raise ValueError("no candidate plans supplied")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if shards is None:
        shards = SHARDS_PER_WORKER * parallelism
    if config_limit is not None and config_limit < 1:
        raise ValueError("config_limit must be >= 1")

    pruning_stats = PruningStats()
    pruned_plans: List[Plan] = []
    subspaces: List[Tuple[int, int, int]] = []
    for plan in plan_list:
        pruning_stats.configs_total += config_space(plan, config_limit)
        pruned = apply_binding_rules(
            plan, stats, pruning, stats_out=pruning_stats
        )
        pruned_plans.append(pruned)
        subspaces.append(
            subspace_params(len(pruned.free_operators), config_limit)
        )
    specs = partition_shards(subspaces, shards)

    recorder = obs.get_recorder()
    with obs.span("search.sharded", plans=len(plan_list),
                  shards=len(specs), parallelism=parallelism):
        workers = min(parallelism, len(specs))
        if workers <= 1:
            outcomes = _scan_serial(
                pruned_plans, stats, pruning, exact_waste, specs
            )
        else:
            import multiprocessing

            # the shared best-cost bound; the in-process fallback reads
            # it too, keeping every bound the dead workers published
            cell = multiprocessing.Value("d", float("inf"))
            outcomes = resilient_map(
                _scan_shard_task, specs, workers,
                fallback=lambda batch: _scan_serial(
                    pruned_plans, stats, pruning, exact_waste, batch,
                    channel=BoundChannel(cell),
                ),
                namespace="search", track="search-shard",
                init=_shard_init,
                initargs=(pruned_plans, stats, pruning, exact_waste, cell),
                chaos=chaos,
            )

    best_key: Optional[_BestKey] = None
    bound_updates = 0
    for outcome in outcomes:  # shard-index order: deterministic merge
        pruning_stats.configs_enumerated += outcome.enumerated
        pruning_stats.paths_estimated += outcome.scored
        pruning_stats.rule3_plan_cutoffs += outcome.bound_skips
        bound_updates += outcome.bound_updates
        if outcome.best is not None and (
            best_key is None or outcome.best < best_key
        ):
            best_key = outcome.best
    if recorder is not None:
        recorder.add("search.shards", len(specs))
        recorder.add("search.bound_updates", bound_updates)
        recorder.add("search.bound_skips", pruning_stats.rule3_plan_cutoffs)
    assert best_key is not None  # every spec scans >= 1 configuration
    return best_key, pruning_stats
