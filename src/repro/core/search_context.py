"""The search kernel: incremental per-plan state for configuration scans.

The naive search (``find_best_ft_plan``'s ``engine="naive"`` path)
rebuilds a full :class:`~repro.core.plan.Plan` via ``with_mat_config``
for every one of the ``2^n`` configurations -- re-running the cycle check
per edge -- and then re-collapses the whole DAG from scratch.  This
module holds the per-plan state that makes the sweep cheap instead.  It
is the only fast implementation: every ``engine="fast"`` search, serial
or parallel, scans its shards through a :class:`SearchContext`
(:func:`repro.core.shard.scan_shard`).

* **validate once** -- plan validation, topological order,
  producer/consumer adjacency, the free-operator index and every
  operator's free-ancestor bitmask are computed a single time;
* **bitmask configs** -- a configuration is an integer mask over
  ``free_ids``; no plan copies are made during the sweep;
* **incremental collapse** -- flipping one operator recomputes only the
  collapsed groups whose membership can change.  Group states are cached
  per anchor under an int key (the flags of the anchor's free strict
  ancestors -- the only flags its member BFS can read -- plus its own
  flag), and membership, the collapsed topological order and the
  inner-anchor set are maintained by deltas;
* **exact scoring by DP** -- the dominant-path cost is a longest-path
  dynamic program over the collapsed DAG instead of enumerating every
  source-to-sink path;
* **windowed scoring** -- a windowed Gray scan only ever flips the
  ``w`` operators nearest the sink, so :meth:`SearchContext.prepare_window`
  freezes the DP over the static region once, and
  :meth:`~SearchContext.window_bound` / :meth:`~SearchContext.window_cost`
  score any configuration of the window as pure functions of its mask,
  walking only the volatile anchors (~w of them).

Exactness
---------
The context is *bit-identical* to the naive pipeline, not merely close:

* Group construction replicates ``collapse_plan`` operation for
  operation (same member BFS, same longest-path DP with the same
  ``max``/tie-break, same ``CONST_pipe`` application), so every
  ``t(c)`` equals the naive value bit-for-bit.
* A path cost in the naive engine is a left-fold ``sum`` of ``T(c)``.
  The DP computes ``pre[c] = max(pre[producer]) + T(c)`` with
  ``pre[source] = T(source)``, which performs the additions in the same
  order as the left fold for whichever path realizes the maximum; since
  float addition of non-negative terms is monotone, the DP maximum over
  sinks equals the maximum over all enumerated path sums bit-for-bit.
* ``T(c)`` values come from a memoized *scalar*
  :func:`~repro.core.cost_model.operator_runtime` cache keyed by
  ``t(c)``, so each is the very float the naive pipeline computes.
* The windowed split is exact: an anchor is *volatile* iff a window bit
  appears in ``anc_mask[anchor] | ownbit(anchor)``.  Ancestor masks are
  transitively closed, so every producer a static anchor can see --
  members, group in-edges, DP predecessors -- is itself static, and
  every reader of a volatile prefix is itself volatile.  The volatile
  pass therefore performs exactly the float operations of the full DP
  that differ between configurations, in the same order, on the same
  values.

``tests/test_search_context.py`` and ``tests/test_shard.py`` pin exact
``==`` equality against ``collapse_plan`` / ``estimate_plan_cost`` per
configuration.

Incremental-collapse invariants (single-bit flip of operator ``o``):

* ``o`` becomes materialized: exactly the groups that previously
  contained ``o`` shrink, and ``o`` gains a group of its own.
* ``o`` stops materializing: exactly the groups containing a consumer
  of ``o`` absorb ``o`` (and its non-materialized ancestry), and ``o``'s
  own group disappears -- unless ``o`` is a sink, which stays an anchor
  with ``tm = 0``.
* In both directions every other group's members *and* collapsed
  in-edges are provably unchanged, because group membership depends only
  on the flags of the group's own ancestry and every producer outside a
  group is materialized by construction.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from . import cost_model
from .collapse import CollapsedOperator, CollapsedPlan
from .cost_model import ClusterStats
from .plan import Plan

#: mirrors ``enumeration.MatConfig`` (kept local to avoid an import cycle)
MatConfig = Tuple[Tuple[int, bool], ...]

#: cached group state: the collapsed operator, its in-edge anchors, t(c)
_GroupState = Tuple[CollapsedOperator, Tuple[int, ...], float]

#: one anchor's windowed group states: ``(support mask, {state & support
#: -> (t(c), in-edge anchors)})`` per distinct support the BFS observed
_WindowTables = List[Tuple[int, Dict[int, Tuple[float, Tuple[int, ...]]]]]


class SearchContext:
    """Mutable per-plan state for enumerating materialization configs.

    Parameters
    ----------
    plan:
        The candidate plan (validated once, never mutated; its current
        ``m(o)`` flags seed the context state).
    stats:
        Cluster statistics; supplies ``CONST_pipe`` for collapsing and
        the cost-model inputs for scoring.
    exact_waste:
        Use the exact wasted-runtime integral when scoring.
    """

    def __init__(
        self,
        plan: Plan,
        stats: ClusterStats,
        exact_waste: bool = False,
    ) -> None:
        plan.validate()
        self.plan = plan
        self.stats = stats
        self.exact_waste = exact_waste
        self._const_pipe = stats.const_pipe

        self._topo: List[int] = plan.topological_order()
        self._topo_pos: Dict[int, int] = {
            op_id: pos for pos, op_id in enumerate(self._topo)
        }
        self._producers: Dict[int, Tuple[int, ...]] = {
            op_id: tuple(plan.producers(op_id)) for op_id in self._topo
        }
        self._consumers: Dict[int, Tuple[int, ...]] = {
            op_id: tuple(plan.consumers(op_id)) for op_id in self._topo
        }
        self._runtime: Dict[int, float] = {
            op_id: plan[op_id].runtime_cost for op_id in self._topo
        }
        self._mat: Dict[int, float] = {
            op_id: plan[op_id].mat_cost for op_id in self._topo
        }
        self._sinks = frozenset(plan.sinks)
        self.free_ids: Tuple[int, ...] = tuple(plan.free_operators)
        self._freebit: Dict[int, int] = {
            op_id: bit for bit, op_id in enumerate(self.free_ids)
        }
        self._flags: Dict[int, bool] = {
            op_id: plan[op_id].materialize for op_id in self._topo
        }
        #: the current configuration; kept in step with ``_flags`` by
        #: :meth:`_flip`, so group-cache keys always see the live state
        self.mask: int = sum(
            1 << bit
            for bit, op_id in enumerate(self.free_ids)
            if self._flags[op_id]
        )
        #: free strict ancestors of each operator, as a free-id bitmask --
        #: exactly the flags the member BFS from that operator can read
        self._anc_mask: Dict[int, int] = {}
        for op_id in self._topo:
            ancestors = 0
            for producer in self._producers[op_id]:
                ancestors |= self._anc_mask[producer]
                bit = self._freebit.get(producer)
                if bit is not None:
                    ancestors |= 1 << bit
            self._anc_mask[op_id] = ancestors

        # incremental collapse state
        self._groups: Dict[int, CollapsedOperator] = {}
        self._group_in: Dict[int, Tuple[int, ...]] = {}
        #: current ``t(c)`` per anchor (plain dict: the scoring loops
        #: would otherwise pay a property call per anchor per config)
        self._total: Dict[int, float] = {}
        #: original op -> anchors whose group currently contains it
        self._membership: Dict[int, Set[int]] = {
            op_id: set() for op_id in self._topo
        }
        #: anchor -> {masked flag state -> member tuple}
        self._members_cache: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        #: anchor -> {masked flag state (incl. own flag) -> group state}
        self._state_cache: Dict[int, Dict[int, _GroupState]] = {}
        # The collapsed DAG's traversal order is the plan's topological
        # order restricted to the current anchors: a collapsed edge
        # ``producer -> anchor`` implies ``producer`` is a plan-level
        # ancestor of the anchor, and an anchor's topo position never
        # changes, so bisect insertion keeps the order exact.
        self._collapsed_order: List[int] = []
        #: topo positions parallel to ``_collapsed_order`` (bisect keys)
        self._order_keys: List[int] = []
        #: anchors some group lists as an input (every other anchor is a
        #: collapsed sink), backed by in-edge reference counts
        self._collapsed_inner: Set[int] = set()
        self._inner_count: Dict[int, int] = {}

        #: memoized scalar T(c) per distinct t(c) (bit-identical to naive)
        self._runtime_cache: Dict[float, float] = {}

        # windowed-scan state (see prepare_window): None means no static
        # tables are live and the window scorers may not be used
        self._window_mask: Optional[int] = None
        self._prefix_ff: Dict[int, float] = {}
        self._prefix_t: Dict[int, float] = {}
        self._static_best_ff: Optional[float] = None
        self._static_best_t: Optional[float] = None
        # candidate volatile anchors in topo order as (anchor, presence
        # bit | None, is a collapsed sink, window tables), plus the
        # per-config scratch list the two window scorers share
        self._window_candidates: List[
            Tuple[int, Optional[int], bool, _WindowTables]
        ] = []
        self._window_state_cache: Dict[int, _WindowTables] = {}
        self._scratch_entries: List[
            Tuple[int, float, Tuple[int, ...], bool]
        ] = []

        # -- observability tallies (plain ints; folded into repro.obs by
        # the search at scan end, never read per configuration)
        self.full_collapses = 1       #: from-scratch group builds
        self.incremental_flips = 0    #: single-bit Gray-code repairs
        self.group_cache_hits = 0     #: group states recalled from cache
        self.group_cache_misses = 0   #: group states computed fresh
        self.members_cache_hits = 0   #: member sets recalled from cache
        self.members_cache_misses = 0  #: member BFS walks
        self.runtime_lookups = 0      #: T(c) cache probes while scoring
        self.runtime_cache_misses = 0  #: probes that ran the cost model
        self.window_preps = 0         #: static-region DP freezes

        for op_id in self._topo:
            if self._flags[op_id] or op_id in self._sinks:
                self._rebuild_group(op_id)

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Slim pickle: the *inputs* plus the current position, nothing
        derived.

        A context accumulates large memo caches (group states, window
        tables, ``_runtime_cache``, membership sets) that every worker
        can rebuild lazily from the plan alone; shipping them would
        dominate the payload by an order of magnitude and buy nothing --
        the caches are only warm for configurations the *sender* visited.
        The restored context re-derives everything in ``__init__`` and
        steps to the pickled mask, so it scores every configuration
        bit-identically to the original (the property suite pins this).
        Observability tallies restart at zero: they count work actually
        performed per process, which is what the cross-process merge
        expects.
        """
        return {
            "plan": self.plan,
            "stats": self.stats,
            "exact_waste": self.exact_waste,
            "mask": self.mask,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(  # type: ignore[misc]
            state["plan"], state["stats"],
            exact_waste=state["exact_waste"],
        )
        self.set_mask(state["mask"])

    # ------------------------------------------------------------------
    # configuration stepping
    # ------------------------------------------------------------------
    def config_for(self, mask: int) -> MatConfig:
        """The ``(op_id, flag)`` tuple a bitmask denotes (naive order)."""
        return tuple(
            (op_id, bool(mask >> bit & 1))
            for bit, op_id in enumerate(self.free_ids)
        )

    def set_mask(self, mask: int) -> None:
        """Jump to an arbitrary configuration, flipping only changed bits."""
        if not 0 <= mask < (1 << len(self.free_ids)):
            raise ValueError(f"mask {mask} out of range for "
                             f"{len(self.free_ids)} free operators")
        diff = self.mask ^ mask
        while diff:
            bit = (diff & -diff).bit_length() - 1
            self._flip(self.free_ids[bit])
            diff &= diff - 1

    def iter_masks(self, order: str = "gray") -> Iterator[int]:
        """Step through all ``2^n`` configurations, updating state in place.

        ``order="gray"`` flips exactly one operator per step (fastest);
        ``order="sequential"`` visits masks in the naive engine's
        counting order (about two flips per step on average), for
        callers whose accounting depends on enumeration order (the
        Figure 13 experiment).  Scoring methods always reflect the last
        yielded mask.
        """
        total = 1 << len(self.free_ids)
        if order == "gray":
            self.set_mask(0)
            yield 0
            gray = 0
            for index in range(1, total):
                next_gray = index ^ (index >> 1)
                bit = (gray ^ next_gray).bit_length() - 1
                self._flip(self.free_ids[bit])
                gray = next_gray
                yield gray
        elif order == "sequential":
            for mask in range(total):
                self.set_mask(mask)
                yield mask
        else:
            raise ValueError(f"unknown iteration order {order!r}")

    # ------------------------------------------------------------------
    # scoring the current configuration
    # ------------------------------------------------------------------
    def failure_free_dominant(self) -> float:
        """``R_max`` -- the most expensive path's failure-free runtime."""
        return self._dominant_total(failure_free=True)

    def dominant_cost(self) -> float:
        """``T_max`` -- the dominant path's runtime under failures.

        Equals ``estimate_plan_cost(plan.with_mat_config(...), ...).cost``
        bit-for-bit (see the module docstring).
        """
        return self._dominant_total(failure_free=False)

    def _dominant_total(self, failure_free: bool) -> float:
        totals = self._total
        group_in = self._group_in
        cache = self._runtime_cache
        inner = self._collapsed_inner
        prefix: Dict[int, float] = {}
        best: Optional[float] = None
        for anchor in self._collapsed_order:
            total = totals[anchor]
            if failure_free:
                value = total
            else:
                cached = cache.get(total)
                if cached is None:
                    cached = self._runtime_miss(total)
                value = cached
            incoming = group_in[anchor]
            if incoming:
                value = max(prefix[p] for p in incoming) + value
            prefix[anchor] = value
            if anchor not in inner:  # a collapsed sink ends a path
                if best is None or value > best:
                    best = value
        if not failure_free:
            # one bulk increment per scoring call, not one per anchor
            self.runtime_lookups += len(self._collapsed_order)
        assert best is not None  # a valid plan always has >= 1 path
        return best

    def _runtime_miss(self, total: float) -> float:
        """Run the scalar cost model for an unseen ``t(c)`` and memoize."""
        value = cost_model.operator_runtime(
            total, self.stats, exact_waste=self.exact_waste
        )
        self._runtime_cache[total] = value
        self.runtime_cache_misses += 1
        return value

    @property
    def runtime_cache_hits(self) -> int:
        """T(c) probes answered from the memo (lookups minus misses)."""
        return self.runtime_lookups - self.runtime_cache_misses

    def counters(self) -> Dict[str, int]:
        """The context's observability tallies, in ``repro.obs`` naming."""
        return {
            "search.collapse.full": self.full_collapses,
            "search.collapse.incremental": self.incremental_flips,
            "cache.group.hit": self.group_cache_hits,
            "cache.group.miss": self.group_cache_misses,
            "cache.members.hit": self.members_cache_hits,
            "cache.members.miss": self.members_cache_misses,
            "cache.runtime.hit": self.runtime_cache_hits,
            "cache.runtime.miss": self.runtime_cache_misses,
            "cache.window.preps": self.window_preps,
        }

    # ------------------------------------------------------------------
    # windowed scoring: static-region DP tables
    # ------------------------------------------------------------------
    def prepare_window(self, window_mask: int) -> None:
        """Freeze the static-region DP for a windowed Gray scan.

        ``window_mask`` is the free-id bitmask of the operators the scan
        will vary (``all_bits ^ pinned`` of the subspace).  Everything an
        anchor computes -- members, in-edges, group cost, DP prefix --
        depends only on the flags of its free strict ancestors, so any
        anchor with no window bit in ``anc_mask | ownbit`` is *static*
        for the whole subspace.  This pass walks the collapsed DAG once,
        storing every static anchor's failure-free and failure-aware
        prefix (computed with exactly the float operations of
        :meth:`failure_free_dominant` / :meth:`dominant_cost`) and the
        best over static collapsed sinks; the per-configuration scorers
        then only walk the volatile anchors.

        Must be called with the context already positioned on a mask of
        the subspace (pinned bits set).  Idempotent while the window is
        unchanged; any flip outside the window invalidates the tables
        and the next call rebuilds them.
        """
        if self._window_mask == window_mask:
            return
        self.window_preps += 1
        anc_mask = self._anc_mask
        freebit = self._freebit
        volatile = set()
        for op_id in self._topo:
            bit = freebit.get(op_id)
            own = 0 if bit is None else 1 << bit
            if (anc_mask[op_id] | own) & window_mask:
                volatile.add(op_id)
        # candidate volatile anchors for the functional scorers: every
        # volatile operator that can anchor a group in *some* subspace
        # configuration.  Free non-sink operators anchor exactly when
        # their bit is set (pinned volatile bits are always set); bound
        # operators' flags never change, so they either always or never
        # anchor; sinks always anchor.  Collapsed-sink-ness is
        # configuration-independent: an anchor with any plan consumer is
        # consumed by whichever group holds that consumer (the anchor is
        # never a member of it), so ``anchor in self._sinks`` decides it.
        candidates: List[Tuple[int, Optional[int], bool, _WindowTables]] = []
        for op_id in self._topo:
            if op_id not in volatile:
                continue
            bit = freebit.get(op_id)
            is_sink = op_id in self._sinks
            if bit is None or is_sink:
                if not (is_sink or self._flags[op_id]):
                    continue  # bound, unmaterialized, no consumers feed it
                presence: Optional[int] = None
            else:
                presence = bit
            tables = self._window_state_cache.get(op_id)
            if tables is None:
                tables = self._window_state_cache[op_id] = []
            candidates.append((op_id, presence, is_sink, tables))
        self._window_candidates = candidates
        totals = self._total
        group_in = self._group_in
        cache = self._runtime_cache
        inner = self._collapsed_inner
        ff_prefix: Dict[int, float] = {}
        t_prefix: Dict[int, float] = {}
        best_ff: Optional[float] = None
        best_t: Optional[float] = None
        for anchor in self._collapsed_order:
            if anchor in volatile:
                continue
            total = totals[anchor]
            cached = cache.get(total)
            if cached is None:
                cached = self._runtime_miss(total)
            ff_value = total
            t_value = cached
            incoming = group_in[anchor]
            if incoming:
                # a static anchor's producers are all static (ancestor
                # masks are transitively closed), so both prefixes exist
                ff_value = max(ff_prefix[p] for p in incoming) + ff_value
                t_value = max(t_prefix[p] for p in incoming) + t_value
            ff_prefix[anchor] = ff_value
            t_prefix[anchor] = t_value
            if anchor not in inner:  # a static collapsed sink
                if best_ff is None or ff_value > best_ff:
                    best_ff = ff_value
                if best_t is None or t_value > best_t:
                    best_t = t_value
        self._prefix_ff = ff_prefix
        self._prefix_t = t_prefix
        self._static_best_ff = best_ff
        self._static_best_t = best_t
        self._window_mask = window_mask

    def _build_window_state(
        self,
        anchor: int,
        state: int,
        tables: _WindowTables,
    ) -> Tuple[float, Tuple[int, ...]]:
        """Construct and cache ``(t(c), group in-edges)`` for one state.

        The member BFS reads free flags out of the ``state`` int (the
        context is never repositioned) and records its *support*: the
        free bits it observed -- expanded members, the materialized
        boundary it stopped at, and the anchor's own flag.  Any state
        agreeing on those bits walks the identical frontier, so the
        result is cached under ``state & support`` in the table for that
        support mask.  Caching under the full ancestor mask instead
        would defeat the cache: a sink group's ancestors span the whole
        window, but flags buried below a materialized cut cannot reach
        it.

        Exactly the float operations of :meth:`_rebuild_group`:
        ``total = path_runtime * pipe + mat`` matches
        ``CollapsedOperator.total_cost = runtime_cost + mat_cost`` with
        ``runtime_cost = path_runtime * pipe``.
        """
        self.group_cache_misses += 1
        self.members_cache_misses += 1
        freebit = self._freebit
        flags = self._flags
        producers = self._producers
        bit = freebit.get(anchor)
        support = 0 if bit is None else 1 << bit
        collected = [anchor]
        visited = {anchor}
        pending = [anchor]  # members whose producers still need probing
        while pending:
            for probed in producers[pending.pop()]:
                pbit = freebit.get(probed)
                if pbit is None:
                    if flags[probed] or probed in visited:
                        continue
                else:
                    support |= 1 << pbit
                    if (state >> pbit) & 1 or probed in visited:
                        continue
                visited.add(probed)
                collected.append(probed)
                pending.append(probed)
        members = tuple(sorted(collected))
        dominant_path, path_runtime = self._dominant_path(members, anchor)
        pipe = self._const_pipe if len(dominant_path) > 1 else 1.0
        if bit is None:
            flagged = flags[anchor]
        else:
            flagged = bool((state >> bit) & 1)
        mat_cost = self._mat[anchor] if flagged else 0.0
        total = path_runtime * pipe + mat_cost
        group_in = tuple(sorted(
            {
                producer
                for member in members
                for producer in producers[member]
            } - visited
        ))
        built = (total, group_in)
        for known, table in tables:
            if known == support:
                table[state & support] = built
                break
        else:
            tables.append((support, {state & support: built}))
        return built

    def window_bound(self, state: int) -> float:
        """``R_max`` of configuration ``state`` -- Rule 3's cheap bound.

        Walks the candidate volatile anchors (presence decided by
        ``state``'s bits), fetching each one's ``(t(c), in-edges)`` from
        its per-state cache -- the context is never repositioned, so a
        windowed scan does *no* flips at all.  Equals
        :meth:`failure_free_dominant` at ``state`` bit-for-bit: the
        static portion of the maximum was folded in by
        :meth:`prepare_window`, ``max`` over floats is split-point
        independent, and stale volatile prefixes are never read (every
        reader of a volatile prefix is itself volatile and overwritten
        first, in topological order).  Fills the scratch entry list
        :meth:`window_cost` consumes.
        """
        if self._window_mask is None:
            raise RuntimeError("prepare_window() before window_bound()")
        prefix = self._prefix_ff
        best = self._static_best_ff
        entries = self._scratch_entries
        entries.clear()
        misses_before = self.group_cache_misses
        for anchor, bit, is_sink, tables in self._window_candidates:
            if bit is not None and not (state >> bit) & 1:
                continue
            cached = None
            for support, table in tables:
                cached = table.get(state & support)
                if cached is not None:
                    break
            if cached is None:
                cached = self._build_window_state(anchor, state, tables)
            total, group_in = cached
            if group_in:
                if len(group_in) == 1:  # max of one is that one
                    value = prefix[group_in[0]] + total
                else:
                    value = max(prefix[p] for p in group_in) + total
            else:
                value = total
            prefix[anchor] = value
            entries.append((anchor, total, group_in, is_sink))
            if is_sink and (best is None or value > best):
                best = value
        self.group_cache_hits += (
            len(entries) - (self.group_cache_misses - misses_before)
        )
        assert best is not None  # a valid plan always has >= 1 path
        return best

    def window_cost(self) -> float:
        """:meth:`dominant_cost` of the configuration the last
        :meth:`window_bound` call probed (it owns the scratch entries).

        Deferred on purpose: Rule-3 skips never pay for the
        failure-aware pass, and its scalar ``T(t(c))`` evaluations stay
        memoized per distinct total.
        """
        if self._window_mask is None:
            raise RuntimeError("prepare_window() before window_cost()")
        cache = self._runtime_cache
        prefix = self._prefix_t
        best = self._static_best_t
        entries = self._scratch_entries
        for anchor, total, group_in, is_sink in entries:
            value = cache.get(total)
            if value is None:
                value = self._runtime_miss(total)
            if group_in:
                if len(group_in) == 1:  # max of one is that one
                    value = prefix[group_in[0]] + value
                else:
                    value = max(prefix[p] for p in group_in) + value
            prefix[anchor] = value
            if is_sink and (best is None or value > best):
                best = value
        self.runtime_lookups += len(entries)
        assert best is not None  # a valid plan always has >= 1 path
        return best

    # ------------------------------------------------------------------
    # collapsed-plan export (for callers that enumerate paths themselves)
    # ------------------------------------------------------------------
    def build_collapsed(self) -> CollapsedPlan:
        """Materialize the current state as a real :class:`CollapsedPlan`.

        Group and edge *sets* are identical to
        ``collapse_plan(plan.with_mat_config(...))``; path enumeration,
        sources/sinks and topological order sort their frontiers, so
        downstream consumers see exactly the order the naive pipeline
        produces.
        """
        collapsed = CollapsedPlan()
        for anchor in sorted(self._groups):
            collapsed.add_group(self._groups[anchor])
        for anchor in sorted(self._groups):
            for producer in self._group_in[anchor]:
                collapsed.add_edge(producer, anchor)
        return collapsed

    # ------------------------------------------------------------------
    # incremental collapse
    # ------------------------------------------------------------------
    def _flip(self, op_id: int) -> None:
        """Toggle ``m(op_id)`` and repair exactly the affected groups."""
        bit = self._freebit[op_id]
        window = self._window_mask
        if window is not None and not (window >> bit) & 1:
            # a flip outside the window changes the "static" region: the
            # frozen tables are stale (prepare_window rebuilds on
            # demand).  Window-bit flips -- repositioning between shards
            # of one plan -- leave them valid.
            self._window_mask = None
        # keep the mask current *before* the rebuilds below: their
        # cache keys must see the new state
        self.mask ^= 1 << bit
        self.incremental_flips += 1
        becoming_materialized = not self._flags[op_id]
        if becoming_materialized:
            # groups that contained o shrink; o anchors a new group
            affected = [
                anchor for anchor in self._membership[op_id]
                if anchor != op_id
            ]
            self._flags[op_id] = True
            self._rebuild_group(op_id)
        else:
            # groups holding a consumer of o absorb o's ancestry
            affected_set: Set[int] = set()
            for consumer in self._consumers[op_id]:
                affected_set.update(self._membership[consumer])
            affected_set.discard(op_id)
            affected = sorted(affected_set)
            self._flags[op_id] = False
            if op_id in self._sinks:
                self._rebuild_group(op_id)  # stays an anchor, tm -> 0
            else:
                self._drop_group(op_id)
        for anchor in affected:
            self._rebuild_group(anchor)

    def _rebuild_group(self, anchor: int) -> None:
        old = self._groups.get(anchor)
        old_in = self._group_in.get(anchor)
        per_anchor = self._state_cache.get(anchor)
        if per_anchor is None:
            per_anchor = self._state_cache[anchor] = {}
        # the full group state is a function of the anchor's free strict
        # ancestors' flags plus its own flag (which decides tm): an int
        # key over exactly those bits -- O(1) to hash
        bit = self._freebit.get(anchor)
        key = self.mask & self._anc_mask[anchor]
        if bit is not None:
            key |= self.mask & (1 << bit)
        cached = per_anchor.get(key)
        if cached is not None:
            self.group_cache_hits += 1
        else:
            self.group_cache_misses += 1
            members = self._members_of(anchor)
            dominant_path, path_runtime = self._dominant_path(members, anchor)
            pipe = self._const_pipe if len(dominant_path) > 1 else 1.0
            mat_cost = self._mat[anchor] if self._flags[anchor] else 0.0
            group = CollapsedOperator(
                anchor_id=anchor,
                members=frozenset(members),
                runtime_cost=path_runtime * pipe,
                mat_cost=mat_cost,
                dominant_path=tuple(dominant_path),
            )
            group_in = tuple(sorted(
                {
                    producer
                    for member in members
                    for producer in self._producers[member]
                } - group.members
            ))
            cached = (group, group_in, group.total_cost)
            per_anchor[key] = cached
        group, group_in, total = cached
        self._groups[anchor] = group
        self._group_in[anchor] = group_in
        self._total[anchor] = total
        # delta maintenance of membership, traversal order and inner set
        if old is None:
            for member in group.members:
                self._membership[member].add(anchor)
            position = self._topo_pos[anchor]
            insort(self._order_keys, position)
            self._collapsed_order.insert(
                bisect_left(self._order_keys, position), anchor
            )
        elif (
            old.members is not group.members
            and old.members != group.members
        ):
            for member in old.members - group.members:
                self._membership[member].discard(anchor)
            for member in group.members - old.members:
                self._membership[member].add(anchor)
        if old_in != group_in:
            self._retire_inner(old_in)
            counts = self._inner_count
            inner = self._collapsed_inner
            for producer in group_in:
                count = counts.get(producer, 0)
                counts[producer] = count + 1
                if not count:
                    inner.add(producer)

    def _drop_group(self, anchor: int) -> None:
        old = self._groups.pop(anchor)
        for member in old.members:
            self._membership[member].discard(anchor)
        old_in = self._group_in.pop(anchor)
        del self._total[anchor]
        position = self._topo_pos[anchor]
        index = bisect_left(self._order_keys, position)
        del self._order_keys[index]
        del self._collapsed_order[index]
        self._retire_inner(old_in)

    def _retire_inner(self, old_in: Optional[Tuple[int, ...]]) -> None:
        if not old_in:
            return
        counts = self._inner_count
        for producer in old_in:
            count = counts[producer] - 1
            if count:
                counts[producer] = count
            else:
                del counts[producer]
                self._collapsed_inner.discard(producer)

    def _members_of(self, anchor: int) -> Tuple[int, ...]:
        """``coll(anchor)`` under the current flags (sorted ids).

        Cached per anchor under the flags of its free strict ancestors --
        the only flags the member BFS can observe.
        """
        per_anchor = self._members_cache.get(anchor)
        if per_anchor is None:
            per_anchor = self._members_cache[anchor] = {}
        key = self.mask & self._anc_mask[anchor]
        cached = per_anchor.get(key)
        if cached is not None:
            self.members_cache_hits += 1
            return cached
        self.members_cache_misses += 1
        members = [anchor]
        visited = {anchor}
        stack = [
            p for p in self._producers[anchor] if not self._flags[p]
        ]
        while stack:
            current = stack.pop()
            if current in visited:
                continue
            visited.add(current)
            members.append(current)
            stack.extend(
                p for p in self._producers[current] if not self._flags[p]
            )
        result = per_anchor[key] = tuple(sorted(members))
        return result

    def _dominant_path(
        self, members: Tuple[int, ...], anchor: int
    ) -> Tuple[List[int], float]:
        """Longest path to the anchor; mirrors ``collapse._dominant_path``.

        ``collapse_plan`` walks every plan operator in topological order
        and skips non-members; walking just the members sorted by
        topological position visits exactly the same operators in
        exactly the same order, so every ``max``/add matches bit-for-bit.
        """
        if len(members) == 1:
            # singleton group: the DP reduces to 0.0 + runtime(anchor)
            return [anchor], 0.0 + self._runtime[anchor]
        member_set = set(members)
        producers = self._producers
        runtime = self._runtime
        best_cost: Dict[int, float] = {}
        best_pred: Dict[int, int] = {}
        for op_id in sorted(members, key=self._topo_pos.__getitem__):
            internal = [p for p in producers[op_id] if p in member_set]
            incoming = max(
                (best_cost[p] for p in internal), default=0.0
            )
            best_cost[op_id] = incoming + runtime[op_id]
            if internal:
                best_pred[op_id] = max(
                    internal, key=lambda p: (best_cost[p], p)
                )
        path = [anchor]
        while path[-1] in best_pred:
            path.append(best_pred[path[-1]])
        path.reverse()
        return path, best_cost[anchor]
