"""The search kernel: per-plan state for configuration scans.

The naive search (``find_best_ft_plan``'s ``engine="naive"`` path)
rebuilds a full :class:`~repro.core.plan.Plan` via ``with_mat_config``
for every one of the ``2^n`` configurations -- re-running the cycle check
per edge -- and then re-collapses the whole DAG from scratch.  This
module holds the per-plan state that makes the sweep cheap instead.  It
is the only fast implementation: every ``engine="fast"`` search, serial
or parallel, scans its shards through a :class:`SearchContext`
(:func:`repro.core.shard.scan_shard`).

* **validate once** -- plan validation, topological order, producer
  adjacency, the free-operator index and every operator's free-ancestor
  bitmask are computed a single time;
* **bitmask configs** -- a configuration is an integer mask over
  ``free_ids``; no plan copies are made.  The context keeps a memo of
  the last scored mask (see *delta scoring*), but every scorer's result
  is a pure function of the mask it is given, in any call order;
* **cached group states** -- an anchor's group depends only on the
  flags of its free strict ancestors and its own flag.  The member BFS
  records the free bits it actually read (its *support*) and caches the
  group's ``(t(c), in-edges)`` under the mask restricted to them, so a
  sweep builds each distinct group once;
* **exact scoring by DP** -- the dominant-path cost is a longest-path
  dynamic program over the collapsed DAG instead of enumerating every
  source-to-sink path;
* **windowed scoring** -- a windowed Gray scan only varies the ``w``
  operators nearest the sink, so :meth:`SearchContext.prepare_window`
  freezes the DP over the static region once, and
  :meth:`~SearchContext.window_bound` / :meth:`~SearchContext.window_cost`
  score any configuration of the window walking only the volatile
  anchors (~w of them).  :meth:`~SearchContext.scores` is the same
  scorer over the full window;
* **delta scoring** -- each volatile anchor's presence, group and DP
  prefix read only the window bits of its *dependency mask*
  ``(anc_mask | ownbit) & window``, so a scorer re-scores just the
  anchors whose dependency mask holds a bit that differs from the last
  mask it scored.  A Gray step flips one bit and reaches about a third
  of the volatile anchors on a 100-operator DAG; a re-scored anchor
  whose group support saw no flipped bit keeps its group without a
  cache probe.

Exactness
---------
The context is *bit-identical* to the naive pipeline, not merely close:

* Group construction replicates ``collapse_plan`` operation for
  operation (same member BFS, same longest-path DP with the same
  ``max``/tie-break, same ``CONST_pipe`` application), so every
  ``t(c)`` equals the naive value bit-for-bit.
* A path cost in the naive engine is a left fold of ``T(c)``
  (:func:`~repro.core.summation.left_sum`).
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
* Delta scoring is exact for the same reason: a skipped anchor's inputs
  are unchanged, so its stored floats are the ones a full pass would
  recompute; a re-scored anchor runs the same float operations in the
  same order; and the maximum is taken over the same floats in the same
  order.

``tests/test_search_context.py`` and ``tests/test_shard.py`` pin exact
``==`` equality against ``collapse_plan`` / ``estimate_plan_cost`` per
configuration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import cost_model
from .collapse import CollapsedOperator, CollapsedPlan
from .cost_model import ClusterStats
from .plan import Plan

#: mirrors ``enumeration.MatConfig`` (kept local to avoid an import cycle)
MatConfig = Tuple[Tuple[int, bool], ...]

#: one windowed group state: ``(t(c), in-edge anchors, support mask)``
_GroupEntry = Tuple[float, Tuple[int, ...], int]

#: one anchor's windowed group states: ``(support mask, {state & support
#: -> entry})`` per distinct support the BFS observed
_WindowTables = List[Tuple[int, Dict[int, _GroupEntry]]]

#: a candidate volatile anchor: ``(anchor, presence bit | None, window
#: tables, dependency mask)`` -- the window bits its presence, group and
#: DP prefix can read
_Candidate = Tuple[int, Optional[int], _WindowTables, int]


class SearchContext:
    """Per-plan state for scoring materialization configurations.

    Parameters
    ----------
    plan:
        The candidate plan (validated once, never mutated).  Its bound
        operators keep their ``m(o)`` flags; the free ones are read from
        each scored mask.
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
        #: the plan's flags; only bound operators' entries are ever read
        self._flags: Dict[int, bool] = {
            op_id: plan[op_id].materialize for op_id in self._topo
        }
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

        #: memoized scalar T(c) per distinct t(c) (bit-identical to naive)
        self._runtime_cache: Dict[float, float] = {}
        #: anchor -> support-keyed ``(t(c), in-edges)`` tables
        self._window_state_cache: Dict[int, _WindowTables] = {}
        #: ``(anchor, mask & (anc_mask | ownbit))`` -> collapsed group and
        #: its in-edge anchors, for :meth:`collapsed`
        self._group_cache: Dict[
            Tuple[int, int], Tuple[CollapsedOperator, Tuple[int, ...]]
        ] = {}

        # windowed-scan state (see prepare_window): the ``(window,
        # pinned)`` pair the static tables were frozen for; None means no
        # tables are live and the window scorers may not be used
        self._window: Optional[Tuple[int, int]] = None
        self._prefix_ff: Dict[int, float] = {}
        self._prefix_t: Dict[int, float] = {}
        self._static_best_ff: Optional[float] = None
        self._static_best_t: Optional[float] = None
        # candidate volatile anchors in topo order, the ones a single
        # window bit's flip can reach, and the volatile collapsed sinks
        self._window_candidates: List[_Candidate] = []
        self._flip_candidates: Dict[int, List[_Candidate]] = {}
        self._volatile_sinks: List[int] = []
        # the memo of the last scored mask: each present candidate's
        # current group ``(state it was looked up at, table entry)``, the
        # last bounded and costed states (None: re-score everything) and
        # their results
        self._rows: Dict[int, Tuple[int, _GroupEntry]] = {}
        self._bound_state: Optional[int] = None
        self._cost_state: Optional[int] = None
        self._bound_best = 0.0
        self._cost_best = 0.0

        # -- observability tallies (plain ints; folded into repro.obs by
        # the search at scan end, never read per configuration)
        self.group_cache_hits = 0     #: group states recalled from cache
        self.group_cache_misses = 0   #: group states computed fresh
        self.runtime_lookups = 0      #: T(c) cache probes while scoring
        self.runtime_cache_misses = 0  #: probes that ran the cost model
        self.window_preps = 0         #: static-region DP freezes

    # ------------------------------------------------------------------
    # configurations
    # ------------------------------------------------------------------
    def config_for(self, mask: int) -> MatConfig:
        """The ``(op_id, flag)`` tuple a bitmask denotes (naive order)."""
        return tuple(
            (op_id, bool(mask >> bit & 1))
            for bit, op_id in enumerate(self.free_ids)
        )

    def _check_mask(self, mask: int) -> None:
        if not 0 <= mask < (1 << len(self.free_ids)):
            raise ValueError(f"mask {mask} out of range for "
                             f"{len(self.free_ids)} free operators")

    def _anchors(self, op_id: int, state: int) -> bool:
        """Whether ``op_id`` anchors a group at configuration ``state``:
        it is a sink or ``m(op_id) = 1``."""
        if op_id in self._sinks:
            return True
        bit = self._freebit.get(op_id)
        if bit is None:
            return self._flags[op_id]
        return bool((state >> bit) & 1)

    # ------------------------------------------------------------------
    # scoring one configuration
    # ------------------------------------------------------------------
    def scores(self, mask: int) -> Tuple[float, float]:
        """``(R_max, T_max)`` of configuration ``mask``.

        ``R_max`` is the most expensive path's failure-free runtime and
        ``T_max`` the dominant path's runtime under failures, which
        equals ``estimate_plan_cost(plan.with_mat_config(...),
        ...).cost`` bit-for-bit (see the module docstring).  This is the
        window scorer over the full window: every free bit varies,
        nothing is pinned.
        """
        self._check_mask(mask)
        self.prepare_window((1 << len(self.free_ids)) - 1, 0)
        r_max = self.window_bound(mask)
        return r_max, self.window_cost()

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
            "cache.group.hit": self.group_cache_hits,
            "cache.group.miss": self.group_cache_misses,
            "cache.runtime.hit": self.runtime_cache_hits,
            "cache.runtime.miss": self.runtime_cache_misses,
            "cache.window.preps": self.window_preps,
        }

    # ------------------------------------------------------------------
    # windowed scoring: static-region DP tables
    # ------------------------------------------------------------------
    def prepare_window(self, window_mask: int, pinned: int) -> None:
        """Freeze the static-region DP for a windowed scan.

        ``window_mask`` is the free-id bitmask of the operators the scan
        will vary; every other free operator keeps its bit of
        ``pinned``.  Everything an anchor computes -- members, in-edges,
        group cost, DP prefix -- depends only on the flags of its free
        strict ancestors and its own flag, so any anchor with no window
        bit in ``anc_mask | ownbit`` is *static* for the whole subspace.
        This pass walks the plan's topological order once, building each
        static anchor's group at state ``pinned`` and storing its
        failure-free and failure-aware prefix (with exactly the float
        operations of the window scorers) and the best over static
        collapsed sinks; the per-configuration scorers then only walk
        the volatile anchors.  Each volatile candidate keeps its
        *dependency mask* ``(anc_mask | ownbit) & window_mask`` -- the
        only bits its presence, group and prefix can read -- and each
        window bit lists, in topological order, the candidates whose
        dependency mask holds it.  The memo of the last scored mask is
        reset.

        Idempotent while ``(window_mask, pinned)`` is unchanged; the
        memo then carries over, so a second shard of the same plan
        starts from the first shard's last mask.

        Collapsed-sink-ness is configuration-independent: an anchor with
        any plan consumer is consumed by whichever group holds that
        consumer (the anchor is never a member of it), so ``anchor in
        self._sinks`` decides it.
        """
        if self._window == (window_mask, pinned):
            return
        self.window_preps += 1
        anc_mask = self._anc_mask
        freebit = self._freebit
        cache = self._runtime_cache
        state_cache = self._window_state_cache
        candidates: List[_Candidate] = []
        flips: Dict[int, List[_Candidate]] = {}
        volatile_sinks: List[int] = []
        ff_prefix: Dict[int, float] = {}
        t_prefix: Dict[int, float] = {}
        best_ff: Optional[float] = None
        best_t: Optional[float] = None
        for op_id in self._topo:
            bit = freebit.get(op_id)
            own = 0 if bit is None else 1 << bit
            is_sink = op_id in self._sinks
            dep = (anc_mask[op_id] | own) & window_mask
            if dep:
                # a candidate volatile anchor: every volatile operator
                # that can anchor a group in *some* subspace
                # configuration.  Free non-sink operators anchor exactly
                # when their bit is set; bound operators' flags never
                # change, so they either always or never anchor; sinks
                # always anchor.
                if bit is None or is_sink:
                    if not self._anchors(op_id, pinned):
                        continue  # bound, unmaterialized, not a sink
                    presence: Optional[int] = None
                else:
                    presence = bit
                candidate = (op_id, presence,
                             state_cache.setdefault(op_id, []), dep)
                candidates.append(candidate)
                while dep:
                    low = dep & -dep
                    flips.setdefault(low, []).append(candidate)
                    dep ^= low
                if is_sink:
                    volatile_sinks.append(op_id)
                continue
            if not self._anchors(op_id, pinned):
                continue
            ff_value, group_in, _ = self._build_window_state(
                op_id, pinned, state_cache.setdefault(op_id, [])
            )
            t_value = cache.get(ff_value)
            if t_value is None:
                t_value = self._runtime_miss(ff_value)
            if group_in:
                # a static anchor's producers are all static (ancestor
                # masks are transitively closed), so both prefixes exist
                ff_value = max(ff_prefix[p] for p in group_in) + ff_value
                t_value = max(t_prefix[p] for p in group_in) + t_value
            ff_prefix[op_id] = ff_value
            t_prefix[op_id] = t_value
            if is_sink:  # a static collapsed sink
                if best_ff is None or ff_value > best_ff:
                    best_ff = ff_value
                if best_t is None or t_value > best_t:
                    best_t = t_value
        self._window_candidates = candidates
        self._flip_candidates = flips
        self._volatile_sinks = volatile_sinks
        self._prefix_ff = ff_prefix
        self._prefix_t = t_prefix
        self._static_best_ff = best_ff
        self._static_best_t = best_t
        self._rows = {}
        self._bound_state = None
        self._cost_state = None
        self._window = (window_mask, pinned)

    def _collapse_group(
        self, anchor: int, state: int
    ) -> Tuple[Set[int], List[int], float, float, Tuple[int, ...], int]:
        """``coll(anchor)`` at configuration ``state``.

        Returns ``(members, dominant path, tr(c), tm(c), in-edge
        anchors, support)``, where the *support* is the free bits the
        member BFS observed -- expanded members, the materialized
        boundary it stopped at, and the anchor's own flag.  Any state
        agreeing on those bits walks the identical frontier.  Replicates
        ``collapse_plan``'s group construction operation for operation.
        """
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
        dominant_path, path_runtime = self._dominant_path(collected, anchor)
        pipe = self._const_pipe if len(dominant_path) > 1 else 1.0
        flagged = flags[anchor] if bit is None else (state >> bit) & 1
        group_in = tuple(sorted(
            {
                producer
                for member in collected
                for producer in producers[member]
            } - visited
        ))
        return (visited, dominant_path, path_runtime * pipe,
                self._mat[anchor] if flagged else 0.0, group_in, support)

    def _build_window_state(
        self,
        anchor: int,
        state: int,
        tables: _WindowTables,
    ) -> _GroupEntry:
        """Construct and cache ``(t(c), group in-edges, support)`` for
        one state.

        The result is cached under ``state & support`` in the table for
        the BFS's support mask (see :meth:`_collapse_group`).  Caching
        under the full ancestor mask instead would defeat the cache: a
        sink group's ancestors span the whole window, but flags buried
        below a materialized cut cannot reach it.  ``t(c) = tr(c) +
        tm(c)`` is the float :attr:`CollapsedOperator.total_cost` gives.
        """
        self.group_cache_misses += 1
        _, _, runtime_cost, mat_cost, group_in, support = (
            self._collapse_group(anchor, state)
        )
        built = (runtime_cost + mat_cost, group_in, support)
        for known, table in tables:
            if known == support:
                table[state & support] = built
                break
        else:
            tables.append((support, {state & support: built}))
        return built

    def _rescored(self, last: Optional[int], state: int) -> List[_Candidate]:
        """The candidates whose dependency mask a move from ``last`` to
        ``state`` touches, in topological order (all of them when
        ``last`` is None).  A Gray step flips one bit and takes that
        bit's list; any other move filters the candidates."""
        if last is None:
            return self._window_candidates
        diff = state ^ last
        flipped = self._flip_candidates.get(diff)
        if flipped is not None:
            return flipped
        return [entry for entry in self._window_candidates
                if entry[3] & diff]

    def window_bound(self, state: int) -> float:
        """``R_max`` of configuration ``state`` -- Rule 3's cheap bound.

        Re-scores only the candidate volatile anchors whose dependency
        mask holds a bit that differs from the last bounded state (all
        of them on a fresh window), skipping the ones ``state``'s bits
        leave absent.  A re-scored anchor keeps its current group while
        no bit of the group's support has flipped since it was looked
        up, and probes its per-state cache otherwise.  Equals the full
        DP's ``R_max`` at ``state`` bit-for-bit: a skipped anchor's
        presence, group and prefix read only unchanged bits, so its
        stored floats are the ones a full pass would compute; a
        re-scored anchor runs the same float operations in the same
        (topological) order, reading producers that are current; and the
        maximum is the static best folded with every volatile collapsed
        sink in topological order, as the full DP takes it.
        """
        if self._window is None:
            raise RuntimeError("prepare_window() before window_bound()")
        last = self._bound_state
        if last == state:
            return self._bound_best
        prefix = self._prefix_ff
        read = prefix.__getitem__
        rows = self._rows
        rescored = 0
        misses_before = self.group_cache_misses
        self._bound_state = None  # a pass cut short re-scores everything
        for anchor, bit, tables, _ in self._rescored(last, state):
            if bit is not None and not (state >> bit) & 1:
                continue
            rescored += 1
            row = rows.get(anchor)
            if row is not None and not (state ^ row[0]) & row[1][2]:
                entry = row[1]
            else:
                found: Optional[_GroupEntry] = None
                for index, (support, table) in enumerate(tables):
                    found = table.get(state & support)
                    if found is not None:
                        if index:  # probe the last support found first
                            tables.insert(0, tables.pop(index))
                        break
                entry = (found if found is not None
                         else self._build_window_state(anchor, state, tables))
                rows[anchor] = (state, entry)
            total, group_in, _ = entry
            if group_in:
                if len(group_in) == 1:  # max of one is that one
                    total = prefix[group_in[0]] + total
                else:
                    total = max(map(read, group_in)) + total
            prefix[anchor] = total
        self.group_cache_hits += (
            rescored - (self.group_cache_misses - misses_before)
        )
        best = self._static_best_ff
        for sink in self._volatile_sinks:
            value = prefix[sink]
            if best is None or value > best:
                best = value
        assert best is not None  # a valid plan always has >= 1 path
        self._bound_state = state
        self._bound_best = best
        return best

    def window_cost(self) -> float:
        """``T_max`` of the configuration the last :meth:`window_bound`
        call probed.

        Deferred on purpose: Rule-3 skips never pay for the
        failure-aware pass, and its scalar ``T(t(c))`` evaluations stay
        memoized per distinct total.  Re-scores the anchors whose
        dependency mask differs from the last *costed* state, so a run of
        bounds without a cost is caught up exactly; every present
        anchor's group row is current for the bounded state.
        """
        if self._window is None:
            raise RuntimeError("prepare_window() before window_cost()")
        state = self._bound_state
        if state is None:
            raise RuntimeError("window_bound() before window_cost()")
        last = self._cost_state
        if last == state:
            return self._cost_best
        cache = self._runtime_cache
        prefix = self._prefix_t
        read = prefix.__getitem__
        rows = self._rows
        looked_up = 0
        self._cost_state = None  # a pass cut short re-scores everything
        for anchor, bit, _, _ in self._rescored(last, state):
            if bit is not None and not (state >> bit) & 1:
                continue
            looked_up += 1
            total, group_in, _ = rows[anchor][1]
            value = cache.get(total)
            if value is None:
                value = self._runtime_miss(total)
            if group_in:
                if len(group_in) == 1:  # max of one is that one
                    value = prefix[group_in[0]] + value
                else:
                    value = max(map(read, group_in)) + value
            prefix[anchor] = value
        self.runtime_lookups += looked_up
        best = self._static_best_t
        for sink in self._volatile_sinks:
            value = prefix[sink]
            if best is None or value > best:
                best = value
        assert best is not None  # a valid plan always has >= 1 path
        self._cost_state = state
        self._cost_best = best
        return best

    # ------------------------------------------------------------------
    # collapsed-plan export (for callers that enumerate paths themselves)
    # ------------------------------------------------------------------
    def collapsed(self, mask: int) -> CollapsedPlan:
        """Configuration ``mask`` as a real :class:`CollapsedPlan`.

        Group and edge *sets* are identical to
        ``collapse_plan(plan.with_mat_config(config_for(mask)))``; path
        enumeration, sources/sinks and topological order sort their
        frontiers, so downstream consumers see exactly the order the
        naive pipeline produces.  Groups are cached per anchor under
        ``mask & (anc_mask | ownbit)`` -- every flag the group can read.
        """
        self._check_mask(mask)
        groups: List[Tuple[CollapsedOperator, Tuple[int, ...]]] = []
        for op_id in self._topo:
            if not self._anchors(op_id, mask):
                continue
            bit = self._freebit.get(op_id)
            own = 0 if bit is None else 1 << bit
            key = (op_id, mask & (self._anc_mask[op_id] | own))
            cached = self._group_cache.get(key)
            if cached is None:
                members, path, runtime_cost, mat_cost, group_in, _ = (
                    self._collapse_group(op_id, mask)
                )
                group = CollapsedOperator(
                    anchor_id=op_id,
                    members=frozenset(members),
                    runtime_cost=runtime_cost,
                    mat_cost=mat_cost,
                    dominant_path=tuple(path),
                )
                cached = self._group_cache[key] = (group, group_in)
            groups.append(cached)
        groups.sort(key=lambda entry: entry[0].anchor_id)
        collapsed = CollapsedPlan()
        for group, _ in groups:
            collapsed.add_group(group)
        for group, group_in in groups:
            for producer in group_in:
                collapsed.add_edge(producer, group.anchor_id)
        return collapsed

    def _dominant_path(
        self, members: Sequence[int], anchor: int
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
