"""Collapsed plans (Section 3.3, step 2 of the paper's procedure).

Given a fault-tolerant plan ``[P, M_P]``, all operators that do *not*
materialize their output are collapsed into the next materializing
consumer(s).  A collapsed operator ``c`` represents a sub-plan of ``P``
that, once it has materialized its output, never needs to be re-executed:
it is the granularity of recovery.

Construction
------------
Every *anchor* -- an operator with ``m(o) = 1``, or a sink -- yields one
collapsed operator.  ``coll(c)`` contains the anchor plus every operator
reachable backwards through non-materialized producers (stopping at, and
excluding, materialized producers).  In a DAG a non-materialized operator
can feed several anchors; it is then a member of *each* of their groups,
because recovering either anchor requires re-running it (this matches the
re-execution semantics, and the paper's example where collapsing is shown
per consumer).

Costs (Equation 1)
------------------
``tr(c)`` is the cost of the most expensive (dominant) execution path
through ``coll(c)``, scaled by ``CONST_pipe`` when the pipeline contains
more than one operator -- this mirrors the paper's Figure 5 arithmetic,
where a singleton group keeps its raw ``tr``.  ``tm(c)`` is the
materialization cost of the anchor (zero if the anchor is a
non-materializing sink whose output streams to the client).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from .plan import Plan, PlanError
from .summation import left_sum


@dataclass(frozen=True)
class CollapsedOperator:
    """One unit of re-execution in a collapsed plan.

    Attributes
    ----------
    anchor_id:
        The materializing (or sink) operator this group collapses into.
    members:
        ``coll(c)`` -- ids of all original operators in the group.
    runtime_cost:
        ``tr(c)`` per Equation 1.
    mat_cost:
        ``tm(c)`` -- the anchor's materialization cost (0 for
        non-materializing sinks).
    dominant_path:
        Operator ids of the most expensive source-to-anchor path inside
        the group, in execution order.
    """

    anchor_id: int
    members: FrozenSet[int]
    runtime_cost: float
    mat_cost: float
    dominant_path: Tuple[int, ...]

    @property
    def total_cost(self) -> float:
        """``t(c) = tr(c) + tm(c)`` (Section 3.3)."""
        return self.runtime_cost + self.mat_cost

    def __str__(self) -> str:
        ids = ",".join(str(op_id) for op_id in sorted(self.members))
        return f"{{{ids}}}"


@dataclass
class CollapsedPlan:
    """The collapsed plan ``P^c`` for a fault-tolerant plan ``[P, M_P]``."""

    #: collapsed operators keyed by anchor id
    groups: Dict[int, CollapsedOperator] = field(default_factory=dict)
    #: edges between collapsed operators: producer anchor -> consumer anchors
    _consumers: Dict[int, List[int]] = field(default_factory=dict)
    _producers: Dict[int, List[int]] = field(default_factory=dict)

    def add_group(self, group: CollapsedOperator) -> None:
        if group.anchor_id in self.groups:
            raise PlanError(f"duplicate collapsed anchor {group.anchor_id}")
        self.groups[group.anchor_id] = group
        self._consumers.setdefault(group.anchor_id, [])
        self._producers.setdefault(group.anchor_id, [])

    def add_edge(self, producer_anchor: int, consumer_anchor: int) -> None:
        if consumer_anchor not in self._consumers[producer_anchor]:
            self._consumers[producer_anchor].append(consumer_anchor)
            self._producers[consumer_anchor].append(producer_anchor)

    def consumers(self, anchor_id: int) -> List[int]:
        return list(self._consumers[anchor_id])

    def producers(self, anchor_id: int) -> List[int]:
        return list(self._producers[anchor_id])

    @property
    def sources(self) -> List[int]:
        return sorted(a for a in self.groups if not self._producers[a])

    @property
    def sinks(self) -> List[int]:
        return sorted(a for a in self.groups if not self._consumers[a])

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self) -> Iterator[CollapsedOperator]:
        return iter(self.groups.values())

    def __getitem__(self, anchor_id: int) -> CollapsedOperator:
        return self.groups[anchor_id]

    def topological_order(self) -> List[int]:
        """Anchor ids in deterministic topological order.

        Heap-based Kahn frontier: smallest anchor id first, matching the
        order of the previous sort-the-frontier implementation without
        its quadratic re-sorting.
        """
        in_degree = {a: len(self._producers[a]) for a in self.groups}
        ready = [a for a, deg in in_degree.items() if deg == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            anchor = heapq.heappop(ready)
            order.append(anchor)
            for consumer in self._consumers[anchor]:
                in_degree[consumer] -= 1
                if in_degree[consumer] == 0:
                    heapq.heappush(ready, consumer)
        if len(order) != len(self.groups):
            raise PlanError("collapsed plan contains a cycle")
        return order

    @property
    def total_cost(self) -> float:
        """Sum of ``t(c)`` over all collapsed operators."""
        return left_sum(group.total_cost for group in self.groups.values())

    def pretty(self) -> str:
        """Human-readable rendering in topological order."""
        lines = []
        for anchor_id in self.topological_order():
            group = self.groups[anchor_id]
            inputs = ",".join(str(p) for p in sorted(self._producers[anchor_id])) or "-"
            lines.append(
                f"{str(group):<16s} tr={group.runtime_cost:<10.4g} "
                f"tm={group.mat_cost:<8.4g} t={group.total_cost:<10.4g} "
                f"inputs={inputs}"
            )
        return "\n".join(lines)


def collapse_plan(plan: Plan, const_pipe: float = 1.0) -> CollapsedPlan:
    """Build the collapsed plan ``P^c`` from ``[P, M_P]`` (``collapsePlan``).

    The materialization configuration is read from the plan's operators
    (``plan[o].materialize``); use :meth:`Plan.with_mat_config` to apply a
    candidate configuration first.

    Parameters
    ----------
    plan:
        The DAG-structured execution plan with ``m(o)`` flags set.
    const_pipe:
        ``CONST_pipe`` in ``(0, 1]``; discount for pipeline parallelism
        applied to multi-operator dominant paths (Equation 1).
    """
    if not 0 < const_pipe <= 1:
        raise ValueError("const_pipe must be in (0, 1]")
    plan.validate()

    sink_ids = set(plan.sinks)
    anchor_ids = sorted(
        op_id for op_id, op in plan.operators.items()
        if op.materialize or op_id in sink_ids
    )

    collapsed = CollapsedPlan()
    membership: Dict[int, List[int]] = {}  # original op -> anchors it feeds
    for anchor_id in anchor_ids:
        members = _group_members(plan, anchor_id)
        dominant_path, path_runtime = _dominant_path(plan, members, anchor_id)
        pipe = const_pipe if len(dominant_path) > 1 else 1.0
        anchor = plan[anchor_id]
        mat_cost = anchor.mat_cost if anchor.materialize else 0.0
        collapsed.add_group(
            CollapsedOperator(
                anchor_id=anchor_id,
                members=frozenset(members),
                runtime_cost=path_runtime * pipe,
                mat_cost=mat_cost,
                dominant_path=tuple(dominant_path),
            )
        )
        for member in members:
            membership.setdefault(member, []).append(anchor_id)

    # an edge (u, v) with u materialized crosses a recovery boundary; the
    # consumer v may be a member of several groups, each of which then
    # depends on u's group.
    for producer_id, consumer_id in plan.edges():
        if not plan[producer_id].materialize:
            continue
        for consumer_anchor in membership.get(consumer_id, []):
            if consumer_anchor != producer_id:
                collapsed.add_edge(producer_id, consumer_anchor)
    return collapsed


def _group_members(plan: Plan, anchor_id: int) -> List[int]:
    """``coll(anchor)``: the anchor plus non-materialized ancestors."""
    members = [anchor_id]
    visited = {anchor_id}
    stack = [p for p in plan.producers(anchor_id)
             if not plan[p].materialize]
    while stack:
        current = stack.pop()
        if current in visited:
            continue
        visited.add(current)
        members.append(current)
        stack.extend(
            p for p in plan.producers(current) if not plan[p].materialize
        )
    return sorted(members)


def _dominant_path(
    plan: Plan, members: Sequence[int], anchor_id: int
) -> Tuple[List[int], float]:
    """Most expensive path (by ``sum tr``) through the group to the anchor.

    Uses longest-path DP over the group-internal edges, which is linear in
    the group size because the group is a DAG.
    """
    member_set = set(members)
    order = [op_id for op_id in plan.topological_order() if op_id in member_set]
    best_cost: Dict[int, float] = {}
    best_pred: Dict[int, int] = {}
    for op_id in order:
        internal_producers = [
            p for p in plan.producers(op_id) if p in member_set
        ]
        incoming = max(
            (best_cost[p] for p in internal_producers), default=0.0
        )
        best_cost[op_id] = incoming + plan[op_id].runtime_cost
        if internal_producers:
            best_pred[op_id] = max(
                internal_producers, key=lambda p: (best_cost[p], p)
            )
    path = [anchor_id]
    while path[-1] in best_pred:
        path.append(best_pred[path[-1]])
    path.reverse()
    return path, best_cost[anchor_id]


def collapsed_total_costs(collapsed: CollapsedPlan) -> Dict[int, float]:
    """Map of anchor id -> ``t(c)``, convenience for the cost model."""
    return {anchor: group.total_cost for anchor, group in collapsed.groups.items()}
