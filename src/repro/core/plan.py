"""DAG-structured parallel execution plans.

This module defines the plan representation used throughout the library: a
directed acyclic graph of :class:`Operator` nodes, each annotated with the
two cost estimates the paper's cost model consumes (Section 2.1):

* ``runtime_cost`` -- ``tr(o)``, the estimated accumulated execution cost of
  the operator under partition-parallel execution, and
* ``mat_cost`` -- ``tm(o)``, the estimated accumulated cost of materializing
  the operator's output to a fault-tolerant storage medium.

Operators additionally carry the two flags of the paper's terminology
(Table 1): ``materialize`` (``m(o)``) and ``free`` (``f(o)``).  Operators
that are *bound* (``f(o) = 0``) are excluded from the enumeration of
materialization configurations; their ``m(o)`` value is fixed, e.g. because
the engine always materializes repartition outputs, or because an operator's
output cannot be checkpointed at all.

Costs are plain floats in engine cost units.  With ``CONST_cost = 1`` (the
setting used in all of the paper's experiments) cost units equal seconds.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import (
    Any, ClassVar, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from .summation import left_sum


class PlanError(ValueError):
    """Raised when a plan or operator is structurally invalid."""


@dataclass(frozen=True)
class Operator:
    """A single operator of a DAG-structured execution plan.

    Parameters
    ----------
    op_id:
        Unique identifier within the plan.  Any hashable integer works; the
        TPC-H plan builders use small consecutive integers so that plans
        mirror the paper's figures (e.g. operators 1-5 of Figure 9).
    name:
        Human-readable label, e.g. ``"HashJoin(L,O)"``.
    runtime_cost:
        ``tr(o)`` -- estimated execution cost (cost units, >= 0).
    mat_cost:
        ``tm(o)`` -- estimated materialization cost (cost units, >= 0).
    materialize:
        ``m(o)`` -- whether the operator's output is materialized.
    free:
        ``f(o)`` -- whether the enumeration may flip ``materialize``.
    cardinality:
        Optional estimated output cardinality (rows); informational, used by
        the statistics layer to derive costs.
    base_inputs:
        Number of *base tables* the operator reads directly (scans folded
        into the operator, per the sub-plan convention -- see
        :mod:`repro.tpch.queries`).  Base tables are durable and never
        checkpointed, but they count towards the operator's arity: a join
        with one plan input and one base-table input is binary, which
        matters for pruning Rule 2's unary-parent requirement.
    state_ckpt_cost:
        Cost of snapshotting the operator's in-flight state once (for the
        mid-operator checkpointing extension,
        :mod:`repro.core.checkpointing`).  ``None`` -- the default --
        means the operator's state cannot be captured.
    """

    op_id: int
    name: str
    runtime_cost: float
    mat_cost: float
    materialize: bool = False
    free: bool = True
    cardinality: Optional[int] = None
    base_inputs: int = 0
    state_ckpt_cost: Optional[float] = None

    def __post_init__(self) -> None:
        if self.runtime_cost < 0:
            raise PlanError(f"operator {self.op_id}: negative runtime_cost")
        if self.mat_cost < 0:
            raise PlanError(f"operator {self.op_id}: negative mat_cost")
        if self.base_inputs < 0:
            raise PlanError(f"operator {self.op_id}: negative base_inputs")
        if self.state_ckpt_cost is not None and self.state_ckpt_cost < 0:
            raise PlanError(
                f"operator {self.op_id}: negative state_ckpt_cost"
            )

    @property
    def total_cost(self) -> float:
        """``t(o) = tr(o) + tm(o) * m(o)`` (Table 1)."""
        return self.runtime_cost + (self.mat_cost if self.materialize else 0.0)

    def as_bound(self, materialize: bool) -> "Operator":
        """Return a copy that is bound (``f(o) = 0``) to a fixed ``m(o)``."""
        return replace(self, materialize=materialize, free=False)

    def with_materialize(self, materialize: bool) -> "Operator":
        """Return a copy with ``m(o)`` set; requires the operator be free."""
        if not self.free and materialize != self.materialize:
            raise PlanError(
                f"operator {self.op_id} ({self.name}) is bound; "
                "cannot change its materialization flag"
            )
        return replace(self, materialize=materialize)


@dataclass
class Plan:
    """A DAG-structured execution plan.

    Edges are directed from producers to consumers: an edge ``(u, v)`` means
    operator ``v`` consumes the output of operator ``u``.  The plan may have
    several sources (operators with no producers, e.g. scans) and several
    sinks (operators whose output leaves the plan, e.g. the two outer
    queries of the paper's Q2C).

    A plan changes only through :meth:`add_operator` and
    :meth:`add_edge`: :func:`~repro.core.enumeration.plan_fingerprint`
    and :meth:`topological_order` memoize their results on the plan and
    those two methods drop the memos, so editing ``operators`` or the
    adjacency lists directly after the plan has been fingerprinted or
    sorted is unsupported.  The memos are plain instance attributes
    (``_fingerprint``, ``_topo_order``), not fields: they take no part
    in ``==``, ``repr``, :func:`dataclasses.fields` or pickles.
    """

    operators: Dict[int, Operator] = field(default_factory=dict)
    #: adjacency: producer id -> sorted list of consumer ids
    _consumers: Dict[int, List[int]] = field(default_factory=dict)
    #: reverse adjacency: consumer id -> sorted list of producer ids
    _producers: Dict[int, List[int]] = field(default_factory=dict)

    #: plan_fingerprint's memo.  Not a field: a fingerprinted plan
    #: holds it as an instance attribute shadowing this class-level
    #: None.  Set and cleared with setattr/delattr, never through
    #: ``__dict__``: on CPython 3.11, touching an instance's ``__dict__``
    #: moves its inline attributes into a real dict, and every later
    #: attribute read on that plan gets ~3x slower.
    _fingerprint: ClassVar[Optional[Tuple[Any, ...]]] = None
    #: topological_order's memo, held the same way
    _topo_order: ClassVar[Optional[Tuple[int, ...]]] = None

    def __getstate__(self) -> Dict[str, object]:
        # pickles (pool payloads) carry the fields only, never the memos
        state = dict(self.__dict__)
        state.pop("_fingerprint", None)
        state.pop("_topo_order", None)
        return state

    def _forget_memos(self) -> None:
        if self._fingerprint is not None:
            delattr(self, "_fingerprint")
        if self._topo_order is not None:
            delattr(self, "_topo_order")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_operator(self, operator: Operator) -> Operator:
        """Insert ``operator``; its ``op_id`` must be unused."""
        if operator.op_id in self.operators:
            raise PlanError(f"duplicate operator id {operator.op_id}")
        self._forget_memos()
        self.operators[operator.op_id] = operator
        self._consumers.setdefault(operator.op_id, [])
        self._producers.setdefault(operator.op_id, [])
        return operator

    def add_edge(self, producer_id: int, consumer_id: int) -> None:
        """Connect ``producer -> consumer``; both must already exist.

        The edge closes a cycle exactly when the consumer already
        reaches the producer, so one walk from the consumer decides it
        and a rejected edge never touches the plan.  Building a whole
        plan edge by edge repeats that walk per edge; bulk construction
        goes through :meth:`from_edges`, which checks once.
        """
        self._check_edge(producer_id, consumer_id)
        if consumer_id in self._consumers[producer_id]:
            raise PlanError(f"duplicate edge {producer_id} -> {consumer_id}")
        if self._reaches(consumer_id, producer_id):
            raise PlanError(
                f"edge {producer_id} -> {consumer_id} would create a cycle"
            )
        self._forget_memos()
        self._consumers[producer_id].append(consumer_id)
        self._producers[consumer_id].append(producer_id)

    @classmethod
    def from_edges(
        cls,
        operators: Iterable[Operator],
        edges: Iterable[Tuple[int, int]],
    ) -> "Plan":
        """Build a plan from an operator list and producer->consumer edges.

        Adjacency lists keep the edges' order, as repeated
        :meth:`add_edge` calls would; acyclicity is checked once, by one
        topological sort, so construction is ``O(V log V + E)`` whatever
        order the edges arrive in.
        """
        plan = cls()
        for operator in operators:
            plan.add_operator(operator)
        seen = set()
        for producer_id, consumer_id in edges:
            plan._check_edge(producer_id, consumer_id)
            edge = (producer_id, consumer_id)
            if edge in seen:
                raise PlanError(
                    f"duplicate edge {producer_id} -> {consumer_id}"
                )
            seen.add(edge)
            plan._consumers[producer_id].append(consumer_id)
            plan._producers[consumer_id].append(producer_id)
        plan.topological_order()  # raises on cycles
        return plan

    def _check_edge(self, producer_id: int, consumer_id: int) -> None:
        for op_id in (producer_id, consumer_id):
            if op_id not in self.operators:
                raise PlanError(f"unknown operator id {op_id}")
        if producer_id == consumer_id:
            raise PlanError(f"self edge on operator {producer_id}")

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def consumers(self, op_id: int) -> List[int]:
        """Ids of operators consuming the output of ``op_id``."""
        return list(self._consumers[op_id])

    def producers(self, op_id: int) -> List[int]:
        """Ids of operators whose output ``op_id`` consumes."""
        return list(self._producers[op_id])

    def arity(self, op_id: int) -> int:
        """Total inputs of an operator: plan producers + base tables."""
        return len(self._producers[op_id]) + self.operators[op_id].base_inputs

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all (producer, consumer) edges."""
        for producer_id, consumer_ids in self._consumers.items():
            for consumer_id in consumer_ids:
                yield (producer_id, consumer_id)

    @property
    def sources(self) -> List[int]:
        """Operators with no producers (scans)."""
        return [op_id for op_id in self.operators if not self._producers[op_id]]

    @property
    def sinks(self) -> List[int]:
        """Operators with no consumers (plan outputs)."""
        return [op_id for op_id in self.operators if not self._consumers[op_id]]

    @property
    def free_operators(self) -> List[int]:
        """Ids of free operators (``f(o) = 1``) in topological order."""
        return [op_id for op_id in self.topological_order()
                if self.operators[op_id].free]

    def __len__(self) -> int:
        return len(self.operators)

    def __contains__(self, op_id: int) -> bool:
        return op_id in self.operators

    def __getitem__(self, op_id: int) -> Operator:
        return self.operators[op_id]

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def topological_order(self) -> List[int]:
        """Operator ids in a deterministic topological order (Kahn).

        The ready frontier is a min-heap, so the smallest-id operator is
        released first -- the same order the previous sort-the-frontier
        implementation produced, at ``O(V log V + E)`` instead of
        ``O(V^2 log V)``.  Memoized on the plan (see :class:`Plan`);
        every call returns a fresh list.
        """
        memo = self._topo_order
        if memo is not None:
            return list(memo)
        in_degree = {op_id: len(self._producers[op_id]) for op_id in self.operators}
        ready = [op_id for op_id, deg in in_degree.items() if deg == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            op_id = heapq.heappop(ready)
            order.append(op_id)
            for consumer_id in self._consumers[op_id]:
                in_degree[consumer_id] -= 1
                if in_degree[consumer_id] == 0:
                    heapq.heappush(ready, consumer_id)
        if len(order) != len(self.operators):
            raise PlanError("plan contains a cycle")
        setattr(self, "_topo_order", tuple(order))  # shadows the ClassVar
        return order

    def _reaches(self, start_id: int, target_id: int) -> bool:
        """Whether ``target_id`` is a transitive consumer of ``start_id``."""
        stack = [start_id]
        visited = {start_id}
        while stack:
            for consumer_id in self._consumers[stack.pop()]:
                if consumer_id == target_id:
                    return True
                if consumer_id not in visited:
                    visited.add(consumer_id)
                    stack.append(consumer_id)
        return False

    def ancestors(self, op_id: int) -> List[int]:
        """All transitive producers of ``op_id`` (excluding itself)."""
        seen: List[int] = []
        stack = list(self._producers[op_id])
        visited = set()
        while stack:
            current = stack.pop()
            if current in visited:
                continue
            visited.add(current)
            seen.append(current)
            stack.extend(self._producers[current])
        return sorted(seen)

    def descendants(self, op_id: int) -> List[int]:
        """All transitive consumers of ``op_id`` (excluding itself)."""
        seen: List[int] = []
        stack = list(self._consumers[op_id])
        visited = set()
        while stack:
            current = stack.pop()
            if current in visited:
                continue
            visited.add(current)
            seen.append(current)
            stack.extend(self._consumers[current])
        return sorted(seen)

    # ------------------------------------------------------------------
    # materialization configurations
    # ------------------------------------------------------------------
    def with_mat_config(self, mat_config: "MatConfigLike") -> "Plan":
        """Return a copy of the plan with ``m(o)`` set per ``mat_config``.

        ``mat_config`` maps free-operator ids to booleans.  Bound operators
        keep their fixed flag; supplying a bound operator id with a
        *different* flag raises :class:`PlanError`.
        """
        mapping = dict(mat_config)
        operators = [
            operator.with_materialize(mapping.pop(op_id))
            if op_id in mapping else operator
            for op_id, operator in self.operators.items()
        ]
        if mapping:
            raise PlanError(f"unknown operator ids in config: {sorted(mapping)}")
        return Plan.from_edges(operators, self.edges())

    def mat_config(self) -> Dict[int, bool]:
        """The current materialization configuration ``M_P`` as a dict."""
        return {op_id: op.materialize for op_id, op in self.operators.items()}

    # ------------------------------------------------------------------
    # aggregate costs
    # ------------------------------------------------------------------
    @property
    def total_runtime_cost(self) -> float:
        """Sum of ``tr(o)`` over all operators (no parallelism model)."""
        return left_sum(op.runtime_cost for op in self.operators.values())

    @property
    def total_mat_cost(self) -> float:
        """Sum of ``tm(o)`` over the operators currently materializing."""
        return left_sum(op.mat_cost for op in self.operators.values()
                        if op.materialize)

    def validate(self) -> None:
        """Check structural invariants; raise :class:`PlanError` on failure."""
        if not self.operators:
            raise PlanError("plan has no operators")
        self.topological_order()  # raises on cycles
        for op_id in self.operators:
            for consumer_id in self._consumers[op_id]:
                if op_id not in self._producers[consumer_id]:
                    raise PlanError("inconsistent adjacency lists")

    def pretty(self) -> str:
        """Multi-line human-readable rendering in topological order."""
        lines = []
        for op_id in self.topological_order():
            operator = self.operators[op_id]
            flags = []
            flags.append("m=1" if operator.materialize else "m=0")
            flags.append("free" if operator.free else "bound")
            inputs = ",".join(str(p) for p in self._producers[op_id]) or "-"
            lines.append(
                f"[{op_id}] {operator.name:<24s} tr={operator.runtime_cost:<8g} "
                f"tm={operator.mat_cost:<8g} {' '.join(flags)} inputs={inputs}"
            )
        return "\n".join(lines)


# A materialization configuration can be provided as any mapping / iterable
# of (op_id, flag) pairs.
MatConfigLike = Iterable[Tuple[int, bool]]


def linear_plan(costs: Sequence[Tuple[float, float]],
                names: Optional[Sequence[str]] = None) -> Plan:
    """Build a pipeline plan ``1 -> 2 -> ... -> n`` from (tr, tm) pairs.

    Convenience used pervasively in tests and examples.
    """
    operators = []
    for index, (runtime_cost, mat_cost) in enumerate(costs, start=1):
        name = names[index - 1] if names else f"op{index}"
        operators.append(
            Operator(op_id=index, name=name,
                     runtime_cost=runtime_cost, mat_cost=mat_cost)
        )
    edges = [(index, index + 1) for index in range(1, len(operators))]
    return Plan.from_edges(operators, edges)
