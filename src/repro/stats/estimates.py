"""Translating workload statistics into the cost model's inputs.

The paper's optimizer consumes two estimates per operator -- the runtime
cost ``tr(o)`` and the materialization cost ``tm(o)`` -- both "calculated
based on input/output cardinalities of each operator" (Section 2.1).  This
module is that translation layer: a :class:`LogicalOperator` carries the
cardinality-level description of an operator (rows processed, rows/bytes
produced, plan position, free/bound status), and :func:`build_plan` turns
a list of them into a :class:`repro.core.Plan` using a
:class:`CostParameters` calibration:

* ``tr(o) = work_rows * cpu_row_cost / nodes``  (partition-parallel), and
* ``tm(o) = out_bytes * mat_byte_cost / nodes`` (parallel writes to the
  fault-tolerant storage).

``CostParameters`` values are calibrated so the paper's anchor numbers are
matched (see :mod:`repro.stats.calibration`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

from ..core.plan import Operator, Plan


@dataclass(frozen=True)
class LogicalOperator:
    """Cardinality-level description of one plan operator.

    ``work_rows`` counts every row the operator touches (scan reads,
    probe/build inputs, produced outputs); ``out_rows``/``out_bytes``
    describe its intermediate result.  ``free`` marks operators whose
    materialization the optimizer may toggle (the paper's ``f(o)``);
    ``always_materialize`` pins ``m(o) = 1`` (e.g. final sinks that must
    deliver their result); ``base_inputs`` counts the base tables folded
    into the operator (they contribute to its arity but are never
    checkpointed).
    """

    op_id: int
    name: str
    inputs: Tuple[int, ...]
    work_rows: float
    out_rows: float
    out_bytes: float
    free: bool = False
    always_materialize: bool = False
    base_inputs: int = 0

    def __post_init__(self) -> None:
        if self.free and self.always_materialize:
            raise ValueError(
                f"operator {self.op_id}: free and always-materialized "
                "are mutually exclusive"
            )


@dataclass(frozen=True)
class CostParameters:
    """Calibration constants mapping cardinalities to cost-model seconds.

    Parameters
    ----------
    cpu_row_cost:
        Seconds per processed row on a single node.
    mat_byte_cost:
        Seconds per byte written to the fault-tolerant storage medium,
        per node (parallel writers).
    nodes:
        Cluster size over which operators run partition-parallel.
    """

    cpu_row_cost: float
    mat_byte_cost: float
    nodes: int = 10

    def __post_init__(self) -> None:
        if self.cpu_row_cost <= 0:
            raise ValueError("cpu_row_cost must be > 0")
        if self.mat_byte_cost < 0:
            raise ValueError("mat_byte_cost must be >= 0")
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")

    def runtime_cost(self, work_rows: float) -> float:
        """``tr(o)`` for an operator touching ``work_rows`` rows."""
        return work_rows * self.cpu_row_cost / self.nodes

    def mat_cost(self, out_bytes: float) -> float:
        """``tm(o)`` for materializing ``out_bytes``."""
        return out_bytes * self.mat_byte_cost / self.nodes

    def with_nodes(self, nodes: int) -> "CostParameters":
        return replace(self, nodes=nodes)

    def scaled(self, cpu_factor: float = 1.0,
               mat_factor: float = 1.0) -> "CostParameters":
        """Perturbed copy (robustness experiments)."""
        return replace(
            self,
            cpu_row_cost=self.cpu_row_cost * cpu_factor,
            mat_byte_cost=self.mat_byte_cost * mat_factor,
        )


def build_plan(
    logical_ops: Sequence[LogicalOperator],
    params: CostParameters,
) -> Plan:
    """Materialize a :class:`repro.core.Plan` from logical operators.

    Free operators start with ``m(o) = 0`` (the enumeration decides);
    always-materialized operators are bound with ``m(o) = 1``; everything
    else is bound with ``m(o) = 0``.
    """
    plan = Plan.from_edges(
        (
            Operator(
                op_id=logical.op_id,
                name=logical.name,
                runtime_cost=params.runtime_cost(logical.work_rows),
                mat_cost=params.mat_cost(logical.out_bytes),
                materialize=logical.always_materialize,
                free=logical.free,
                cardinality=round(logical.out_rows),
                base_inputs=logical.base_inputs,
            )
            for logical in logical_ops
        ),
        [(input_id, logical.op_id)
         for logical in logical_ops for input_id in logical.inputs],
    )
    plan.validate()
    return plan


def measured_costs(plan: Plan) -> Dict[int, Tuple[float, float]]:
    """Extract ``(tr(o), tm(o))`` per operator -- "perfect statistics"."""
    return {
        op_id: (op.runtime_cost, op.mat_cost)
        for op_id, op in plan.operators.items()
    }
