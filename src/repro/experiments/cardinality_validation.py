"""Cardinality-model validation: analytical predictions vs real execution.

The cost model's inputs come from the analytical cardinality model
(:mod:`repro.tpch.cardinality`) -- the equivalent of the paper's "perfect
statistics" at scale factors too large to execute.  This experiment
closes the loop: generate databases at small scale factors, really run
the workload in the mini engine, and compare each operator's measured
output cardinality against the model's prediction.

Not a paper artifact; it is the validation that licences the SF 1-1000
substitution described in DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.summation import left_sum
from ..relational.executor import profile
from ..tpch.datagen import generate
from ..tpch.queries import QUERIES

#: per query: physical-operator description -> logical-operator name.
#: Only operators with stable, identifiable descriptions are matched;
#: deliberately excludes Q5's same-nation supplier join, whose measured
#: value is dominated by small-sample noise (~20 suppliers at tiny SFs).
OPERATOR_MAP: Dict[str, Dict[str, str]] = {
    "Q3": {
        "HashJoin(c_custkey=o_custkey)": "Join(C,O)",
        "HashJoin(o_orderkey=l_orderkey)": "Join(CO,L)",
    },
    "Q5": {
        "HashJoin(n_nationkey=c_nationkey)": "Join(RN,C)",
        "HashJoin(c_custkey=o_custkey)": "Join(RNC,sigma(O))",
        "HashJoin(o_orderkey=l_orderkey)": "Join(RNCO,L)",
    },
    "Q10": {
        "HashJoin(o_orderkey=l_orderkey)": "Join(sigma(O),sigma(L))",
        "HashJoin(o_custkey=c_custkey)": "Join(OL,C)",
        "HashJoin(c_nationkey=n_nationkey)": "Join(OLC,N)",
    },
    "Q2C": {
        "CteBuffer(min_cost_cte)": "MinCostByPart (CTE)",
    },
}


@dataclass(frozen=True)
class ValidationPoint:
    query: str
    operator: str
    scale_factor: float
    predicted: float
    measured: int

    @property
    def relative_error(self) -> float:
        if self.measured == 0:
            return 0.0 if self.predicted == 0 else float("inf")
        return (self.predicted - self.measured) / self.measured


@dataclass(frozen=True)
class ValidationResult:
    points: Tuple[ValidationPoint, ...]

    @property
    def mean_absolute_error(self) -> float:
        errors = [abs(p.relative_error) for p in self.points]
        return left_sum(errors) / len(errors)

    @property
    def worst_absolute_error(self) -> float:
        return max(abs(p.relative_error) for p in self.points)


def run(
    scale_factors: Sequence[float] = (0.002, 0.004),
    seed: int = 42,
) -> ValidationResult:
    """Measure each mapped operator at each scale factor."""
    points: List[ValidationPoint] = []
    for index, scale_factor in enumerate(scale_factors):
        db = generate(scale_factor, seed=seed + index)
        for query_name, mapping in OPERATOR_MAP.items():
            query = QUERIES[query_name]
            _, profiles = profile(query.physical_tree(db))
            measured_by_desc = {
                p.description: p.output_rows for p in profiles.values()
            }
            predicted_by_name = {
                op.name: op.out_rows
                for op in query.logical_ops(scale_factor)
            }
            for description, logical_name in mapping.items():
                points.append(ValidationPoint(
                    query=query_name,
                    operator=logical_name,
                    scale_factor=scale_factor,
                    predicted=predicted_by_name[logical_name],
                    measured=measured_by_desc[description],
                ))
    return ValidationResult(points=tuple(points))


def format_table(result: ValidationResult) -> str:
    lines = [
        "Cardinality model vs measured execution "
        "(analytical predictions licence the SF 1-1000 substitution):",
        f"{'query':<6s}{'operator':<24s}{'SF':>7s}{'predicted':>11s}"
        f"{'measured':>10s}{'error':>8s}",
    ]
    for point in result.points:
        lines.append(
            f"{point.query:<6s}{point.operator:<24s}"
            f"{point.scale_factor:>7.3f}{point.predicted:>11.1f}"
            f"{point.measured:>10d}{100 * point.relative_error:>7.1f}%"
        )
    lines.append("")
    lines.append(
        f"mean |error| = {100 * result.mean_absolute_error:.1f}%, "
        f"worst |error| = {100 * result.worst_absolute_error:.1f}%"
    )
    return "\n".join(lines)
