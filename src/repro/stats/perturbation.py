"""Statistic perturbation for the robustness experiment (Exp. 3b, Table 3).

The paper evaluates how sensitive the plan ranking is to wrong statistics
by multiplying cost-model inputs with perturbation factors before running
the optimizer:

* ``MTBF x f``       -- the cluster statistic is off by factor ``f``;
* ``I/O costs x f``  -- every ``tm(o)`` is off by factor ``f``;
* ``Compute & I/O costs x f`` -- every ``tr(o)`` *and* ``tm(o)`` is off.

Perturbations apply only to what the *optimizer sees*; the simulated
engine keeps executing with the true costs, which is exactly what makes
bad rankings visible.
"""

from __future__ import annotations

import enum
from dataclasses import replace
from typing import Tuple

from ..core.cost_model import ClusterStats
from ..core.plan import Plan


class PerturbationKind(enum.Enum):
    MTBF = "MTBF"
    IO = "I/O costs"
    COMPUTE_AND_IO = "Compute & I/O costs"


#: the paper's perturbation factors (Table 3)
PAPER_FACTORS: Tuple[float, ...] = (0.1, 0.5, 2.0, 10.0)


def perturb_stats(
    stats: ClusterStats, kind: PerturbationKind, factor: float
) -> ClusterStats:
    """Perturbed cluster statistics (only MTBF lives here)."""
    _check_factor(factor)
    if kind is PerturbationKind.MTBF:
        return replace(stats, mtbf=stats.mtbf * factor)
    return stats


def perturb_plan(
    plan: Plan, kind: PerturbationKind, factor: float
) -> Plan:
    """Plan with perturbed operator cost estimates.

    ``IO`` scales materialization costs; ``COMPUTE_AND_IO`` scales both
    runtime and materialization costs; ``MTBF`` leaves the plan unchanged.
    """
    _check_factor(factor)
    if kind is PerturbationKind.MTBF:
        return plan

    scale_runtime = kind is PerturbationKind.COMPUTE_AND_IO
    return Plan.from_edges(
        (
            replace(
                operator,
                runtime_cost=(
                    operator.runtime_cost * factor
                    if scale_runtime else operator.runtime_cost
                ),
                mat_cost=operator.mat_cost * factor,
            )
            for operator in plan.operators.values()
        ),
        plan.edges(),
    )


def _check_factor(factor: float) -> None:
    if factor <= 0:
        raise ValueError("perturbation factor must be > 0")
