"""Table 3: robustness of the cost model to inaccurate statistics (Exp. 3b).

Protocol (Section 5.4): rank all 32 materialization configurations of
TPC-H Q5 (SF = 100, MTBF = 1 hour) by their estimated runtime with exact
statistics -- the *baseline ranking*.  Then perturb the statistics the
optimizer sees (MTBF, I/O costs, or compute + I/O costs, each by factors
0.1x / 0.5x / 2x / 10x), re-rank, and report which baseline positions the
perturbed top-5 now occupies.  Small numbers mean the perturbation barely
hurt; a 28 in the top row means the optimizer picked a plan that was
28th-best under the true statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.cost_model import ClusterStats
from ..core.failure import HOUR
from ..core.plan import Plan
from ..engine.campaign import campaign_map
from ..stats.perturbation import (
    PAPER_FACTORS,
    PerturbationKind,
    perturb_plan,
    perturb_stats,
)
from ..tpch.queries import build_query_plan
from .common import (
    DEFAULT_MTTR, DEFAULT_NODES, MatConfigKey, default_params_for,
    sweep_configs,
)


@dataclass(frozen=True)
class Tab3Row:
    kind: PerturbationKind
    factor: float
    #: baseline positions (1-based) of the perturbed ranking's top-5
    top5_baseline_positions: Tuple[int, ...]

    @property
    def label(self) -> str:
        return f"{self.kind.value} x{self.factor:g}"


@dataclass(frozen=True)
class Tab3Result:
    #: configurations ordered by exact-statistics estimate (the baseline)
    baseline_ranking: Tuple[MatConfigKey, ...]
    rows: Tuple[Tab3Row, ...]
    #: estimated runtimes of the baseline ranking (for regret analysis)
    baseline_costs: Tuple[float, ...]

    def regret(self, row: Tab3Row) -> float:
        """True-cost ratio of the perturbed winner vs the true optimum."""
        winner_position = row.top5_baseline_positions[0]
        return (
            self.baseline_costs[winner_position - 1]
            / self.baseline_costs[0]
        )


def _ranking(
    plan: Plan, stats: ClusterStats
) -> List[Tuple[float, MatConfigKey]]:
    """All configurations with their estimated runtime, cheapest first
    (the stable sort keeps equal costs in enumeration order)."""
    sweep = sweep_configs(plan, stats)
    return sorted(zip(sweep.costs, sweep.configs), key=lambda item: item[0])


def _perturbed_top5(
    item: Tuple[Plan, ClusterStats, PerturbationKind, float],
) -> Tuple[MatConfigKey, ...]:
    """Top-5 configurations after perturbing what the optimizer sees.

    Module-level so :func:`~repro.engine.campaign.campaign_map` can ship
    it to worker processes.
    """
    plan, stats, kind, factor = item
    perturbed_plan = perturb_plan(plan, kind, factor)
    perturbed_stats = perturb_stats(stats, kind, factor)
    perturbed_ranking = _ranking(perturbed_plan, perturbed_stats)
    return tuple(config for _, config in perturbed_ranking[:5])


def run(
    scale_factor: float = 100.0,
    mtbf: float = HOUR,
    nodes: int = DEFAULT_NODES,
    factors: Sequence[float] = PAPER_FACTORS,
    jobs: int = 1,
) -> Tab3Result:
    params = default_params_for(nodes)
    plan = build_query_plan("Q5", scale_factor, params)
    stats = ClusterStats(mtbf=mtbf, mttr=DEFAULT_MTTR, nodes=nodes)

    baseline_scored = _ranking(plan, stats)
    baseline_ranking = [config for _, config in baseline_scored]
    baseline_costs = [cost for cost, _ in baseline_scored]
    position_of: Dict[MatConfigKey, int] = {
        config: index + 1 for index, config in enumerate(baseline_ranking)
    }

    grid = [
        (plan, stats, kind, factor)
        for kind in PerturbationKind
        for factor in factors
    ]
    top5s = campaign_map(_perturbed_top5, grid, jobs=jobs)
    rows: List[Tab3Row] = [
        Tab3Row(
            kind=kind,
            factor=factor,
            top5_baseline_positions=tuple(
                position_of[config] for config in top5
            ),
        )
        for (_, _, kind, factor), top5 in zip(grid, top5s)
    ]
    return Tab3Result(
        baseline_ranking=tuple(baseline_ranking),
        rows=tuple(rows),
        baseline_costs=tuple(baseline_costs),
    )


def format_table(result: Tab3Result) -> str:
    lines = [
        "Table 3 -- baseline positions of the perturbed top-5 "
        "(1 2 3 4 5 = unaffected):",
        f"{'perturbation':<28s}{'top-5 baseline positions':>30s}"
        f"{'regret':>9s}",
    ]
    for row in result.rows:
        positions = " ".join(f"{p:>2d}" for p in row.top5_baseline_positions)
        lines.append(
            f"{row.label:<28s}{positions:>30s}"
            f"{result.regret(row):>8.2f}x"
        )
    return "\n".join(lines)
