"""Figure 12: accuracy of the cost model (Exp. 3a).

Panel (a): actual vs. estimated runtime of the cost-based scheme's chosen
plan for TPC-H Q5 at SF = 100 across MTBFs from one month down to 30
minutes.  Panel (b): actual vs. estimated runtime of *all 32*
materialization configurations of Q5's plan (5 free operators) at a fixed
MTBF of one hour, sorted by estimated runtime.

Expected shapes: estimates track actuals closely for high MTBFs and
underestimate by up to ~30 % at low MTBFs (the model ignores cross-node
max effects and uses the dominant path only), and estimated and actual
rankings of the 32 configurations correlate strongly -- the property that
makes the model useful for plan *selection*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..core.enumeration import enumerate_mat_configs, estimate_plan_cost
from ..core.failure import DAY, HOUR, MINUTE, MONTH, WEEK
from ..core.strategies import ConfiguredPlan, CostBased, RecoveryMode
from ..engine.campaign import CampaignCell, run_campaign
from ..engine.cluster import Cluster
from ..engine.executor import SimulatedEngine
from ..tpch.queries import build_query_plan
from .common import (
    DEFAULT_MTTR,
    DEFAULT_NODES,
    config_label,
    default_params_for,
)

#: the paper's MTBF range, one month down to 30 minutes
PAPER_MTBFS: Tuple[Tuple[str, float], ...] = (
    ("MTBF=1 month", MONTH),
    ("MTBF=1 week", WEEK),
    ("MTBF=1 day", DAY),
    ("MTBF=1 hour", HOUR),
    ("MTBF=30 min", 30 * MINUTE),
)


@dataclass(frozen=True)
class AccuracyPoint:
    label: str
    estimated: float
    actual: float

    @property
    def error_percent(self) -> float:
        """Relative estimation error ((estimated - actual) / actual)."""
        return 100.0 * (self.estimated - self.actual) / self.actual


@dataclass(frozen=True)
class Fig12Result:
    #: panel (a): one point per MTBF
    by_mtbf: Tuple[AccuracyPoint, ...]
    #: panel (b): one point per materialization configuration,
    #: sorted ascending by estimated runtime
    by_config: Tuple[AccuracyPoint, ...]
    #: Spearman rank correlation between estimated and actual in panel (b)
    rank_correlation: float


def run(
    scale_factor: float = 100.0,
    nodes: int = DEFAULT_NODES,
    trace_count: int = 10,
    panel_b_mtbf: float = HOUR,
    mtbfs: Sequence[Tuple[str, float]] = PAPER_MTBFS,
    base_seed: int = 1200,
    jobs: int = 1,
) -> Fig12Result:
    params = default_params_for(nodes)
    plan = build_query_plan("Q5", scale_factor, params)
    cluster = Cluster(nodes=nodes, mttr=DEFAULT_MTTR)
    engine = SimulatedEngine(cluster)

    # the cost-based searches run in the parent (panel (a) needs the
    # search's own estimate); the simulations fan out as one campaign of
    # pre-configured cells.  The campaign lints the plan once up front,
    # so the searches skip their per-configure re-check.
    cells: List[CampaignCell] = []
    estimates: List[float] = []
    labels: List[str] = []
    for index, (label, mtbf) in enumerate(mtbfs):
        stats = cluster.stats(mtbf)
        configured = CostBased(preflight_lint=False).configure(plan, stats)
        estimates.append(configured.search.cost)
        labels.append(label)
        cells.append(CampaignCell(
            label=label,
            plan=plan,
            mtbf=mtbf,
            configured=(configured,),
            trace_count=trace_count,
            base_seed=base_seed + index,
            baseline=engine.execute(configured).runtime,
        ))

    stats = cluster.stats(panel_b_mtbf)
    config_labels: List[str] = []
    config_estimates: List[float] = []
    for config_index, config in enumerate(enumerate_mat_configs(plan)):
        candidate = plan.with_mat_config(config)
        estimate = estimate_plan_cost(candidate, stats)
        configured = ConfiguredPlan(
            plan=candidate,
            recovery=RecoveryMode.FINE_GRAINED,
            scheme=f"config-{config_index}",
        )
        config_labels.append(config_label(config))
        config_estimates.append(estimate.cost)
        cells.append(CampaignCell(
            label=f"config-{config_index}",
            plan=plan,
            mtbf=panel_b_mtbf,
            configured=(configured,),
            trace_count=trace_count,
            base_seed=base_seed + 100,
            baseline=engine.execute(configured).runtime,
        ))

    results = run_campaign(cells, cluster, jobs=jobs)
    panel_a, panel_b = results[:len(mtbfs)], results[len(mtbfs):]

    by_mtbf = tuple(
        AccuracyPoint(
            label=labels[i],
            estimated=estimates[i],
            actual=_mean_actual(result),
        )
        for i, result in enumerate(panel_a)
    )
    by_config = [
        AccuracyPoint(
            label=config_labels[i],
            estimated=config_estimates[i],
            actual=_mean_actual(result),
        )
        for i, result in enumerate(panel_b)
    ]
    by_config.sort(key=lambda point: point.estimated)
    return Fig12Result(
        by_mtbf=by_mtbf,
        by_config=tuple(by_config),
        rank_correlation=_spearman(
            [p.estimated for p in by_config],
            [p.actual for p in by_config],
        ),
    )


def _mean_actual(result) -> float:
    """Mean achieved runtime over the cell's traces.

    Matches the pre-campaign implementation exactly: the mean is taken
    with :func:`numpy.mean` (whose pairwise summation can differ from a
    running sum in the last ulp) over all runs -- fine-grained recovery
    never aborts, so the finished-run set is the full trace set.
    """
    runtimes = list(result.runtimes)
    runtimes.extend([float("inf")] * result.aborted_runs)
    return float(np.mean(runtimes))


def _spearman(a: Sequence[float], b: Sequence[float]) -> float:
    rank_a = np.argsort(np.argsort(a))
    rank_b = np.argsort(np.argsort(b))
    if len(a) < 2:
        return 1.0
    return float(np.corrcoef(rank_a, rank_b)[0, 1])


def format_table(result: Fig12Result) -> str:
    lines = ["Figure 12(a) -- accuracy across MTBFs (Q5 @ SF 100):",
             f"{'MTBF':<16s}{'estimated(s)':>14s}{'actual(s)':>12s}"
             f"{'error':>9s}"]
    for point in result.by_mtbf:
        lines.append(
            f"{point.label:<16s}{point.estimated:>14.0f}"
            f"{point.actual:>12.0f}{point.error_percent:>8.1f}%"
        )
    lines.append("")
    lines.append("Figure 12(b) -- all 32 configurations at MTBF=1 hour "
                 "(sorted by estimate):")
    lines.append(f"{'rank':<6s}{'materialized':<20s}"
                 f"{'estimated(s)':>14s}{'actual(s)':>12s}")
    for rank, point in enumerate(result.by_config, start=1):
        lines.append(
            f"{rank:<6d}{point.label:<20s}{point.estimated:>14.0f}"
            f"{point.actual:>12.0f}"
        )
    lines.append("")
    lines.append(f"Spearman rank correlation (estimated vs actual): "
                 f"{result.rank_correlation:.3f}")
    return "\n".join(lines)
