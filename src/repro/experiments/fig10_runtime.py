"""Figure 10: overhead vs. query runtime (Exp. 2a).

TPC-H Q5 executed over scale factors from 1 to 1000 so the baseline
runtime spans seconds to hours, with a fixed per-node MTBF of 1 day.
Expected shape: every scheme starts near 0 % for short queries; the
no-mat schemes' overhead grows with runtime (restart eventually fails to
finish); all-mat tracks the cost-based scheme but stays ~34 % above it
for short queries (Q5's total materialization tax); the cost-based scheme
is the lower envelope, switching from materializing nothing to
materializing the cheap intermediates as runtime grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.failure import DAY
from ..engine.campaign import CampaignCell, CellResult, run_campaign
from ..engine.cluster import Cluster
from ..engine.coordinator import pure_baseline_runtime
from ..engine.executor import SimulatedEngine
from ..tpch.queries import build_query_plan
from .common import DEFAULT_MTTR, DEFAULT_NODES, default_params_for

#: scale factors sweeping the paper's runtime range
PAPER_SCALE_FACTORS: Tuple[float, ...] = (1, 10, 30, 100, 300, 1000, 3000, 7000)


@dataclass(frozen=True)
class Fig10Result:
    mtbf: float
    #: one entry per scale factor
    scale_factors: Tuple[float, ...]
    baselines: Tuple[float, ...]
    cells: Tuple[CellResult, ...]


def run(
    scale_factors: Sequence[float] = PAPER_SCALE_FACTORS,
    mtbf: float = DAY,
    nodes: int = DEFAULT_NODES,
    trace_count: int = 10,
    base_seed: int = 1000,
    jobs: int = 1,
) -> Fig10Result:
    params = default_params_for(nodes)
    cluster = Cluster(nodes=nodes, mttr=DEFAULT_MTTR)
    engine = SimulatedEngine(cluster)
    grid = []
    baselines: List[float] = []
    for index, scale_factor in enumerate(scale_factors):
        plan = build_query_plan("Q5", scale_factor, params)
        baseline = pure_baseline_runtime(plan, engine, cluster.stats(mtbf))
        baselines.append(baseline)
        grid.append(CampaignCell(
            label=f"Q5@SF{scale_factor:g}", plan=plan, mtbf=mtbf,
            trace_count=trace_count, base_seed=base_seed + index,
            baseline=baseline,
        ))
    return Fig10Result(
        mtbf=mtbf,
        scale_factors=tuple(scale_factors),
        baselines=tuple(baselines),
        cells=tuple(run_campaign(grid, cluster, jobs=jobs)),
    )


def format_table(result: Fig10Result) -> str:
    schemes = list(dict.fromkeys(cell.scheme for cell in result.cells))
    width = max(len(s) for s in schemes) + 2
    lines = [
        f"Figure 10 -- Q5 overhead vs runtime (MTBF = {result.mtbf:.0f}s "
        "per node):",
        "runtime(min)".ljust(14) + "".join(s.rjust(width) for s in schemes),
    ]
    by_query = {}
    for cell in result.cells:
        by_query.setdefault(cell.label, {})[cell.scheme] = cell
    for scale_factor, baseline in zip(result.scale_factors,
                                      result.baselines):
        query = f"Q5@SF{scale_factor:g}"
        row = f"{baseline / 60.0:<14.1f}"
        for scheme in schemes:
            cell = by_query[query].get(scheme)
            row += (cell.formatted() if cell else "-").rjust(width)
        lines.append(row)
    return "\n".join(lines)
