"""Figure 11: overhead vs. MTBF (Exp. 2b).

TPC-H Q5 at SF = 100 (baseline ~905 s) under per-node MTBFs of one week
(cluster A), one day (cluster B) and one hour (cluster C), on 10 nodes.

Paper's measurements for reference (overhead %):

==================  =========  ========  =========
scheme              1 week     1 day     1 hour
==================  =========  ========  =========
all-mat             34.13      40.93     73.83
no-mat (lineage)    0          29.34     84.66
no-mat (restart)    0          57.74     231.80
cost-based          0          29.30     52.12
==================  =========  ========  =========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..chaos import FaultPolicy
from ..core.failure import DAY, HOUR, WEEK
from ..engine.campaign import CampaignCell, CellResult, run_campaign
from ..engine.cluster import Cluster
from ..tpch.queries import build_query_plan
from .common import DEFAULT_MTTR, DEFAULT_NODES, default_params_for

#: (label, seconds) in the paper's order
PAPER_MTBFS: Tuple[Tuple[str, float], ...] = (
    ("Cluster A (10 nodes, MTBF=1 week)", WEEK),
    ("Cluster B (10 nodes, MTBF=1 day)", DAY),
    ("Cluster C (10 nodes, MTBF=1 hour)", HOUR),
)


@dataclass(frozen=True)
class Fig11Result:
    scale_factor: float
    baseline: float
    #: cluster label -> cells (one per scheme)
    by_cluster: Dict[str, Tuple[CellResult, ...]]


def run(
    scale_factor: float = 100.0,
    mtbfs: Sequence[Tuple[str, float]] = PAPER_MTBFS,
    nodes: int = DEFAULT_NODES,
    trace_count: int = 10,
    base_seed: int = 1100,
    jobs: int = 1,
    chaos: Optional[FaultPolicy] = None,
) -> Fig11Result:
    params = default_params_for(nodes)
    cluster = Cluster(nodes=nodes, mttr=DEFAULT_MTTR)
    plan = build_query_plan("Q5", scale_factor, params)
    grid = [
        CampaignCell(
            label="Q5", plan=plan, mtbf=mtbf,
            trace_count=trace_count, base_seed=base_seed + index,
        )
        for index, (_, mtbf) in enumerate(mtbfs)
    ]
    results = run_campaign(grid, cluster, jobs=jobs, chaos=chaos)
    by_cluster: Dict[str, Tuple[CellResult, ...]] = {}
    baseline = 0.0
    for cell_index, (label, _) in enumerate(mtbfs):
        cells = tuple(r for r in results if r.cell_index == cell_index)
        by_cluster[label] = cells
        baseline = cells[0].baseline
    return Fig11Result(
        scale_factor=scale_factor,
        baseline=baseline,
        by_cluster=by_cluster,
    )


def format_table(result: Fig11Result) -> str:
    schemes = [
        cell.scheme for cell in next(iter(result.by_cluster.values()))
    ]
    width = max(len(s) for s in schemes) + 2
    lines = [
        f"Figure 11 -- Q5 @ SF {result.scale_factor:g} "
        f"(baseline {result.baseline:.0f}s):",
        "cluster".ljust(40) + "".join(s.rjust(width) for s in schemes),
    ]
    for label, cells in result.by_cluster.items():
        row = label.ljust(40)
        lookup = {cell.scheme: cell for cell in cells}
        for scheme in schemes:
            row += lookup[scheme].formatted().rjust(width)
        lines.append(row)
    return "\n".join(lines)
