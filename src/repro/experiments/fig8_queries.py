"""Figure 8: overhead of the four schemes for varying queries.

The paper runs Q1, Q3, Q5, Q1C and Q2C over a TPC-H database of SF = 100
and injects failures with two MTBF settings per query:

* **low MTBF** -- 1.1x the query's baseline runtime (high failure rate;
  Figure 8a), and
* **high MTBF** -- 10x the baseline runtime (low failure rate;
  Figure 8b).

Expected shapes: the cost-based scheme always has the least (or tied)
overhead; no-mat (restart) aborts every query at low MTBF; at high MTBF
the all-mat scheme pays a visible materialization tax on Q1C/Q2C whose
intermediates are expensive to write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..chaos import FaultPolicy
from ..core.strategies import standard_schemes
from ..engine.campaign import CampaignCell, CellResult, run_campaign
from ..engine.cluster import Cluster
from ..engine.coordinator import pure_baseline_runtime
from ..engine.executor import SimulatedEngine
from ..tpch.queries import build_query_plan
from .common import (
    DEFAULT_MTTR,
    DEFAULT_NODES,
    default_params_for,
    overhead_grid,
)

PAPER_QUERIES: Tuple[str, ...] = ("Q1", "Q3", "Q5", "Q1C", "Q2C")


@dataclass(frozen=True)
class Fig8Result:
    low_mtbf_cells: Tuple[CellResult, ...]     #: Figure 8(a)
    high_mtbf_cells: Tuple[CellResult, ...]    #: Figure 8(b)
    baselines: Dict[str, float]


def run(
    scale_factor: float = 100.0,
    queries: Sequence[str] = PAPER_QUERIES,
    nodes: int = DEFAULT_NODES,
    trace_count: int = 10,
    base_seed: int = 800,
    engine_name: str = "fast",
    parallelism: int = 1,
    jobs: int = 1,
    chaos: Optional[FaultPolicy] = None,
) -> Fig8Result:
    """Measure both Figure 8 panels as one campaign.

    ``engine_name``/``parallelism`` select the cost-based scheme's
    search engine (results are engine-independent; see
    :func:`repro.core.enumeration.find_best_ft_plan`).  ``jobs`` fans
    the (query, MTBF, scheme) grid out over worker processes; results
    are identical to the serial run.  ``chaos`` injects a fault policy
    into every measurement (baselines stay clean; a null policy
    reproduces the un-injected figure exactly).
    """
    params = default_params_for(nodes)
    cluster = Cluster(nodes=nodes, mttr=DEFAULT_MTTR)
    engine = SimulatedEngine(cluster)
    # the campaign preflights each plan once up front, so the cost-based
    # search skips its per-configure re-lint
    schemes = tuple(standard_schemes(engine=engine_name,
                                     parallelism=parallelism,
                                     preflight_lint=False))

    cells = []
    baselines: Dict[str, float] = {}
    for query_name in queries:
        plan = build_query_plan(query_name, scale_factor, params)
        baseline = pure_baseline_runtime(
            plan, engine, cluster.stats(mtbf=1.0)
        )
        baselines[query_name] = baseline
        cells.append(CampaignCell(             # low MTBF -- Figure 8(a)
            label=query_name, plan=plan, mtbf=1.1 * baseline,
            schemes=schemes, trace_count=trace_count,
            base_seed=base_seed, baseline=baseline,
        ))
        cells.append(CampaignCell(             # high MTBF -- Figure 8(b)
            label=query_name, plan=plan, mtbf=10.0 * baseline,
            schemes=schemes, trace_count=trace_count,
            base_seed=base_seed + 1, baseline=baseline,
        ))
    results = run_campaign(cells, cluster, jobs=jobs, chaos=chaos)
    low_cells: List[CellResult] = []
    high_cells: List[CellResult] = []
    for result in results:
        # cells alternate low, high per query
        target = low_cells if result.cell_index % 2 == 0 else high_cells
        target.append(result)
    return Fig8Result(
        low_mtbf_cells=tuple(low_cells),
        high_mtbf_cells=tuple(high_cells),
        baselines=baselines,
    )


def format_table(result: Fig8Result) -> str:
    lines = ["Figure 8(a) -- low MTBF (1.1x baseline runtime):"]
    lines.append(overhead_grid(result.low_mtbf_cells))
    lines.append("")
    lines.append("Figure 8(b) -- high MTBF (10x baseline runtime):")
    lines.append(overhead_grid(result.high_mtbf_cells))
    lines.append("")
    lines.append("baseline runtimes (s): " + ", ".join(
        f"{q}={b:.0f}" for q, b in result.baselines.items()
    ))
    return "\n".join(lines)
