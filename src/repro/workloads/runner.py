"""Workload-level measurement: a query sequence on one failure timeline.

The paper evaluates schemes per query; real deployments care about the
*workload* -- a mix of queries running back-to-back on a cluster whose
failures do not pause between queries.  The runner executes a workload
sequentially against one continuous failure trace per scheme (the trace
is re-based at each query boundary), yielding per-scheme makespans and
per-query breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.strategies import FaultToleranceScheme, standard_schemes
from ..engine.campaign import campaign_map
from ..engine.cluster import Cluster
from ..engine.executor import SimulatedEngine
from ..engine.traces import (
    FailureTrace,
    generate_trace,
    retry_with_extension,
)
from .mixed import WorkloadQuery


@dataclass(frozen=True)
class QueryOutcome:
    """One query's result within a workload run."""

    label: str
    runtime: float
    aborted: bool
    share_restarts: int
    restarts: int


@dataclass(frozen=True)
class WorkloadRun:
    """A full workload under one scheme."""

    scheme: str
    outcomes: Tuple[QueryOutcome, ...]
    makespan: float
    aborted_queries: int

    @property
    def finished(self) -> bool:
        return self.aborted_queries == 0


def run_workload(
    workload: Sequence[WorkloadQuery],
    scheme: FaultToleranceScheme,
    cluster: Cluster,
    mtbf: float,
    trace: Optional[FailureTrace] = None,
    seed: int = 0,
    const_pipe: float = 1.0,
) -> WorkloadRun:
    """Execute ``workload`` back-to-back under ``scheme``.

    A single failure trace covers the whole run; each query sees the
    timeline from its own start.  Aborted queries (restart limit) are
    skipped after charging the time they burned, like the paper's
    abort-after-100-restarts protocol.
    """
    if not workload:
        raise ValueError("workload must contain at least one query")
    stats = cluster.stats(mtbf, const_pipe=const_pipe)
    engine = SimulatedEngine(cluster, const_pipe=const_pipe)
    if trace is None:
        horizon = _initial_horizon(workload, mtbf)
        trace = generate_trace(cluster.nodes, mtbf, horizon, seed=seed)

    clock = 0.0
    outcomes: List[QueryOutcome] = []
    aborted = 0
    for query in workload:
        configured = scheme.configure(query.plan, stats)
        result, trace = _execute_at(engine, configured, trace, clock)
        outcomes.append(QueryOutcome(
            label=query.label,
            runtime=result.runtime,
            aborted=result.aborted,
            share_restarts=result.share_restarts,
            restarts=result.restarts,
        ))
        clock += result.runtime
        if result.aborted:
            aborted += 1
    return WorkloadRun(
        scheme=scheme.name,
        outcomes=tuple(outcomes),
        makespan=clock,
        aborted_queries=aborted,
    )


def _workload_job(item) -> WorkloadRun:
    """One scheme's workload run -- :func:`compare_workload`'s unit of
    parallelism (module-level so it pickles into worker processes)."""
    workload, scheme, cluster, mtbf, trace = item
    return run_workload(workload, scheme, cluster, mtbf, trace=trace)


def compare_workload(
    workload: Sequence[WorkloadQuery],
    cluster: Cluster,
    mtbf: float,
    schemes: Optional[Sequence[FaultToleranceScheme]] = None,
    seed: int = 0,
    jobs: int = 1,
) -> List[WorkloadRun]:
    """Run the workload once per scheme on the *same* failure timeline.

    ``jobs > 1`` fans the schemes out over worker processes
    (:func:`~repro.engine.campaign.campaign_map`); every scheme still
    sees the identical seeded timeline, so results match the serial run
    exactly.
    """
    if schemes is None:
        schemes = standard_schemes()
    horizon = _initial_horizon(workload, mtbf)
    trace = generate_trace(cluster.nodes, mtbf, horizon, seed=seed)
    items = [
        (tuple(workload), scheme, cluster, mtbf, trace)
        for scheme in schemes
    ]
    return campaign_map(_workload_job, items, jobs=jobs)


def _execute_at(engine, configured, trace, clock):
    """Run one query at workload time ``clock``; returns (result, trace).

    The (possibly extended) base trace is handed back so later queries
    reuse the longer horizon instead of re-extending.
    """
    prepared = engine.prepare(configured)
    return retry_with_extension(
        lambda base: engine.execute_prepared(prepared, base.shifted(clock)),
        trace,
    )


def _initial_horizon(workload, mtbf) -> float:
    total = sum(query.baseline_cost for query in workload)
    return max(total * 30.0, mtbf * 4.0, 10_000.0)


def format_comparison(runs: Sequence[WorkloadRun]) -> str:
    """Per-scheme workload summary as a text table."""
    lines = [f"{'scheme':<20s}{'makespan':>12s}{'aborted':>9s}"
             f"{'restarts':>10s}"]
    for run in runs:
        restarts = sum(o.share_restarts + o.restarts for o in run.outcomes)
        lines.append(
            f"{run.scheme:<20s}{run.makespan:>11.0f}s"
            f"{run.aborted_queries:>9d}{restarts:>10d}"
        )
    return "\n".join(lines)
