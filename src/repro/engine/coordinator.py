"""Query coordinator / experiment harness over the simulated engine.

The paper's coordinator monitors sub-plan execution, restarts failed
sub-plans, and aborts hopeless queries.  On top of the single-run
semantics implemented by :class:`~repro.engine.executor.SimulatedEngine`,
this module provides the *measurement protocol* of Section 5: run each
scheme over the same set of failure traces, average the runtimes, and
report the overhead relative to the pure baseline runtime (the no-mat
plan with no failures and no extra materializations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..chaos.policy import FaultPolicy
from ..core.cost_model import ClusterStats
from ..core.plan import Plan
from ..core.strategies import (
    ConfiguredPlan,
    FaultToleranceScheme,
    NoMatLineage,
)
from .cluster import Cluster
from .executor import ExecutionResult, PreparedExecution, SimulatedEngine
from .traces import MAX_TRACE_EXTENSIONS, FailureTrace


@dataclass(frozen=True)
class SchemeMeasurement:
    """Aggregated runtimes of one scheme over a trace set."""

    scheme: str
    baseline: float                   #: pure runtime, no failures, no mats
    runtimes: "tuple[float, ...]"     #: per-trace achieved runtimes
    aborted_runs: int                 #: runs that hit the restart limit
    materialized_ids: "tuple[int, ...]"  #: intermediates the scheme chose

    @property
    def mean_runtime(self) -> float:
        """Mean runtime over *finished* runs (inf when all aborted)."""
        if not self.runtimes:
            return float("inf")
        return sum(self.runtimes) / len(self.runtimes)

    @property
    def overhead(self) -> float:
        """Overhead fraction: ``mean_runtime / baseline - 1``.

        The paper reports this as a percentage (``overhead * 100``);
        aborted-only measurements report ``inf`` (rendered "Aborted").
        """
        if not self.runtimes:
            return float("inf")
        return self.mean_runtime / self.baseline - 1.0

    @property
    def overhead_percent(self) -> float:
        overhead = self.overhead
        return overhead * 100.0 if math.isfinite(overhead) else float("inf")

    @property
    def all_aborted(self) -> bool:
        return not self.runtimes and self.aborted_runs > 0


# ----------------------------------------------------------------------
# baseline memo: (plan fingerprint, cluster, CONST_pipe) -> runtime
# ----------------------------------------------------------------------
_BASELINE_MEMO: Dict[Any, float] = {}
_BASELINE_CAPACITY = 1024


def pure_baseline_runtime(
    plan: Plan, engine: SimulatedEngine, stats: ClusterStats
) -> float:
    """The paper's baseline: no failures, no extra materializations.

    Implemented as a failure-free run of the no-mat configuration (bound
    always-materialized operators keep their cost -- the engine pays them
    under every scheme).

    Memoized per process, keyed by the plan's structural fingerprint plus
    the engine's cluster and ``CONST_pipe`` -- everything the failure-free
    no-mat runtime depends on (``stats`` does not enter it: the no-mat
    configuration ignores the statistics and no failures are replayed).
    Call sites that measure several schemes for the same (plan, cluster)
    therefore pay for exactly one baseline run.  Capacity-capped like the
    preflight memo: once full it resets rather than growing unboundedly.
    """
    # deferred import: repro.core.enumeration must not import the engine
    from ..core.enumeration import plan_fingerprint

    # the chaos policy enters the key defensively: a straggler-injecting
    # engine does not produce the pure baseline (campaigns always measure
    # baselines on a clean engine, see _measure_unit)
    key = (
        plan_fingerprint(plan), engine.cluster, engine.const_pipe,
        getattr(engine, "chaos", None),
    )
    cached = _BASELINE_MEMO.get(key)
    if cached is not None:
        return cached
    configured = NoMatLineage().configure(plan, stats)
    runtime = engine.execute(configured).runtime
    if len(_BASELINE_MEMO) >= _BASELINE_CAPACITY:
        _BASELINE_MEMO.clear()
    _BASELINE_MEMO[key] = runtime
    return runtime


def measure_scheme(
    scheme: FaultToleranceScheme,
    plan: Plan,
    engine: SimulatedEngine,
    stats: ClusterStats,
    traces: Sequence[FailureTrace],
    baseline: Optional[float] = None,
) -> SchemeMeasurement:
    """Run ``scheme`` on ``plan`` once per trace and aggregate runtimes.

    Traces whose horizon proves too short are transparently extended
    (the extension preserves the original prefix, so results are
    identical to having generated a longer trace up front) and, when
    ``traces`` is mutable, written back into it.  The traces run through
    :meth:`~repro.engine.executor.SimulatedEngine.execute_many`.
    """
    if baseline is None:
        baseline = pure_baseline_runtime(plan, engine, stats)
    configured = scheme.configure(plan, stats)
    batch = engine.execute_many(engine.prepare(configured), traces)
    materialized = tuple(
        op_id for op_id, op in configured.plan.operators.items()
        if op.materialize and plan[op_id].free
    )
    return SchemeMeasurement(
        scheme=scheme.name,
        baseline=baseline,
        runtimes=batch.finished_runtimes,
        aborted_runs=batch.aborted_runs,
        materialized_ids=materialized,
    )


def run_with_extension(
    engine: SimulatedEngine,
    target: Union[ConfiguredPlan, PreparedExecution],
    trace: FailureTrace,
    max_extensions: int = MAX_TRACE_EXTENSIONS,
) -> Tuple[ExecutionResult, FailureTrace]:
    """Run one trace, extending its horizon when needed; return both.

    Extension regenerates from the same seed, so the failure prefix the
    run already consumed is unchanged -- the result is identical to
    having generated a longer trace up front.  The (possibly extended)
    trace is returned so callers can write it back into a shared trace
    set instead of re-extending on every scheme.

    ``target`` may be a :class:`ConfiguredPlan` (prepared here once) or
    an already-prepared :class:`PreparedExecution`.
    """
    prepared = (
        target if isinstance(target, PreparedExecution)
        else engine.prepare(target)
    )
    return engine.run_extending(prepared, trace,
                                max_extensions=max_extensions)


@dataclass(frozen=True)
class ComparisonRow:
    """One (scheme, query) cell of the paper's overhead figures."""

    query: str
    scheme: str
    overhead_percent: float
    aborted: bool
    materialized_ids: "tuple[int, ...]"

    def formatted_overhead(self) -> str:
        if self.aborted:
            return "Aborted"
        return f"{self.overhead_percent:.0f}%"


def compare_schemes(
    schemes: Sequence[FaultToleranceScheme],
    plan: Plan,
    query_name: str,
    cluster: Cluster,
    mtbf: float,
    traces: Optional[Sequence[FailureTrace]] = None,
    trace_count: int = 10,
    base_seed: int = 0,
    const_pipe: float = 1.0,
    preflight_lint: bool = True,
    jobs: int = 1,
    baseline: Optional[float] = None,
    chaos: Optional[FaultPolicy] = None,
) -> List[ComparisonRow]:
    """The full Section 5.2/5.3 measurement for one query and MTBF.

    Generates a shared trace set (unless one is supplied), measures every
    scheme against it, and returns overhead rows in scheme order.  The
    measurement is one single-cell campaign
    (:func:`repro.engine.campaign.run_campaign`): ``jobs > 1`` fans the
    schemes out over worker processes with results guaranteed identical
    to the serial run.

    ``baseline`` short-circuits the pure-baseline measurement when the
    caller already computed it (it is also memoized per process, see
    :func:`pure_baseline_runtime`).

    ``preflight_lint`` statically validates the plan (structure, costs,
    cost-model invariants -- see :mod:`repro.analysis.plan_lint`) before
    any simulation and raises
    :class:`~repro.analysis.diagnostics.LintError` on error-severity
    findings; pass ``False`` to skip the check, e.g. when measuring a
    deliberately-broken plan.

    ``chaos`` applies a :class:`~repro.chaos.FaultPolicy` to the
    measurement (injected traces and executor-level faults); baselines
    stay failure- and chaos-free.  A null policy reproduces the
    un-injected measurement bit-for-bit.
    """
    # deferred import: campaign builds on this module
    from .campaign import CampaignCell, run_campaign

    cell = CampaignCell(
        label=query_name,
        plan=plan,
        mtbf=mtbf,
        schemes=tuple(schemes),
        trace_count=trace_count,
        base_seed=base_seed,
        const_pipe=const_pipe,
        traces=tuple(traces) if traces is not None else None,
        baseline=baseline,
    )
    results = run_campaign(
        [cell], cluster, jobs=jobs, preflight_lint=preflight_lint,
        chaos=chaos,
    )
    return [
        ComparisonRow(
            query=query_name,
            scheme=result.scheme,
            overhead_percent=result.overhead_percent,
            aborted=result.all_aborted,
            materialized_ids=result.materialized_ids,
        )
        for result in results
    ]


def _default_horizon(baseline: float, mtbf: float, cluster: Cluster) -> float:
    """A horizon comfortably beyond any plausible runtime under failures.

    The restart scheme can take up to ``max_restarts`` attempts of the
    full makespan; fine-grained schemes are far below that.  Traces are
    extended on demand anyway, so this only sets the starting size.
    """
    return max(baseline * 20.0, mtbf * cluster.nodes * 2.0, 1000.0)
