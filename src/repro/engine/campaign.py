"""Declarative simulation campaigns: parallel, cached, bit-identical.

The Section 5 measurement protocol is a *grid*: every experiment walks
(query x scheme x MTBF x trace set) cells and simulates each cell over
the same shared failure traces.  Before this module each experiment kept
its own serial loop, re-collapsed the plan inside every ``execute()``
call and regenerated failure traces per call site.  A campaign makes the
grid explicit and executes it fast:

* **Declarative cells.**  A :class:`CampaignCell` names one
  (plan, MTBF, CONST_pipe, trace protocol) measurement plus the scheme
  line-up (or pre-configured plans) to measure against the shared trace
  set.  :func:`run_campaign` turns a list of cells into a flat list of
  :class:`CellResult` rows, ordered by (cell, scheme) -- the merge order
  is deterministic and independent of how work was scheduled.
* **Process-pool fan-out.**  ``jobs=N`` stripes the (cell, scheme) units
  over ``N`` worker processes; ``jobs=1`` is a plain serial loop over
  the identical unit function.  Results are guaranteed **bit-identical**
  across job counts: every unit derives its trace set from the same
  ``(nodes, mtbf, horizon, count, base_seed)`` key, horizon extensions
  are prefix-stable, and per-process caches only memoize deterministic
  pure functions.
* **Resilience.**  A unit that raises is reported as an error row (its
  :class:`CellResult` carries the exception in ``error``) instead of
  poisoning the whole campaign.  A worker *process* that dies (OOM
  killer, or an injected :class:`~repro.chaos.WorkerCrashes` policy)
  costs retries, never rows: the fan-out runs on
  :func:`repro.core.pool.resilient_map`, and because units are pure the
  merged results still equal ``jobs=1``.
* **Fault injection.**  ``run_campaign(..., chaos=policy)`` applies a
  :class:`~repro.chaos.FaultPolicy` to every unit: correlated bursts
  enter the shared trace sets, executor-level injections ride on the
  engine, and worker crashes exercise the pool resilience above.
  Baselines stay chaos-free; a null policy is bit-identical to no
  policy.
* **One measurement per distinct unit.**  A unit's row is a pure
  function of its identity, so units with equal keys
  (:func:`_unit_key`: pre-configured targets of generated-trace cells
  with the same measured plans, MTBF and trace protocol) are measured
  once and the duplicates take a copy of that row with their own
  ``cell_index``/``label``/``scheme``.  Scheme targets (adaptive ones
  included) and cells with explicit traces always run on their own.
* **Hot-path caches.**  Each unit reuses one
  :class:`~repro.engine.executor.PreparedExecution` across all of its
  traces (collapse/topology/lineage costs computed once, not per run),
  and one campaign prepares each distinct pre-configured plan once for
  all the units that measure it (the memo belongs to the call, or to
  the pool worker, never to the module).  Units share trace sets
  through :func:`~repro.engine.traces.cached_trace_block` and the
  memoized :func:`~repro.engine.coordinator.pure_baseline_runtime`,
  and run them through
  :meth:`~repro.engine.executor.SimulatedEngine.execute_many` -- in
  lockstep over the set's flat failure array when the unit qualifies.

``campaign_map`` exposes the bare deterministic fan-out for experiment
loops that are not trace-driven simulations (e.g. Table 3's perturbation
rankings, the workload runner's per-scheme runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple,
    TypeVar,
)

from .. import obs
from ..chaos.policy import FaultPolicy
from ..core.enumeration import plan_fingerprint
from ..core.plan import Plan
from ..core.pool import maybe_crash, resilient_map, worker_state
from ..core.strategies import (
    ConfiguredPlan,
    FaultToleranceScheme,
    standard_schemes,
)
from ..core.summation import left_sum
from .adaptive import AdaptiveCostBased, run_adaptive_with_extension
from .cluster import Cluster
from .coordinator import _default_horizon, pure_baseline_runtime
from .executor import PreparedExecution, SimulatedEngine
from .traces import FailureTrace, cached_trace_block

_T = TypeVar("_T")
_R = TypeVar("_R")

#: one campaign's prepared plans, keyed by :func:`_prepared_key`
PreparedMemo = Dict[Hashable, PreparedExecution]

#: the paper's protocol: 10 traces per unique MTBF
DEFAULT_TRACE_COUNT = 10


@dataclass(frozen=True)
class CampaignCell:
    """One (plan, MTBF, trace protocol) measurement of a sweep grid.

    Parameters
    ----------
    label:
        Identifier echoed into every result row (e.g. the query name).
    plan:
        The costed plan to measure.
    mtbf:
        Per-node mean time between failures for the cell's trace set.
    schemes:
        Fault-tolerance schemes to measure against the shared traces;
        empty means the paper's four standard schemes.
    configured:
        Alternative to ``schemes``: measure these already-configured
        plans instead (used by Figure 12's per-configuration sweep).
    trace_count / base_seed:
        The trace protocol -- ``count`` seeded traces ``base_seed + i``.
    const_pipe:
        ``CONST_pipe`` for both the cost model and the simulator.
    horizon:
        Trace horizon; ``None`` derives the default from the baseline
        (traces are extended on demand either way, so this only sets the
        starting size -- measured runtimes are horizon-independent).
    traces:
        Explicit trace set overriding generation entirely.
    baseline:
        Precomputed pure-baseline runtime; ``None`` measures (or recalls
        the memo of) the failure-free no-mat run.
    """

    label: str
    plan: Plan
    mtbf: float
    schemes: Tuple[FaultToleranceScheme, ...] = ()
    configured: Tuple[ConfiguredPlan, ...] = ()
    trace_count: int = DEFAULT_TRACE_COUNT
    base_seed: int = 0
    const_pipe: float = 1.0
    horizon: Optional[float] = None
    traces: Optional[Tuple[FailureTrace, ...]] = None
    baseline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mtbf <= 0:
            raise ValueError("mtbf must be > 0")
        if self.trace_count < 1:
            raise ValueError("trace_count must be >= 1")
        if self.schemes and self.configured:
            raise ValueError("a cell takes schemes or configured "
                             "plans, not both")

    def targets(self) -> Tuple[Any, ...]:
        """The measurement targets, in reporting order."""
        if self.configured:
            return self.configured
        if self.schemes:
            return self.schemes
        # campaign preflight already linted the plan once up front, so
        # the default cost-based search skips the per-worker re-lint
        return tuple(standard_schemes(preflight_lint=False))


@dataclass(frozen=True)
class CellResult:
    """One (cell, scheme) row of a campaign, in the shape of the paper's
    overhead figures plus the raw per-trace runtimes.

    A unit whose measurement *raised* still yields a row: ``error``
    carries ``"ExcType: message"``, the runtimes are empty and the
    baseline is ``inf`` -- the campaign returns partial results instead
    of losing completed rows to one poisoned cell.
    """

    cell_index: int
    label: str
    scheme: str
    mtbf: float
    const_pipe: float
    baseline: float                       #: pure runtime, no failures
    runtimes: Tuple[float, ...]           #: per-trace finished runtimes
    aborted_runs: int                     #: runs that hit the limit
    materialized_ids: Tuple[int, ...]     #: free ops the target chose
    error: Optional[str] = None           #: unit exception, if it raised
    replans: int = 0                      #: adaptive re-plans (0 static)

    @property
    def mean_runtime(self) -> float:
        """Mean runtime over *finished* runs (inf when all aborted)."""
        if not self.runtimes:
            return float("inf")
        return left_sum(self.runtimes) / len(self.runtimes)

    @property
    def overhead(self) -> float:
        """Overhead fraction: ``mean_runtime / baseline - 1``."""
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

    def formatted(self) -> str:
        """The overhead as the paper's figures print it."""
        if self.error is not None:
            return "Error"
        if self.all_aborted:
            return "Aborted"
        return f"{self.overhead_percent:.0f}%"


def _prepared_key(target: ConfiguredPlan, const_pipe: float) -> Hashable:
    """Everything a pre-configured target's prepared execution (and its
    recovery) reads besides the campaign-wide cluster."""
    return (
        plan_fingerprint(target.plan),
        target.recovery,
        tuple(sorted((target.op_checkpoints or {}).items())),
        const_pipe,
    )


def _unit_key(cell: CampaignCell, target: Any) -> Optional[Hashable]:
    """The identity one (cell, target) unit's row is a function of, or
    ``None`` when the unit is never shared.

    Only pre-configured targets of cells that generate their traces
    have one: it covers the measured plan (:func:`_prepared_key`), the
    cell's plan (the baseline and the ``free`` flags behind
    ``materialized_ids``) and the trace protocol.  The cluster and the
    chaos policy are the same for every unit of a campaign.  A scheme
    target configures itself inside the unit, and an explicit trace set
    has no cheap identity, so those units always run.
    """
    if cell.traces is not None or not isinstance(target, ConfiguredPlan):
        return None
    return (
        _prepared_key(target, cell.const_pipe),
        plan_fingerprint(cell.plan),
        cell.mtbf,
        cell.trace_count,
        cell.base_seed,
        cell.horizon,
        cell.baseline,
    )


def _measure_unit(
    cell: CampaignCell,
    cell_index: int,
    target_index: int,
    cluster: Cluster,
    chaos: Optional[FaultPolicy] = None,
    prepared_memo: Optional[PreparedMemo] = None,
) -> CellResult:
    """Measure one (cell, target) unit -- the campaign's parallel grain.

    Pure given its arguments: every cache it touches (trace sets,
    baselines, prepared plans) memoizes a deterministic function, so a
    unit computes the same row in any process at any time.
    ``prepared_memo`` shares one prepared execution between the
    pre-configured targets of one campaign that measure the same plan.

    ``chaos`` perturbs the measurement only: correlated bursts enter the
    generated trace set, executor-level injections ride on the engine.
    The baseline (and the scheme configuration, which sees nothing but
    ``stats``) stays chaos-free, so overheads are relative to the same
    denominator as the clean campaign.
    """
    recorder = obs.get_recorder()
    with obs.span("campaign.unit", cell=cell_index, label=cell.label,
                  target=target_index) as unit_span:
        stats = cluster.stats(cell.mtbf, const_pipe=cell.const_pipe)
        # nobody reads the event logs of campaign runs -- mute them
        engine = SimulatedEngine(cluster, const_pipe=cell.const_pipe,
                                 record_events=False, chaos=chaos)
        baseline = cell.baseline
        if baseline is None:
            clean_engine = engine
            if chaos is not None:
                clean_engine = SimulatedEngine(
                    cluster, const_pipe=cell.const_pipe,
                    record_events=False,
                )
            with obs.span("campaign.baseline", cell=cell_index):
                baseline = pure_baseline_runtime(
                    cell.plan, clean_engine, stats
                )
        traces: Sequence[FailureTrace]
        with obs.span("campaign.traces", cell=cell_index):
            if cell.traces is not None:
                traces = list(cell.traces)
            else:
                horizon = cell.horizon
                if horizon is None:
                    horizon = _default_horizon(baseline, cell.mtbf, cluster)
                correlated = None
                chaos_seed = 0
                drift = None
                if chaos is not None and chaos.trace_active():
                    correlated = chaos.correlated
                    chaos_seed = chaos.seed
                    drift = chaos.mtbf_drift
                traces = cached_trace_block(
                    cluster.nodes, cell.mtbf, horizon,
                    count=cell.trace_count, base_seed=cell.base_seed,
                    correlated=correlated, chaos_seed=chaos_seed,
                    drift=drift,
                )
        target = cell.targets()[target_index]
        if isinstance(target, AdaptiveCostBased):
            # the adaptive scheme decides *while* simulating, so it
            # cannot go through prepare/execute -- drive the adaptive
            # executor per trace instead (same traces, same baseline)
            return _measure_adaptive_unit(
                cell, cell_index, target_index, target, engine, stats,
                traces, baseline, recorder, unit_span,
            )
        if isinstance(target, ConfiguredPlan):
            configured = target
        else:
            with obs.span("campaign.configure", cell=cell_index,
                          target=target_index):
                configured = target.configure(cell.plan, stats)
        unit_span.set(scheme=configured.scheme)
        if prepared_memo is not None and configured is target:
            prepared_key = _prepared_key(target, cell.const_pipe)
            prepared = prepared_memo.get(prepared_key)
            if prepared is None:
                prepared = prepared_memo[prepared_key] = \
                    engine.prepare(configured)
        else:
            prepared = engine.prepare(configured)
        with obs.span("campaign.execute", cell=cell_index,
                      target=target_index,
                      traces=len(traces)) as execute_span:
            # extensions are written back into the trace set, so the
            # next target on it (and other sharers of the cache entry)
            # reuse them
            batch = engine.execute_many(prepared, traces)
            execute_span.set(lockstep=batch.lockstep)
        if recorder is not None:
            # derived from the (bit-identical) results, so these totals
            # are independent of the job count and the merge order
            recorder.add("campaign.units")
            recorder.add("campaign.trace_runs", len(traces))
            recorder.add("sim.failures_injected", sum(batch.failures_hit))
            recorder.add("sim.restarts.query", sum(batch.restarts))
            recorder.add("sim.restarts.share", sum(batch.share_restarts))
            recorder.add("sim.aborts", batch.aborted_runs)
        return _unit_row(cell, cell_index, configured, baseline,
                         batch.finished_runtimes, batch.aborted_runs)


def _measure_adaptive_unit(
    cell: CampaignCell,
    cell_index: int,
    target_index: int,
    target: "AdaptiveCostBased",
    engine: SimulatedEngine,
    stats: Any,
    traces: Sequence[FailureTrace],
    baseline: float,
    recorder: Optional[obs.Recorder],
    unit_span: Any,
) -> CellResult:
    """The adaptive twin of the static measurement loop.

    The initial static decision is searched once per unit and shared
    across traces (every trace starts from the same estimates); each
    trace then runs the full drift-monitored loop.  All decisions are
    pure functions of (cell, trace), so the row is bit-identical across
    job counts like every other unit.
    """
    with obs.span("campaign.configure", cell=cell_index,
                  target=target_index):
        configured = target.configure(cell.plan, stats)
    unit_span.set(scheme=configured.scheme)
    initial_config = dict(configured.plan.mat_config())
    executor = target.executor(engine, stats)
    runtimes: List[float] = []
    failures = 0
    share_restarts = 0
    replans = 0
    for index, trace in enumerate(traces):
        with obs.span("campaign.trace", cell=cell_index,
                      target=target_index, trace=index):
            outcome, extended = run_adaptive_with_extension(
                executor, cell.plan, trace,
                initial_config=initial_config,
            )
        if extended is not trace:
            traces[index] = extended  # type: ignore[index]
        runtimes.append(outcome.runtime)
        failures += outcome.result.failures_hit
        share_restarts += outcome.result.share_restarts
        replans += outcome.replans
    if recorder is not None:
        recorder.add("campaign.units")
        recorder.add("campaign.trace_runs", len(traces))
        recorder.add("sim.failures_injected", failures)
        recorder.add("sim.restarts.share", share_restarts)
    return _unit_row(cell, cell_index, configured, baseline, runtimes,
                     aborted=0, replans=replans)


def _unit_row(
    cell: CampaignCell,
    cell_index: int,
    configured: ConfiguredPlan,
    baseline: float,
    runtimes: Sequence[float],
    aborted: int,
    replans: int = 0,
) -> CellResult:
    """The result row of one measured (cell, configured target) unit."""
    return CellResult(
        cell_index=cell_index,
        label=cell.label,
        scheme=configured.scheme,
        mtbf=cell.mtbf,
        const_pipe=cell.const_pipe,
        baseline=baseline,
        runtimes=tuple(runtimes),
        aborted_runs=aborted,
        materialized_ids=tuple(
            op_id for op_id, op in configured.plan.operators.items()
            if op.materialize and cell.plan[op_id].free
        ),
        replans=replans,
    )


def _target_name(target: Any) -> str:
    """The scheme name an error row reports for ``target``."""
    return getattr(target, "scheme", None) or getattr(
        target, "name", type(target).__name__
    )


def _measure_unit_safe(
    cell: CampaignCell,
    cell_index: int,
    target_index: int,
    cluster: Cluster,
    chaos: Optional[FaultPolicy] = None,
    prepared_memo: Optional[PreparedMemo] = None,
) -> CellResult:
    """:func:`_measure_unit`, demoting exceptions to error rows.

    Both the serial and the pooled path go through this wrapper, so a
    poisoned cell produces the *same* error row at every job count
    instead of killing the campaign and losing the completed rows.
    ``baseline = inf`` keeps the row's derived overheads infinite while
    staying comparable across processes (``NaN`` would break the
    ``jobs=N == jobs=1`` equality the campaign guarantees).
    """
    try:
        return _measure_unit(cell, cell_index, target_index, cluster,
                             chaos=chaos, prepared_memo=prepared_memo)
    except Exception as exc:  # noqa: BLE001 -- reported, not swallowed
        recorder = obs.get_recorder()
        if recorder is not None:
            recorder.add("campaign.unit_errors")
        targets = cell.targets()
        scheme = "?"
        if 0 <= target_index < len(targets):
            scheme = _target_name(targets[target_index])
        return CellResult(
            cell_index=cell_index,
            label=cell.label,
            scheme=scheme,
            mtbf=cell.mtbf,
            const_pipe=cell.const_pipe,
            baseline=float("inf"),
            runtimes=(),
            aborted_runs=0,
            materialized_ids=(),
            error=f"{type(exc).__name__}: {exc}",
        )


def _measure_units(
    cells: Sequence[CampaignCell],
    cluster: Cluster,
    units: Sequence[Tuple[int, int, int]],
    chaos: Optional[FaultPolicy],
    prepared_memo: PreparedMemo,
) -> List[CellResult]:
    """In-process rows of ``(unit, cell, target)`` units: the ``jobs=1``
    path, the pool workers and the pooled campaign's in-process
    fallback."""
    return [
        _measure_unit_safe(cells[cell_index], cell_index, target_index,
                           cluster, chaos=chaos, prepared_memo=prepared_memo)
        for _, cell_index, target_index in units
    ]


def _distinct_units(
    cells: Sequence[CampaignCell],
    targets: Sequence[Tuple[Any, ...]],
    units: Sequence[Tuple[int, int, int]],
) -> Tuple[List[Tuple[int, int, int]], List[int]]:
    """The units to measure, and for every unit the position in that
    list of the unit whose row it takes: the first unit of each
    :func:`_unit_key`, and every unit without one."""
    measured: List[Tuple[int, int, int]] = []
    sources: List[int] = []
    first: Dict[Hashable, int] = {}
    for unit in units:
        key = _unit_key(cells[unit[1]], targets[unit[1]][unit[2]])
        source = first.get(key) if key is not None else None
        if source is None:
            source = len(measured)
            measured.append(unit)
            if key is not None:
                first[key] = source
        sources.append(source)
    return measured, sources


def _shared_row(row: CellResult, cell: CampaignCell, cell_index: int,
                target: ConfiguredPlan) -> CellResult:
    """A measured row, relabelled for a unit with the same key."""
    scheme = target.scheme if row.error is None else _target_name(target)
    return replace(row, cell_index=cell_index, label=cell.label,
                   scheme=scheme)


# ----------------------------------------------------------------------
# pool workers (run through repro.core.pool.resilient_map)
# ----------------------------------------------------------------------
def _campaign_init(cells: Sequence[CampaignCell],
                   cluster: Cluster) -> Dict[str, Any]:
    return {"cells": cells, "cluster": cluster, "prepared": {}}


def _campaign_chunk(chunk: Sequence[Tuple[int, int, int]]) -> List[CellResult]:
    for unit_index, _, _ in chunk:
        maybe_crash(unit_index)  # crash decisions are keyed per unit
    state = worker_state()
    return _measure_units(state["cells"], state["cluster"], chunk,
                          state["chaos"], state["prepared"])


def _preflight_cells(
    cells: Sequence[CampaignCell], cluster: Cluster
) -> None:
    """Statically validate every distinct (plan, stats) pair exactly once.

    Running the lint up front -- instead of per worker inside the
    cost-based search -- keeps the workers purely computational and
    reports a broken plan before any process is forked.
    """
    # deferred import: repro.analysis imports repro.core
    from ..analysis.plan_lint import preflight_check

    seen = set()
    for cell in cells:
        stats = cluster.stats(cell.mtbf, const_pipe=cell.const_pipe)
        key = (plan_fingerprint(cell.plan), stats)
        if key in seen:
            continue
        preflight_check(cell.plan, stats, plan_name=cell.label)
        seen.add(key)


def run_campaign(
    cells: Sequence[CampaignCell],
    cluster: Cluster,
    jobs: int = 1,
    preflight_lint: bool = True,
    chaos: Optional[FaultPolicy] = None,
) -> List[CellResult]:
    """Execute a sweep grid; results ordered by (cell, target).

    ``jobs=1`` (the default) runs the units serially in the calling
    process; ``jobs=N`` fans them out over ``N`` worker processes.  Both
    paths measure the same distinct units (:func:`_unit_key`) with the
    same unit function and merge in unit order, every duplicate unit
    taking its source's row, so the output is exactly equal either way.

    ``preflight_lint`` statically validates each distinct plan once up
    front (raising :class:`~repro.analysis.diagnostics.LintError` on
    error findings) rather than per worker.

    ``chaos`` applies a :class:`~repro.chaos.FaultPolicy` to every unit
    (and, via :class:`~repro.chaos.WorkerCrashes`, to the pool itself).
    Results stay bit-identical across job counts under any policy.

    Dead worker processes never lose rows: the chunks they held are
    retried and finally run in-process by
    :func:`~repro.core.pool.resilient_map` (counted as
    ``campaign.retries`` / ``campaign.serial_fallbacks``).  A unit that
    *raises* is reported as an error row (:attr:`CellResult.error`)
    rather than retried -- exceptions are deterministic, crashes are not.
    """
    cells = list(cells)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if preflight_lint:
        _preflight_cells(cells, cluster)
    targets = [cell.targets() for cell in cells]
    units: List[Tuple[int, int, int]] = []
    for cell_index, cell_targets in enumerate(targets):
        for target_index in range(len(cell_targets)):
            units.append((len(units), cell_index, target_index))
    measured, sources = _distinct_units(cells, targets, units)
    with obs.span("campaign", cells=len(cells), units=len(units),
                  jobs=jobs):
        measured_rows = _measure_distinct(cells, cluster, measured, jobs,
                                          chaos)
        # unit-order merge: equals the jobs=1 list
        rows: List[CellResult] = []
        for (unit_index, cell_index, target_index), source in zip(units,
                                                                  sources):
            row = measured_rows[source]
            if measured[source][0] != unit_index:
                row = _shared_row(row, cells[cell_index], cell_index,
                                  targets[cell_index][target_index])
            rows.append(row)
        shared = len(units) - len(measured)
        if shared:
            obs.add("campaign.units_shared", shared)
        return rows


def _measure_distinct(
    cells: Sequence[CampaignCell],
    cluster: Cluster,
    measured: Sequence[Tuple[int, int, int]],
    jobs: int,
    chaos: Optional[FaultPolicy],
) -> List[CellResult]:
    """The rows of the distinct units, in their order, at any job count."""
    prepared_memo: PreparedMemo = {}
    workers = min(jobs, len(measured))
    if workers <= 1:
        return _measure_units(cells, cluster, measured, chaos,
                              prepared_memo)
    # Parallel grain: one chunk per *cell* when there are enough cells
    # to keep every worker busy -- a cell's targets share its trace set,
    # and process-local caches only pay off when they run in the same
    # worker.  With fewer cells than workers, fall back to one chunk per
    # unit so a single big cell still fans out.
    by_cell: Dict[int, List[Tuple[int, int, int]]] = {}
    for unit in measured:
        by_cell.setdefault(unit[1], []).append(unit)
    chunks = list(by_cell.values())
    if len(chunks) < workers:
        chunks = [[unit] for unit in measured]
    rows = resilient_map(
        _campaign_chunk, chunks, workers,
        fallback=lambda batch: [
            _measure_units(cells, cluster, chunk, chaos, prepared_memo)
            for chunk in batch
        ],
        namespace="campaign", track="campaign-worker",
        init=_campaign_init, initargs=(cells, cluster), chaos=chaos,
    )
    return [row for chunk_rows in rows for row in chunk_rows]


def campaign_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    jobs: int = 1,
) -> List[_R]:
    """Deterministic ordered fan-out: ``list(map(fn, items))``, optionally
    over a process pool.

    The generic primitive behind :func:`run_campaign`, exposed for
    experiment loops that are not trace-set simulations (perturbation
    rankings, per-scheme workload runs).  ``fn`` must be picklable (a
    module-level function) when ``jobs > 1``; results always merge in
    item order, so job count never changes the output.  Runs on
    :func:`~repro.core.pool.resilient_map`: a dead worker's items are
    retried, then computed in-process, and worker recordings merge in
    item order.
    """
    items = list(items)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with obs.span("campaign.map", items=len(items), jobs=jobs):
        return resilient_map(
            fn, items, workers,
            fallback=lambda batch: [fn(item) for item in batch],
            namespace="campaign", track="map-worker",
        )
