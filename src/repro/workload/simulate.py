"""The multi-tenant cluster experiment: thousands of queries, one cluster.

This is the "millions of users" scenario from the roadmap, composed
entirely from existing subsystems:

1. **Traffic** -- :func:`~repro.workload.tenants.generate_tenant_workload`
   draws a seeded arrival stream from priority-tenant classes with
   zipf-skewed plan popularity and diurnal intensity.
2. **Plan choice** -- every arrival asks a
   :class:`~repro.serve.AdvisoryEngine` for its materialization
   configuration, carrying jittered *measured* stats for the diurnal
   phase it arrived in; the engine's log-bucketed cache turns the skewed
   stream into a small set of real searches, and the run reports the
   observed hit rate.
3. **Measurement** -- distinct (plan template, canonical stats) groups
   become :class:`~repro.engine.campaign.CampaignCell` s measuring the
   advised configuration against the three static schemes over shared
   seeded traces, fanned out by :func:`~repro.engine.campaign.run_campaign`
   (``jobs=N`` bit-identical to ``jobs=1``), with spot-fleet churn
   injected campaign-wide as a :class:`~repro.chaos.FaultPolicy` the
   optimizer never sees.
4. **Admission** -- a deterministic discrete-event queue replays the
   arrival stream against ``slots`` concurrent query slots with strict
   priority scheduling (FIFO within a class), charging each query the
   simulated runtime its group measured; per-class tail latency, queue
   wait, aggregate FT overhead and chosen-vs-oracle regret fall out.

Everything after the seeds is deterministic: the same
:class:`MultiTenantConfig` produces the identical
:class:`MultiTenantResult` (and JSON payload) at any job count.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .. import obs
from ..chaos import FaultPolicy
from ..core.cost_model import ClusterStats
from ..core.strategies import (
    AllMat,
    ConfiguredPlan,
    NoMatLineage,
    NoMatRestart,
)
from ..engine.campaign import CampaignCell, CellResult, run_campaign
from ..engine.cluster import Cluster
from ..serve import AdvisoryEngine
from ..serve.engine import Advice
from .advisor import configured_from_advice, resolve_advice
from .churn import DiurnalCycle, spot_fleet_policy
from .tenants import (
    DEFAULT_TENANT_CLASSES,
    TenantClass,
    TenantWorkload,
    generate_tenant_workload,
)

#: target order inside every measurement cell; the advised configuration
#: is last, mirroring the paper's scheme line-up
SCHEME_ORDER = (
    "all-mat", "no-mat (lineage)", "no-mat (restart)", "cost-based",
)
#: index of the advised (chosen) configuration in :data:`SCHEME_ORDER`
CHOSEN_INDEX = SCHEME_ORDER.index("cost-based")


@dataclass(frozen=True)
class MultiTenantConfig:
    """Every knob of one multi-tenant run (seeds included)."""

    queries: int = 2000
    tenant_classes: Tuple[TenantClass, ...] = DEFAULT_TENANT_CLASSES
    churn: float = 0.5
    base_mtbf: float = 3600.0
    mttr: float = 1.0
    nodes: int = 10
    slots: int = 8
    seed: int = 0
    chaos_seed: int = 0
    duration: float = 86400.0
    templates_per_class: int = 4
    trace_count: int = 3
    cache_size: int = 1024
    config_limit: Optional[int] = None
    diurnal: DiurnalCycle = field(default_factory=DiurnalCycle)

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise ValueError("queries must be >= 1")
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if self.base_mtbf <= 0:
            raise ValueError("base_mtbf must be > 0")
        if self.trace_count < 1:
            raise ValueError("trace_count must be >= 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")


@dataclass(frozen=True)
class MeasurementGroup:
    """One distinct (plan template, canonical stats) advisory identity.

    All arrivals in the group received the same advice (same cache
    entry) and share one campaign cell's trace-driven measurement.
    """

    index: int
    label: str
    tenant: str
    template_index: int
    canonical_mtbf: float
    canonical_mttr: float
    advice: Advice
    arrivals: Tuple[int, ...]


@dataclass(frozen=True)
class AdviceTraffic:
    """What the advisory engine saw while resolving the arrival stream."""

    requests: int
    hits: int
    misses: int
    evictions: int
    searches: int

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class MultiTenantPrepared:
    """Phases 1-2 done: traffic generated, advice resolved, cells built.

    Everything :func:`run_campaign` needs (``cells``, ``cluster``,
    ``policy``) is exposed so tests can replay the measurement as a
    plain campaign and assert byte-identity.
    """

    config: MultiTenantConfig
    workload: TenantWorkload
    groups: Tuple[MeasurementGroup, ...]
    cells: Tuple[CampaignCell, ...]
    cluster: Cluster
    policy: Optional[FaultPolicy]
    advice: AdviceTraffic


@dataclass(frozen=True)
class AdmissionRecord:
    """One query's trip through the admission queue."""

    index: int
    tenant_index: int
    priority: int
    arrival: float
    admitted: float
    finished: float
    service: float
    failed: bool

    @property
    def wait(self) -> float:
        return self.admitted - self.arrival

    @property
    def latency(self) -> float:
        return self.finished - self.arrival


@dataclass(frozen=True)
class ClassMetrics:
    """Aggregate outcome of one tenant class."""

    name: str
    priority: int
    queries: int
    failed: int
    overhead_percent: float
    latency_p50: float
    latency_p99: float
    wait_mean: float
    wait_p99: float
    regret: float


@dataclass(frozen=True)
class GroupOutcome:
    """Per-group chosen-vs-oracle summary (one row per cache entry)."""

    label: str
    tenant: str
    arrivals: int
    baseline: float
    chosen_mean: float
    oracle_mean: float
    oracle_scheme: str
    error: Optional[str]

    @property
    def regret(self) -> float:
        if not math.isfinite(self.chosen_mean) or self.oracle_mean <= 0:
            return float("inf")
        return self.chosen_mean / self.oracle_mean


@dataclass(frozen=True)
class MultiTenantResult:
    """Everything one multi-tenant run produced."""

    config: MultiTenantConfig
    advice: AdviceTraffic
    classes: Tuple[ClassMetrics, ...]
    groups: Tuple[GroupOutcome, ...]
    rows: Tuple[CellResult, ...]
    admissions: Tuple[AdmissionRecord, ...]
    error_rows: int
    failed_queries: int
    aborted_runs: int
    makespan: float

    def to_payload(self, include_rows: bool = True) -> Dict:
        """JSON-ready report (the golden/benchmark serialization)."""
        payload: Dict = {
            "workload": {
                "queries": self.config.queries,
                "tenant_classes": len(self.config.tenant_classes),
                "churn": self.config.churn,
                "base_mtbf": self.config.base_mtbf,
                "nodes": self.config.nodes,
                "slots": self.config.slots,
                "seed": self.config.seed,
                "trace_count": self.config.trace_count,
                "distinct_groups": len(self.groups),
            },
            "advice_cache": {
                "requests": self.advice.requests,
                "hits": self.advice.hits,
                "misses": self.advice.misses,
                "evictions": self.advice.evictions,
                "searches": self.advice.searches,
                "hit_rate": self.advice.hit_rate,
            },
            "classes": [
                {
                    "name": metrics.name,
                    "priority": metrics.priority,
                    "queries": metrics.queries,
                    "failed": metrics.failed,
                    "overhead_percent": metrics.overhead_percent,
                    "latency_p50": metrics.latency_p50,
                    "latency_p99": metrics.latency_p99,
                    "wait_mean": metrics.wait_mean,
                    "wait_p99": metrics.wait_p99,
                    "regret": metrics.regret,
                }
                for metrics in self.classes
            ],
            "groups": [
                {
                    "label": group.label,
                    "tenant": group.tenant,
                    "arrivals": group.arrivals,
                    "baseline": group.baseline,
                    "chosen_mean": group.chosen_mean,
                    "oracle_mean": group.oracle_mean,
                    "oracle_scheme": group.oracle_scheme,
                    "regret": group.regret,
                    "error": group.error,
                }
                for group in self.groups
            ],
            "totals": {
                "error_rows": self.error_rows,
                "failed_queries": self.failed_queries,
                "aborted_runs": self.aborted_runs,
                "makespan": self.makespan,
            },
        }
        if include_rows:
            payload["rows"] = [
                {
                    "label": row.label,
                    "scheme": row.scheme,
                    "mtbf": row.mtbf,
                    "baseline": row.baseline,
                    "runtimes": list(row.runtimes),
                    "aborted_runs": row.aborted_runs,
                    "materialized_ids": list(row.materialized_ids),
                    "error": row.error,
                }
                for row in self.rows
            ]
        return payload


def arrival_stats(
    config: MultiTenantConfig, arrival_time: float,
    mtbf_jitter: float = 1.0, mttr_jitter: float = 1.0,
) -> ClusterStats:
    """The measured stats a tenant attaches to a request at this time."""
    base = config.diurnal.mtbf_at(config.base_mtbf, arrival_time)
    return ClusterStats(
        mtbf=base * mtbf_jitter,
        mttr=config.mttr * mttr_jitter,
        nodes=config.nodes,
    )


def prepare(
    config: MultiTenantConfig,
    engine: Optional[AdvisoryEngine] = None,
) -> MultiTenantPrepared:
    """Phases 1-2: generate traffic, resolve advice, build the cells.

    ``engine`` defaults to a fresh in-process
    :class:`~repro.serve.AdvisoryEngine`; passing a started engine
    routes plan choice through its bounded-queue frontend instead
    (the path that can shed under pressure).
    """
    workload = generate_tenant_workload(
        classes=config.tenant_classes,
        count=config.queries,
        seed=config.seed,
        duration=config.duration,
        templates_per_class=config.templates_per_class,
        diurnal=config.diurnal,
    )
    if engine is None:
        engine = AdvisoryEngine(cache_size=config.cache_size,
                                config_limit=config.config_limit)
    group_arrivals: Dict[Hashable, List[int]] = {}
    group_advice: Dict[Hashable, Advice] = {}
    with obs.span("workload.advice", arrivals=len(workload.arrivals)):
        for arrival in workload.arrivals:
            template = workload.templates[arrival.template_index]
            stats = arrival_stats(config, arrival.time,
                                  arrival.mtbf_jitter,
                                  arrival.mttr_jitter)
            advice = resolve_advice(engine, template.plan, stats)
            key = (arrival.template_index, advice.canonical_mtbf,
                   advice.canonical_mttr)
            if key not in group_advice:
                group_advice[key] = advice
                group_arrivals[key] = []
            group_arrivals[key].append(arrival.index)
    cache_stats = engine.cache.stats() if engine.cache is not None else {
        "hits": 0, "misses": len(workload.arrivals), "evictions": 0,
    }
    advice_traffic = AdviceTraffic(
        requests=len(workload.arrivals),
        hits=cache_stats["hits"],
        misses=cache_stats["misses"],
        evictions=cache_stats["evictions"],
        searches=engine.searches,
    )
    groups: List[MeasurementGroup] = []
    cells: List[CampaignCell] = []
    for index, (key, advice) in enumerate(group_advice.items()):
        template_index = key[0]
        template = workload.templates[template_index]
        label = (f"{template.label}"
                 f"|mtbf{advice.canonical_mtbf:.6g}"
                 f"|mttr{advice.canonical_mttr:.6g}")
        groups.append(MeasurementGroup(
            index=index,
            label=label,
            tenant=template.tenant,
            template_index=template_index,
            canonical_mtbf=advice.canonical_mtbf,
            canonical_mttr=advice.canonical_mttr,
            advice=advice,
            arrivals=tuple(group_arrivals[key]),
        ))
        canonical = ClusterStats(
            mtbf=advice.canonical_mtbf,
            mttr=advice.canonical_mttr,
            nodes=config.nodes,
        )
        configured: Tuple[ConfiguredPlan, ...] = (
            AllMat().configure(template.plan, canonical),
            NoMatLineage().configure(template.plan, canonical),
            NoMatRestart().configure(template.plan, canonical),
            configured_from_advice(template.plan, advice,
                                   scheme="cost-based"),
        )
        cells.append(CampaignCell(
            label=label,
            plan=template.plan,
            mtbf=advice.canonical_mtbf,
            configured=configured,
            trace_count=config.trace_count,
            base_seed=config.seed,
        ))
    return MultiTenantPrepared(
        config=config,
        workload=workload,
        groups=tuple(groups),
        cells=tuple(cells),
        cluster=Cluster(nodes=config.nodes, mttr=config.mttr),
        policy=spot_fleet_policy(config.churn, config.base_mtbf,
                                 seed=config.chaos_seed),
        advice=advice_traffic,
    )


def simulate_admission(
    workload: TenantWorkload,
    services: Sequence[float],
    failed: Sequence[bool],
    slots: int,
) -> Tuple[AdmissionRecord, ...]:
    """Replay the arrival stream through ``slots`` priority slots.

    Strict priority with FIFO within a class: whenever a slot frees (or
    a query arrives to a free slot), the waiting query with the smallest
    ``(priority, arrival index)`` is admitted.  Failed queries (error
    rows) occupy no slot time (``service = 0``) but still flow through
    the queue, so their class's wait accounting stays honest.  Pure
    deterministic replay -- no randomness, no wall clock.
    """
    arrivals = workload.arrivals
    records: List[Optional[AdmissionRecord]] = [None] * len(arrivals)
    waiting: List[Tuple[int, int]] = []      # (priority, arrival index)
    running: List[float] = []                # finish-time min-heap
    cursor = 0

    def admit(now: float) -> None:
        while waiting and len(running) < slots:
            _, index = heapq.heappop(waiting)
            arrival = arrivals[index]
            service = services[index]
            finished = now + service
            heapq.heappush(running, finished)
            records[index] = AdmissionRecord(
                index=index,
                tenant_index=arrival.tenant_index,
                priority=arrival.priority,
                arrival=arrival.time,
                admitted=now,
                finished=finished,
                service=service,
                failed=failed[index],
            )

    while cursor < len(arrivals) or waiting or running:
        next_arrival = (arrivals[cursor].time
                        if cursor < len(arrivals) else math.inf)
        next_finish = running[0] if running else math.inf
        if next_finish <= next_arrival:
            now = heapq.heappop(running)
        else:
            now = next_arrival
            arrival = arrivals[cursor]
            heapq.heappush(waiting, (arrival.priority, arrival.index))
            cursor += 1
        admit(now)
    assert all(record is not None for record in records)
    return tuple(records)  # type: ignore[arg-type]


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def assemble(
    prepared: MultiTenantPrepared, rows: Sequence[CellResult],
) -> MultiTenantResult:
    """Phase 4: fold campaign rows + the admission replay into metrics."""
    config = prepared.config
    workload = prepared.workload
    targets = len(SCHEME_ORDER)
    assert len(rows) == len(prepared.cells) * targets

    group_outcomes: List[GroupOutcome] = []
    arrival_group: Dict[int, int] = {}
    for group in prepared.groups:
        group_rows = rows[group.index * targets:
                          (group.index + 1) * targets]
        chosen = group_rows[CHOSEN_INDEX]
        means = [row.mean_runtime for row in group_rows]
        oracle_index = min(range(targets), key=means.__getitem__)
        error = next((row.error for row in group_rows
                      if row.error is not None), None)
        group_outcomes.append(GroupOutcome(
            label=group.label,
            tenant=group.tenant,
            arrivals=len(group.arrivals),
            baseline=chosen.baseline,
            chosen_mean=chosen.mean_runtime,
            oracle_mean=means[oracle_index],
            oracle_scheme=SCHEME_ORDER[oracle_index],
            error=error,
        ))
        for index in group.arrivals:
            arrival_group[index] = group.index

    services: List[float] = []
    failed_flags: List[bool] = []
    for arrival in workload.arrivals:
        group_index = arrival_group[arrival.index]
        chosen = rows[group_index * targets + CHOSEN_INDEX]
        if chosen.error is not None or not chosen.runtimes:
            services.append(0.0)
            failed_flags.append(True)
        else:
            pick = arrival.index % len(chosen.runtimes)
            services.append(chosen.runtimes[pick])
            failed_flags.append(False)
    admissions = simulate_admission(workload, services, failed_flags,
                                    config.slots)

    class_metrics: List[ClassMetrics] = []
    for tenant_index, tenant in enumerate(workload.classes):
        members = [record for record in admissions
                   if record.tenant_index == tenant_index]
        finished = [record for record in members if not record.failed]
        latencies = sorted(record.latency for record in finished)
        waits = sorted(record.wait for record in members)
        service_sum = sum(record.service for record in finished)
        baseline_sum = 0.0
        chosen_sum = 0.0
        oracle_sum = 0.0
        for record in finished:
            outcome = group_outcomes[arrival_group[record.index]]
            baseline_sum += outcome.baseline
            chosen_sum += outcome.chosen_mean
            oracle_sum += outcome.oracle_mean
        overhead = (service_sum / baseline_sum - 1.0
                    if baseline_sum > 0 else float("inf"))
        regret = (chosen_sum / oracle_sum
                  if oracle_sum > 0 else float("inf"))
        class_metrics.append(ClassMetrics(
            name=tenant.name,
            priority=tenant.priority,
            queries=len(members),
            failed=len(members) - len(finished),
            overhead_percent=overhead * 100.0,
            latency_p50=_percentile(latencies, 0.50),
            latency_p99=_percentile(latencies, 0.99),
            wait_mean=(sum(waits) / len(waits) if waits else 0.0),
            wait_p99=_percentile(waits, 0.99),
            regret=regret,
        ))

    error_rows = sum(1 for row in rows if row.error is not None)
    aborted_runs = sum(row.aborted_runs for row in rows)
    if obs.get_recorder() is not None:
        obs.add("workload.queries", len(workload.arrivals))
        obs.add("workload.groups", len(prepared.groups))
        obs.add("workload.error_rows", error_rows)
    return MultiTenantResult(
        config=config,
        advice=prepared.advice,
        classes=tuple(class_metrics),
        groups=tuple(group_outcomes),
        rows=tuple(rows),
        admissions=admissions,
        error_rows=error_rows,
        failed_queries=sum(1 for flag in failed_flags if flag),
        aborted_runs=aborted_runs,
        makespan=max((record.finished for record in admissions),
                     default=0.0),
    )


def run_multitenant(
    config: MultiTenantConfig,
    jobs: int = 1,
    engine: Optional[AdvisoryEngine] = None,
) -> MultiTenantResult:
    """One full multi-tenant run; bit-identical across ``jobs`` counts.

    The advisory phase runs serially in the calling process (it is a
    cache-driven dict walk); only the trace-driven measurement fans out,
    through :func:`~repro.engine.campaign.run_campaign`, which pins
    ``jobs=N == jobs=1`` exactly.
    """
    with obs.span("workload.multitenant", queries=config.queries,
                  churn=config.churn, jobs=jobs):
        prepared = prepare(config, engine=engine)
        rows = run_campaign(
            list(prepared.cells), prepared.cluster, jobs=jobs,
            chaos=prepared.policy, preflight_lint=False,
        )
        return assemble(prepared, rows)
