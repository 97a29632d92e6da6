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
from typing import (
    Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple,
)

from .. import obs
from ..chaos import FaultPolicy
from ..core.cost_model import ClusterStats
from ..core.strategies import (
    AllMat,
    ConfiguredPlan,
    NoMatLineage,
    NoMatRestart,
)
from ..core.summation import left_sum
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


class AdmissionRecord(NamedTuple):
    """One query's trip through the admission queue.

    A ``NamedTuple``, like :class:`~repro.workload.tenants.QueryArrival`:
    the replay builds one per arrival, in one pass over its columns.
    """

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


def _request_stats(
    config: MultiTenantConfig, workload: TenantWorkload,
    engine: AdvisoryEngine,
) -> List[ClusterStats]:
    """The stats each arrival sends to ``engine``, in arrival order.

    Equal to ``arrival_stats`` per arrival.  Without bucketing each
    arrival sends its own raw stats.  With it, every arrival of one
    bucket sends the same object: the engine's interned canonical stats
    of the bucket's first arrival, which the engine maps back to
    itself.  The bucket identity comes from the arrival's MTBF and
    MTTR floats through :meth:`StatsBucketing.indices`, so only one
    :class:`ClusterStats` is built per bucket.  (The other bucket
    fields are the config's ``nodes`` and the defaults, the same for
    every arrival.)
    """
    arrivals = workload.arrivals
    bucketing = engine.bucketing
    if bucketing is None:
        return [arrival_stats(config, arrival.time, arrival.mtbf_jitter,
                              arrival.mttr_jitter)
                for arrival in arrivals]
    _, times, _, _, _, mtbf_jitters, mttr_jitters = zip(*arrivals)
    diurnal = config.diurnal
    period = diurnal.period
    phases = diurnal.phases
    # arrival_stats' diurnal.mtbf_at, with DiurnalCycle.phase_index
    # inlined: one more copy of the last phase's MTBF stands for its
    # clamp of int(position * phases) to the last phase
    phase_mtbf = [diurnal.phase_mtbf(config.base_mtbf, phase)
                  for phase in range(phases)]
    phase_mtbf.append(phase_mtbf[-1])
    mttr = config.mttr
    indices = bucketing.indices
    interned: Dict[Tuple[int, Optional[int]], ClusterStats] = {}
    requests: List[ClusterStats] = []
    append = requests.append
    for time, mtbf_jitter, mttr_jitter in zip(times, mtbf_jitters,
                                              mttr_jitters):
        identity = indices(
            phase_mtbf[int(time % period / period * phases)] * mtbf_jitter,
            mttr * mttr_jitter,
        )
        canonical = interned.get(identity)
        if canonical is None:
            canonical = interned[identity] = engine.canonical_stats(
                arrival_stats(config, time, mtbf_jitter, mttr_jitter))
        append(canonical)
    return requests


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
        plans = [template.plan for template in workload.templates]
        template_column = [arrival.template_index
                           for arrival in workload.arrivals]
        requests = _request_stats(config, workload, engine)
        for index, (template_index, stats) in enumerate(
                zip(template_column, requests)):
            advice = resolve_advice(engine, plans[template_index], stats)
            key = (template_index, advice.canonical_mtbf,
                   advice.canonical_mttr)
            members = group_arrivals.get(key)
            if members is None:
                group_advice[key] = advice
                members = group_arrivals[key] = []
            members.append(index)
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
    # the static schemes ignore the stats: configure each template once
    # and share the configured plans across its groups' cells
    static: Dict[int, Tuple[ConfiguredPlan, ...]] = {}
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
        schemes = static.get(template_index)
        if schemes is None:
            canonical = ClusterStats(
                mtbf=advice.canonical_mtbf,
                mttr=advice.canonical_mttr,
                nodes=config.nodes,
            )
            schemes = static[template_index] = tuple(
                scheme.configure(template.plan, canonical)
                for scheme in (AllMat(), NoMatLineage(), NoMatRestart())
            )
        configured = schemes + (
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

    The replay reads the arrival columns and fills admitted/finished
    columns; the records are built from them in one pass at the end.
    Between events, either nobody waits or every slot is busy.  So an
    arrival to a free slot is admitted at once, and a finishing query
    hands its slot to the first waiting query, if there is one.  A
    waiting entry is the int ``priority * count + index``, which orders
    like the ``(priority, index)`` pair.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    arrivals = workload.arrivals
    count = len(arrivals)
    if not count:
        return ()
    _, times, tenants, priorities, _, _, _ = zip(*arrivals)
    admitted = [0.0] * count
    finished = [0.0] * count
    waiting: List[int] = []      # priority * count + arrival index
    running: List[float] = []    # finish-time min-heap
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace

    def hand_over() -> None:
        """The earliest finish frees its slot for the first waiter."""
        now = running[0]
        index = heappop(waiting) % count
        admitted[index] = now
        finished[index] = done = now + services[index]
        heapreplace(running, done)

    for index, (time, priority) in enumerate(zip(times, priorities)):
        # finishes up to and at this arrival's instant come first
        while running and running[0] <= time:
            if waiting:
                hand_over()
            else:
                heappop(running)
        if len(running) < slots:
            admitted[index] = time
            finished[index] = done = time + services[index]
            heappush(running, done)
        else:
            heappush(waiting, priority * count + index)
    while waiting:
        hand_over()
    return tuple(map(AdmissionRecord._make, zip(
        range(count), tenants, priorities, times, admitted, finished,
        services, failed,
    )))


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

    count = len(workload.arrivals)
    group_outcomes: List[GroupOutcome] = []
    arrival_group = [0] * count
    services = [0.0] * count
    failed_flags = [False] * count
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
        # the services and failed-flag columns: an arrival's service is
        # one of its group's chosen runtimes, picked by arrival index
        runtimes = chosen.runtimes
        measured = chosen.error is None and len(runtimes) > 0
        for index in group.arrivals:
            arrival_group[index] = group.index
            if measured:
                services[index] = runtimes[index % len(runtimes)]
            else:
                failed_flags[index] = True
    admissions = simulate_admission(workload, services, failed_flags,
                                    config.slots)

    baselines = [outcome.baseline for outcome in group_outcomes]
    chosen_means = [outcome.chosen_mean for outcome in group_outcomes]
    oracle_means = [outcome.oracle_mean for outcome in group_outcomes]
    class_records: List[List[AdmissionRecord]] = [
        [] for _ in workload.classes
    ]
    for record in admissions:
        class_records[record.tenant_index].append(record)
    class_metrics: List[ClassMetrics] = []
    for tenant, members in zip(workload.classes, class_records):
        # one pass in ascending arrival order, the order every float
        # sum below must add in to reproduce the pinned results
        latencies: List[float] = []
        waits: List[float] = []
        finished_services: List[float] = []
        baseline_sum = 0.0
        chosen_sum = 0.0
        oracle_sum = 0.0
        for (index, _, _, arrival, admitted, finished, service,
             failed) in members:
            waits.append(admitted - arrival)
            if not failed:
                latencies.append(finished - arrival)
                finished_services.append(service)
                group_index = arrival_group[index]
                baseline_sum += baselines[group_index]
                chosen_sum += chosen_means[group_index]
                oracle_sum += oracle_means[group_index]
        latencies.sort()
        waits.sort()
        service_sum = left_sum(finished_services)
        overhead = (service_sum / baseline_sum - 1.0
                    if baseline_sum > 0 else float("inf"))
        regret = (chosen_sum / oracle_sum
                  if oracle_sum > 0 else float("inf"))
        class_metrics.append(ClassMetrics(
            name=tenant.name,
            priority=tenant.priority,
            queries=len(members),
            failed=len(members) - len(latencies),
            overhead_percent=overhead * 100.0,
            latency_p50=_percentile(latencies, 0.50),
            latency_p99=_percentile(latencies, 0.99),
            wait_mean=(left_sum(waits) / len(waits) if waits else 0.0),
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
        failed_queries=failed_flags.count(True),
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
