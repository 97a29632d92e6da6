"""Span helpers for the traced run of the end-to-end benchmark.

Every span here is opened by benchmark code around a call into one of
``repro``'s public functions; nothing inside ``src/repro`` is touched.
Benchmark spans carry the ``e2e.`` prefix so the accounting ignores the
spans ``repro`` records on its own while a recorder is installed.

Two kinds of benchmark span exist:

* **layer spans** (``e2e.<layer>.<stage>``) wrap real work of the
  operation being measured;
* **probe spans** (``e2e.probe.<stage>``) time an *extra* call of a pure
  public function whose cost is otherwise hidden inside a larger public
  call (``canonical_stats`` inside ``AdvisoryEngine.advise``,
  ``generate_tenant_workload`` inside ``prepare``).  A probe's time is
  subtracted from the enclosing layer to derive that layer's self time,
  and is excluded from the traced wall, so probes cost tracing overhead
  but never inflate the breakdown.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.plan_lint import preflight_check
from repro.core.enumeration import plan_fingerprint
from repro.core.strategies import ConfiguredPlan
from repro.engine.campaign import CampaignCell, CellResult
from repro.engine.cluster import Cluster
from repro.engine.coordinator import (
    _default_horizon,
    pure_baseline_runtime,
    run_with_extension,
)
from repro.engine.executor import SimulatedEngine
from repro.engine.traces import cached_trace_set
from repro.serve import AdvisoryEngine

PREFIX = "e2e."
MISS = "|miss"


class TracedEngine(AdvisoryEngine):
    """An :class:`AdvisoryEngine` whose ``advise`` is timed per stage.

    ``advise`` canonicalizes the stats and fingerprints the plan before
    its cache lookup; both are pure, so timing one extra call of each
    (probes) splits the ``advise`` span into canonicalize, fingerprint
    and lookup.  Calls that missed the cache carry ``miss=True``: their
    ``advise`` time is a search, not a lookup.
    """

    def advise(self, plan: Any, stats: Any,
               scheme: str = "cost-based") -> Any:
        with obs.span("e2e.probe.canonicalize") as canonicalize:
            self.canonical_stats(stats)
        with obs.span("e2e.probe.fingerprint") as fingerprint:
            plan_fingerprint(plan)
        misses = self.cache.misses if self.cache is not None else 0
        with obs.span("e2e.serve.advise") as advise:
            advice = super().advise(plan, stats, scheme)
        missed = self.cache is None or self.cache.misses > misses
        for span in (canonicalize, fingerprint, advise):
            span.set(miss=missed)
        return advice


def span_totals(recorder: obs.Recorder) -> Dict[str, float]:
    """Summed seconds per benchmark span name (``|miss`` split out)."""
    totals: Dict[str, float] = defaultdict(float)
    for span in recorder.spans:
        if span.name.startswith(PREFIX):
            key = span.name[len(PREFIX):]
            if span.attrs.get("miss"):
                key += MISS
            totals[key] += span.duration
    return totals


def serve_rows(totals: Dict[str, float]) -> Dict[str, float]:
    """Self times of the advisory engine's stages from TracedEngine spans.

    ``lookup`` is ``advise`` minus canonicalize and fingerprint on cache
    hits; ``miss_search`` is the same difference on misses.
    """
    def hit_and_miss(name: str) -> Tuple[float, float]:
        return totals.get(name, 0.0), totals.get(name + MISS, 0.0)

    canon_hit, canon_miss = hit_and_miss("probe.canonicalize")
    fp_hit, fp_miss = hit_and_miss("probe.fingerprint")
    advise_hit, advise_miss = hit_and_miss("serve.advise")
    return {
        "serve.canonicalize": canon_hit + canon_miss,
        "serve.fingerprint": fp_hit + fp_miss,
        "serve.lookup": advise_hit - canon_hit - fp_hit,
        "serve.miss_search": advise_miss - canon_miss - fp_miss,
    }


def engine_time(totals: Dict[str, float]) -> float:
    """Everything TracedEngine.advise spent, its probes included: what a
    span enclosing the advise calls contains of the engine."""
    return sum(value for key, value in totals.items()
               if key.split(MISS)[0] in ("serve.advise", "probe.canonicalize",
                                         "probe.fingerprint"))


def probe_total(totals: Dict[str, float]) -> float:
    return sum(value for key, value in totals.items()
               if key.startswith("probe."))


def sim_rows(totals: Dict[str, float]) -> Dict[str, float]:
    """Self times of the replayed campaign (see :func:`replay_campaign`)."""
    stages = ("traces", "baseline", "configure", "prepare", "execute")
    rows = {f"sim.{stage}": totals.get(f"sim.{stage}", 0.0)
            for stage in stages}
    rows["sim.merge"] = totals.get("sim.campaign", 0.0) - sum(rows.values())
    return rows


def share_table(rows: Dict[str, float], wall: float,
                ops: int) -> Dict[str, Any]:
    """A traced run's result: each layer's self time as a share of the
    traced wall, the share no layer accounts for, and the per-op
    absolute values behind the shares."""
    return {
        "shares_pct": {name: 100.0 * value / wall
                       for name, value in rows.items()},
        "unattributed_pct": 100.0 * (wall - sum(rows.values())) / wall,
        "base_ms": 1e3 * wall / ops,
        "rows_ms_per_op": {name: 1e3 * value / ops
                           for name, value in rows.items()},
    }


def per_second(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_counts(recorder: obs.Recorder,
                 tallies: Optional[Dict[str, int]] = None
                 ) -> Dict[str, float]:
    """The work counts of a traced run, from ``repro``'s own counters
    and the replayed campaign's tallies."""
    counters = recorder.counters
    hits = counters.get("serve.cache.hits", 0)
    misses = counters.get("serve.cache.misses", 0)
    tallies = tallies or {}
    return {
        "serve.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.searches": counters.get("serve.searches", 0),
        "serve.coalesced": counters.get("serve.coalesced", 0),
        "serve.evictions": counters.get("serve.cache.evictions", 0),
        "serve.shed": counters.get("serve.shed", 0),
        "search.configs": counters.get("search.configs_enumerated", 0),
        "search.paths_estimated": counters.get("search.paths_estimated", 0),
        "search.rule3_cutoffs": counters.get("search.rule3.plan_cutoffs",
                                             0),
        "sim.runs": tallies.get("runs", 0),
        "sim.failures": tallies.get("failures", 0),
        "sim.restarts": tallies.get("restarts", 0),
        "sim.aborts": tallies.get("aborts", 0),
        "workload.queries": counters.get("workload.queries", 0),
        "workload.groups": counters.get("workload.groups", 0),
        "workload.error_rows": counters.get("workload.error_rows", 0),
    }


# ----------------------------------------------------------------------
# the campaign unit loop, replayed from public calls
# ----------------------------------------------------------------------
def replay_campaign(
    cells: Sequence[CampaignCell],
    cluster: Cluster,
    chaos: Optional[Any] = None,
    preflight: bool = True,
) -> Tuple[List[CellResult], Dict[str, int]]:
    """``run_campaign(cells, cluster, jobs=1, ...)`` with a span per stage.

    Mirrors the campaign's serial unit loop for static targets (trace
    set, baseline, configure, prepare, execute) so each stage shows as
    its own span.  The rows must equal ``run_campaign``'s; the caller
    checks that by digest, because a replay that drifted from the real
    loop would measure a different program.  Returns the rows and the
    simulation tallies ``run_campaign`` would have counted.
    """
    tallies = {"runs": 0, "failures": 0, "restarts": 0, "aborts": 0}
    if preflight:
        with obs.span("e2e.search.preflight"):
            seen = set()
            for cell in cells:
                stats = cluster.stats(cell.mtbf, const_pipe=cell.const_pipe)
                key = (plan_fingerprint(cell.plan), stats)
                if key not in seen:
                    preflight_check(cell.plan, stats, plan_name=cell.label)
                    seen.add(key)
    rows: List[CellResult] = []
    with obs.span("e2e.sim.campaign"):
        for cell_index, cell in enumerate(cells):
            for target in cell.targets():
                rows.append(_replay_unit(cell, cell_index, target, cluster,
                                         chaos, tallies))
    return rows, tallies


def _replay_unit(
    cell: CampaignCell,
    cell_index: int,
    target: Any,
    cluster: Cluster,
    chaos: Optional[Any],
    tallies: Dict[str, int],
) -> CellResult:
    stats = cluster.stats(cell.mtbf, const_pipe=cell.const_pipe)
    engine = SimulatedEngine(cluster, const_pipe=cell.const_pipe,
                             record_events=False, chaos=chaos)
    baseline = cell.baseline
    if baseline is None:
        clean = engine if chaos is None else SimulatedEngine(
            cluster, const_pipe=cell.const_pipe, record_events=False)
        with obs.span("e2e.sim.baseline"):
            baseline = pure_baseline_runtime(cell.plan, clean, stats)
    with obs.span("e2e.sim.traces"):
        if cell.traces is not None:
            traces = list(cell.traces)
        else:
            horizon = cell.horizon
            if horizon is None:
                horizon = _default_horizon(baseline, cell.mtbf, cluster)
            active = chaos is not None and chaos.trace_active()
            traces = cached_trace_set(
                cluster.nodes, cell.mtbf, horizon,
                count=cell.trace_count, base_seed=cell.base_seed,
                correlated=chaos.correlated if active else None,
                chaos_seed=chaos.seed if active else 0,
                drift=chaos.mtbf_drift if active else None,
            )
    if isinstance(target, ConfiguredPlan):
        configured = target
    else:
        with obs.span("e2e.sim.configure"):
            configured = target.configure(cell.plan, stats)
    with obs.span("e2e.sim.prepare"):
        prepared = engine.prepare(configured)
    runtimes: List[float] = []
    aborted = 0
    with obs.span("e2e.sim.execute"):
        for index, trace in enumerate(traces):
            result, extended = run_with_extension(engine, prepared, trace)
            if extended is not trace:
                traces[index] = extended
            if result.aborted:
                aborted += 1
            else:
                runtimes.append(result.runtime)
            tallies["failures"] += result.failures_hit
            tallies["restarts"] += result.restarts + result.share_restarts
    tallies["runs"] += len(traces)
    tallies["aborts"] += aborted
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
    )
