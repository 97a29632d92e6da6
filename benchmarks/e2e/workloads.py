"""One workload process of the end-to-end benchmark.

``run.py`` starts this script once per child process; nothing else
should.  A child sets its workload up, prints the ``E2E-READY`` line
(``run.py`` measures set-up time from spawn to that line), measures, checks
its outputs and prints one JSON result as its last stdout line::

    python benchmarks/e2e/workloads.py --workload search-q5 --seed 0 \\
        --seconds 10 --scale full --mode measure --index 0 --children 3

Modes: ``measure`` is the untraced measurement; ``reference`` is the same
plus whatever the traced run compares against (the advise-hot in-process
replay); ``traced`` records ``repro.obs`` spans around the public calls
of each layer and reports self-time shares instead of end-to-end numbers.

Every input derives from ``--seed`` and the child ``--index``; the
program under test receives only the generated inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import obs  # noqa: E402
from repro.analysis.plan_lint import preflight_check  # noqa: E402
from repro.analysis.sanitizer import fingerprint  # noqa: E402
from repro.core.cost_model import ClusterStats  # noqa: E402
from repro.core.enumeration import (  # noqa: E402
    estimate_plan_cost,
    find_best_ft_plan,
)
from repro.core.failure import HOUR  # noqa: E402
from repro.core.pruning import (  # noqa: E402
    PruningConfig,
    apply_rule1,
    apply_rule2,
)
from repro.core.strategies import standard_schemes  # noqa: E402
from repro.engine.campaign import CampaignCell, run_campaign  # noqa: E402
from repro.engine.cluster import Cluster  # noqa: E402
from repro.engine.coordinator import (  # noqa: E402
    _default_horizon,
    pure_baseline_runtime,
)
from repro.engine.executor import (  # noqa: E402
    SimulatedEngine,
    TraceExhausted,
)
from repro.engine.traces import (  # noqa: E402
    extend_trace,
    generate_trace_set,
    reset_trace_cache,
)
from repro.joinorder import (  # noqa: E402
    enumerate_join_trees,
    q5_join_graph,
    scaling_specs,
    synthetic_plan,
    tree_to_plan,
)
from repro.serve import AdvisoryEngine, direct_advice  # noqa: E402
from repro.stats.calibration import default_parameters  # noqa: E402
from repro.tpch.queries import build_query_plan  # noqa: E402
from repro.workload import (  # noqa: E402
    MultiTenantConfig,
    default_tenant_mix,
    run_multitenant,
)
from repro.workload.simulate import (  # noqa: E402
    CHOSEN_INDEX,
    SCHEME_ORDER,
    arrival_stats,
    assemble,
    prepare,
)
from repro.workload.tenants import generate_tenant_workload  # noqa: E402

import tracing  # noqa: E402
from shared import READY  # noqa: E402

#: per-scale input sizes; ``full`` is what ``BENCHMARK.json`` measures
SCALES: Dict[str, Dict[str, Any]] = {
    "full": {
        "campaign_traces": 150,
        "mt_queries": 30000,
        "n100_config_limit": 16384,
        "min_calls": 2,
        "trace_calls": {"search-q5": 40, "search-q5-norules": 20,
                        "search-n100": 2},
    },
    "smoke": {
        "campaign_traces": 10,
        "mt_queries": 2000,
        "n100_config_limit": 512,
        "min_calls": 1,
        "trace_calls": {"search-q5": 3, "search-q5-norules": 3,
                        "search-n100": 1},
    },
}

Q5_JOIN_ORDERS = 60
FIG8_QUERIES = ("Q1", "Q3", "Q5", "Q1C", "Q2C")
FIG8_BASE_SEED = 800          #: Figure 8's trace protocol (round 0)
NODES = 10


class Child:
    """The command line of one child plus its failure ledger.

    ``attempted``/``failed`` count the workload's operations (calls,
    requests, rows, queries); every output check is one more operation,
    failed when the check fails.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload: str = args.workload
        self.seed: int = args.seed
        self.seconds: float = args.seconds
        self.scale: str = args.scale
        self.mode: str = args.mode
        self.index: int = args.index
        self.children: int = args.children
        self.sizes = SCALES[self.scale]
        self.pins: Dict[str, str] = json.loads(
            (HERE / "digests.json").read_text()).get(self.scale, {})
        self.checks: List[Dict[str, Any]] = []
        self.failed = 0
        self.attempted = 0

    @property
    def traced(self) -> bool:
        return self.mode == "traced"

    def rng(self, *salt: Any) -> random.Random:
        """A generator owned by (workload, seed, salt): the same seed
        always draws the same inputs, and no two uses share a stream."""
        return random.Random("/".join(
            str(part) for part in (self.workload, self.seed) + salt))

    def ready(self) -> None:
        print(READY, flush=True)

    def check(self, name: str, ok: bool, detail: Any = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok),
                            "detail": str(detail)})
        return bool(ok)

    def check_pinned(self, key: str, digest: str) -> bool:
        expected = self.pins.get(key)
        return self.check(f"{key} digest == digests.json",
                          digest == expected,
                          f"got {digest}, pinned {expected}")

    def count_ops(self, digests: List[str], key: str) -> None:
        """Each op whose result digest differs from the pin failed."""
        self.attempted = len(digests)
        self.failed = sum(digest != self.pins.get(key)
                          for digest in digests)


def time_box(seconds: float, min_ops: int) -> Iterator[int]:
    """Yield op indices until ``seconds`` have passed (at least
    ``min_ops``)."""
    start = time.perf_counter()
    for index in itertools.count():
        if index >= min_ops and time.perf_counter() - start >= seconds:
            return
        yield index


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# search-q5 / search-q5-norules / search-n100: one find_best_ft_plan call
# ----------------------------------------------------------------------
SEARCHES = {
    "search-q5": ("q5", PruningConfig.all()),
    "search-q5-norules": ("q5", PruningConfig.none()),
    "search-n100": ("n100", PruningConfig.all()),
}


def search_inputs(kind: str, sizes: Dict[str, Any]):
    """The candidate plans, stats and config cap the ROADMAP's search
    gates name: Q5@sf100's first join orders, or synthetic n=100."""
    if kind == "q5":
        graph = q5_join_graph(100.0)
        params = default_parameters()
        plans = [tree_to_plan(tree, graph, params) for tree in
                 itertools.islice(enumerate_join_trees(graph),
                                  Q5_JOIN_ORDERS)]
        return plans, ClusterStats(mtbf=HOUR, mttr=1.0, nodes=NODES), None
    plan = synthetic_plan(scaling_specs((100,))[0])
    base = sum(op.runtime_cost for op in plan.operators.values())
    stats = ClusterStats(mtbf=base * 20.0, mttr=base * 0.1, const_pipe=0.9)
    return [plan], stats, sizes["n100_config_limit"]


def search_digest(result: Any) -> str:
    return fingerprint((result.cost, result.mat_config))


def run_search(child: Child) -> Dict[str, Any]:
    kind, pruning = SEARCHES[child.workload]
    plans, stats, limit = search_inputs(kind, child.sizes)

    def call(lint: bool = True) -> Any:
        return find_best_ft_plan(plans, stats, pruning=pruning,
                                 preflight_lint=lint, engine="fast",
                                 parallelism=1, config_limit=limit)

    if child.traced:
        child.ready()
        return trace_search(child, plans, stats, pruning, call)
    # the first search lints every plan; later calls hit the lint memo
    find_best_ft_plan(plans, stats, pruning=pruning, config_limit=1)
    child.ready()
    durations, digests, configs = [], [], 0
    for _ in time_box(child.seconds / child.children,
                      child.sizes["min_calls"]):
        started = time.perf_counter()
        result = call()
        durations.append(time.perf_counter() - started)
        digests.append(search_digest(result))
        configs += result.pruning.configs_enumerated
    child.count_ops(digests, child.workload)
    if kind == "q5" and child.index == 0:
        # the fast engine's answer must equal the naive oracle's
        naive = find_best_ft_plan(plans, stats, pruning=pruning,
                                  engine="naive")
        child.check("fast engine == naive oracle",
                    search_digest(naive) == digests[0])
    return {
        "ops_ms": [1e3 * value for value in durations],
        "work": configs,
        "digests": digests,
        "peak_rss_mb": peak_rss_mb(),
    }


def trace_search(child: Child, plans, stats, pruning,
                 call: Callable[..., Any]) -> Dict[str, Any]:
    durations, digests = [], []
    with obs.recording() as recorder:
        # the lint the untraced run does during set-up, as its own op
        with obs.span("e2e.op"), obs.span("e2e.search.preflight"):
            for plan in plans:
                preflight_check(plan, stats)
        for _ in range(child.sizes["trace_calls"][child.workload]):
            started = time.perf_counter()
            with obs.span("e2e.op"):
                with obs.span("e2e.probe.rules12"):
                    for plan in plans:
                        pruned = plan
                        if pruning.rule1:
                            pruned = apply_rule1(pruned, stats.const_pipe)
                        if pruning.rule2:
                            apply_rule2(pruned, stats)
                with obs.span("e2e.search.call"):
                    result = call(lint=False)
                with obs.span("e2e.probe.rebuild"):
                    estimate_plan_cost(result.plan, stats)
            durations.append(time.perf_counter() - started)
            digests.append(search_digest(result))
    totals = tracing.span_totals(recorder)
    rules12 = totals.get("probe.rules12", 0.0)
    rebuild = totals.get("probe.rebuild", 0.0)
    rows = {
        "search.preflight": totals["search.preflight"],
        "search.rules12": rules12,
        "search.scan": totals["search.call"] - rules12 - rebuild,
        "search.rebuild": rebuild,
    }
    wall = totals["op"] - tracing.probe_total(totals)
    counts = tracing.layer_counts(recorder)
    child.count_ops(digests, child.workload)
    return dict(
        tracing.share_table(rows, wall, len(durations)),
        counts=counts,
        rates={"search.configs_per_s": tracing.per_second(
            counts["search.configs"], totals["search.call"])},
        ops_ms=[1e3 * value for value in durations],
        digests=digests,
    )


# ----------------------------------------------------------------------
# campaign: run_campaign over the Figure 8 grid
# ----------------------------------------------------------------------
def fig8_grid(trace_count: int):
    """Figure 8's grid: five queries @ sf100 x four schemes x MTBF
    1.1x / 10x the query's baseline (baselines resolved here)."""
    params = default_parameters(nodes=NODES)
    cluster = Cluster(nodes=NODES, mttr=1.0)
    engine = SimulatedEngine(cluster)
    schemes = tuple(standard_schemes(preflight_lint=False))
    cells = []
    for query in FIG8_QUERIES:
        plan = build_query_plan(query, 100.0, params)
        baseline = pure_baseline_runtime(plan, engine,
                                         cluster.stats(mtbf=1.0))
        for offset, factor in ((0, 1.1), (1, 10.0)):
            cells.append(CampaignCell(
                label=query, plan=plan, mtbf=factor * baseline,
                schemes=schemes, trace_count=trace_count,
                base_seed=FIG8_BASE_SEED + offset, baseline=baseline,
            ))
    return cells, cluster


def campaign_round(cells: List[CampaignCell], child: Child,
                   round_index: int) -> List[CampaignCell]:
    """The grid with one round's trace seeds.  The first round of child
    0 uses Figure 8's own seeds (its rows are pinned); every other round
    draws fresh ones from ``--seed``, so no round reuses a trace set."""
    base = FIG8_BASE_SEED
    if child.index or round_index:
        base = child.rng("traces", child.index,
                         round_index).randrange(1000, 2 ** 30)
    return [dataclasses.replace(cell, base_seed=base + offset % 2)
            for offset, cell in enumerate(cells)]


def oracle_row(cell: CampaignCell, target: Any, cluster: Cluster):
    """One (cell, scheme) unit by the pre-campaign protocol: fresh
    traces, no prepared execution, no caches."""
    engine = SimulatedEngine(cluster)
    stats = cluster.stats(cell.mtbf, const_pipe=cell.const_pipe)
    configured = target.configure(cell.plan, stats)
    horizon = _default_horizon(cell.baseline, cell.mtbf, cluster)
    runtimes, aborted = [], 0
    for trace in generate_trace_set(cluster.nodes, cell.mtbf, horizon,
                                    count=cell.trace_count,
                                    base_seed=cell.base_seed):
        while True:
            try:
                result = engine.execute(configured, trace)
                break
            except TraceExhausted:
                trace = extend_trace(trace, trace.horizon * 4)
        if result.aborted:
            aborted += 1
        else:
            runtimes.append(result.runtime)
    return tuple(runtimes), aborted


def run_campaign_rounds(child: Child) -> Dict[str, Any]:
    grid, cluster = fig8_grid(child.sizes["campaign_traces"])
    child.ready()
    if child.traced:
        return trace_campaign(child, campaign_round(grid, child, 0),
                              cluster)
    durations, digests, rounds = [], [], []
    for round_index in time_box(child.seconds / child.children, 1):
        cells = campaign_round(grid, child, round_index)
        reset_trace_cache()      # a round pays for its own trace sets
        started = time.perf_counter()
        rows = run_campaign(cells, cluster, jobs=1)
        durations.append(time.perf_counter() - started)
        digests.append(fingerprint(rows))
        rounds.append((cells, rows))
    child.attempted = sum(len(rows) for _, rows in rounds)
    child.failed = sum(row.error is not None
                       for _, rows in rounds for row in rows)
    if child.index == 0:
        child.check_pinned("campaign", digests[0])
    if child.index or len(rounds) > 1:
        # one sampled unit of a --seed round, by the serial protocol
        cells, rows = rounds[-1]
        rng = child.rng("oracle", child.index)
        cell_index = rng.randrange(len(cells))
        targets = cells[cell_index].targets()
        target_index = rng.randrange(len(targets))
        row = rows[cell_index * len(targets) + target_index]
        child.check(
            f"unit ({row.label}, {row.scheme}) == serial oracle",
            (row.runtimes, row.aborted_runs)
            == oracle_row(cells[cell_index], targets[target_index], cluster))
    return {"ops_ms": [1e3 * value for value in durations],
            "work": sum(cell.trace_count * len(cell.targets())
                        for cells, _ in rounds for cell in cells),
            "digests": digests, "peak_rss_mb": peak_rss_mb()}


def trace_campaign(child: Child, cells: List[CampaignCell],
                   cluster: Cluster) -> Dict[str, Any]:
    started = time.perf_counter()
    with obs.recording() as recorder:
        with obs.span("e2e.op"):
            rows, tallies = tracing.replay_campaign(cells, cluster)
    elapsed = time.perf_counter() - started
    digest = fingerprint(rows)
    child.attempted = len(rows)
    child.failed = sum(row.error is not None for row in rows)
    child.check_pinned("campaign", digest)
    totals = tracing.span_totals(recorder)
    rows_s = dict(tracing.sim_rows(totals),
                  **{"search.preflight": totals["search.preflight"]})
    counts = tracing.layer_counts(recorder, tallies)
    return dict(
        tracing.share_table(rows_s, totals["op"], 1),
        counts=counts,
        rates={
            "search.configs_per_s": tracing.per_second(
                counts["search.configs"], totals["sim.configure"]),
            "sim.execute_runs_per_s": tracing.per_second(
                tallies["runs"], totals["sim.execute"]),
        },
        ops_ms=[1e3 * elapsed],
        digests=[digest],
    )


# ----------------------------------------------------------------------
# workload-mt: run_multitenant, in-process advisory engine, cold cache
# ----------------------------------------------------------------------
def mt_config(child: Child) -> MultiTenantConfig:
    """The fixed seed-0 tenant population (its seed also draws the plans'
    scale factors, which swing a round's cost far more than churn does);
    ``--seed`` drives the spot-fleet churn of every round but round 0."""
    chaos_seed = 0
    if child.index:
        chaos_seed = child.rng("churn", child.index).randrange(1, 2 ** 30)
    return MultiTenantConfig(
        queries=child.sizes["mt_queries"],
        tenant_classes=default_tenant_mix(3),
        churn=0.5,
        templates_per_class=8,
        trace_count=10,
        seed=0,
        chaos_seed=chaos_seed,
    )


def check_mt_advice(child: Child, config: MultiTenantConfig,
                    result: Any, samples: int = 3) -> None:
    """Sampled groups' chosen configuration == a direct search.

    Rebuilds the arrival stream (pure in the config) to find one arrival
    per group label, then compares the cost-based row's materialized
    operators with :func:`direct_advice` on that arrival's stats.
    """
    workload = generate_tenant_workload(
        classes=config.tenant_classes, count=config.queries,
        seed=config.seed, duration=config.duration,
        templates_per_class=config.templates_per_class,
        diurnal=config.diurnal,
    )
    reference = AdvisoryEngine(cache_size=config.cache_size,
                               config_limit=config.config_limit)
    first_arrival: Dict[str, Any] = {}
    for arrival in workload.arrivals:
        template = workload.templates[arrival.template_index]
        stats = arrival_stats(config, arrival.time, arrival.mtbf_jitter,
                              arrival.mttr_jitter)
        canonical = reference.canonical_stats(stats)
        label = (f"{template.label}|mtbf{canonical.mtbf:.6g}"
                 f"|mttr{canonical.mttr:.6g}")
        first_arrival.setdefault(label, (template.plan, stats))
    child.check("every group has an arrival",
                all(group.label in first_arrival for group in result.groups))
    rng = child.rng("advice", child.index)
    for group_index in rng.sample(range(len(result.groups)),
                                  min(samples, len(result.groups))):
        plan, stats = first_arrival[result.groups[group_index].label]
        advice = direct_advice(plan, stats, reference)
        row = result.rows[group_index * len(SCHEME_ORDER) + CHOSEN_INDEX]
        child.check(f"group {group_index} advice == direct search",
                    row.materialized_ids == advice.materialized_ids)


def run_mt_round(child: Child) -> Dict[str, Any]:
    config = mt_config(child)
    child.ready()
    started = time.perf_counter()
    if child.traced:
        with obs.recording() as recorder:
            with obs.span("e2e.op"):
                with obs.span("e2e.probe.generate"):
                    generate_tenant_workload(
                        classes=config.tenant_classes, count=config.queries,
                        seed=config.seed, duration=config.duration,
                        templates_per_class=config.templates_per_class,
                        diurnal=config.diurnal,
                    )
                engine = tracing.TracedEngine(
                    cache_size=config.cache_size,
                    config_limit=config.config_limit)
                with obs.span("e2e.workload.prepare"):
                    prepared = prepare(config, engine=engine)
                rows, tallies = tracing.replay_campaign(
                    list(prepared.cells), prepared.cluster,
                    chaos=prepared.policy, preflight=False)
                with obs.span("e2e.workload.assemble"):
                    result = assemble(prepared, rows)
    else:
        result = run_multitenant(config, jobs=1)
    elapsed = time.perf_counter() - started
    digest = fingerprint(result.to_payload())
    advice = result.advice
    child.attempted = config.queries
    child.failed = result.failed_queries
    child.check("no error rows", result.error_rows == 0, result.error_rows)
    child.check("every query answered by the advice cache",
                advice.hits + advice.misses == config.queries)
    if child.index == 0:
        child.check_pinned("workload-mt", digest)
    elif not child.traced:
        check_mt_advice(child, config, result)
    if not child.traced:
        return {"ops_ms": [1e3 * elapsed], "work": config.queries,
                "digests": [digest],
                "peak_rss_mb": peak_rss_mb()}
    totals = tracing.span_totals(recorder)
    serve = tracing.serve_rows(totals)
    generate = totals["probe.generate"]
    rows_s = dict(
        serve,
        **tracing.sim_rows(totals),
        **{
            "workload.generate": generate,
            "workload.advice": (totals["workload.prepare"] - generate
                                - tracing.engine_time(totals)),
            "workload.assemble": totals["workload.assemble"],
        },
    )
    counts = tracing.layer_counts(recorder, tallies)
    return dict(
        tracing.share_table(
            rows_s, totals["op"] - tracing.probe_total(totals), 1),
        counts=counts,
        rates={
            "search.configs_per_s": tracing.per_second(
                counts["search.configs"], serve["serve.miss_search"]),
            "sim.execute_runs_per_s": tracing.per_second(
                tallies["runs"], totals["sim.execute"]),
        },
        ops_ms=[1e3 * elapsed],
        digests=[digest],
    )


def run_advise(child: Child) -> Dict[str, Any]:
    import advise_hot

    return advise_hot.run(child)


WORKLOADS: Dict[str, Callable[[Child], Dict[str, Any]]] = {
    "advise-hot": run_advise,
    "search-q5": run_search,
    "search-q5-norules": run_search,
    "search-n100": run_search,
    "campaign": run_campaign_rounds,
    "workload-mt": run_mt_round,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), required=True)
    parser.add_argument("--mode", choices=("measure", "reference",
                                           "traced"), required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--children", type=int, required=True)
    child = Child(parser.parse_args(argv))
    started = time.perf_counter()
    result = WORKLOADS[child.workload](child)
    result.update(
        attempted=child.attempted + len(child.checks),
        failed=child.failed + sum(not check["ok"]
                                  for check in child.checks),
        checks=child.checks,
        wall_s=time.perf_counter() - started,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
