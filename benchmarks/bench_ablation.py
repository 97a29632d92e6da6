"""Ablations of the design choices called out in DESIGN.md.

1. **Wasted-runtime approximation** -- the paper replaces the exact
   integral ``w(c)`` (Eq. 3) by ``t(c)/2`` (Eq. 4).  The ablation shows
   the approximation changes estimates by well under 10 % at realistic
   MTBFs and never changes the chosen configuration here.
2. **Per-node vs cluster-scaled MTBF** -- the paper's model rates each
   sub-plan against the per-node MTBF (optimistic); scaling by the node
   count (the superposition rate) makes the model pessimistic instead.
   The ablation quantifies both errors against the simulator.
3. **Fault-tolerant vs node-local intermediate storage** -- Section 2.2's
   caveat: with local storage, failures destroy materialized inputs and
   the engine pays lineage recomputation, so the model becomes more
   optimistic than with the paper's assumed fault-tolerant medium.
4. **Rule 3 memo variants** -- the bestT check alone vs the paper's
   suggested Eq. 9 dominance memo, counted in cost-model calls.
"""

import math

import pytest

from repro.core.cost_model import ClusterStats
from repro.core.failure import HOUR
from repro.core.strategies import CostBased
from repro.engine.cluster import Cluster
from repro.engine.coordinator import run_with_extension
from repro.engine.executor import SimulatedEngine
from repro.engine.storage import LocalStorage
from repro.engine.traces import generate_trace_set
from repro.stats.calibration import default_parameters
from repro.tpch.queries import build_query_plan


@pytest.fixture(scope="module")
def q5_plan():
    return build_query_plan("Q5", 100.0, default_parameters())


def _mean_runtime(engine, configured, mtbf, traces):
    runtimes = [
        run_with_extension(engine, configured, trace)[0].runtime
        for trace in traces
    ]
    return sum(runtimes) / len(runtimes)


def test_exact_vs_approximate_wasted_runtime(benchmark, q5_plan, archive):
    """Ablation 1: Eq. 3 vs the paper's t/2 approximation."""
    stats = ClusterStats(mtbf=HOUR, mttr=1.0, nodes=10)

    def run_both():
        approx = CostBased(exact_waste=False).configure(q5_plan, stats)
        exact = CostBased(exact_waste=True).configure(q5_plan, stats)
        return approx, exact

    approx, exact = benchmark(run_both)
    lines = [
        "Ablation: wasted-runtime model (Q5 @ SF 100, MTBF = 1 hour)",
        f"approx (t/2): cost={approx.search.cost:10.1f}  "
        f"materializes={approx.search.materialized_ids}",
        f"exact (Eq.3): cost={exact.search.cost:10.1f}  "
        f"materializes={exact.search.materialized_ids}",
    ]
    archive("ablation_wasted_runtime", "\n".join(lines))

    # the exact integral wastes slightly less -> slightly lower estimate
    assert exact.search.cost <= approx.search.cost
    assert exact.search.cost > 0.9 * approx.search.cost
    # and the selected configuration agrees
    assert exact.search.materialized_ids == approx.search.materialized_ids


def test_per_node_vs_scaled_mtbf(benchmark, q5_plan, archive):
    """Ablation 2: MTBF_cost = MTBF (paper) vs MTBF / n (superposition)."""
    mtbf = HOUR
    cluster = Cluster(nodes=10, mttr=1.0)
    engine = SimulatedEngine(cluster)
    per_node = ClusterStats(mtbf=mtbf, mttr=1.0, nodes=10)
    scaled = ClusterStats(mtbf=mtbf, mttr=1.0, nodes=10,
                          scale_mtbf_by_nodes=True)

    def measure():
        rows = []
        traces = generate_trace_set(10, mtbf, horizon=40_000.0,
                                    count=8, base_seed=4242)
        for label, stats in (("per-node", per_node), ("scaled", scaled)):
            configured = CostBased().configure(q5_plan, stats)
            actual = _mean_runtime(engine, configured, mtbf, traces)
            rows.append((label, configured.search.cost, actual))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["Ablation: MTBF scaling (Q5 @ SF 100, MTBF = 1 hour)",
             f"{'model':<10s}{'estimated(s)':>14s}{'actual(s)':>12s}"
             f"{'error':>9s}"]
    for label, estimated, actual in rows:
        error = 100.0 * (estimated - actual) / actual
        lines.append(f"{label:<10s}{estimated:>14.0f}{actual:>12.0f}"
                     f"{error:>8.1f}%")
    archive("ablation_mtbf_scaling", "\n".join(lines))

    (_, est_node, act_node), (_, est_scaled, act_scaled) = rows
    # the paper's per-node model underestimates; the scaled model
    # overestimates (it budgets ~10x the failures each share sees)
    assert est_node < act_node
    assert est_scaled > act_scaled


def test_weibull_failures(benchmark, q5_plan, archive):
    """Ablation: bursty (Weibull, shape 0.7) vs memoryless failures.

    The paper assumes exponential inter-arrivals; field studies find
    Weibull with shape < 1 fits node failures better.  With the *mean*
    MTBF held fixed, bursty failures cluster: quiet stretches help, but
    clusters hit recovery attempts too.  The ablation measures how the
    cost-based plan (chosen under the exponential assumption) fares when
    reality is bursty.
    """
    from repro.chaos import CorrelatedFailures
    from repro.engine.traces import generate_trace

    mtbf = HOUR
    stats = ClusterStats(mtbf=mtbf, mttr=1.0, nodes=10)
    cluster = Cluster(nodes=10, mttr=1.0)
    engine = SimulatedEngine(cluster)
    configured = CostBased().configure(q5_plan, stats)

    def measure():
        results = {}
        for label, shape in (
            ("exponential", None),
            ("weibull(0.7)", 0.7),
            ("weibull(0.5)", 0.5),
        ):
            # a Weibull base without bursts; the trace records it, so
            # an extension redraws the same process
            correlated = None if shape is None else CorrelatedFailures(
                burst_mtbf=math.inf, intensity=0.0, base_shape=shape)
            runtimes = []
            for seed in range(8):
                trace = generate_trace(10, mtbf, 80_000.0,
                                       seed=6000 + seed,
                                       correlated=correlated)
                runtimes.append(
                    run_with_extension(engine, configured,
                                       trace)[0].runtime
                )
            results[label] = sum(runtimes) / len(runtimes)
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["Ablation: failure process (Q5 @ SF 100, mean MTBF = 1 hour, "
             "cost-based plan)",
             f"estimate (exponential model): {configured.search.cost:.0f}s"]
    for label, runtime in results.items():
        lines.append(f"{label:<14s} mean actual runtime: {runtime:.0f}s")
    archive("ablation_weibull", "\n".join(lines))

    # all processes share the mean rate, so runtimes stay in one regime
    values = list(results.values())
    assert max(values) < min(values) * 1.6


def test_success_percentile_sweep(benchmark, q5_plan, archive):
    """Ablation: the percentile S (paper fixes S = 0.95).

    S controls how pessimistically the model budgets retries: low S
    trusts the first attempt (fewer checkpoints), high S budgets many
    retries (more checkpoints).  The sweep shows the chosen
    configuration's *actual* runtime is flat around the paper's 0.95 --
    the choice is not finely tuned.
    """
    mtbf = HOUR
    cluster = Cluster(nodes=10, mttr=1.0)
    engine = SimulatedEngine(cluster)
    traces = generate_trace_set(10, mtbf, horizon=40_000.0,
                                count=8, base_seed=909)

    def sweep():
        rows = []
        for percentile in (0.50, 0.80, 0.90, 0.95, 0.99):
            stats = ClusterStats(mtbf=mtbf, mttr=1.0, nodes=10,
                                 success_percentile=percentile)
            configured = CostBased().configure(q5_plan, stats)
            actual = _mean_runtime(engine, configured, mtbf, traces)
            rows.append((percentile, configured.search.materialized_ids,
                         configured.search.cost, actual))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["Ablation: success percentile S (Q5 @ SF 100, MTBF = 1 hour)",
             f"{'S':>6s}  {'materializes':<16s}{'estimated(s)':>13s}"
             f"{'actual(s)':>11s}"]
    for percentile, mats, estimated, actual in rows:
        lines.append(f"{percentile:>6.2f}  {str(list(mats)):<16s}"
                     f"{estimated:>13.0f}{actual:>11.0f}")
    archive("ablation_percentile", "\n".join(lines))

    actuals = [actual for _, _, _, actual in rows]
    paper_choice = dict(
        (p, actual) for p, _, _, actual in rows
    )[0.95]
    # the paper's S = 0.95 is within 10 % of the best S in the sweep
    assert paper_choice <= min(actuals) * 1.10


def test_fault_tolerant_vs_local_storage(benchmark, q5_plan, archive):
    """Ablation 3: Section 2.2 -- losing intermediates costs extra."""
    mtbf = HOUR
    stats = ClusterStats(mtbf=mtbf, mttr=1.0, nodes=10)
    configured = CostBased().configure(q5_plan, stats)
    traces = generate_trace_set(10, mtbf, horizon=40_000.0,
                                count=8, base_seed=777)

    def measure():
        results = {}
        for label, cluster in (
            ("fault-tolerant", Cluster(nodes=10, mttr=1.0)),
            ("local", Cluster(nodes=10, mttr=1.0,
                              storage=LocalStorage())),
        ):
            engine = SimulatedEngine(cluster)
            results[label] = _mean_runtime(engine, configured, mtbf, traces)
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["Ablation: storage medium (Q5 @ SF 100, MTBF = 1 hour)",
             f"estimate (assumes durable intermediates): "
             f"{configured.search.cost:.0f}s"]
    for label, actual in results.items():
        lines.append(f"{label:<16s} actual mean runtime: {actual:.0f}s")
    archive("ablation_storage", "\n".join(lines))

    # local storage pays lineage recomputation on every retry
    assert results["local"] >= results["fault-tolerant"]


def test_rule3_memo_variants(benchmark, archive):
    """Ablation 4: Rule 3's Eq. 9 dominance memo vs the bestT check alone.

    The paper suggests memoizing *multiple* best dominant paths (one per
    collapsed-operator count) for more aggressive pruning; this measures
    how many cost-model calls the richer memo saves on the top-5 search.
    """
    from repro.core import cost_model
    from repro.core.collapse import collapse_plan
    from repro.core.enumeration import enumerate_mat_configs
    from repro.core.paths import enumerate_paths, path_total_costs
    from repro.core.pruning import DominantPathMemo
    from repro.joinorder import q5_join_graph, top_k_plans, tree_to_plan

    graph = q5_join_graph(100.0)
    params = default_parameters()
    plans = [tree_to_plan(ranked.tree, graph, params)
             for ranked in top_k_plans(graph, k=5)]
    stats = ClusterStats(mtbf=HOUR, mttr=1.0, nodes=10)

    def search(use_dominance: bool) -> int:
        memo = DominantPathMemo()
        estimates = 0
        for plan in plans:
            for config in enumerate_mat_configs(plan):
                candidate = plan.with_mat_config(config)
                collapsed = collapse_plan(candidate)
                dominant_costs, dominant_total = None, -1.0
                skipped = False
                for path in enumerate_paths(collapsed):
                    costs = path_total_costs(path)
                    if cost_model.path_cost_failure_free(costs) >= \
                            memo.best_cost:
                        skipped = True
                        break
                    if use_dominance and memo.dominates(costs):
                        skipped = True
                        break
                    estimates += 1
                    total = cost_model.path_cost(costs, stats)
                    if total >= memo.best_cost:
                        skipped = True
                        break
                    if total > dominant_total:
                        dominant_total, dominant_costs = total, costs
                if not skipped and dominant_costs is not None:
                    memo.record_dominant(dominant_costs, dominant_total)
        return estimates

    with_dominance, without_dominance = benchmark.pedantic(
        lambda: (search(True), search(False)), rounds=1, iterations=1)
    archive("ablation_rule3_memo", "\n".join([
        "Ablation: Rule 3 memo variants (Q5 top-5 join orders x 32 "
        "configs, MTBF = 1 hour)",
        f"bestT checks only:          {without_dominance} cost-model calls",
        f"+ Eq. 9 dominance memo:     {with_dominance} cost-model calls",
    ]))
    assert with_dominance <= without_dominance
