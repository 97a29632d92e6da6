"""Optimizer micro-benchmarks: search throughput and pruning payoff.

Not a paper figure, but the engineering claim behind Section 4: the
pruning rules exist to make the fault-tolerant plan search fast enough
for a cost-based optimizer.  These benchmarks time the full search
(top-k join orders x materialization configurations) with and without
pruning, plus the simulator and cost model in isolation.

Besides the pytest-benchmark tests, the module doubles as a script::

    PYTHONPATH=src python benchmarks/bench_optimizer.py

which times the fast and naive engines over a fixed slice of the TPC-H
Q5 join-order sweep, runs the synthetic large-DAG scaling sweep of the
sharded search (the public ``find_best_ft_plan(..., parallelism=1)`` as
the serial baseline vs ``sharded_search`` at ``--parallelism`` workers,
bit-identity checked on every point), and
writes ``BENCH_optimizer.json`` at the repository root.  ``--quick``
shrinks the scaling ladder for CI.  See ``docs/perf.md`` for how to
read it.
"""

import argparse
import json
import os
import time
from pathlib import Path

import pytest

from repro.core.cost_model import ClusterStats
from repro.core.enumeration import (
    _find_best_naive,
    estimate_plan_cost,
    find_best_ft_plan,
)
from repro.core.failure import HOUR
from repro.core.pruning import PruningConfig
from repro.core.shard import sharded_search
from repro.core.strategies import NoMatLineage
from repro.engine.cluster import Cluster
from repro.engine.executor import SimulatedEngine
from repro.engine.traces import generate_trace
from repro.joinorder import (
    q5_join_graph,
    scaling_specs,
    synthetic_plan,
    top_k_plans,
    tree_to_plan,
)
from repro.stats.calibration import default_parameters
from repro.tpch.queries import build_query_plan


@pytest.fixture(scope="module")
def q5_plan():
    return build_query_plan("Q5", 100.0, default_parameters())


@pytest.fixture(scope="module")
def top5_plans():
    graph = q5_join_graph(100.0)
    params = default_parameters()
    return [tree_to_plan(ranked.tree, graph, params)
            for ranked in top_k_plans(graph, k=5)]


@pytest.fixture(scope="module")
def stats_hour():
    return ClusterStats(mtbf=HOUR, mttr=1.0, nodes=10)


def test_single_plan_search(benchmark, q5_plan, stats_hour):
    """Full 2^5 enumeration for one plan (the common per-query case)."""
    from repro.core.pruning import PruningConfig

    result = benchmark(
        find_best_ft_plan, [q5_plan], stats_hour,
        pruning=PruningConfig.none(),
    )
    assert result.pruning.configs_enumerated == 32


def test_top_k_search_with_pruning(benchmark, top5_plans, stats_hour):
    """Top-5 join orders x configurations, all pruning rules active."""
    from repro.core.pruning import PruningConfig

    result = benchmark(
        find_best_ft_plan, top5_plans, stats_hour,
        pruning=PruningConfig.all(),
    )
    assert result.cost > 0


def test_top_k_search_without_pruning(benchmark, top5_plans, stats_hour):
    from repro.core.pruning import PruningConfig

    result = benchmark(
        find_best_ft_plan, top5_plans, stats_hour,
        pruning=PruningConfig.none(),
    )
    assert result.pruning.configs_enumerated == 5 * 32


def test_pruning_reduces_estimated_paths(top5_plans, stats_hour):
    """The payoff the rules are for: fewer cost-model invocations."""
    from repro.core.pruning import PruningConfig

    unpruned = find_best_ft_plan(top5_plans, stats_hour,
                                 pruning=PruningConfig.none())
    pruned = find_best_ft_plan(top5_plans, stats_hour,
                               pruning=PruningConfig.all())
    assert pruned.pruning.paths_estimated < \
        unpruned.pruning.paths_estimated
    # and the answers agree up to the documented rule-1/2 boundary gaps
    assert pruned.cost <= unpruned.cost * 1.01


def test_fast_engine_q5_sweep(benchmark, top5_plans, stats_hour):
    """The default engine over the top-5 sweep, no pruning (pure
    enumeration throughput)."""
    from repro.core.pruning import PruningConfig

    result = benchmark(
        find_best_ft_plan, top5_plans, stats_hour,
        pruning=PruningConfig.none(), engine="fast",
    )
    assert result.pruning.configs_enumerated == 5 * 32


def test_naive_engine_q5_sweep(benchmark, top5_plans, stats_hour):
    """The reference engine over the identical sweep, for comparison."""
    from repro.core.pruning import PruningConfig

    result = benchmark(
        find_best_ft_plan, top5_plans, stats_hour,
        pruning=PruningConfig.none(), engine="naive",
    )
    assert result.pruning.configs_enumerated == 5 * 32


def test_engines_agree_on_sweep(top5_plans, stats_hour):
    from repro.core.pruning import PruningConfig

    fast = find_best_ft_plan(top5_plans, stats_hour,
                             pruning=PruningConfig.all(), engine="fast")
    naive = find_best_ft_plan(top5_plans, stats_hour,
                              pruning=PruningConfig.all(), engine="naive")
    assert fast.cost == naive.cost
    assert fast.mat_config == naive.mat_config


def test_cost_model_throughput(benchmark, q5_plan, stats_hour):
    """One collapse + path scoring (the search's inner loop)."""
    benchmark(estimate_plan_cost, q5_plan, stats_hour)


def test_simulator_throughput(benchmark, q5_plan, stats_hour):
    """One simulated run with failures (the evaluation's inner loop)."""
    cluster = Cluster(nodes=10, mttr=1.0)
    engine = SimulatedEngine(cluster)
    configured = NoMatLineage().configure(q5_plan, stats_hour)
    trace = generate_trace(10, HOUR, horizon=40_000.0, seed=1)
    result = benchmark(engine.execute, configured, trace)
    assert result.finished


def test_join_order_dp(benchmark):
    """Top-5 DP over the Q5 join graph."""
    graph = q5_join_graph(100.0)
    ranked = benchmark(top_k_plans, graph, 5)
    assert len(ranked) == 5


def test_rule3_memo_variants(top5_plans, stats_hour, archive):
    """Ablation: Rule 3's Eq. 9 dominance memo vs the bestT check alone.

    The paper suggests memoizing *multiple* best dominant paths (one per
    collapsed-operator count) for more aggressive pruning; this measures
    how many cost-model calls the richer memo saves on the top-5 search.
    """
    from repro.core import cost_model
    from repro.core.collapse import collapse_plan
    from repro.core.enumeration import enumerate_mat_configs
    from repro.core.paths import enumerate_paths, path_total_costs
    from repro.core.pruning import DominantPathMemo

    def search(use_dominance: bool) -> int:
        memo = DominantPathMemo()
        estimates = 0
        for plan in top5_plans:
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
                    total = cost_model.path_cost(costs, stats_hour)
                    if total >= memo.best_cost:
                        skipped = True
                        break
                    if total > dominant_total:
                        dominant_total, dominant_costs = total, costs
                if not skipped and dominant_costs is not None:
                    memo.record_dominant(dominant_costs, dominant_total)
        return estimates

    with_dominance = search(True)
    without_dominance = search(False)
    archive("ablation_rule3_memo", "\n".join([
        "Ablation: Rule 3 memo variants (Q5 top-5 join orders x 32 "
        "configs, MTBF = 1 hour)",
        f"bestT checks only:          {without_dominance} cost-model calls",
        f"+ Eq. 9 dominance memo:     {with_dominance} cost-model calls",
    ]))
    assert with_dominance <= without_dominance


# ----------------------------------------------------------------------
# script mode: the fixed Q5 sweep slice behind BENCH_optimizer.json
# ----------------------------------------------------------------------
def _sweep_plans(join_orders: int):
    """A fixed slice of the Q5 join-order space (deterministic)."""
    from repro.joinorder import enumerate_join_trees

    graph = q5_join_graph(100.0)
    params = default_parameters()
    plans = []
    for index, tree in enumerate(enumerate_join_trees(graph)):
        if index >= join_orders:
            break
        plans.append(tree_to_plan(tree, graph, params))
    return plans


def _time_engine(engine, plans, stats, pruning):
    started = time.perf_counter()
    result = find_best_ft_plan(
        plans, stats, pruning=pruning, engine=engine,
        preflight_lint=False,
    )
    elapsed = time.perf_counter() - started
    return result, elapsed


def run_engine_comparison(join_orders: int = 60):
    """Time fast vs naive over the identical sweep; verify equal results."""
    from repro.core.pruning import PruningConfig

    plans = _sweep_plans(join_orders)
    stats = ClusterStats(mtbf=HOUR, mttr=1.0, nodes=10)
    sweeps = []
    for label, pruning in (("none", PruningConfig.none()),
                           ("all", PruningConfig.all())):
        fast, fast_s = _time_engine("fast", plans, stats, pruning)
        naive, naive_s = _time_engine("naive", plans, stats, pruning)
        configs = fast.pruning.configs_enumerated
        sweeps.append({
            "pruning": label,
            "join_orders": len(plans),
            "configs_enumerated": configs,
            "equal_results": bool(
                fast.cost == naive.cost
                and fast.mat_config == naive.mat_config
            ),
            "engines": {
                "fast": {
                    "seconds": round(fast_s, 6),
                    "configs_per_sec": round(configs / fast_s, 1),
                },
                "naive": {
                    "seconds": round(naive_s, 6),
                    "configs_per_sec": round(configs / naive_s, 1),
                },
            },
            "speedup": round(naive_s / fast_s, 2),
        })
    return {
        "benchmark": "q5_join_order_sweep",
        "query": "Q5",
        "scale_factor": 100.0,
        "mtbf_seconds": HOUR,
        "nodes": 10,
        "sweeps": sweeps,
    }


# ----------------------------------------------------------------------
# script mode: the synthetic large-DAG scaling sweep (sharded search)
# ----------------------------------------------------------------------
def _result_key(result, plan_index: int = 0):
    """A ``SearchResult`` as the sharded engine's ``(cost, plan, mask)``."""
    mask = 0
    for bit, (_op, flag) in enumerate(result.mat_config):
        if flag:
            mask |= 1 << bit
    return (result.cost, plan_index, mask)


def _best_of(repeats, thunk):
    """(best seconds, last result) over ``repeats`` runs."""
    best_s, result = float("inf"), None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        result = thunk()
        best_s = min(best_s, time.perf_counter() - started)
    return best_s, result


def run_scaling_sweep(
    sizes=(20, 40, 60, 100),
    parallelism: int = 4,
    config_limit: int = 16384,
    repeats: int = 2,
    naive_max_size: int = 20,
):
    """Serial (``parallelism=1``) vs pooled sharded search on synthetic DAGs.

    Each point scans the same capped Gray subspace (``config_limit``
    configurations) of one seeded synthetic plan under a rare-failure
    regime (MTBF = 20x the plan's total runtime -- the regime where
    Rule 3's shared bound pays off).  The naive oracle additionally
    certifies the smallest (tractable) points.  Every engine must
    return the identical ``(cost, plan, mask)`` key.
    """
    pruning = PruningConfig.all()
    shards = 4 * parallelism
    points = []
    for spec in scaling_specs(tuple(sizes)):
        plan = synthetic_plan(spec)
        base = sum(op.runtime_cost for op in plan.operators.values())
        stats = ClusterStats(mtbf=base * 20.0, mttr=base * 0.1,
                             const_pipe=0.9)
        serial_s, serial = _best_of(repeats, lambda: find_best_ft_plan(
            [plan], stats, pruning=pruning, parallelism=1,
            config_limit=config_limit, preflight_lint=False))
        sharded_s, (sharded_key, sharded_stats) = _best_of(
            repeats, lambda: sharded_search(
                [plan], stats, pruning, parallelism=parallelism,
                shards=shards, config_limit=config_limit))
        equal = sharded_key == _result_key(serial)
        naive_checked = spec.n_joins <= naive_max_size
        if naive_checked:
            naive = _find_best_naive([plan], stats, pruning, False,
                                     config_limit=config_limit)
            equal = equal and sharded_key == _result_key(naive)
        enumerated = sharded_stats.configs_enumerated
        points.append({
            "n_free_operators": len(plan.free_operators),
            "seed": spec.seed,
            "config_limit": config_limit,
            "configs_enumerated": enumerated,
            "equal_results": bool(equal),
            "naive_checked": naive_checked,
            "serial_fast": {
                "seconds": round(serial_s, 6),
                "configs_per_sec": round(enumerated / serial_s, 1),
            },
            "sharded": {
                "seconds": round(sharded_s, 6),
                "configs_per_sec": round(enumerated / sharded_s, 1),
                "parallelism": parallelism,
                "shards": shards,
                "scored": sharded_stats.paths_estimated,
                "bound_skips": sharded_stats.rule3_plan_cutoffs,
                "bound_efficiency": round(
                    sharded_stats.rule3_plan_cutoffs / enumerated, 4),
            },
            "speedup": round(serial_s / sharded_s, 2),
            "shard_efficiency": round(
                serial_s / (sharded_s * parallelism), 3),
        })
    return {
        "benchmark": "synthetic_scaling_sweep",
        "regime": "rare-failure (mtbf = 20x plan runtime, "
                  "mttr = 0.1x, const_pipe = 0.9)",
        "pruning": "all",
        "cpu_count": os.cpu_count(),
        "points": points,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the fast vs naive search engines on a fixed "
                    "slice of the TPC-H Q5 join-order sweep, plus the "
                    "sharded search on the synthetic scaling ladder."
    )
    parser.add_argument("--join-orders", type=int, default=60,
                        help="sweep slice size (default 60)")
    parser.add_argument("--parallelism", type=int, default=4,
                        help="sharded-search worker count (default 4)")
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: smaller ladder (n=20,40), "
                             "2048-config cap, single timing run")
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_optimizer.json",
        help="where to write the JSON report "
             "(default <repo>/BENCH_optimizer.json)",
    )
    args = parser.parse_args(argv)
    report = run_engine_comparison(join_orders=args.join_orders)
    if args.quick:
        report["scaling"] = run_scaling_sweep(
            sizes=(20, 40), parallelism=args.parallelism,
            config_limit=2048, repeats=1)
    else:
        report["scaling"] = run_scaling_sweep(
            parallelism=args.parallelism)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    for sweep in report["sweeps"]:
        engines = sweep["engines"]
        print(f"pruning={sweep['pruning']:<5s} "
              f"fast {engines['fast']['seconds']:.3f}s "
              f"({engines['fast']['configs_per_sec']:.0f} cfg/s)  "
              f"naive {engines['naive']['seconds']:.3f}s "
              f"({engines['naive']['configs_per_sec']:.0f} cfg/s)  "
              f"speedup {sweep['speedup']:.1f}x  "
              f"equal={sweep['equal_results']}")
    for point in report["scaling"]["points"]:
        sharded = point["sharded"]
        print(f"n={point['n_free_operators']:<3d} "
              f"serial {point['serial_fast']['seconds']:.3f}s  "
              f"sharded {sharded['seconds']:.3f}s "
              f"(p={sharded['parallelism']}, "
              f"{sharded['configs_per_sec']:.0f} cfg/s, "
              f"bound_eff={sharded['bound_efficiency']:.2f})  "
              f"speedup {point['speedup']:.2f}x  "
              f"equal={point['equal_results']}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
