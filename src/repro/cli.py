"""Command-line interface: ``python -m repro <command>``.

Main commands:

* ``experiments`` -- regenerate the paper's tables and figures
  (``--list`` to enumerate, ``--only fig11`` to run one);
* ``advise`` -- recommend a materialization configuration for a TPC-H
  query on a given cluster;
* ``simulate`` -- measure all four fault-tolerance schemes for a query
  in the failure simulator;
* ``chaos`` -- fault-injection drill: measure the schemes clean vs.
  under a :mod:`repro.chaos` policy (``--preset`` or individual knobs,
  including campaign worker crashes) and report the overhead deltas
  plus the injection counters;
* ``lint`` -- run the static-analysis passes (``--plans`` for the plan
  and cost-model invariant linter, ``--code`` for the AST code linter,
  ``--flow`` for the whole-program seed-flow/pool-safety/merge-order
  analysis; all by default).  ``--baseline FILE`` fails only on findings
  not recorded in the file (write one with ``--write-baseline``).
  Exits non-zero on error-severity findings;
* ``sanitize`` -- runtime replay sanitizer: run a workload at jobs=1 and
  jobs=N, fingerprint every unit result, and report the first divergent
  unit with its span path (clean exit 0, divergence exit 1);
* ``serve`` -- run the HTTP advisory service (:mod:`repro.serve`):
  cached, coalesced ``advise`` requests over JSON with bounded-queue
  backpressure (``--port`` / ``--workers`` / ``--cache-size`` /
  ``--max-queue``; see ``docs/serve.md``).

``experiments`` and ``simulate`` also take ``--inject PRESET`` /
``--chaos-seed`` to run under a named fault policy.

``experiments``, ``advise``, ``simulate`` and ``workload`` accept
``--trace out.json`` (write a Chrome/Perfetto trace of the run) and
``--metrics`` (print the :mod:`repro.obs` counter/span summary after
the command's normal output).

Durations accept suffixed values (``90s``, ``15m``, ``2h``, ``1d``,
``1w``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import obs
from .chaos import PRESET_NAMES, preset
from .core.cost_model import ClusterStats
from .core.strategies import CostBased, standard_schemes
from .core.summation import left_sum
from .engine.cluster import Cluster
from .engine.coordinator import compare_schemes
from .experiments import (
    adaptive_drift,
    cardinality_validation,
    fig1_success,
    fig8_queries,
    fig10_runtime,
    fig11_mtbf,
    fig12_accuracy,
    fig13_pruning,
    multitenant,
    robustness,
    tab2_example,
    tab3_robustness,
)
from .stats.calibration import default_parameters
from .tpch.queries import QUERIES, build_query_plan

#: experiment id -> (run, format_table, description)
EXPERIMENTS: Dict[str, Tuple[Callable, Callable, str]] = {
    "fig1": (fig1_success.run, fig1_success.format_table,
             "probability of success vs runtime"),
    "tab2": (tab2_example.run, tab2_example.format_table,
             "worked cost-estimation example"),
    "fig8": (fig8_queries.run, fig8_queries.format_table,
             "overhead for varying queries"),
    "fig10": (fig10_runtime.run, fig10_runtime.format_table,
              "overhead vs query runtime"),
    "fig11": (fig11_mtbf.run, fig11_mtbf.format_table,
              "overhead vs MTBF"),
    "fig12": (fig12_accuracy.run, fig12_accuracy.format_table,
              "cost-model accuracy"),
    "tab3": (tab3_robustness.run, tab3_robustness.format_table,
             "robustness to perturbed statistics"),
    "robustness": (robustness.run, robustness.format_table,
                   "chosen-vs-oracle regret under injected fault "
                   "regimes"),
    "fig13": (fig13_pruning.run, fig13_pruning.format_table,
              "pruning effectiveness (slow: 43k plans)"),
    "cardval": (cardinality_validation.run,
                cardinality_validation.format_table,
                "cardinality model vs measured execution"),
    "multitenant": (multitenant.run, multitenant.format_table,
                    "multi-tenant shared-cluster workload "
                    "(advisory-driven, priority admission)"),
    "adaptive-drift": (adaptive_drift.run, adaptive_drift.format_table,
                       "static vs adaptive re-planning regret under "
                       "drift regimes"),
}

#: experiment id -> kwargs for ``--quick`` (filtered by run() signature,
#: so entries an experiment does not accept are simply dropped)
QUICK_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "fig1": {"max_runtime_min": 60.0, "step_min": 20.0},
    "fig8": {"scale_factor": 10.0, "queries": ("Q3", "Q5"),
             "trace_count": 3},
    "fig10": {"scale_factors": (10.0, 40.0), "trace_count": 3},
    "fig11": {"scale_factor": 10.0, "trace_count": 3},
    "fig12": {"scale_factor": 10.0, "trace_count": 3},
    "fig13": {"max_join_orders": 40},
    "tab3": {"scale_factor": 10.0},
    "robustness": {"query": "Q3", "scale_factor": 10.0, "trace_count": 2},
    "cardval": {"scale_factors": (0.002,)},
    "multitenant": {"queries": 300, "trace_count": 2,
                    "templates_per_class": 3},
    "adaptive-drift": {"query": "Q3", "scale_factor": 10.0,
                       "trace_count": 2},
}

_DURATION_UNITS = {
    "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0,
}


def parse_duration(text: str) -> float:
    """``"90s" / "15m" / "2h" / "1d" / "1w"`` or plain seconds."""
    text = text.strip().lower()
    if text and text[-1] in _DURATION_UNITS:
        value, unit = text[:-1], _DURATION_UNITS[text[-1]]
    else:
        value, unit = text, 1.0
    try:
        seconds = float(value) * unit
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid duration {text!r} (use e.g. 90s, 15m, 2h, 1d, 1w)"
        ) from None
    if seconds <= 0:
        raise argparse.ArgumentTypeError("duration must be > 0")
    return seconds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Cost-based fault-tolerance for parallel data processing "
            "(SIGMOD 2015 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = sub.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument(
        "name", nargs="?", choices=sorted(EXPERIMENTS),
        help="run a single experiment (default: all)",
    )
    experiments.add_argument(
        "--only", choices=sorted(EXPERIMENTS),
        help="run a single experiment (same as the positional name)",
    )
    experiments.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    experiments.add_argument(
        "--quick", action="store_true",
        help="shrink grids/scale factors for a fast smoke run "
             "(results are not the paper's numbers)",
    )
    experiments.add_argument(
        "--drift-mtbf-ratio", type=float, default=2.0, metavar="R",
        help="adaptive-drift: trigger a re-plan when the observed MTBF "
             "leaves [assumed/R, assumed*R]; 0 disables the MTBF "
             "trigger (default 2.0)",
    )
    experiments.add_argument(
        "--drift-runtime-ratio", type=float, default=1.5, metavar="R",
        help="adaptive-drift: trigger when the runtime correction "
             "leaves [1/R, R]; 0 disables the runtime trigger "
             "(default 1.5)",
    )
    experiments.add_argument(
        "--drift-confidence", type=float, default=0.95, metavar="C",
        help="adaptive-drift: MTBF triggers additionally require the "
             "chi-square CI at this confidence to exclude the assumed "
             "MTBF (default 0.95)",
    )
    experiments.add_argument(
        "--drift-half-life", type=float, default=None, metavar="SECONDS",
        help="adaptive-drift: exponential forgetting of MTBF evidence "
             "in node-seconds (default: keep all evidence)",
    )
    _add_jobs_argument(experiments)
    _add_inject_arguments(experiments)
    _add_obs_arguments(experiments)

    advise = sub.add_parser(
        "advise", help="recommend a materialization configuration"
    )
    _add_cluster_arguments(advise)
    _add_search_arguments(advise)
    advise.add_argument("--query", choices=sorted(QUERIES),
                        default="Q5", help="TPC-H query (default Q5)")
    advise.add_argument("--scale-factor", type=float, default=100.0,
                        help="TPC-H scale factor (default 100)")
    _add_obs_arguments(advise)

    simulate = sub.add_parser(
        "simulate", help="measure all four schemes in the simulator"
    )
    _add_cluster_arguments(simulate)
    _add_search_arguments(simulate)
    simulate.add_argument("--query", choices=sorted(QUERIES),
                          default="Q5")
    simulate.add_argument("--scale-factor", type=float, default=100.0)
    simulate.add_argument("--traces", type=int, default=10,
                          help="failure traces per run (default 10)")
    simulate.add_argument("--seed", type=int, default=0)
    _add_jobs_argument(simulate)
    _add_inject_arguments(simulate)
    _add_obs_arguments(simulate)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection drill: schemes clean vs. under a policy",
    )
    _add_cluster_arguments(chaos)
    chaos.add_argument("--query", choices=sorted(QUERIES), default="Q3")
    chaos.add_argument("--scale-factor", type=float, default=40.0)
    chaos.add_argument("--traces", type=int, default=10,
                       help="failure traces per run (default 10)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="trace base seed (default 0)")
    _add_jobs_argument(chaos)
    chaos.add_argument("--preset", choices=PRESET_NAMES, default="none",
                       help="start from a named policy, then apply the "
                            "individual knobs below (default none)")
    chaos.add_argument("--chaos-seed", type=int, default=0,
                       help="seed namespacing every injection decision "
                            "(default 0)")
    chaos.add_argument("--burst-mtbf", type=parse_duration, default=None,
                       help="mean gap between rack-burst opportunities "
                            "(enables correlated bursts)")
    chaos.add_argument("--burst-intensity", type=float, default=None,
                       help="probability a burst opportunity fires "
                            "(default 1.0 when bursts are enabled)")
    chaos.add_argument("--rack-size", type=int, default=None,
                       help="nodes per burst rack (default 2)")
    chaos.add_argument("--burst-jitter", type=float, default=None,
                       help="mean per-node delay within a burst, seconds "
                            "(default 1.0)")
    chaos.add_argument("--weibull-shape", type=float, default=None,
                       help="base inter-arrival Weibull shape "
                            "(default: exponential)")
    chaos.add_argument("--write-fail-rate", type=float, default=None,
                       help="checkpoint-write failure probability per "
                            "attempt")
    chaos.add_argument("--straggler-rate", type=float, default=None,
                       help="per-run probability a node straggles")
    chaos.add_argument("--straggler-factor", type=float, default=None,
                       help="slowdown factor of a straggling node "
                            "(default 2.0)")
    chaos.add_argument("--worker-crash-rate", type=float, default=None,
                       help="per-unit probability a campaign pool "
                            "worker hard-exits (requires --jobs > 1 to "
                            "have any effect)")
    _add_obs_arguments(chaos)

    workload = sub.add_parser(
        "workload",
        help="run a mixed short/long workload under every scheme",
    )
    _add_cluster_arguments(workload)
    workload.add_argument("--queries", type=int, default=10,
                          help="workload size (default 10)")
    workload.add_argument("--seed", type=int, default=7)
    _add_jobs_argument(workload)
    _add_obs_arguments(workload)

    workload_mt = sub.add_parser(
        "workload-mt",
        help="multi-tenant cluster: thousands of advisory-driven "
             "queries on one shared simulated cluster",
    )
    workload_mt.add_argument("--tenants", type=int, default=3,
                             help="priority classes from the default "
                                  "mix, highest first (default 3)")
    workload_mt.add_argument("--queries", type=int, default=2000,
                             help="arrivals to simulate (default 2000)")
    workload_mt.add_argument("--churn", type=float, default=0.5,
                             help="spot-fleet reclaim intensity in "
                                  "[0, 1], unseen by the optimizer "
                                  "(default 0.5)")
    workload_mt.add_argument("--base-mtbf", type=parse_duration,
                             default="1h",
                             help="per-node MTBF before the diurnal "
                                  "cycle scales it (default 1h)")
    workload_mt.add_argument("--slots", type=int, default=8,
                             help="concurrent query slots of the "
                                  "admission queue (default 8)")
    workload_mt.add_argument("--nodes", type=int, default=10,
                             help="cluster size (default 10)")
    workload_mt.add_argument("--seed", type=int, default=0,
                             help="workload + trace seed (default 0)")
    workload_mt.add_argument("--chaos-seed", type=int, default=0,
                             help="spot-churn injection seed "
                                  "(default 0)")
    workload_mt.add_argument("--traces", type=int, default=3,
                             help="failure traces per measurement "
                                  "(default 3)")
    workload_mt.add_argument("--quick", action="store_true",
                             help="shrink the workload for a fast "
                                  "smoke run (300 queries, 2 traces)")
    _add_jobs_argument(workload_mt)
    _add_obs_arguments(workload_mt)

    replay = sub.add_parser(
        "replay",
        help="render a per-node failure-replay timeline for a query",
    )
    _add_cluster_arguments(replay)
    replay.add_argument("--query", choices=sorted(QUERIES), default="Q3")
    replay.add_argument("--scale-factor", type=float, default=40.0)
    replay.add_argument("--seed", type=int, default=11)
    replay.add_argument(
        "--scheme", default="cost-based",
        choices=["all-mat", "no-mat (lineage)", "no-mat (restart)",
                 "cost-based"],
    )

    mtbf_cmd = sub.add_parser(
        "estimate-mtbf",
        help="estimate the MTBF from an observed failure count",
    )
    mtbf_cmd.add_argument("--failures", type=int, required=True,
                          help="failures observed")
    mtbf_cmd.add_argument("--hours", type=float, required=True,
                          help="observation window in hours")
    mtbf_cmd.add_argument("--nodes", type=int, default=1)
    mtbf_cmd.add_argument("--confidence", type=float, default=0.95)

    lint = sub.add_parser(
        "lint",
        help="static analysis: plan/invariant linter + AST code linter",
    )
    lint.add_argument("--plans", action="store_true",
                      help="lint the built-in TPC-H plans and the "
                           "cost-model invariants")
    lint.add_argument("--code", action="store_true",
                      help="run the AST code linter over the package "
                           "sources")
    lint.add_argument("--plan-file", action="append", default=[],
                      metavar="FILE",
                      help="additionally lint a serialized plan "
                           "(repro-plan/1 JSON); repeatable")
    lint.add_argument("--path", action="append", default=[],
                      metavar="PATH",
                      help="code-lint these files/directories instead "
                           "of the installed package; repeatable")
    lint.add_argument("--format", choices=["text", "json"],
                      default="text", help="output format (default text)")
    lint.add_argument("--scale-factor", type=float, default=100.0,
                      help="TPC-H scale factor for --plans (default 100)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("--flow", action="store_true",
                      help="run the whole-program flow analysis "
                           "(seed flow / pool safety / merge order)")
    lint.add_argument("--baseline", metavar="FILE",
                      help="suppress findings recorded in FILE; fail "
                           "only on new ones")
    lint.add_argument("--write-baseline", metavar="FILE",
                      help="record the current findings to FILE and "
                           "exit 0")

    sanitize = sub.add_parser(
        "sanitize",
        help="runtime replay sanitizer: jobs=1 vs jobs=N fingerprint "
             "comparison with per-unit divergence localization",
    )
    sanitize.add_argument("--jobs", type=int, default=4,
                          help="pool size of the parallel run "
                               "(default 4)")
    sanitize.add_argument("--quick", action="store_true",
                          help="use the built-in small CI workload "
                               "(currently the only workload; the flag "
                               "is an explicit opt-in for speed)")
    sanitize.add_argument("--chaos-preset", choices=sorted(PRESET_NAMES),
                          default=None,
                          help="also inject this fault policy during "
                               "both runs (replay must still match)")
    sanitize.add_argument("--chaos-seed", type=int, default=0,
                          help="seed for --chaos-preset (default 0)")

    serve = sub.add_parser(
        "serve",
        help="run the HTTP advisory service (cached, coalesced plan "
             "search; see docs/serve.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8758,
                       help="bind port; 0 picks an ephemeral port "
                            "(default 8758)")
    serve.add_argument("--workers", type=int, default=4,
                       help="request worker threads draining the "
                            "bounded queue (default 4)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       dest="cache_size",
                       help="LRU advice-cache capacity; 0 disables "
                            "caching (default 1024)")
    serve.add_argument("--max-queue", type=int, default=64,
                       dest="max_queue",
                       help="bounded request queue length; a full "
                            "queue sheds with HTTP 429 (default 64)")
    serve.add_argument("--mtbf-buckets", type=int, default=8,
                       dest="mtbf_buckets",
                       help="stats-bucketing resolution (buckets per "
                            "decade) for MTBF and the MTTR ratio; 0 "
                            "keys the cache on exact stats (default 8)")
    _add_search_arguments(serve)
    return parser


def _add_cluster_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mtbf", type=parse_duration, default="1d",
                        help="per-node MTBF, e.g. 2h / 1d / 1w "
                             "(default 1d)")
    parser.add_argument("--mttr", type=parse_duration, default="1s",
                        help="mean time to repair (default 1s)")
    parser.add_argument("--nodes", type=int, default=10,
                        help="cluster size (default 10)")


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the simulation "
                             "campaign; results are identical to the "
                             "serial run (default 1)")


def _add_inject_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--inject", choices=PRESET_NAMES, default=None,
                        metavar="PRESET",
                        help="run under a named chaos policy "
                             f"({', '.join(PRESET_NAMES)}); see "
                             "docs/robustness.md")
    parser.add_argument("--chaos-seed", type=int, default=0,
                        help="seed for --inject's injection decisions "
                             "(default 0)")


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="FILE",
                        help="write a Chrome trace_event file of the run "
                             "(open with https://ui.perfetto.dev)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the observability counter/span "
                             "summary after the command output")


def _add_search_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=["fast", "naive"],
                        default="fast",
                        help="configuration-search engine; both return "
                             "identical plans, 'naive' is the slow "
                             "reference (default fast)")
    parser.add_argument("--parallelism", type=int, default=1,
                        help="worker processes for the search's fan-out "
                             "over candidate plans (fast engine only; "
                             "default 1)")
    parser.add_argument("--shards", type=int, default=None,
                        help="partition the search space into this many "
                             "shards (fast engine only; default "
                             "4x parallelism).  More shards than workers "
                             "gives the work queue stealing granularity; "
                             "--shards with --parallelism 1 scans the "
                             "same shards in-process")
    parser.add_argument("--config-limit", type=int, default=None,
                        dest="config_limit",
                        help="search only the first N configurations of "
                             "each plan's Gray sequence (tractability "
                             "cap for large DAGs; default: the full "
                             "2^n space)")


def _check_search_args(args) -> int:
    """Validate the shared search flags; 0 if fine, else an exit status."""
    if args.parallelism < 1:
        print("error: --parallelism must be >= 1", file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.config_limit is not None and args.config_limit < 1:
        print("error: --config-limit must be >= 1", file=sys.stderr)
        return 2
    if args.engine == "naive" and (
        args.parallelism > 1 or args.shards is not None
    ):
        print("error: --parallelism/--shards require --engine fast",
              file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_file = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    if trace_file is None and not want_metrics:
        return _dispatch(args)
    with obs.recording() as recorder:
        status = _dispatch(args)
        if want_metrics:
            print()
            print(obs.export_text(recorder))
        if trace_file is not None:
            obs.write_chrome_trace(trace_file, recorder)
            print(f"trace written to {trace_file} "
                  f"(open with https://ui.perfetto.dev)")
    return status


def _dispatch(args) -> int:
    if args.command == "experiments":
        return _run_experiments(args)
    if args.command == "advise":
        return _run_advise(args)
    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "workload":
        return _run_workload(args)
    if args.command == "workload-mt":
        return _run_workload_mt(args)
    if args.command == "replay":
        return _run_replay(args)
    if args.command == "estimate-mtbf":
        return _run_estimate_mtbf(args)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "sanitize":
        return _run_sanitize(args)
    if args.command == "serve":
        return _run_serve(args)
    raise AssertionError("unreachable")  # pragma: no cover


def _run_experiments(args) -> int:
    if args.list:
        for name, (_, _, description) in sorted(EXPERIMENTS.items()):
            print(f"{name:<7s} {description}")
        return 0
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.name and args.only and args.name != args.only:
        print("error: positional name and --only disagree",
              file=sys.stderr)
        return 2
    import inspect

    chaos_policy = None
    if args.inject is not None and args.inject != "none":
        chaos_policy = preset(args.inject, seed=args.chaos_seed)
    selected = args.name or args.only
    names: List[str] = [selected] if selected else sorted(EXPERIMENTS)
    for name in names:
        run, format_table, description = EXPERIMENTS[name]
        accepted = inspect.signature(run).parameters
        # campaign-backed experiments fan out; the others ignore --jobs
        kwargs: Dict[str, Any] = (
            {"jobs": args.jobs} if "jobs" in accepted else {}
        )
        if chaos_policy is not None and "chaos" in accepted:
            kwargs["chaos"] = chaos_policy
        if "envelope" in accepted:
            from .engine.adaptive import DriftEnvelope

            kwargs["envelope"] = DriftEnvelope(
                mtbf_ratio=args.drift_mtbf_ratio or None,
                runtime_ratio=args.drift_runtime_ratio or None,
                confidence=args.drift_confidence,
            )
        if "half_life" in accepted and args.drift_half_life is not None:
            kwargs["half_life"] = args.drift_half_life
        if args.quick:
            kwargs.update({
                key: value
                for key, value in QUICK_OVERRIDES.get(name, {}).items()
                if key in accepted
            })
        print(f"=== {name}: {description} ===")
        with obs.span("experiment", experiment=name, quick=args.quick):
            table = format_table(run(**kwargs))
        print(table)
        print()
    return 0


def _run_advise(args) -> int:
    if args.nodes < 1:
        print("error: --nodes must be >= 1", file=sys.stderr)
        return 2
    status = _check_search_args(args)
    if status:
        return status
    params = default_parameters(nodes=args.nodes)
    plan = build_query_plan(args.query, args.scale_factor, params)
    stats = ClusterStats(mtbf=args.mtbf, mttr=args.mttr, nodes=args.nodes)
    configured = CostBased(
        engine=args.engine, parallelism=args.parallelism,
        shards=args.shards, config_limit=args.config_limit,
    ).configure(plan, stats)
    search = configured.search

    baseline = left_sum(op.runtime_cost for op in plan.operators.values())
    print(f"{args.query} @ SF {args.scale_factor:g} on {args.nodes} nodes "
          f"(MTBF {args.mtbf:.0f}s, MTTR {args.mttr:.0f}s)")
    print(f"  baseline runtime (no failures): ~{baseline:.0f}s")
    print(f"  estimated runtime under failures: {search.cost:.0f}s")
    if search.materialized_ids:
        print("  materialize these intermediates:")
        for op_id in search.materialized_ids:
            operator = plan[op_id]
            print(f"    [{op_id}] {operator.name} "
                  f"(tm = {operator.mat_cost:.1f}s)")
    else:
        print("  materialize nothing -- run the query straight through")
    return 0


def _run_simulate(args) -> int:
    if args.nodes < 1 or args.traces < 1:
        print("error: --nodes and --traces must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    status = _check_search_args(args)
    if status:
        return status
    chaos_policy = None
    if args.inject is not None and args.inject != "none":
        chaos_policy = preset(args.inject, seed=args.chaos_seed,
                              mtbf=args.mtbf)
    params = default_parameters(nodes=args.nodes)
    plan = build_query_plan(args.query, args.scale_factor, params)
    cluster = Cluster(nodes=args.nodes, mttr=args.mttr)
    rows = compare_schemes(
        standard_schemes(engine=args.engine,
                         parallelism=args.parallelism,
                         shards=args.shards,
                         config_limit=args.config_limit,
                         preflight_lint=False),
        plan, args.query, cluster,
        mtbf=args.mtbf, trace_count=args.traces, base_seed=args.seed,
        jobs=args.jobs, chaos=chaos_policy,
    )
    injected = "" if chaos_policy is None else \
        f", chaos preset '{args.inject}'"
    print(f"{args.query} @ SF {args.scale_factor:g}: overhead under "
          f"failures ({args.traces} traces, MTBF {args.mtbf:.0f}s, "
          f"{args.nodes} nodes{injected})")
    for row in rows:
        extra = ""
        if row.scheme == "cost-based" and row.materialized_ids:
            extra = f"   materializes {list(row.materialized_ids)}"
        print(f"  {row.scheme:<18s} {row.formatted():>9s}{extra}")
    return 0


def _chaos_policy_from_args(args):
    """``--preset`` as the base, individual knobs layered on top.

    Raises :class:`ValueError` on out-of-range knobs (the policy
    dataclasses validate themselves).
    """
    import dataclasses

    from .chaos import (
        CorrelatedFailures,
        FlakyWrites,
        Stragglers,
        WorkerCrashes,
    )

    base = preset(args.preset, seed=args.chaos_seed, mtbf=args.mtbf)
    correlated = base.correlated
    burst_overrides = {}
    if args.burst_mtbf is not None:
        burst_overrides["burst_mtbf"] = args.burst_mtbf
    if args.burst_intensity is not None:
        burst_overrides["intensity"] = args.burst_intensity
    if args.rack_size is not None:
        burst_overrides["rack_size"] = args.rack_size
    if args.burst_jitter is not None:
        burst_overrides["jitter"] = args.burst_jitter
    if args.weibull_shape is not None:
        burst_overrides["base_shape"] = args.weibull_shape
    if burst_overrides:
        if correlated is None:
            # bursts disabled until --burst-mtbf makes the gap finite
            correlated = CorrelatedFailures(
                burst_mtbf=float("inf"), intensity=1.0,
            )
        correlated = dataclasses.replace(correlated, **burst_overrides)
    flaky = base.flaky_writes
    if args.write_fail_rate is not None:
        flaky = FlakyWrites(rate=args.write_fail_rate)
    stragglers = base.stragglers
    if args.straggler_rate is not None or args.straggler_factor is not None:
        rate = args.straggler_rate
        if rate is None:
            rate = stragglers.rate if stragglers is not None else 0.3
        factor = args.straggler_factor
        if factor is None:
            factor = stragglers.factor if stragglers is not None else 2.0
        stragglers = Stragglers(rate=rate, factor=factor)
    crashes = base.worker_crashes
    if args.worker_crash_rate is not None:
        crashes = WorkerCrashes(rate=args.worker_crash_rate)
    return dataclasses.replace(
        base, correlated=correlated, flaky_writes=flaky,
        stragglers=stragglers, worker_crashes=crashes,
    )


def _run_chaos(args) -> int:
    if args.nodes < 1 or args.traces < 1:
        print("error: --nodes and --traces must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        policy = _chaos_policy_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    params = default_parameters(nodes=args.nodes)
    plan = build_query_plan(args.query, args.scale_factor, params)
    cluster = Cluster(nodes=args.nodes, mttr=args.mttr)
    schemes = standard_schemes(preflight_lint=False)

    def measure(chaos_policy):
        return compare_schemes(
            schemes, plan, args.query, cluster,
            mtbf=args.mtbf, trace_count=args.traces,
            base_seed=args.seed, jobs=args.jobs, chaos=chaos_policy,
        )

    # reuse the outer recorder (--trace/--metrics) when one is on, else
    # record locally so the injection counters can be reported
    with obs.recording(obs.get_recorder()):
        clean = measure(None)
        injected = clean if policy.is_null() else measure(policy)
        counters = obs.summary()["counters"]

    print(f"{args.query} @ SF {args.scale_factor:g}: chaos drill "
          f"({args.traces} traces, MTBF {args.mtbf:.0f}s, "
          f"{args.nodes} nodes, preset '{args.preset}', "
          f"chaos seed {args.chaos_seed})")
    if policy.is_null():
        print("  policy injects nothing -- columns are identical by "
              "construction")
    width = max(len(row.scheme) for row in clean) + 2
    print(f"  {'scheme':<{width}s}{'clean':>10s}{'injected':>10s}")
    for clean_row, injected_row in zip(clean, injected):
        print(f"  {clean_row.scheme:<{width}s}"
              f"{clean_row.formatted():>10s}"
              f"{injected_row.formatted():>10s}")
    interesting = ("chaos.", "sim.fallbacks", "campaign.retries",
                   "campaign.serial_fallbacks", "campaign.unit_errors")
    lines = [
        f"  {name:<32s} {int(value):>8d}"
        for name, value in sorted(counters.items())
        if name.startswith(interesting)
    ]
    print("injection counters:" if lines else
          "injection counters: none fired")
    for line in lines:
        print(line)
    return 0


def _run_workload(args) -> int:
    if args.nodes < 1 or args.queries < 1:
        print("error: --nodes and --queries must be >= 1",
              file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    from .workloads import (
        compare_workload,
        format_comparison,
        generate_mixed_workload,
    )

    workload = generate_mixed_workload(count=args.queries, seed=args.seed)
    cluster = Cluster(nodes=args.nodes, mttr=args.mttr)
    runs = compare_workload(workload, cluster, mtbf=args.mtbf,
                            seed=args.seed, jobs=args.jobs)
    print(f"{len(workload)} queries back-to-back "
          f"(MTBF {args.mtbf:.0f}s, {args.nodes} nodes):")
    print(format_comparison(runs))
    best = min((run for run in runs if run.finished),
               key=lambda run: run.makespan)
    print(f"\nshortest makespan: {best.scheme}")
    return 0


def _run_workload_mt(args) -> int:
    if args.nodes < 1 or args.queries < 1 or args.slots < 1:
        print("error: --nodes, --queries and --slots must be >= 1",
              file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if not 0.0 <= args.churn <= 1.0:
        print("error: --churn must be within [0, 1]", file=sys.stderr)
        return 2
    if not 1 <= args.tenants <= 3:
        print("error: --tenants must be within [1, 3]", file=sys.stderr)
        return 2
    queries = args.queries
    traces = args.traces
    templates_per_class = 4
    if args.quick:
        queries = min(queries, 300)
        traces = min(traces, 2)
        templates_per_class = 3
    with obs.span("workload-mt", queries=queries, churn=args.churn,
                  jobs=args.jobs):
        result = multitenant.run(
            queries=queries,
            tenants=args.tenants,
            churn=args.churn,
            base_mtbf=args.base_mtbf,
            nodes=args.nodes,
            slots=args.slots,
            seed=args.seed,
            chaos_seed=args.chaos_seed,
            trace_count=traces,
            templates_per_class=templates_per_class,
            jobs=args.jobs,
        )
    print(multitenant.format_table(result))
    return 0 if result.error_rows == 0 else 1


def _run_replay(args) -> int:
    if args.nodes < 1:
        print("error: --nodes must be >= 1", file=sys.stderr)
        return 2
    from .core.strategies import scheme_by_name
    from .engine.executor import SimulatedEngine
    from .engine.traces import generate_trace
    from .engine.viz import render_gantt

    params = default_parameters(nodes=args.nodes)
    plan = build_query_plan(args.query, args.scale_factor, params)
    cluster = Cluster(nodes=args.nodes, mttr=args.mttr)
    stats = cluster.stats(args.mtbf)
    engine = SimulatedEngine(cluster)
    configured = scheme_by_name(args.scheme).configure(plan, stats)
    baseline = engine.execute(configured).runtime
    trace = generate_trace(args.nodes, args.mtbf,
                           horizon=max(baseline * 200.0, args.mtbf * 4.0),
                           seed=args.seed)
    result = engine.execute(configured, trace)
    print(f"{args.query} @ SF {args.scale_factor:g} under {args.scheme} "
          f"(MTBF {args.mtbf:.0f}s, seed {args.seed})")
    print(f"failure-free {baseline:.0f}s -> with failures "
          f"{result.runtime:.0f}s, {result.share_restarts} share restarts, "
          f"{result.restarts} query restarts")
    print(render_gantt(result, nodes=args.nodes))
    print("'#' useful work, 'x' attempts destroyed by a failure")
    return 0


def _run_estimate_mtbf(args) -> int:
    from .stats.mtbf_estimation import estimate_mtbf

    try:
        estimate = estimate_mtbf(
            args.failures,
            observation_time=args.hours * 3600.0,
            nodes=args.nodes,
            confidence=args.confidence,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(estimate)
    if estimate.failures:
        print(f"use e.g.: repro advise --mtbf {estimate.mtbf:.0f}s "
              f"--nodes {args.nodes}")
    return 0


def _run_lint(args) -> int:
    import os

    from . import analysis
    from .analysis import (
        RULES,
        format_json,
        format_text,
        has_errors,
        lint_mat_config,
        lint_paths,
        lint_plan,
    )

    if args.list_rules:
        for rule_id in sorted(RULES):
            rule = RULES[rule_id]
            print(f"{rule_id}  {str(rule.severity):<7s} {rule.summary}")
        return 0

    run_plans = args.plans or bool(args.plan_file)
    run_code = args.code or bool(args.path)
    run_flow = args.flow
    if not run_plans and not run_code and not run_flow:
        # bare `repro lint` checks everything
        run_plans = run_code = run_flow = True

    diagnostics = []
    if run_plans:
        params = default_parameters(nodes=10)
        for name in sorted(QUERIES):
            plan = build_query_plan(name, args.scale_factor, params)
            diagnostics.extend(lint_plan(plan, plan_name=name))
            # every free operator materialized: the worst-case legal
            # configuration must also lint clean
            all_mat = {op_id: True for op_id in plan.free_operators}
            diagnostics.extend(
                lint_mat_config(plan, all_mat.items(), plan_name=name)
            )
        for plan_file in args.plan_file:
            from .core.serialize import load_plan
            try:
                plan = load_plan(plan_file)
            except (OSError, ValueError, KeyError) as error:
                print(f"error: cannot load {plan_file}: {error}",
                      file=sys.stderr)
                return 2
            diagnostics.extend(lint_plan(plan, plan_name=plan_file))
    if run_code or run_flow:
        paths = args.path or [os.path.dirname(analysis.__path__[0])]
        missing = [p for p in paths if not os.path.exists(p)]
        if missing:
            for p in missing:
                print(f"error: no such path: {p}", file=sys.stderr)
            return 2
        if run_code:
            diagnostics.extend(lint_paths(paths))
        if run_flow:
            from .analysis.flow import lint_flow
            diagnostics.extend(lint_flow(paths))

    if args.write_baseline:
        from .analysis.diagnostics import write_baseline
        count = write_baseline(args.write_baseline, diagnostics)
        print(f"baseline written to {args.write_baseline} "
              f"({count} finding key(s))")
        return 0
    if args.baseline:
        from .analysis.diagnostics import apply_baseline, load_baseline
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as error:
            print(f"error: cannot load baseline: {error}",
                  file=sys.stderr)
            return 2
        before = len(diagnostics)
        diagnostics = apply_baseline(diagnostics, baseline)
        suppressed = before - len(diagnostics)
        if suppressed and args.format == "text":
            print(f"{suppressed} baselined finding(s) suppressed")

    if args.format == "json":
        print(format_json(diagnostics))
    elif diagnostics:
        print(format_text(diagnostics))
    else:
        print("0 finding(s): clean")
    return 1 if has_errors(diagnostics) else 0


def _run_sanitize(args) -> int:
    from .analysis.sanitizer import (
        quick_search_workload,
        quick_workload,
        replay_campaign,
        replay_sharded_search,
    )

    chaos = None
    if args.chaos_preset is not None:
        chaos = preset(args.chaos_preset, seed=args.chaos_seed)
    # --quick is today's only workload; the flag stays an explicit
    # opt-in so a full-workload default can be added without surprises
    cells, cluster = quick_workload()
    mode = "quick" if args.quick else "default (quick)"
    print(f"sanitize: {mode} workload, {len(cells)} cell(s), "
          f"jobs=1 vs jobs={args.jobs}"
          + (f", chaos={args.chaos_preset}" if chaos else ""))
    report = replay_campaign(cells, cluster, jobs=args.jobs, chaos=chaos)
    print(report.describe())
    plans, stats, config_limit = quick_search_workload()
    print(f"sanitize: sharded search replay, {len(plans)} plan(s), "
          f"shards=1 vs shards=8 x parallelism={args.jobs}")
    search_report = replay_sharded_search(
        plans, stats, shards=8, parallelism=args.jobs,
        config_limit=config_limit,
    )
    print(search_report.describe())
    return 0 if report.ok and search_report.ok else 1


def _run_serve(args) -> int:
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.cache_size < 0:
        print("error: --cache-size must be >= 0", file=sys.stderr)
        return 2
    if args.max_queue < 1:
        print("error: --max-queue must be >= 1", file=sys.stderr)
        return 2
    if args.mtbf_buckets < 0:
        print("error: --mtbf-buckets must be >= 0", file=sys.stderr)
        return 2
    status = _check_search_args(args)
    if status:
        return status
    from .serve import AdvisoryEngine, StatsBucketing
    from .serve.app import run_server

    bucketing = None
    if args.mtbf_buckets:
        bucketing = StatsBucketing(
            mtbf_resolution=args.mtbf_buckets,
            ratio_resolution=args.mtbf_buckets,
        )
    engine = AdvisoryEngine(
        cache_size=args.cache_size,
        bucketing=bucketing,
        search_engine=args.engine,
        parallelism=args.parallelism,
        shards=args.shards,
        config_limit=args.config_limit,
    )
    run_server(
        host=args.host, port=args.port, workers=args.workers,
        cache_size=args.cache_size, max_queue=args.max_queue,
        engine=engine,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
