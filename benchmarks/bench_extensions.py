"""Benchmarks for the Section 7 future-work extensions.

Not paper figures -- these quantify the two extensions the paper's
conclusion sketches, implemented in this reproduction:

1. **Mid-operator checkpointing** (``repro.core.checkpointing``): a
   long-running operator snapshots its state at the Young-Daly interval,
   so mid-operator failures resume from the last snapshot.  Measured on
   a 2000 s UDF under MTBF = 10 min: without snapshots the operator is
   effectively unable to finish; with them it finishes with bounded
   overhead.
2. **Adaptive re-optimization** (``repro.engine.adaptive``): the
   materialization configuration is re-searched at every group boundary
   using observed runtimes.  Measured with a 10x cost underestimate: the
   static scheme skips the checkpoints it badly needs, the adaptive
   runner inserts them after the first observation.
"""

from repro.core.cost_model import ClusterStats
from repro.core.plan import Operator, Plan, linear_plan
from repro.core.strategies import (
    ConfiguredPlan,
    CostBased,
    CostBasedWithOpCheckpoints,
    RecoveryMode,
)
from repro.engine.adaptive import AdaptiveExecutor
from repro.engine.cluster import Cluster
from repro.engine.executor import SimulatedEngine
from repro.engine.traces import generate_trace_set
from repro.stats.perturbation import PerturbationKind, perturb_plan


def _long_udf_plan() -> Plan:
    """A 2000 s snapshot-capable UDF between two cheap stages."""
    plan = Plan()
    plan.add_operator(Operator(1, "Prepare", 60.0, 2.0,
                               state_ckpt_cost=1.0))
    plan.add_operator(Operator(2, "LongUDF", 2000.0, 20.0,
                               state_ckpt_cost=5.0))
    plan.add_operator(Operator(3, "Deliver", 30.0, 1.0,
                               materialize=True, free=False,
                               state_ckpt_cost=1.0))
    plan.add_edge(1, 2)
    plan.add_edge(2, 3)
    return plan


def _mean(engine, configured, traces):
    from repro.engine.coordinator import run_with_extension

    runtimes = [
        run_with_extension(engine, configured, trace)[0].runtime
        for trace in traces
    ]
    return sum(runtimes) / len(runtimes)


def test_mid_operator_checkpointing(benchmark, archive):
    """Extension 1: snapshots rescue long operators on flaky nodes."""
    plan = _long_udf_plan()
    mtbf = 600.0
    stats = ClusterStats(mtbf=mtbf, mttr=1.0, nodes=4)
    cluster = Cluster(nodes=4, mttr=1.0)
    engine = SimulatedEngine(cluster)
    traces = generate_trace_set(4, mtbf, horizon=400_000.0, count=6,
                                base_seed=31)

    def measure():
        plain = _mean(engine, CostBased().configure(plan, stats), traces)
        chunked_configured = CostBasedWithOpCheckpoints().configure(
            plan, stats
        )
        chunked = _mean(engine, chunked_configured, traces)
        return plain, chunked, chunked_configured

    plain, chunked, configured = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    spec = next(iter(configured.op_checkpoints.values()))
    lines = [
        "Extension: mid-operator checkpointing "
        "(2000s UDF, MTBF = 10 min/node, 4 nodes)",
        f"plain cost-based:        mean runtime {plain:10.0f}s",
        f"with operator snapshots: mean runtime {chunked:10.0f}s "
        f"(interval {spec.interval:.0f}s)",
        f"speedup: {plain / chunked:.1f}x",
    ]
    archive("extension_op_checkpointing", "\n".join(lines))

    assert chunked < plain / 2          # snapshots pay for themselves
    assert configured.op_checkpoints    # the scheme actually chunked


def test_adaptive_reoptimization(benchmark, archive):
    """Extension 2: observed runtimes correct a 10x underestimate."""
    # materialization costs half an operator's runtime: at the *believed*
    # (10x cheaper) scale the checkpoints are not worth their price, at
    # the true scale they are -- so the misestimate flips the decision
    true_plan = linear_plan(
        [(400.0, 200.0), (400.0, 200.0), (400.0, 200.0), (400.0, 200.0)]
    )
    estimated = perturb_plan(true_plan, PerturbationKind.COMPUTE_AND_IO,
                             0.1)
    mtbf = 600.0
    cluster = Cluster(nodes=4, mttr=1.0)
    engine = SimulatedEngine(cluster)
    stats = ClusterStats(mtbf=mtbf, mttr=1.0, nodes=4)
    traces = generate_trace_set(4, mtbf, horizon=400_000.0, count=6,
                                base_seed=57)

    def measure():
        misled = CostBased().configure(estimated, stats)
        static_plan = true_plan.with_mat_config({
            op_id: misled.plan[op_id].materialize
            for op_id in true_plan.free_operators
        })
        static_configured = ConfiguredPlan(
            plan=static_plan, recovery=RecoveryMode.FINE_GRAINED,
            scheme="static-misled",
        )
        static = _mean(engine, static_configured, traces)
        adaptive_runner = AdaptiveExecutor(engine, stats)
        adaptive_runs = [
            adaptive_runner.execute(true_plan, estimated_plan=estimated,
                                    trace=trace)
            for trace in traces
        ]
        adaptive = sum(r.runtime for r in adaptive_runs) / len(
            adaptive_runs
        )
        oracle = _mean(
            engine, CostBased().configure(true_plan, stats), traces
        )
        correction = adaptive_runs[0].final_correction
        return static, adaptive, oracle, correction

    static, adaptive, oracle, correction = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    lines = [
        "Extension: adaptive re-optimization "
        "(4 x 400s chain, optimizer misled 10x, MTBF = 10 min/node)",
        f"static (misled estimates):  mean runtime {static:9.0f}s",
        f"adaptive (learns on line):  mean runtime {adaptive:9.0f}s "
        f"(correction factor converged to {correction:.1f})",
        f"oracle (true estimates):    mean runtime {oracle:9.0f}s",
    ]
    archive("extension_adaptive", "\n".join(lines))

    assert adaptive < static * 0.95     # adapting pays off
    assert correction > 3.0             # and it really learned the 10x
    assert oracle <= adaptive + 1e-6    # but hindsight stays unbeaten
