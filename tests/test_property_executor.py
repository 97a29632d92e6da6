"""Property-based tests for the simulated engine's invariants."""

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import Operator, Plan
from repro import obs
from repro.chaos.policy import (
    CorrelatedFailures,
    FaultPolicy,
    FlakyWrites,
    Stragglers,
)
from repro.core.strategies import (
    AllMat,
    ConfiguredPlan,
    CostBased,
    CostBasedWithOpCheckpoints,
    NoMatLineage,
    NoMatRestart,
    RecoveryMode,
)
from repro.engine.cluster import Cluster
from repro.engine.coordinator import run_with_extension
from repro.engine.executor import SimulatedEngine
from repro.engine.storage import LocalStorage
from repro.engine.timeline import Timeline
from repro.engine.traces import FailureTrace, generate_trace

cost_values = st.floats(min_value=0.1, max_value=50.0)


@st.composite
def small_plans(draw):
    length = draw(st.integers(min_value=1, max_value=5))
    plan = Plan()
    for op_id in range(1, length + 1):
        plan.add_operator(Operator(
            op_id=op_id, name=f"op{op_id}",
            runtime_cost=draw(cost_values),
            mat_cost=draw(cost_values),
            materialize=op_id == length,
            free=op_id != length,
        ))
        if op_id > 1:
            plan.add_edge(op_id - 1, op_id)
    return plan


def _configure(plan, scheme, nodes):
    cluster = Cluster(nodes=nodes, mttr=1.0)
    return scheme.configure(plan, cluster.stats(1000.0)), cluster


class TestExecutorInvariants:
    @given(plan=small_plans(),
           scheme=st.sampled_from([AllMat(), NoMatLineage(),
                                   NoMatRestart()]),
           nodes=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_failures_never_speed_things_up(self, plan, scheme, nodes,
                                            seed):
        configured, cluster = _configure(plan, scheme, nodes)
        engine = SimulatedEngine(cluster)
        baseline = engine.execute(configured).runtime
        trace = generate_trace(nodes, mtbf=80.0, horizon=1e6, seed=seed)
        failed = engine.execute(configured, trace)
        if failed.finished:
            assert failed.runtime >= baseline - 1e-9

    @given(plan=small_plans(),
           nodes=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_determinism(self, plan, nodes, seed):
        configured, cluster = _configure(plan, NoMatLineage(), nodes)
        engine = SimulatedEngine(cluster)
        trace = generate_trace(nodes, mtbf=50.0, horizon=1e6, seed=seed)
        first = engine.execute(configured, trace)
        second = engine.execute(configured, trace)
        assert first.runtime == second.runtime
        assert first.share_restarts == second.share_restarts

    @given(plan=small_plans(),
           nodes=st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_empty_trace_matches_none(self, plan, nodes):
        configured, cluster = _configure(plan, AllMat(), nodes)
        engine = SimulatedEngine(cluster)
        assert engine.execute(configured).runtime == pytest.approx(
            engine.execute(configured, FailureTrace.empty(nodes)).runtime
        )

    @given(plan=small_plans(),
           seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_all_mat_never_loses_more_than_one_group_per_failure(
            self, plan, seed):
        """With everything materialized, runtime under failures is
        bounded by the failure-free runtime plus, per failure, the
        largest single group's cost plus the repair time."""
        configured, cluster = _configure(plan, AllMat(), 1)
        engine = SimulatedEngine(cluster)
        baseline = engine.execute(configured).runtime
        trace = generate_trace(1, mtbf=100.0, horizon=1e7, seed=seed)
        result = engine.execute(configured, trace)
        biggest_group = max(
            op.runtime_cost + op.mat_cost
            for op in configured.plan.operators.values()
        )
        bound = baseline + result.failures_hit * (
            biggest_group + cluster.mttr
        )
        assert result.runtime <= bound + 1e-6

    @given(plan=small_plans(),
           seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_lineage_recovery_bounded_by_full_reruns(self, plan, seed):
        """Under lineage (one recovery unit), each failure costs at most
        one full failure-free pass plus the repair time."""
        lineage, cluster = _configure(plan, NoMatLineage(), 1)
        engine = SimulatedEngine(cluster)
        baseline = engine.execute(lineage).runtime
        trace = generate_trace(1, mtbf=60.0, horizon=1e7, seed=seed)
        result = engine.execute(lineage, trace)
        bound = baseline + result.failures_hit * (baseline + cluster.mttr)
        assert result.runtime <= bound + 1e-6


class TestAdaptiveInvariants:
    @given(plan=small_plans(),
           seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_adaptive_equals_static_under_perfect_statistics(self, plan,
                                                             seed):
        """With exact estimates the adaptive runner's corrections stay at
        1.0 and every re-optimization reproduces the static decision, so
        the runtimes coincide exactly."""
        from repro.core.strategies import CostBased
        from repro.engine.adaptive import AdaptiveExecutor

        cluster = Cluster(nodes=2, mttr=1.0)
        stats = cluster.stats(80.0)
        engine = SimulatedEngine(cluster)
        trace = generate_trace(2, mtbf=80.0, horizon=1e7, seed=seed)
        static = engine.execute(CostBased().configure(plan, stats), trace)
        adaptive = AdaptiveExecutor(engine, stats).execute(plan,
                                                           trace=trace)
        assert adaptive.runtime == pytest.approx(static.runtime)
        assert adaptive.final_correction == pytest.approx(1.0)


# ----------------------------------------------------------------------
# fast-path equivalence battery
# ----------------------------------------------------------------------
#: pinned per-run results of the battery below; regenerate with
#: ``pytest tests/test_property_executor.py --regen-golden`` only after
#: an intentional change to the simulator's semantics
FAST_PATH_GOLDEN = Path(__file__).parent / "golden" / "executor_fast_path.json"
RANDOM_PLANS = 8
BATTERY_PLANS = RANDOM_PLANS + 2
TRACE_KINDS = ("plain", "burst", "stragglers", "flaky", "edges")


def _battery_plan(rng: random.Random) -> Plan:
    """A random DAG (edges from lower to higher ids) whose bound sinks
    materialize and whose operators mostly support state snapshots, so
    the checkpointing scheme finds groups worth chunking."""
    size = rng.randint(4, 9)
    edges = []
    for consumer in range(2, size + 1):
        if rng.random() < 0.3:
            continue    # another source: parallel branches to merge
        producers = [p for p in range(1, consumer) if rng.random() < 0.4]
        if not producers:
            producers = [rng.randint(1, consumer - 1)]
        edges.extend((producer, consumer) for producer in producers)
    feeding = {producer for producer, _ in edges}
    operators = [
        Operator(
            op_id=op_id, name=f"op{op_id}",
            runtime_cost=rng.uniform(0.5, 40.0),
            mat_cost=rng.uniform(0.1, 10.0),
            materialize=op_id not in feeding,
            free=op_id in feeding,
            base_inputs=rng.choice((0, 1, 2)),
            state_ckpt_cost=(rng.uniform(0.05, 1.0)
                             if rng.random() < 0.8 else None),
        )
        for op_id in range(1, size + 1)
    ]
    return Plan.from_edges(operators, edges)


def _merge_plan(rng: random.Random) -> Plan:
    """Two branches merging into a sink, one fed by a bound, slow
    materialized operator: under lineage recovery the light branch is
    off the dominant path, yet its external input gates the merge."""
    operators = [
        Operator(1, "upstream", rng.uniform(20.0, 60.0),
                 rng.uniform(0.1, 5.0), materialize=True, free=False),
        Operator(2, "light", rng.uniform(0.5, 5.0), rng.uniform(0.1, 5.0)),
        Operator(3, "scan", rng.uniform(5.0, 20.0), rng.uniform(0.1, 5.0),
                 state_ckpt_cost=rng.uniform(0.05, 1.0)),
        Operator(4, "heavy", rng.uniform(5.0, 20.0), rng.uniform(0.1, 5.0),
                 state_ckpt_cost=rng.uniform(0.05, 1.0)),
        Operator(5, "sink", rng.uniform(0.5, 10.0), 0.0, materialize=True,
                 free=False),
    ]
    return Plan.from_edges(operators, [(1, 2), (2, 5), (3, 4), (4, 5)])


def _battery_clusters(rng: random.Random):
    nodes = rng.randint(2, 5)
    skew = tuple(rng.choice((1.0, 1.0, 1.3, 0.8)) for _ in range(nodes))
    return (
        ("uniform", Cluster(nodes=nodes, mttr=rng.choice((0.0, 1.0, 2.5)))),
        ("skewed", Cluster(nodes=nodes, mttr=1.0, node_skew=skew)),
        ("local", Cluster(nodes=nodes, mttr=1.0, storage=LocalStorage(),
                          max_restarts=4)),
    )


def _edge_trace(engine, configured, nodes):
    """Every node fails at (most of) the failure-free run's event times:
    failures land exactly on gates, share starts and finishes, and
    several nodes fail at the same instant."""
    times = sorted({event.time for event in
                    engine.execute(configured).timeline.events
                    if event.time > 0})
    return FailureTrace(
        node_failures=tuple(
            tuple(t for index, t in enumerate(times)
                  if (index + node) % 3 != 0)
            for node in range(nodes)
        ),
        mtbf=1.0,
    )


def _battery_trace(kind, cluster, baseline, seed):
    mtbf = baseline * (0.7 + (seed % 4))
    if kind == "burst":
        # jitter 0: a burst fails its whole rack at one instant
        return generate_trace(
            cluster.nodes, mtbf, 20.0 * mtbf, seed,
            correlated=CorrelatedFailures(burst_mtbf=mtbf, rack_size=3,
                                          jitter=0.0),
            chaos_seed=seed,
        )
    return generate_trace(cluster.nodes, mtbf, 20.0 * mtbf, seed)


def _battery_chaos(kind, seed):
    if kind == "stragglers":
        return FaultPolicy(seed=seed,
                           stragglers=Stragglers(rate=0.4, factor=1.7))
    if kind == "flaky":
        return FaultPolicy(seed=seed, flaky_writes=FlakyWrites(
            rate=0.4, max_failures=3))
    return None


def _events_digest(timeline) -> str:
    text = "\n".join(
        f"{event.time!r}|{event.kind.value}|{event.group}|{event.node}|"
        f"{event.detail}"
        for event in timeline.events
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pin(result, counters) -> list:
    return [result.runtime, result.aborted, result.restarts,
            result.share_restarts, result.failures_hit,
            _events_digest(result.timeline),
            dict(sorted(counters.items()))]


class _RandomMat:
    """A fine-grained configuration with random materializations: group
    shapes (off-path members with external inputs, several external
    gates per group) that the standard schemes rarely produce."""

    name = "random-mat"

    def __init__(self, rng: random.Random) -> None:
        self.draws = [rng.random() for _ in range(16)]

    def configure(self, plan, stats):
        return ConfiguredPlan(
            plan=plan.with_mat_config({
                op_id: self.draws[op_id] < 0.4
                for op_id in plan.free_operators
            }),
            recovery=RecoveryMode.FINE_GRAINED,
            scheme=self.name,
        )


def _battery_cases():
    """``(key, plan, scheme, cluster, chaos, trace kind, trace seed)``
    for every battery run, in a fixed order."""
    for plan_index in range(BATTERY_PLANS):
        rng = random.Random(7100 + plan_index)
        if plan_index < RANDOM_PLANS:
            plan = _battery_plan(rng)
        else:
            plan = _merge_plan(rng)
        schemes = (AllMat(), NoMatLineage(), NoMatRestart(),
                   CostBased(preflight_lint=False),
                   CostBasedWithOpCheckpoints(preflight_lint=False),
                   _RandomMat(rng))
        for cluster_kind, cluster in _battery_clusters(rng):
            for kind_index, kind in enumerate(TRACE_KINDS):
                seed = 31 * plan_index + kind_index
                for scheme in schemes:
                    key = f"{plan_index}/{cluster_kind}/{kind}/{scheme.name}"
                    yield (key, plan, scheme, cluster,
                           _battery_chaos(kind, seed), kind, seed)


def _run_battery(record_events: bool) -> dict:
    pins = {}
    for key, plan, scheme, cluster, chaos, kind, seed in _battery_cases():
        engine = SimulatedEngine(cluster, record_events=record_events,
                                 chaos=chaos)
        configured = scheme.configure(plan, cluster.stats(100.0))
        if kind == "edges":
            trace = _edge_trace(SimulatedEngine(cluster), configured,
                                cluster.nodes)
        else:
            baseline = SimulatedEngine(cluster).execute(configured).runtime
            trace = _battery_trace(kind, cluster, baseline, seed)
        with obs.recording() as recorder:
            result, _ = run_with_extension(engine, configured, trace)
        pins[key] = _pin(result, recorder.deterministic_counters())
    return pins


def _golden_text(pins: dict) -> str:
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}"
             for key, value in pins.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


class TestFastPathEquivalence:
    """Every simulator shortcut must reproduce the general per-node
    replay exactly.  The battery crosses random DAG plans with the four
    standard schemes, mid-operator checkpointing and a random
    materialization configuration; uniform, skewed and node-local
    clusters; and plain, coincident-burst, straggler, flaky-write and
    boundary-aligned traces.  Each run's results, event log and
    counters are pinned."""

    def test_battery_matches_golden(self, request):
        pins = _run_battery(record_events=True)
        if request.config.getoption("--regen-golden"):
            FAST_PATH_GOLDEN.write_text(_golden_text(pins),
                                        encoding="utf-8")
            pytest.skip(f"regenerated {FAST_PATH_GOLDEN.name}")
        expected = json.loads(FAST_PATH_GOLDEN.read_text(encoding="utf-8"))
        assert list(pins) == list(expected)
        mismatched = [key for key in pins if pins[key] != expected[key]]
        assert not mismatched, (
            f"{len(mismatched)} runs drifted, e.g. {mismatched[0]}: "
            f"{pins[mismatched[0]]} != {expected[mismatched[0]]}"
        )

    def test_muted_timeline_matches_recorded(self):
        recorded = _run_battery(record_events=True)
        muted = _run_battery(record_events=False)
        empty_digest = _events_digest(Timeline())
        for key, pin in recorded.items():
            assert muted[key][:5] == pin[:5], key
            assert muted[key][6] == pin[6], key
            assert muted[key][5] == empty_digest, key
