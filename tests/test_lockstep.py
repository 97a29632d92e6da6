"""Lockstep execution == the per-trace executor, and trace blocks ==
trace tuples.

``SimulatedEngine.execute_many`` runs an eligible trace set as NumPy
lanes over one flat failure array (``repro.engine.lockstep``).  Every
test here compares it with the per-trace reference -- one
``run_with_extension`` call per trace -- on results, on the traces
written back after a horizon extension, and on the ``obs`` counters.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import obs
from repro.chaos.policy import (
    CorrelatedFailures,
    FaultPolicy,
    FlakyWrites,
    MtbfDrift,
    Stragglers,
)
from repro.core.checkpointing import CheckpointSpec
from repro.core.strategies import (
    AllMat,
    NoMatLineage,
    NoMatRestart,
    standard_schemes,
)
from repro.engine import coordinator
from repro.engine import executor as executor_module
from repro.engine.campaign import CampaignCell, run_campaign
from repro.engine.cluster import Cluster
from repro.engine.coordinator import run_with_extension
from repro.engine.executor import SimulatedEngine
from repro.engine.storage import LocalStorage
from repro.engine.traces import (
    FailureTrace,
    TraceBlock,
    cached_trace_block,
    cached_trace_set,
    extend_trace,
    generate_trace,
    generate_trace_block,
    generate_trace_set,
    reset_trace_cache,
)
from repro.engine.traces import _arrival_block

from .test_property_executor import (
    _battery_cases,
    _battery_trace,
    _edge_trace,
)
from .test_traces import (
    GOLDEN_CASES,
    GOLDEN_HORIZON,
    GOLDEN_MTBF,
    GOLDEN_NODES,
    GOLDEN_SEEDS,
    STREAM_GOLDEN,
    _stream_digest,
)

#: lockstep thresholds that take, or never take, the lockstep path
ALWAYS = 1
NEVER = 10 ** 9


@pytest.fixture(autouse=True)
def lockstep_always(monkeypatch):
    """Run every eligible set in lockstep, however short."""
    monkeypatch.setattr(executor_module, "LOCKSTEP_MIN_TRACES", ALWAYS)


def _outcomes(results):
    return [(r.runtime, r.aborted, r.restarts, r.share_restarts,
             r.failures_hit) for r in results]


def _per_trace(cluster, chaos, configured, traces):
    """The reference: one ``run_with_extension`` per trace."""
    engine = SimulatedEngine(cluster, record_events=False, chaos=chaos)
    prepared = engine.prepare(configured)
    traces = list(traces)
    results = []
    with obs.recording() as recorder:
        for index, trace in enumerate(traces):
            result, traces[index] = run_with_extension(engine, prepared,
                                                       trace)
            results.append(result)
    return _outcomes(results), traces, recorder.deterministic_counters()


def _many(cluster, chaos, configured, traces, record_events=False):
    """``execute_many`` over a mutable copy of ``traces``."""
    engine = SimulatedEngine(cluster, record_events=record_events,
                             chaos=chaos)
    prepared = engine.prepare(configured)
    traces = list(traces)
    with obs.recording() as recorder:
        batch = engine.execute_many(prepared, traces)
    assert batch.lockstep == engine.lockstep_eligible(prepared,
                                                      len(traces))
    outcomes = list(zip(batch.runtimes, batch.aborted, batch.restarts,
                        batch.share_restarts, batch.failures_hit))
    return outcomes, traces, recorder.deterministic_counters(), batch


def _assert_same(reference, candidate, label=""):
    outcomes, traces, counters = reference
    got_outcomes, got_traces, got_counters = candidate[:3]
    assert got_outcomes == outcomes, label
    assert [(t.node_failures, t.horizon, t.seed) for t in got_traces] \
        == [(t.node_failures, t.horizon, t.seed) for t in traces], label
    assert got_counters == counters, label


def _trace_set(kind, cluster, configured, seed, count=5):
    """``count`` traces of the battery's kind; every other one has a
    horizon below the failure-free runtime, so it must be extended."""
    if kind == "edges":
        edge = _edge_trace(SimulatedEngine(cluster), configured,
                           cluster.nodes)
        return [edge] * count
    baseline = SimulatedEngine(cluster).execute(configured).runtime
    traces = []
    for index in range(count):
        trace = _battery_trace(kind, cluster, baseline, seed + index)
        if index % 2:
            trace = dataclasses.replace(
                trace, horizon=baseline * 0.9,
                node_failures=tuple(
                    tuple(t for t in failures if t <= baseline * 0.9)
                    for failures in trace.node_failures),
                injected=0)
        traces.append(trace)
    return traces


class TestBatteryDifferential:
    """The executor battery (random DAGs with several sinks, the four
    standard schemes plus checkpointing and random materializations;
    uniform, skewed and node-local clusters with ``max_restarts=4``;
    plain, coincident-burst, straggler, flaky-write and boundary-aligned
    traces), run as trace sets."""

    def test_execute_many_matches_per_trace(self):
        lockstep_runs = 0
        for key, plan, scheme, cluster, chaos, kind, seed in \
                _battery_cases():
            configured = scheme.configure(plan, cluster.stats(100.0))
            traces = _trace_set(kind, cluster, configured, seed)
            reference = _per_trace(cluster, chaos, configured, traces)
            candidate = _many(cluster, chaos, configured, traces)
            _assert_same(reference, candidate, key)
            lockstep_runs += candidate[3].lockstep
        # at least 10 plans x 2 unskewed clusters x 3 chaos-free trace
        # kinds x 5 schemes without mid-operator checkpoints ran in
        # lockstep (the checkpointing scheme adds the cases where it
        # chose no checkpoint)
        assert lockstep_runs >= 300

    def test_extensions_and_aborts_are_exercised(self):
        """The battery reaches the horizon fallback and the coarse abort
        path in lockstep (a vacuous battery would pass the test above)."""
        extended = aborted = 0
        for key, plan, scheme, cluster, chaos, kind, seed in \
                _battery_cases():
            if kind != "plain" or chaos is not None:
                continue
            configured = scheme.configure(plan, cluster.stats(100.0))
            traces = _trace_set(kind, cluster, configured, seed)
            outcomes, written, _, batch = _many(cluster, chaos,
                                                configured, traces)
            if batch.lockstep:
                extended += sum(new is not old
                                for new, old in zip(written, traces))
                aborted += batch.aborted_runs
        assert extended > 0
        assert aborted > 0


class TestIneligibleEngines:
    """Every engine the lockstep path must not take runs trace by trace
    and still equals the reference."""

    @pytest.fixture
    def setting(self, paper_plan):
        cluster = Cluster(nodes=3, mttr=1.0)
        configured = NoMatLineage().configure(paper_plan,
                                              cluster.stats(20.0))
        traces = generate_trace_set(3, 20.0, 400.0, count=4, base_seed=5)
        return cluster, configured, traces

    @pytest.mark.parametrize("change", [
        "recorded", "skew", "stragglers", "flaky", "checkpoints",
        "too-few",
    ])
    def test_falls_back(self, setting, change, monkeypatch):
        cluster, configured, traces = setting
        chaos, record = None, False
        if change == "recorded":
            record = True
        elif change == "skew":
            cluster = dataclasses.replace(cluster,
                                          node_skew=(1.0, 1.4, 1.0))
        elif change == "stragglers":
            chaos = FaultPolicy(seed=3, stragglers=Stragglers(rate=0.5,
                                                              factor=2.0))
        elif change == "flaky":
            chaos = FaultPolicy(seed=3, flaky_writes=FlakyWrites(rate=0.5))
        elif change == "checkpoints":
            anchor = max(configured.plan.operators)
            configured = dataclasses.replace(configured, op_checkpoints={
                anchor: CheckpointSpec(interval=0.5, snapshot_cost=0.1,
                                       estimated_runtime=1.0)})
        engine = SimulatedEngine(cluster, record_events=record,
                                 chaos=chaos)
        prepared = engine.prepare(configured)
        if change != "checkpoints":
            assert SimulatedEngine(
                Cluster(nodes=3, mttr=1.0), record_events=False,
            ).lockstep_eligible(prepared, len(traces))
        if change == "too-few":
            monkeypatch.setattr(executor_module, "LOCKSTEP_MIN_TRACES",
                                len(traces) + 1)
        assert not engine.lockstep_eligible(prepared, len(traces))
        reference = _per_trace(cluster, chaos, configured, traces)
        candidate = _many(cluster, chaos, configured, traces,
                          record_events=record)
        assert not candidate[3].lockstep
        _assert_same(reference, candidate, change)


class TestLockstepShapes:
    @pytest.mark.parametrize("storage", [None, LocalStorage()])
    @pytest.mark.parametrize("scheme", [AllMat(), NoMatLineage(),
                                        NoMatRestart()])
    def test_multi_sink_plan(self, paper_plan, storage, scheme):
        # the paper plan has two sinks; node-local storage adds the
        # lineage surcharge to every restart
        cluster = Cluster(nodes=4, mttr=0.5, max_restarts=6,
                          **({"storage": storage} if storage else {}))
        configured = scheme.configure(paper_plan, cluster.stats(6.0))
        traces = generate_trace_set(4, 6.0, 40.0, count=16, base_seed=3)
        _assert_same(_per_trace(cluster, None, configured, traces),
                     _many(cluster, None, configured, traces))

    def test_correlated_bursts_count_injections(self, paper_plan):
        cluster = Cluster(nodes=5, mttr=1.0)
        spec = CorrelatedFailures(burst_mtbf=15.0, rack_size=3,
                                  jitter=0.5, base_shape=0.7)
        traces = generate_trace_set(5, 30.0, 60.0, count=12, base_seed=2,
                                    correlated=spec, chaos_seed=4)
        assert sum(trace.injected for trace in traces) > 0
        for scheme in (AllMat(), NoMatRestart()):
            configured = scheme.configure(paper_plan, cluster.stats(30.0))
            reference = _per_trace(cluster, None, configured, traces)
            assert reference[2]["chaos.injected.burst_failures"] > 0
            _assert_same(reference,
                         _many(cluster, None, configured, traces))

    def test_drifting_traces(self, paper_plan):
        cluster = Cluster(nodes=3, mttr=1.0)
        traces = generate_trace_set(
            3, 25.0, 300.0, count=12, base_seed=8,
            drift=MtbfDrift(scale=0.5, amplitude=0.4, period=50.0))
        configured = NoMatLineage().configure(paper_plan,
                                              cluster.stats(25.0))
        _assert_same(_per_trace(cluster, None, configured, traces),
                     _many(cluster, None, configured, traces))

    def test_immutable_sets_are_not_written_back(self, paper_plan):
        cluster = Cluster(nodes=2, mttr=1.0)
        configured = NoMatLineage().configure(paper_plan,
                                              cluster.stats(10.0))
        traces = tuple(generate_trace_set(2, 10.0, 5.0, count=3))
        engine = SimulatedEngine(cluster, record_events=False)
        batch = engine.execute_many(engine.prepare(configured), traces)
        assert batch.lockstep
        reference = _per_trace(cluster, None, configured, traces)[0]
        assert list(zip(batch.runtimes, batch.aborted, batch.restarts,
                        batch.share_restarts, batch.failures_hit)) \
            == reference

    def test_block_write_back_splices_rows(self, paper_plan):
        cluster = Cluster(nodes=3, mttr=1.0)
        configured = NoMatLineage().configure(paper_plan,
                                              cluster.stats(12.0))
        block = generate_trace_block(3, 12.0, 9.0, count=6, base_seed=1)
        reference = _per_trace(cluster, None, configured,
                               generate_trace_set(3, 12.0, 9.0, count=6,
                                                  base_seed=1))
        engine = SimulatedEngine(cluster, record_events=False)
        batch = engine.execute_many(engine.prepare(configured), block)
        assert batch.lockstep
        assert list(zip(batch.runtimes, batch.aborted, batch.restarts,
                        batch.share_restarts, batch.failures_hit)) \
            == reference[0]
        assert [(t.node_failures, t.horizon) for t in block] \
            == [(t.node_failures, t.horizon) for t in reference[1]]
        # the arrays carry the extensions: a second scheme needs none
        assert list(block.horizons) == [t.horizon for t in reference[1]]
        _assert_rows_match(block)


class TestMeasurementLoops:
    def test_scheme_loop_runs_in_lockstep(self, paper_plan, monkeypatch):
        """Every scheme over one shared, written-back trace list."""
        cluster = Cluster(nodes=3, mttr=1.0)
        stats = cluster.stats(15.0)

        def measure(minimum):
            monkeypatch.setattr(executor_module, "LOCKSTEP_MIN_TRACES",
                                minimum)
            engine = SimulatedEngine(cluster, record_events=False)
            traces = generate_trace_set(3, 15.0, 20.0, count=14)
            with obs.recording() as recorder:
                rows = []
                for scheme in standard_schemes(preflight_lint=False):
                    prepared = engine.prepare(
                        scheme.configure(paper_plan, stats))
                    batch = engine.execute_many(prepared, traces)
                    rows.append((batch.finished_runtimes,
                                 batch.aborted_runs))
            return rows, traces, recorder.deterministic_counters()

        lockstep, scalar = measure(ALWAYS), measure(NEVER)
        assert lockstep[0] == scalar[0]
        assert [t.horizon for t in lockstep[1]] \
            == [t.horizon for t in scalar[1]]
        assert lockstep[2] == scalar[2]

    @pytest.mark.parametrize("inject", [False, True])
    def test_campaign_rows_and_tallies(self, paper_plan, chain_plan,
                                       monkeypatch, inject):
        cluster = Cluster(nodes=4, mttr=1.0, storage=LocalStorage(),
                          max_restarts=5)
        chaos = None
        if inject:
            chaos = FaultPolicy(seed=2, correlated=CorrelatedFailures(
                burst_mtbf=40.0, rack_size=2, jitter=1.0))
        cells = [
            CampaignCell(label="paper", plan=paper_plan, mtbf=mtbf,
                         trace_count=14, base_seed=21, horizon=30.0)
            for mtbf in (8.0, 60.0)
        ] + [CampaignCell(label="chain", plan=chain_plan, mtbf=12.0,
                          trace_count=13, base_seed=4)]

        def campaign(minimum, jobs=1):
            monkeypatch.setattr(executor_module, "LOCKSTEP_MIN_TRACES",
                                minimum)
            # both runs measure their baselines and draw their traces
            monkeypatch.setattr(coordinator, "_BASELINE_MEMO", {})
            reset_trace_cache()
            with obs.recording() as recorder:
                rows = run_campaign(cells, cluster, jobs=jobs,
                                    preflight_lint=False, chaos=chaos)
            spans = [span for span in recorder.spans
                     if span.name == "campaign.execute"]
            return rows, recorder.deterministic_counters(), spans

        lockstep, scalar = campaign(ALWAYS), campaign(NEVER)
        assert lockstep[0] == scalar[0]
        assert lockstep[1] == scalar[1]
        assert lockstep[1]["sim.restarts.share"] > 0
        assert lockstep[1]["sim.aborts"] > 0
        assert all(span.attrs["lockstep"] for span in lockstep[2])
        assert not any(span.attrs["lockstep"] for span in scalar[2])
        assert len(lockstep[2]) == len(lockstep[0])
        assert campaign(ALWAYS, jobs=2)[0] == lockstep[0]


# ----------------------------------------------------------------------
# trace blocks
# ----------------------------------------------------------------------
def _block_rows(block):
    """Every trace's rows as read from the block's arrays."""
    flat, offsets = block.arrays()
    rows = [tuple(flat[offsets[r]:offsets[r + 1] - 1].tolist())
            for r in range(len(offsets) - 1)]
    assert all(flat[offsets[r + 1] - 1] == float("inf")
               for r in range(len(offsets) - 1))
    return [tuple(rows[t * block.nodes:(t + 1) * block.nodes])
            for t in range(len(block))]


def _assert_rows_match(block):
    assert _block_rows(block) == [t.node_failures for t in block]


class TestTraceBlocks:
    def test_block_rows_match_golden_streams(self):
        """Every golden generator's rows, read back from a block, carry
        the pinned digests; the plain generator also as a drawn block."""
        expected = json.loads(STREAM_GOLDEN.read_text(encoding="utf-8"))
        for name, make in GOLDEN_CASES:
            for seed in GOLDEN_SEEDS:
                reset_trace_cache()
                trace = make(GOLDEN_MTBF, GOLDEN_HORIZON, seed)
                rows = _block_rows(TraceBlock.from_traces([trace]))[0]
                rebuilt = dataclasses.replace(trace, node_failures=rows)
                pin = expected[f"{name}/seed{seed}"]["cold"]
                assert _stream_digest(rebuilt) == pin[0], (name, seed)
        for seed in GOLDEN_SEEDS:
            reset_trace_cache()
            drawn = generate_trace_block(GOLDEN_NODES, GOLDEN_MTBF,
                                         GOLDEN_HORIZON, count=1,
                                         base_seed=seed)
            assert _stream_digest(drawn[0]) \
                == expected[f"exponential/seed{seed}"]["cold"][0]
        reset_trace_cache()

    @pytest.mark.parametrize("overlay", [
        {},
        {"correlated": CorrelatedFailures(burst_mtbf=300.0, rack_size=2,
                                          jitter=3.0)},
        {"correlated": CorrelatedFailures(burst_mtbf=1.0, intensity=0.0,
                                          base_shape=0.7)},
        {"drift": MtbfDrift(scale=0.6, amplitude=0.3, period=900.0)},
    ])
    def test_block_equals_trace_set(self, overlay):
        reset_trace_cache()
        block = generate_trace_block(4, 120.0, 3000.0, count=7,
                                     base_seed=11, chaos_seed=2, **overlay)
        reset_trace_cache()
        listed = generate_trace_set(4, 120.0, 3000.0, count=7,
                                    base_seed=11, chaos_seed=2, **overlay)
        assert list(block) == listed
        assert _block_rows(block) == [t.node_failures for t in listed]

    def test_plain_block_equals_single_traces(self):
        reset_trace_cache()
        block = generate_trace_block(3, 50.0, 2000.0, count=5, base_seed=9)
        for index, trace in enumerate(block):
            assert trace == generate_trace(3, 50.0, 2000.0, 9 + index)

    def test_wide_draws_match_single_sources(self):
        """Sources whose first draw falls short of the horizon make the
        block redraw wider; every row equals its source drawn alone."""
        gaps = (1.0, 0.001, 0.5, 0.002)

        def source(*chosen):
            return lambda width: [np.full((2, width), g) for g in chosen]

        flat, offsets = _arrival_block(source(*gaps), 2.0, 1.0, 30.0)
        rows = [flat[offsets[r]:offsets[r + 1]].tolist()
                for r in range(len(offsets) - 1)]
        alone = []
        for gap in gaps:
            one, bounds = _arrival_block(source(gap), 2.0, 1.0, 30.0)
            alone += [one[bounds[r]:bounds[r + 1]].tolist()
                      for r in range(len(bounds) - 1)]
        assert rows == alone
        # the small-gap sources needed far more than the first width
        assert min(len(rows[2]), len(rows[6])) > 1000

    def test_list_write_back_reaches_the_block(self):
        reset_trace_cache()
        listed = cached_trace_set(2, 30.0, 100.0, count=3, base_seed=6)
        block = cached_trace_block(2, 30.0, 100.0, count=3, base_seed=6)
        assert block.as_list() is listed
        listed[1] = extend_trace(listed[1], 900.0)
        _assert_rows_match(block)
        assert list(block.horizons) == [100.0, 900.0, 100.0]
        block[2] = extend_trace(block[2], 500.0)
        assert listed[2] is block[2]
        _assert_rows_match(block)
        reset_trace_cache()

    def test_from_traces_checks_nodes(self):
        with pytest.raises(ValueError):
            TraceBlock.from_traces([FailureTrace.empty(2),
                                    FailureTrace.empty(3)])
        with pytest.raises(ValueError):
            TraceBlock.from_traces([])
        block = TraceBlock.from_traces([FailureTrace.empty(2)])
        with pytest.raises(ValueError):
            block[0] = FailureTrace.empty(3)

    def test_engine_rejects_a_foreign_block(self, chain_plan):
        engine = SimulatedEngine(Cluster(nodes=3), record_events=False)
        prepared = engine.prepare(
            NoMatLineage().configure(chain_plan, Cluster(nodes=3).stats(9.0)))
        with pytest.raises(ValueError):
            engine.execute_many(prepared, generate_trace_block(
                2, 9.0, 90.0, count=2))
