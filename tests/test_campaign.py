"""Tests for the simulation campaign engine (repro.engine.campaign).

The load-bearing guarantees:

* ``jobs=N`` produces *exactly* the rows ``jobs=1`` produces -- the
  process-pool fan-out is pure orchestration;
* prepared execution matches fresh ``execute()`` on every cell of the
  Figure 8 grid;
* the vectorized trace generator is bit-identical to the scalar loop it
  replaced;
* shared trace sets only ever change by prefix-stable extension, and the
  extension is written back so later sharers reuse it;
* units with equal keys are measured once, and every duplicate's row
  equals what measuring it on its own gives.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.policy import CorrelatedFailures
from repro import obs
from repro.core.plan import linear_plan
from repro.core.strategies import (
    AllMat,
    ConfiguredPlan,
    NoMatLineage,
    NoMatRestart,
    RecoveryMode,
    standard_schemes,
)
from repro.engine.adaptive import AdaptiveCostBased
from repro.engine.campaign import (
    CampaignCell,
    _measure_unit_safe,
    campaign_map,
    run_campaign,
)
from repro.engine.cluster import Cluster
from repro.engine.coordinator import (
    compare_schemes,
    pure_baseline_runtime,
    run_with_extension,
)
from repro.engine.executor import SimulatedEngine
from repro.engine.timeline import MutedTimeline
from repro.engine.traces import (
    FailureTrace,
    cached_trace_set,
    generate_trace,
    generate_trace_set,
)


@pytest.fixture
def chain():
    return linear_plan([(100.0, 5.0), (100.0, 5.0), (100.0, 5.0)])


@pytest.fixture
def cluster():
    return Cluster(nodes=3, mttr=1.0)


def _cell(chain, mtbf=150.0, base_seed=0, trace_count=4, **kwargs):
    return CampaignCell(label="chain", plan=chain, mtbf=mtbf,
                        trace_count=trace_count, base_seed=base_seed,
                        **kwargs)


class TestCampaignCell:
    def test_validates_mtbf(self, chain):
        with pytest.raises(ValueError, match="mtbf"):
            CampaignCell(label="x", plan=chain, mtbf=0.0)

    def test_validates_trace_count(self, chain):
        with pytest.raises(ValueError, match="trace_count"):
            CampaignCell(label="x", plan=chain, mtbf=1.0, trace_count=0)

    def test_rejects_schemes_and_configured_together(self, chain):
        stats = Cluster(nodes=3, mttr=1.0).stats(100.0)
        configured = AllMat().configure(chain, stats)
        with pytest.raises(ValueError, match="not both"):
            CampaignCell(label="x", plan=chain, mtbf=1.0,
                         schemes=(AllMat(),), configured=(configured,))

    def test_default_targets_are_the_standard_schemes(self, chain):
        cell = _cell(chain)
        names = [t.name for t in cell.targets()]
        assert names == [s.name for s in standard_schemes()]


class TestSerialCampaign:
    def test_result_rows_in_cell_target_order(self, chain, cluster):
        cells = [_cell(chain, base_seed=0), _cell(chain, base_seed=50)]
        results = run_campaign(cells, cluster)
        assert [r.cell_index for r in results] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert [r.scheme for r in results[:4]] == [
            s.name for s in standard_schemes()
        ]

    def test_matches_direct_execution(self, chain, cluster):
        """The campaign row equals configure -> ``execute_many`` by hand."""
        mtbf = 150.0
        results = run_campaign(
            [_cell(chain, mtbf=mtbf, schemes=(AllMat(),))], cluster
        )
        engine = SimulatedEngine(cluster)
        stats = cluster.stats(mtbf)
        baseline = pure_baseline_runtime(chain, engine, stats)
        horizon = max(baseline * 20.0, mtbf * cluster.nodes * 2.0, 1000.0)
        traces = generate_trace_set(cluster.nodes, mtbf, horizon,
                                    count=4, base_seed=0)
        configured = AllMat().configure(chain, stats)
        batch = engine.execute_many(engine.prepare(configured), traces)
        assert results[0].runtimes == batch.finished_runtimes
        assert results[0].aborted_runs == batch.aborted_runs
        assert results[0].baseline == baseline
        assert results[0].materialized_ids == tuple(
            op_id for op_id, op in configured.plan.operators.items()
            if op.materialize and chain[op_id].free
        )

    def test_explicit_traces_and_baseline(self, chain, cluster):
        traces = tuple(generate_trace_set(cluster.nodes, 200.0, 5000.0,
                                          count=3, base_seed=9))
        cell = _cell(chain, mtbf=200.0, traces=traces, baseline=300.0)
        results = run_campaign([cell], cluster)
        assert all(r.baseline == 300.0 for r in results)
        assert all(len(r.runtimes) + r.aborted_runs == 3 for r in results)

    def test_configured_cells_run_as_given(self, chain, cluster):
        stats = cluster.stats(150.0)
        configured = (NoMatLineage().configure(chain, stats),
                      AllMat().configure(chain, stats))
        results = run_campaign(
            [_cell(chain, configured=configured)], cluster
        )
        assert [r.scheme for r in results] == \
            ["no-mat (lineage)", "all-mat"]

    def test_jobs_must_be_positive(self, chain, cluster):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign([_cell(chain)], cluster, jobs=0)


def _assert_chain_jobs_equal(base_seed, mtbf):
    chain = linear_plan([(100.0, 5.0), (100.0, 5.0), (100.0, 5.0)])
    cluster = Cluster(nodes=3, mttr=1.0)
    cells = [
        CampaignCell(label="chain", plan=chain, mtbf=mtbf,
                     trace_count=3, base_seed=base_seed),
    ]
    serial = run_campaign(cells, cluster, jobs=1)
    parallel = run_campaign(cells, cluster, jobs=3)
    assert serial == parallel


class TestParallelEqualsSerial:
    """The tentpole guarantee: job count never changes the output."""

    @given(base_seed=st.integers(min_value=0, max_value=10_000),
           mtbf=st.sampled_from([60.0, 150.0, 900.0]))
    @settings(max_examples=5, deadline=None)
    def test_property_jobs_equal(self, base_seed, mtbf):
        _assert_chain_jobs_equal(base_seed, mtbf)

    def test_multi_cell_grid_jobs_equal(self, chain, cluster):
        # enough cells to exercise the chunk-per-cell grain...
        many = [_cell(chain, mtbf=m, base_seed=s, trace_count=2)
                for m in (100.0, 400.0) for s in (0, 7, 19)]
        assert run_campaign(many, cluster, jobs=4) == \
            run_campaign(many, cluster, jobs=1)
        # ...and a single big cell the chunk-per-unit fallback
        one = [_cell(chain, trace_count=3)]
        assert run_campaign(one, cluster, jobs=4) == \
            run_campaign(one, cluster, jobs=1)


@pytest.mark.usefixtures("spawn_pool")
class TestParallelEqualsSerialSpawn(TestParallelEqualsSerial):
    """``jobs=N == jobs=1`` with workers started by ``spawn``: each
    worker draws its trace sets from an empty stream cache."""

    # fixed cases: Hypothesis refuses one @given test run by two classes
    @pytest.mark.parametrize("base_seed, mtbf", [(0, 60.0), (7_919, 900.0)])
    def test_property_jobs_equal(self, base_seed, mtbf):
        _assert_chain_jobs_equal(base_seed, mtbf)


def _poisoned_cell(chain, baseline=300.0):
    """A cell whose every measurement raises: its explicit trace covers
    more nodes than the cluster, which ``execute_prepared`` rejects."""
    return _cell(chain, traces=(FailureTrace.empty(5),), baseline=baseline)


class TestPartialResults:
    """A unit that raises becomes an error row; nothing else is lost."""

    def test_poisoned_cell_yields_error_rows(self, chain, cluster):
        results = run_campaign(
            [_cell(chain), _poisoned_cell(chain)], cluster
        )
        healthy = [r for r in results if r.cell_index == 0]
        poisoned = [r for r in results if r.cell_index == 1]
        assert len(healthy) == 4 and len(poisoned) == 4
        assert all(r.error is None for r in healthy)
        assert healthy == run_campaign([_cell(chain)], cluster)
        for row in poisoned:
            assert row.error is not None
            assert row.error.startswith("ValueError")
            assert math.isinf(row.baseline)
            assert not row.runtimes
            assert row.aborted_runs == 0
            assert not row.materialized_ids
            assert math.isinf(row.mean_runtime)
            assert math.isinf(row.overhead_percent)

    def test_error_rows_keep_scheme_labels(self, chain, cluster):
        results = run_campaign([_poisoned_cell(chain)], cluster)
        clean = run_campaign([_cell(chain)], cluster)
        assert [r.scheme for r in results] == [r.scheme for r in clean]

    def test_partial_results_jobs_equal(self, chain, cluster):
        cells = [
            _cell(chain, trace_count=2),
            _poisoned_cell(chain),
            _cell(chain, base_seed=9, trace_count=2),
        ]
        serial = run_campaign(cells, cluster, jobs=1)
        parallel = run_campaign(cells, cluster, jobs=3)
        assert serial == parallel

    def test_unit_errors_are_counted(self, chain, cluster):
        from repro import obs

        with obs.recording() as recorder:
            run_campaign([_poisoned_cell(chain)], cluster)
            counters = recorder.summary()["counters"]
        assert counters["campaign.unit_errors"] == 4


def _unit_reference(cells, cluster):
    """Every unit measured on its own: no shared rows, no shared
    prepared plans."""
    return [
        _measure_unit_safe(cell, cell_index, target_index, cluster)
        for cell_index, cell in enumerate(cells)
        for target_index in range(len(cell.targets()))
    ]


def _recorded_campaign(cells, cluster, jobs=1):
    with obs.recording() as recorder:
        rows = run_campaign(cells, cluster, jobs=jobs)
        counters = recorder.summary()["counters"]
    return rows, counters


def _repeated_cells(chain, cluster):
    """Pre-configured cells repeating units at two MTBFs: equal cells
    under other labels, a target listed twice under two scheme names,
    and an equal plan that is a different object."""
    stats = cluster.stats(150.0)
    all_mat = AllMat().configure(chain, stats)
    lineage = NoMatLineage().configure(chain, stats)
    restart = NoMatRestart().configure(chain, stats)
    renamed = ConfiguredPlan(
        plan=chain.with_mat_config({op_id: True
                                    for op_id in chain.free_operators}),
        recovery=RecoveryMode.FINE_GRAINED, scheme="chosen",
    )
    configured = (all_mat, lineage, restart, renamed)
    return [
        CampaignCell(label=f"{label}@{mtbf:g}", plan=chain, mtbf=mtbf,
                     trace_count=3, configured=configured)
        for mtbf in (150.0, 400.0)
        for label in ("a", "b")
    ]


class TestSharedUnits:
    """Each distinct unit is measured once; duplicates copy its row."""

    def test_repeated_units_equal_the_per_unit_reference(self, chain,
                                                         cluster):
        cells = _repeated_cells(chain, cluster)
        reference = _unit_reference(cells, cluster)
        assert run_campaign(cells, cluster, jobs=1) == reference
        assert run_campaign(cells, cluster, jobs=2) == reference

    def test_two_mtbfs_are_two_measurements(self, chain, cluster):
        rows, counters = _recorded_campaign(
            _repeated_cells(chain, cluster), cluster
        )
        # per MTBF: all-mat (also listed as "chosen"), no-mat lineage
        # and no-mat restart; the second label repeats all four
        assert counters["campaign.units"] == 6
        assert counters["campaign.units_shared"] == 10
        assert [row.label for row in rows[:8]] == \
            ["a@150"] * 4 + ["b@150"] * 4
        assert rows[3].scheme == "chosen"
        assert rows[3].runtimes == rows[0].runtimes
        assert rows[8].runtimes != rows[0].runtimes

    def test_counters_add_up_to_the_rows(self, chain, cluster):
        cells = _repeated_cells(chain, cluster) + [_cell(chain)]
        for jobs in (1, 2):
            rows, counters = _recorded_campaign(cells, cluster, jobs=jobs)
            assert counters["campaign.units"] + \
                counters["campaign.units_shared"] == len(rows)
            assert counters["campaign.trace_runs"] == \
                3 * 6 + 4 * 4

    def test_duplicate_of_a_raising_unit_keeps_its_identity(
            self, chain, cluster):
        # the configured plan has an operator the cell's plan lacks, so
        # the unit raises while it builds its row
        longer = linear_plan([(100.0, 5.0)] * 4)
        broken = AllMat().configure(longer, cluster.stats(150.0))
        cells = [
            CampaignCell(label=label, plan=chain, mtbf=150.0,
                         trace_count=2, configured=(
                             ConfiguredPlan(plan=broken.plan,
                                            recovery=broken.recovery,
                                            scheme=scheme),
                         ))
            for label, scheme in (("x", "first"), ("y", "second"))
        ]
        for jobs in (1, 2):
            rows, counters = _recorded_campaign(cells, cluster, jobs=jobs)
            assert rows == _unit_reference(cells, cluster)
            assert [(r.cell_index, r.label, r.scheme) for r in rows] == \
                [(0, "x", "first"), (1, "y", "second")]
            assert rows[0].error is not None
            assert rows[0].error == rows[1].error
            assert counters["campaign.unit_errors"] == 1
            assert counters["campaign.units_shared"] == 1

    @pytest.mark.parametrize("kind", ["schemes", "adaptive", "traces"])
    def test_unkeyed_units_are_never_shared(self, chain, cluster, kind):
        stats = cluster.stats(150.0)
        if kind == "schemes":
            extra = {"schemes": (AllMat(), AllMat())}
        elif kind == "adaptive":
            extra = {"schemes": (AdaptiveCostBased(), AdaptiveCostBased())}
        else:
            traces = tuple(generate_trace_set(cluster.nodes, 150.0,
                                              5000.0, count=2,
                                              base_seed=3))
            all_mat = AllMat().configure(chain, stats)
            extra = {"configured": (all_mat, all_mat), "traces": traces}
        cells = [_cell(chain, trace_count=2, **extra) for _ in range(2)]
        rows, counters = _recorded_campaign(cells, cluster)
        assert rows == _unit_reference(cells, cluster)
        assert counters["campaign.units"] == len(rows) == 4
        assert "campaign.units_shared" not in counters


class TestPreparedMatchesFresh:
    def test_every_fig8_cell(self):
        """Prepared-execution reuse is invisible on the real grid."""
        from repro.experiments import fig8_queries

        result = fig8_queries.run(scale_factor=20.0, trace_count=3,
                                  queries=("Q1", "Q5"))
        params_cluster = Cluster(nodes=10, mttr=1.0)
        fresh_engine = SimulatedEngine(params_cluster)
        from repro.stats.calibration import default_parameters
        from repro.tpch.queries import build_query_plan

        params = default_parameters(nodes=10)
        for cells, seed in ((result.low_mtbf_cells, 800),
                            (result.high_mtbf_cells, 801)):
            for cell in cells:
                plan = build_query_plan(cell.label, 20.0, params)
                stats = params_cluster.stats(cell.mtbf)
                from repro.core.strategies import scheme_by_name

                configured = scheme_by_name(cell.scheme).configure(
                    plan, stats
                )
                horizon = max(cell.baseline * 20.0,
                              cell.mtbf * params_cluster.nodes * 2.0,
                              1000.0)
                traces = generate_trace_set(10, cell.mtbf, horizon,
                                            count=3, base_seed=seed)
                runtimes = []
                aborted = 0
                for trace in traces:
                    run, _ = run_with_extension(fresh_engine, configured,
                                                trace)
                    if run.aborted:
                        aborted += 1
                    else:
                        runtimes.append(run.runtime)
                mean = (sum(runtimes) / len(runtimes)
                        if runtimes else float("inf"))
                if aborted == 3:
                    assert cell.all_aborted
                else:
                    expected = (mean / cell.baseline - 1.0) * 100.0
                    assert cell.overhead_percent == expected

    def test_prepared_equals_execute(self, chain, cluster):
        stats = cluster.stats(120.0)
        engine = SimulatedEngine(cluster)
        configured = AllMat().configure(chain, stats)
        prepared = engine.prepare(configured)
        for seed in range(5):
            trace = generate_trace(cluster.nodes, 120.0, 20_000.0,
                                   seed=seed)
            fresh = engine.execute(configured, trace)
            reused = engine.execute_prepared(prepared, trace)
            assert fresh.runtime == reused.runtime
            assert fresh.share_restarts == reused.share_restarts


class TestTraceVectorization:
    """The NumPy generator is bit-identical to the scalar loop."""

    @given(seed=st.integers(min_value=0, max_value=500),
           mtbf=st.sampled_from([1.0, 37.5, 1e4, 1e9]))
    @settings(max_examples=20, deadline=None)
    def test_exponential_matches_scalar(self, seed, mtbf):
        horizon = mtbf * 25.0
        trace = generate_trace(2, mtbf, horizon, seed=seed)
        for node in range(2):
            rng = np.random.default_rng([seed, node])
            expected = []
            current = 0.0
            while True:
                current += float(rng.exponential(mtbf))
                if current > horizon:
                    break
                expected.append(current)
            assert list(trace.failures_of(node)) == expected

    def test_weibull_matches_scalar(self):
        shape, mtbf, horizon, seed = 0.7, 50.0, 2000.0, 3
        scale = mtbf / math.gamma(1.0 + 1.0 / shape)
        trace = generate_trace(
            2, mtbf, horizon, seed=seed,
            correlated=CorrelatedFailures(burst_mtbf=math.inf,
                                          intensity=0.0, base_shape=shape),
        )
        for node in range(2):
            rng = np.random.default_rng([seed, node, 7])
            expected = []
            current = 0.0
            while True:
                current += float(scale * rng.weibull(shape))
                if current > horizon:
                    break
                expected.append(current)
            assert list(trace.failures_of(node)) == expected


class TestTraceSetCache:
    def test_same_key_returns_same_object(self):
        a = cached_trace_set(3, 77.0, 5000.0, count=2, base_seed=1)
        b = cached_trace_set(3, 77.0, 5000.0, count=2, base_seed=1)
        assert a is b

    def test_distinct_keys_do_not_collide(self):
        a = cached_trace_set(3, 77.0, 5000.0, count=2, base_seed=1)
        b = cached_trace_set(3, 77.0, 5000.0, count=2, base_seed=2)
        assert a is not b
        assert a[0].node_failures != b[0].node_failures

    def test_matches_uncached_generation(self):
        cached = cached_trace_set(2, 55.0, 3000.0, count=2, base_seed=4)
        fresh = generate_trace_set(2, 55.0, 3000.0, count=2, base_seed=4)
        assert [t.node_failures for t in cached] == \
            [t.node_failures for t in fresh]


class TestExtensionWriteBack:
    """Satellite fix: extended traces flow back into the shared set."""

    def test_execute_many_writes_back_into_a_list(self, chain):
        cluster = Cluster(nodes=1, mttr=0.0)
        engine = SimulatedEngine(cluster)
        configured = NoMatLineage().configure(chain, cluster.stats(40.0))
        # horizon far below the ~300 s runtime forces an extension
        traces = generate_trace_set(1, 40.0, 50.0, count=2, base_seed=0)
        horizons_before = [t.horizon for t in traces]
        engine.execute_many(engine.prepare(configured), traces)
        assert all(t.horizon > h
                   for t, h in zip(traces, horizons_before))
        # prefix-stability: the extended traces still carry their seeds
        assert all(t.seed == index for index, t in enumerate(traces))

    def test_immutable_trace_sets_still_work(self, chain):
        cluster = Cluster(nodes=1, mttr=0.0)
        engine = SimulatedEngine(cluster)
        configured = NoMatLineage().configure(chain, cluster.stats(40.0))
        traces = tuple(
            generate_trace_set(1, 40.0, 50.0, count=2, base_seed=0)
        )
        batch = engine.execute_many(engine.prepare(configured), traces)
        assert len(batch.finished_runtimes) == 2
        # a tuple cannot take the write-back: it keeps its short traces
        assert all(t.horizon == 50.0 for t in traces)


class TestBaselineMemo:
    def test_identical_plans_share_the_baseline(self, cluster):
        plan_a = linear_plan([(10.0, 1.0), (20.0, 2.0)])
        plan_b = linear_plan([(10.0, 1.0), (20.0, 2.0)])
        engine = SimulatedEngine(cluster)
        first = pure_baseline_runtime(plan_a, engine,
                                      cluster.stats(100.0))
        second = pure_baseline_runtime(plan_b, engine,
                                       cluster.stats(999.0))
        assert first == second

    def test_different_const_pipe_does_not_collide(self, cluster):
        # CONST_pipe changes the collapsed pipeline's runtime, so it is
        # part of the memo key -- engines must not share entries
        plan = linear_plan([(10.0, 0.0), (20.0, 0.0)])
        a = pure_baseline_runtime(
            plan, SimulatedEngine(cluster), cluster.stats(100.0)
        )
        b = pure_baseline_runtime(
            plan, SimulatedEngine(cluster, const_pipe=0.5),
            cluster.stats(100.0)
        )
        assert b == pytest.approx(0.5 * a)


class TestCompareSchemes:
    def test_jobs_equal_serial(self, chain, cluster):
        schemes = standard_schemes()
        serial = compare_schemes(schemes, chain, "chain", cluster,
                                 mtbf=150.0, trace_count=3)
        parallel = compare_schemes(schemes, chain, "chain", cluster,
                                   mtbf=150.0, trace_count=3, jobs=2)
        assert serial == parallel

    def test_precomputed_baseline_is_used(self, chain, cluster):
        rows = compare_schemes([NoMatLineage()], chain, "chain", cluster,
                               mtbf=1e12, trace_count=1, baseline=600.0)
        # no-mat runs 300 s against the supplied 600 s baseline: -50 %
        assert rows[0].overhead_percent == pytest.approx(-50.0)


class TestCampaignMap:
    def test_preserves_order(self):
        items = list(range(20))
        assert campaign_map(_square, items) == [i * i for i in items]

    def test_jobs_equal_serial(self):
        items = list(range(20))
        assert campaign_map(_square, items, jobs=4) == \
            campaign_map(_square, items, jobs=1)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            campaign_map(_square, [1], jobs=0)


def _square(value):
    return value * value


#: a standalone program: ``campaign_map`` over a task whose first
#: attempt at item 3 hard-kills its worker (the marker file makes every
#: later attempt, and the serial reference, survive)
_CRASH_ONCE_SCRIPT = '''
import json
import multiprocessing
import os
import sys

from repro import obs
from repro.chaos.inject import crash_worker_process
from repro.engine.campaign import campaign_map

MARKER = sys.argv[1]


def crash_once(value):
    if value == 3:
        try:
            os.close(os.open(MARKER, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            crash_worker_process(17)
    return value * value


if __name__ == "__main__":
    if len(sys.argv) > 2:
        multiprocessing.set_start_method(sys.argv[2])
    with obs.recording() as recorder:
        pooled = campaign_map(crash_once, range(8), jobs=2)
    serial = campaign_map(crash_once, range(8), jobs=1)
    print(json.dumps({
        "pooled": pooled,
        "serial": serial,
        "retries": recorder.counters.get("campaign.retries", 0),
    }))
'''


class TestCampaignMapWorkerCrash:
    def test_dying_worker_is_retried(self, tmp_path):
        self._run_crash_once(tmp_path)

    def test_dying_worker_is_retried_under_spawn(self, tmp_path):
        self._run_crash_once(tmp_path, "spawn")

    def _run_crash_once(self, tmp_path, *start_method):
        # in a subprocess with a timeout: a pool without a retry path
        # never returns once a worker hard-exits under an item
        script = tmp_path / "crash_once.py"
        script.write_text(_CRASH_ONCE_SCRIPT)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        try:
            proc = subprocess.run(
                [sys.executable, str(script), str(tmp_path / "crashed"),
                 *start_method],
                env=env, capture_output=True, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("campaign_map hung after a worker died")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["pooled"] == report["serial"]
        assert report["serial"] == [value * value for value in range(8)]
        assert report["retries"] >= 1


class TestMutedTimeline:
    def test_muted_engine_matches_recording_engine(self, chain, cluster):
        stats = cluster.stats(120.0)
        recording = SimulatedEngine(cluster)
        muted = SimulatedEngine(cluster, record_events=False)
        configured = AllMat().configure(chain, stats)
        trace = generate_trace(cluster.nodes, 120.0, 20_000.0, seed=2)
        loud = recording.execute(configured, trace)
        quiet = muted.execute(configured, trace)
        assert loud.runtime == quiet.runtime
        assert loud.share_restarts == quiet.share_restarts
        assert len(loud.timeline) > 0
        assert len(quiet.timeline) == 0
        assert isinstance(quiet.timeline, MutedTimeline)


class TestExperimentsParallelEqualSerial:
    """Each ported experiment yields identical results at any job count."""

    def test_fig11_small(self):
        from repro.experiments import fig11_mtbf

        kwargs = dict(scale_factor=10.0, trace_count=2,
                      mtbfs=(("A", 3600.0), ("B", 600.0)))
        assert fig11_mtbf.run(**kwargs) == \
            fig11_mtbf.run(jobs=3, **kwargs)

    def test_tab3_jobs_equal(self):
        from repro.experiments import tab3_robustness

        serial = tab3_robustness.run(scale_factor=10.0, factors=(0.5, 2))
        parallel = tab3_robustness.run(scale_factor=10.0,
                                       factors=(0.5, 2), jobs=4)
        assert serial == parallel

    def test_workload_jobs_equal(self):
        from repro.workloads import compare_workload, generate_mixed_workload

        workload = generate_mixed_workload(count=3, seed=5)
        cluster = Cluster(nodes=4, mttr=1.0)
        serial = compare_workload(workload, cluster, mtbf=3600.0, seed=5)
        parallel = compare_workload(workload, cluster, mtbf=3600.0,
                                    seed=5, jobs=4)
        assert serial == parallel


class TestTraceCacheIntrospection:
    """The shared trace-set cache exposes (and earns) its hit counts."""

    def test_stats_count_misses_then_hits(self, chain, cluster):
        from repro.engine.traces import (
            reset_trace_cache,
            trace_cache_stats,
        )

        reset_trace_cache()
        cached_trace_set(nodes=3, mtbf=200.0, horizon=50_000.0,
                         count=4, base_seed=3)
        after_first = trace_cache_stats()
        assert after_first["misses"] == 1
        assert after_first["hits"] == 0
        cached_trace_set(nodes=3, mtbf=200.0, horizon=50_000.0,
                         count=4, base_seed=3)
        after_second = trace_cache_stats()
        assert after_second["misses"] == 1
        assert after_second["hits"] == 1
        reset_trace_cache()
        assert trace_cache_stats() == {"hits": 0, "misses": 0,
                                       "evictions": 0}

    def test_campaign_cells_share_one_generation(self, chain, cluster):
        from repro.engine.traces import (
            reset_trace_cache,
            trace_cache_stats,
        )

        reset_trace_cache()
        cells = [_cell(chain, mtbf=150.0, base_seed=5,
                       schemes=(AllMat(), NoMatLineage()))]
        run_campaign(cells, cluster, jobs=1)
        stats = trace_cache_stats()
        # one generation for the cell, then every further scheme/unit
        # rides the cache
        assert stats["misses"] == 1
        assert stats["hits"] >= 1
        reset_trace_cache()

    def test_cache_counters_mirror_into_obs(self, chain, cluster):
        from repro import obs
        from repro.engine.traces import reset_trace_cache

        reset_trace_cache()
        obs.disable()
        with obs.recording() as recorder:
            run_campaign([_cell(chain, mtbf=150.0, base_seed=9)],
                         cluster, jobs=1)
            counters = dict(recorder.counters)
        obs.disable()
        reset_trace_cache()
        assert counters.get("cache.trace_set.miss", 0) >= 1
        assert counters.get("cache.trace_set.hit", 0) >= 1
