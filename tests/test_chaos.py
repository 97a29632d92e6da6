"""Tests for the chaos layer (repro.chaos + its engine hooks).

The locked-down contract:

* a *zero-rate* policy is bit-identical to running without the chaos
  layer at all -- trace generation, executor, campaign and CLI alike;
* injections only ever make runs *slower*, never abort them -- flaky
  writes fall back to re-execution from durable ancestors, stragglers
  stretch shares;
* worker-crash injection is confined to pool worker processes: bounded
  retries with backoff, then serial fallback -- no lost cells, no hang,
  and the merged rows equal the clean ``jobs=1`` run;
* every injection decision is keyed by (seed, structural key), so the
  same policy produces the same faults in any process at any job count.
"""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.chaos import (
    ChaosRun,
    CorrelatedFailures,
    FaultPolicy,
    FlakyWrites,
    PRESET_NAMES,
    Stragglers,
    WorkerCrashes,
    preset,
    worker_crash_decision,
)
from repro.cli import main
from repro.core import pool
from repro.core.plan import linear_plan
from repro.core.strategies import AllMat, NoMatRestart
from repro.engine.campaign import CampaignCell, run_campaign
from repro.engine.cluster import Cluster
from repro.engine.traces import (
    cached_trace_set,
    extend_trace,
    generate_trace,
)
from repro.engine.executor import SimulatedEngine


@pytest.fixture
def chain():
    return linear_plan([(100.0, 5.0), (100.0, 5.0), (100.0, 5.0)])


@pytest.fixture
def cluster():
    return Cluster(nodes=3, mttr=1.0)


def _cell(chain, mtbf=150.0, base_seed=0, trace_count=3, **kwargs):
    return CampaignCell(label="chain", plan=chain, mtbf=mtbf,
                        trace_count=trace_count, base_seed=base_seed,
                        **kwargs)


def _null_policy() -> FaultPolicy:
    """Every component present, every rate zero: must inject nothing."""
    return FaultPolicy(
        seed=3,
        correlated=CorrelatedFailures(burst_mtbf=100.0, intensity=0.0),
        flaky_writes=FlakyWrites(rate=0.0),
        stragglers=Stragglers(rate=0.0, factor=2.0),
        worker_crashes=WorkerCrashes(rate=0.0),
    )


# ----------------------------------------------------------------------
# policy vocabulary
# ----------------------------------------------------------------------
class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"burst_mtbf": 0.0},
        {"burst_mtbf": -5.0},
        {"burst_mtbf": 100.0, "intensity": -0.1},
        {"burst_mtbf": 100.0, "intensity": 1.5},
        {"burst_mtbf": 100.0, "rack_size": 0},
        {"burst_mtbf": 100.0, "jitter": -1.0},
        {"burst_mtbf": 100.0, "base_shape": 0.0},
    ])
    def test_correlated_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            CorrelatedFailures(**kwargs)

    @pytest.mark.parametrize("cls,kwargs", [
        (FlakyWrites, {"rate": -0.1}),
        (FlakyWrites, {"rate": 1.1}),
        (FlakyWrites, {"rate": 0.5, "max_failures": 0}),
        (Stragglers, {"rate": 2.0}),
        (Stragglers, {"rate": 0.5, "factor": 0.5}),
        (WorkerCrashes, {"rate": -1.0}),
    ])
    def test_components_reject_bad_rates(self, cls, kwargs):
        with pytest.raises(ValueError):
            cls(**kwargs)

    def test_policy_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            FaultPolicy(seed=-1)

    def test_null_policy_is_null(self):
        assert FaultPolicy().is_null()
        assert _null_policy().is_null()
        assert not _null_policy().sim_active()
        assert not _null_policy().trace_active()
        assert not _null_policy().pool_active()

    def test_activity_flags(self):
        assert FaultPolicy(
            flaky_writes=FlakyWrites(rate=0.1)
        ).sim_active()
        assert FaultPolicy(
            stragglers=Stragglers(rate=0.1)
        ).sim_active()
        assert FaultPolicy(
            correlated=CorrelatedFailures(burst_mtbf=10.0)
        ).trace_active()
        # a pure base-distribution swap also goes through the traces
        assert FaultPolicy(correlated=CorrelatedFailures(
            burst_mtbf=10.0, intensity=0.0, base_shape=0.7,
        )).trace_active()
        assert FaultPolicy(
            worker_crashes=WorkerCrashes(rate=0.1)
        ).pool_active()

    def test_every_preset_builds(self):
        for name in PRESET_NAMES:
            policy = preset(name, seed=4, mtbf=1800.0)
            assert isinstance(policy, FaultPolicy)
            assert policy.seed == 4
        assert preset("none").is_null()
        assert not preset("all").is_null()

    def test_unknown_preset_is_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            preset("nope")


class TestEffectiveMtbf:
    def test_inactive_spec_keeps_the_base(self):
        spec = CorrelatedFailures(burst_mtbf=100.0, intensity=0.0)
        assert spec.effective_mtbf(10, 3600.0) == 3600.0

    def test_bursts_lower_the_effective_mtbf(self):
        spec = CorrelatedFailures(burst_mtbf=1800.0, rack_size=3)
        effective = spec.effective_mtbf(10, 3600.0)
        assert effective < 3600.0
        # rate algebra: 1/3600 + 1.0 * 3 / (1800 * 10)
        assert effective == 1.0 / (1.0 / 3600.0 + 3.0 / 18000.0)

    def test_rack_wider_than_cluster_is_clamped(self):
        wide = CorrelatedFailures(burst_mtbf=1800.0, rack_size=50)
        clamped = CorrelatedFailures(burst_mtbf=1800.0, rack_size=4)
        assert wide.effective_mtbf(4, 3600.0) == \
            clamped.effective_mtbf(4, 3600.0)

    def test_rejects_bad_arguments(self):
        spec = CorrelatedFailures(burst_mtbf=100.0)
        with pytest.raises(ValueError):
            spec.effective_mtbf(0, 3600.0)
        with pytest.raises(ValueError):
            spec.effective_mtbf(10, 0.0)


# ----------------------------------------------------------------------
# correlated trace generation
# ----------------------------------------------------------------------
class TestCorrelatedTraces:
    def test_zero_intensity_matches_plain_trace(self):
        spec = CorrelatedFailures(burst_mtbf=50.0, intensity=0.0)
        for seed in range(3):
            plain = generate_trace(4, 200.0, 5000.0, seed=seed)
            injected = generate_trace(
                4, 200.0, 5000.0, seed=seed, correlated=spec, chaos_seed=9,
            )
            assert injected.node_failures == plain.node_failures
            assert injected.injected == 0

    def test_bursts_only_add_failures(self):
        spec = CorrelatedFailures(burst_mtbf=300.0, rack_size=2)
        base = generate_trace(4, 500.0, 8000.0, seed=11)
        injected = generate_trace(
            4, 500.0, 8000.0, seed=11, correlated=spec,
        )
        added = 0
        for node in range(4):
            base_set = set(base.failures_of(node))
            injected_set = set(injected.failures_of(node))
            assert base_set <= injected_set
            added += len(injected_set - base_set)
        assert added == injected.injected > 0

    def test_zero_jitter_bursts_are_rack_scoped(self):
        # jitter=0 fails the whole rack at the exact burst time, so
        # every injected timestamp appears on exactly rack_size nodes
        spec = CorrelatedFailures(burst_mtbf=500.0, rack_size=3,
                                  jitter=0.0)
        nodes = 5
        base = generate_trace(nodes, 1e9, 8000.0, seed=1)
        injected = generate_trace(
            nodes, 1e9, 8000.0, seed=1, correlated=spec,
        )
        assert all(not failures for failures in base.node_failures)
        burst_times: dict = {}
        for node in range(nodes):
            for when in injected.failures_of(node):
                burst_times[when] = burst_times.get(when, 0) + 1
        assert burst_times
        assert all(count == 3 for count in burst_times.values())

    def test_extension_is_prefix_stable(self):
        spec = CorrelatedFailures(burst_mtbf=200.0, rack_size=2,
                                  jitter=1.5)
        short = generate_trace(
            3, 300.0, 3000.0, seed=6, correlated=spec, chaos_seed=2,
        )
        longer = extend_trace(short, 9000.0)
        assert longer.horizon == 9000.0
        assert longer.correlated == spec
        assert longer.chaos_seed == 2
        for node in range(3):
            prefix = [f for f in longer.failures_of(node) if f <= 3000.0]
            assert tuple(prefix) == short.failures_of(node)

    def test_trace_set_cache_keys_include_the_overlay(self):
        spec = CorrelatedFailures(burst_mtbf=100.0)
        clean = cached_trace_set(3, 400.0, 4000.0, count=2, base_seed=31)
        chaotic = cached_trace_set(3, 400.0, 4000.0, count=2,
                                   base_seed=31, correlated=spec)
        reseeded = cached_trace_set(3, 400.0, 4000.0, count=2,
                                    base_seed=31, correlated=spec,
                                    chaos_seed=1)
        assert clean is not chaotic
        assert chaotic is not reseeded
        assert chaotic[0].injected > 0
        assert clean[0].injected == 0


# ----------------------------------------------------------------------
# executor-level injections
# ----------------------------------------------------------------------
class TestChaosRun:
    def test_inactive_policies_create_nothing(self):
        assert ChaosRun.create(None, 0) is None
        assert ChaosRun.create(_null_policy(), 0) is None
        # trace/pool-only policies have no executor-level component
        assert ChaosRun.create(preset("rack-bursts"), 0) is None

    def test_straggler_decisions_are_keyed_not_stateful(self):
        policy = FaultPolicy(seed=5, stragglers=Stragglers(rate=0.5,
                                                           factor=3.0))
        one = ChaosRun.create(policy, 17)
        two = ChaosRun.create(policy, 17)
        factors = [one.straggler_factor(node) for node in range(8)]
        # any order, any instance: same answers
        assert [two.straggler_factor(node)
                for node in reversed(range(8))] == factors[::-1]
        assert set(factors) == {1.0, 3.0}

    def test_write_failures_monotone_in_rate(self):
        low = ChaosRun.create(
            FaultPolicy(seed=2, flaky_writes=FlakyWrites(rate=0.2)), 4)
        high = ChaosRun.create(
            FaultPolicy(seed=2, flaky_writes=FlakyWrites(rate=0.8)), 4)
        for anchor in range(4):
            for node in range(4):
                for attempt in range(4):
                    if low.write_fails(anchor, node, attempt):
                        assert high.write_fails(anchor, node, attempt)

    def test_write_failures_respect_the_bound(self):
        run = ChaosRun.create(
            FaultPolicy(seed=0, flaky_writes=FlakyWrites(
                rate=1.0, max_failures=3,
            )), 0)
        assert all(run.write_fails(1, 0, attempt) for attempt in range(3))
        assert not run.write_fails(1, 0, 3)

    def test_crash_decision_is_deterministic(self):
        decisions = [worker_crash_decision(7, 0.4, 0, unit)
                     for unit in range(16)]
        assert decisions == [worker_crash_decision(7, 0.4, 0, unit)
                             for unit in range(16)]
        assert any(decisions) and not all(decisions)
        assert not worker_crash_decision(7, 0.0, 0, 0)
        assert worker_crash_decision(7, 1.0, 3, 5)


class TestExecutorInjections:
    def _runtime(self, chain, cluster, policy, scheme=AllMat()):
        engine = SimulatedEngine(cluster, chaos=policy)
        stats = cluster.stats(150.0)
        configured = scheme.configure(chain, stats)
        return engine.execute(configured)

    def test_null_policy_is_bit_identical(self, chain, cluster):
        trace = generate_trace(cluster.nodes, 150.0, 50_000.0, seed=3)
        stats = cluster.stats(150.0)
        configured = AllMat().configure(chain, stats)
        clean = SimulatedEngine(cluster).execute(configured, trace)
        nulled = SimulatedEngine(cluster,
                                 chaos=_null_policy()).execute(
            configured, trace)
        assert clean.runtime == nulled.runtime
        assert clean.share_restarts == nulled.share_restarts

    def test_universal_stragglers_double_the_runtime(self, chain,
                                                     cluster):
        policy = FaultPolicy(stragglers=Stragglers(rate=1.0, factor=2.0))
        clean = self._runtime(chain, cluster, None)
        slow = self._runtime(chain, cluster, policy)
        assert slow.runtime == 2.0 * clean.runtime
        assert not slow.aborted

    def test_partial_stragglers_never_speed_up(self, chain, cluster):
        policy = FaultPolicy(seed=1, stragglers=Stragglers(rate=0.4,
                                                           factor=3.0))
        clean = self._runtime(chain, cluster, None)
        slow = self._runtime(chain, cluster, policy)
        assert slow.runtime >= clean.runtime

    def test_stragglers_stretch_coarse_restart_too(self, chain, cluster):
        policy = FaultPolicy(stragglers=Stragglers(rate=1.0, factor=2.0))
        clean = self._runtime(chain, cluster, None,
                              scheme=NoMatRestart())
        slow = self._runtime(chain, cluster, policy,
                             scheme=NoMatRestart())
        assert slow.runtime == 2.0 * clean.runtime

    def test_flaky_writes_pay_but_never_abort(self, chain, cluster):
        policy = FaultPolicy(flaky_writes=FlakyWrites(rate=1.0,
                                                      max_failures=2))
        clean = self._runtime(chain, cluster, None)
        flaky = self._runtime(chain, cluster, policy)
        assert flaky.runtime > clean.runtime
        assert not flaky.aborted

    def test_injection_counters_fire(self, chain, cluster):
        policy = FaultPolicy(
            flaky_writes=FlakyWrites(rate=1.0, max_failures=1),
            stragglers=Stragglers(rate=1.0, factor=2.0),
        )
        with obs.recording() as recorder:
            self._runtime(chain, cluster, policy)
            counters = recorder.summary()["counters"]
        assert counters["chaos.injected.write_failures"] > 0
        assert counters["sim.fallbacks"] == \
            counters["chaos.injected.write_failures"]
        assert counters["chaos.injected.straggler_shares"] > 0

    def test_burst_counter_rides_on_the_trace(self, chain, cluster):
        spec = CorrelatedFailures(burst_mtbf=400.0, rack_size=2)
        trace = generate_trace(
            cluster.nodes, 1e8, 100_000.0, seed=0, correlated=spec,
        )
        stats = cluster.stats(1e8)
        configured = AllMat().configure(chain, stats)
        with obs.recording() as recorder:
            SimulatedEngine(cluster).execute(configured, trace)
            counters = recorder.summary()["counters"]
        assert counters["chaos.injected.burst_failures"] == trace.injected


# ----------------------------------------------------------------------
# campaign-level chaos
# ----------------------------------------------------------------------
class TestCampaignChaos:
    def test_zero_rate_policy_equals_no_policy(self, chain, cluster):
        cells = [_cell(chain), _cell(chain, mtbf=400.0, base_seed=5)]
        clean = run_campaign(cells, cluster)
        nulled = run_campaign(cells, cluster, chaos=_null_policy())
        assert clean == nulled

    def test_baselines_stay_chaos_free(self, chain, cluster):
        policy = FaultPolicy(stragglers=Stragglers(rate=1.0, factor=4.0))
        clean = run_campaign([_cell(chain)], cluster)
        chaotic = run_campaign([_cell(chain)], cluster, chaos=policy)
        assert [r.baseline for r in chaotic] == \
            [r.baseline for r in clean]
        assert all(c.mean_runtime >= r.mean_runtime
                   for c, r in zip(chaotic, clean))
        assert any(c.mean_runtime > r.mean_runtime
                   for c, r in zip(chaotic, clean)
                   if math.isfinite(c.mean_runtime))

    def test_chaotic_campaign_jobs_equal(self, chain, cluster):
        policy = preset("all", seed=2, mtbf=150.0)
        cells = [_cell(chain, trace_count=2),
                 _cell(chain, mtbf=300.0, base_seed=3, trace_count=2)]
        assert run_campaign(cells, cluster, chaos=policy, jobs=3) == \
            run_campaign(cells, cluster, chaos=policy, jobs=1)


class TestWorkerCrashes:
    """The pool-resilience acceptance bar: a crashing worker costs
    retries, never rows."""

    @pytest.fixture(autouse=True)
    def _no_backoff(self, monkeypatch):
        monkeypatch.setattr(pool, "RETRY_BACKOFF", 0.0)

    def test_certain_crashes_degrade_to_serial(self, chain, cluster,
                                               monkeypatch):
        monkeypatch.setattr(pool, "MAX_RETRIES", 2)
        policy = FaultPolicy(seed=7,
                             worker_crashes=WorkerCrashes(rate=1.0))
        cells = [_cell(chain, trace_count=2),
                 _cell(chain, base_seed=5, trace_count=2),
                 _cell(chain, base_seed=9, trace_count=2)]
        clean = run_campaign(cells, cluster, jobs=1)
        with obs.recording() as recorder:
            crashed = run_campaign(cells, cluster, jobs=2, chaos=policy)
            counters = recorder.summary()["counters"]
        assert crashed == clean
        # 3 chunks survive 2 retry rounds, then all fall back serially
        assert counters["campaign.retries"] == 6
        assert counters["campaign.serial_fallbacks"] == 3
        assert "campaign.unit_errors" not in counters

    def test_partial_crashes_retry_and_recover(self, chain, cluster):
        policy = FaultPolicy(seed=3,
                             worker_crashes=WorkerCrashes(rate=0.5))
        cells = [_cell(chain, base_seed=seed, trace_count=2)
                 for seed in (0, 4, 8, 12)]
        clean = run_campaign(cells, cluster, jobs=1)
        crashed = run_campaign(cells, cluster, jobs=2, chaos=policy)
        assert crashed == clean

    def test_serial_path_never_crashes(self, chain, cluster):
        policy = FaultPolicy(seed=0,
                             worker_crashes=WorkerCrashes(rate=1.0))
        clean = run_campaign([_cell(chain)], cluster, jobs=1)
        assert run_campaign([_cell(chain)], cluster, jobs=1,
                            chaos=policy) == clean


@pytest.mark.usefixtures("spawn_pool")
class TestWorkerCrashesSpawn(TestWorkerCrashes):
    """The same bar with workers started by ``spawn``."""


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestChaosCLI:
    def test_chaos_drill_runs(self, capsys):
        assert main([
            "chaos", "--query", "Q3", "--scale-factor", "5",
            "--traces", "2", "--preset", "flaky-writes",
            "--mtbf", "30m",
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos drill" in out
        assert "injected" in out
        assert "chaos.injected.write_failures" in out

    def test_null_drill_reports_identity(self, capsys):
        assert main([
            "chaos", "--query", "Q3", "--scale-factor", "5",
            "--traces", "2", "--mtbf", "30m",
        ]) == 0
        out = capsys.readouterr().out
        assert "injects nothing" in out

    def test_individual_knobs_layer_on_presets(self, capsys):
        assert main([
            "chaos", "--query", "Q3", "--scale-factor", "5",
            "--traces", "2", "--mtbf", "30m",
            "--straggler-rate", "1.0", "--straggler-factor", "2.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos.injected.straggler_shares" in out

    def test_burst_knobs_build_an_overlay(self, capsys):
        assert main([
            "chaos", "--query", "Q3", "--scale-factor", "5",
            "--traces", "2", "--mtbf", "30m",
            "--burst-mtbf", "5m", "--rack-size", "2",
            "--burst-intensity", "1.0", "--burst-jitter", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos.injected.burst_failures" in out

    def test_worker_crash_drill_degrades_and_finishes(self, capsys):
        assert main([
            "chaos", "--query", "Q3", "--scale-factor", "5",
            "--traces", "2", "--mtbf", "30m", "--jobs", "2",
            "--worker-crash-rate", "1.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign.retries" in out
        assert "campaign.serial_fallbacks" in out

    def test_invalid_knobs_exit_2(self, capsys):
        assert main([
            "chaos", "--query", "Q3", "--write-fail-rate", "1.5",
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_simulate_accepts_inject(self, capsys):
        assert main([
            "simulate", "--query", "Q3", "--scale-factor", "5",
            "--traces", "2", "--mtbf", "30m", "--inject", "stragglers",
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos preset 'stragglers'" in out

    def test_experiments_registry_includes_robustness(self, capsys):
        assert main(["experiments", "--list"]) == 0
        assert "robustness" in capsys.readouterr().out


class TestRobustnessExperiment:
    def test_quick_grid_reports_regret(self):
        from repro.chaos import FaultPolicy as Policy
        from repro.experiments import robustness

        regimes = (
            robustness.Regime("assumed (exponential)", None),
            robustness.Regime("stragglers", Policy(
                stragglers=Stragglers(rate=1.0, factor=2.0),
            )),
        )
        result = robustness.run(
            query="Q3", scale_factor=5.0, trace_count=2,
            regimes=regimes,
        )
        assert [row.regime for row in result.rows] == \
            ["assumed (exponential)", "stragglers"]
        for row in result.rows:
            assert row.chosen_config in result.config_labels
            assert row.oracle_config in result.config_labels
            assert row.regret >= 1.0
        table = robustness.format_table(result)
        assert "regret" in table and "stragglers" in table

    def test_effective_mtbf_is_reported_per_regime(self):
        from repro.experiments import robustness

        regimes = robustness.default_regimes(3600.0)
        names = [regime.name for regime in regimes]
        assert names[0] == "assumed (exponential)"
        burst = dict(zip(names, regimes))["rack bursts"]
        assert burst.policy is not None
        assert burst.policy.correlated.effective_mtbf(10, 3600.0) < 3600.0
