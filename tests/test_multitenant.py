"""Tests for the multi-tenant shared-cluster workload (PR 9).

Four batteries:

* **Determinism** -- ``jobs=N`` bit-identical to ``jobs=1`` for the
  full result (rows, per-class metrics, admission log); same seed, same
  result; a zero-churn run's measurement rows byte-identical to a plain
  :func:`~repro.engine.campaign.run_campaign` over the prepared cells.
* **Advisory resilience** -- an advisory request that sheds with
  :class:`~repro.serve.ServiceOverloaded` past its retry budget raises
  with the retry count in its message, and the retries are counted on
  ``workload.advice_retries``.
* **Metamorphic** -- with a fixed seed, higher spot churn never lowers
  any class's aggregate FT overhead (the chaos layer's superset
  guarantee composed through the whole pipeline); the priority admission
  queue never inverts (no query is admitted while a strictly
  higher-priority query is waiting) and never starves the top class.
* **Serve cache under mixed-tenant load** -- hammer the bounded-queue
  frontend with concurrent tenants and check the hit/miss/eviction
  counters stay consistent; two tenants submitting the *same canonical*
  request (different raw jitter) coalesce onto one search.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import random
import threading

import pytest

from repro import obs
from repro.core.cost_model import ClusterStats
from repro.engine.campaign import run_campaign
from repro.serve import (
    AdvisoryEngine,
    ServiceOverloaded,
    log_bucket_index,
)
from repro.stats.calibration import default_parameters
from repro.workload import (
    AdviceTraffic,
    DiurnalCycle,
    MultiTenantConfig,
    QueryArrival,
    arrival_stats,
    default_tenant_mix,
    generate_tenant_workload,
    prepare,
    resolve_advice,
    run_multitenant,
    simulate_admission,
    spot_fleet_policy,
)
from repro.workload.simulate import _request_stats
from repro.workload.tenants import _class_templates


def small_config(**overrides) -> MultiTenantConfig:
    """A fast-but-representative grid (~25 groups, 3 classes)."""
    base = dict(
        queries=150,
        trace_count=2,
        templates_per_class=2,
        seed=5,
    )
    base.update(overrides)
    return MultiTenantConfig(**base)


# ----------------------------------------------------------------------
# acceptance gates
# ----------------------------------------------------------------------
class TestQuickRunGates:
    def test_no_errors_and_a_warm_cache(self):
        """At the quick size (300 queries, 2 traces, 3 templates per
        class) every cell measures, every query finishes, and the skewed
        mix keeps the advice cache warm."""
        result = run_multitenant(MultiTenantConfig(
            queries=300, trace_count=2, templates_per_class=3,
            churn=0.5, seed=0,
        ))
        assert result.error_rows == 0
        assert result.failed_queries == 0
        assert result.advice.hit_rate >= 0.5


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_jobs4_bit_identical_to_jobs1(self):
        config = small_config()
        serial = run_multitenant(config, jobs=1)
        fanned = run_multitenant(config, jobs=4)
        assert serial == fanned
        assert serial.to_payload() == fanned.to_payload()

    def test_same_seed_reproducible(self):
        config = small_config()
        first = run_multitenant(config)
        second = run_multitenant(config)
        assert first == second
        reseeded = run_multitenant(small_config(seed=6))
        assert reseeded.to_payload() != first.to_payload()

    def test_zero_churn_rows_match_plain_campaign(self):
        config = small_config(churn=0.0)
        prepared = prepare(config)
        assert prepared.policy is None
        plain = run_campaign(list(prepared.cells), prepared.cluster)
        result = run_multitenant(config)
        assert result.rows == tuple(plain)

    def test_spot_policy_off_at_zero_churn(self):
        assert spot_fleet_policy(0.0, 3600.0) is None
        policy = spot_fleet_policy(0.7, 3600.0, seed=3)
        assert policy is not None
        assert policy.correlated.intensity == 0.7
        with pytest.raises(ValueError):
            spot_fleet_policy(1.5, 3600.0)

    def test_workload_generation_reproducible(self):
        first = generate_tenant_workload(count=80, seed=9)
        second = generate_tenant_workload(count=80, seed=9)
        assert first == second
        assert generate_tenant_workload(count=80, seed=10) != first
        times = [arrival.time for arrival in first.arrivals]
        assert times == sorted(times)


# ----------------------------------------------------------------------
# advisory resilience (sheds become error rows, not exceptions)
# ----------------------------------------------------------------------
def _blocked_engine(monkeypatch):
    """A started engine whose worker is stuck and whose queue is full.

    Every further submission of a key not already in flight sheds
    with :class:`ServiceOverloaded` until ``release`` is set.
    """
    engine = AdvisoryEngine(cache_size=64)
    started = threading.Event()
    release = threading.Event()
    original = AdvisoryEngine._compute

    def blocking_compute(self, plan, canonical, scheme):
        started.set()
        release.wait(30.0)
        return original(self, plan, canonical, scheme)

    monkeypatch.setattr(AdvisoryEngine, "_compute", blocking_compute)
    engine.start(workers=1, max_queue=1)
    return engine, started, release


class TestAdvisoryErrorRows:
    def test_shed_raises_with_retry_count(self, paper_plan, monkeypatch):
        engine, started, release = _blocked_engine(monkeypatch)
        stats = ClusterStats(mtbf=3600.0, mttr=1.0, nodes=4)
        try:
            first = engine.submit(paper_plan, stats)
            assert started.wait(10.0)   # worker busy on request 1
            second = engine.submit(paper_plan, stats,
                                    scheme="all-mat")  # queue now full
            with obs.recording() as recorder:
                with pytest.raises(ServiceOverloaded,
                                   match="after 2 retries"):
                    resolve_advice(engine, paper_plan, stats,
                                   scheme="no-mat (restart)",
                                   max_retries=2, retry_backoff=0.0)
            assert recorder.counters["workload.advice_retries"] == 2
        finally:
            release.set()
            first.result(timeout=30.0)
            second.result(timeout=30.0)
            engine.stop()

    def test_resolve_advice_uses_direct_path_when_not_started(
        self, paper_plan
    ):
        engine = AdvisoryEngine(cache_size=64)
        stats = ClusterStats(mtbf=3600.0, mttr=1.0, nodes=4)
        with obs.recording() as recorder:
            advice = resolve_advice(engine, paper_plan, stats)
        assert advice == engine.advise(paper_plan, stats)
        assert "workload.advice_retries" not in recorder.counters

    def test_resolve_advice_validates_budget(self, paper_plan):
        engine = AdvisoryEngine(cache_size=64)
        stats = ClusterStats(mtbf=3600.0, mttr=1.0, nodes=4)
        with pytest.raises(ValueError):
            resolve_advice(engine, paper_plan, stats, max_retries=-1)
        with pytest.raises(ValueError):
            resolve_advice(engine, paper_plan, stats,
                           retry_backoff=-0.1)


# ----------------------------------------------------------------------
# metamorphic properties
# ----------------------------------------------------------------------
class TestMetamorphic:
    def test_higher_churn_never_lowers_overhead(self):
        low = run_multitenant(small_config(churn=0.2))
        high = run_multitenant(small_config(churn=0.8))
        # the monotonicity argument needs the per-trace pairing intact:
        # an aborted run would drop entries from a runtimes tuple and
        # shift which trace each arrival replays
        assert low.aborted_runs == 0
        assert high.aborted_runs == 0
        assert low.error_rows == 0 and high.error_rows == 0
        for low_row, high_row in zip(low.rows, high.rows):
            for lo, hi in zip(low_row.runtimes, high_row.runtimes):
                assert hi >= lo - 1e-9
        for low_cls, high_cls in zip(low.classes, high.classes):
            assert high_cls.overhead_percent \
                >= low_cls.overhead_percent - 1e-9

    def test_priority_never_inverted_and_top_class_not_starved(self):
        config = small_config(slots=2, duration=28800.0)
        result = run_multitenant(config)
        records = result.admissions
        assert any(record.wait > 0 for record in records), (
            "contended grid expected; shrink slots/duration"
        )
        for record in records:
            assert record.admitted >= record.arrival
            assert record.finished >= record.admitted
        # no inversion: nobody is admitted while a strictly
        # higher-priority query that arrived earlier is still waiting
        for record in records:
            for other in records:
                if other.priority < record.priority:
                    assert not (other.arrival < record.admitted
                                and other.admitted > record.admitted), (
                        f"priority inversion: query {record.index} "
                        f"(prio {record.priority}) admitted at "
                        f"{record.admitted} while query {other.index} "
                        f"(prio {other.priority}) was waiting"
                    )
        by_priority = {cls.priority: cls for cls in result.classes}
        top = by_priority[min(by_priority)]
        bottom = by_priority[max(by_priority)]
        assert top.queries > 0
        assert top.failed == 0
        assert top.wait_mean <= bottom.wait_mean + 1e-9

    def test_diurnal_cycle_phases(self):
        cycle = DiurnalCycle()
        assert cycle.phases == 4
        assert cycle.phase_index(0.0) == 0
        assert cycle.phase_index(86399.0) == 3
        assert cycle.phase_index(86400.0) == 0  # wraps
        assert cycle.mtbf_at(1000.0, 0.0) == 1500.0
        day_peak = cycle.arrival_intensity(86400.0 * 0.6)
        night = cycle.arrival_intensity(0.0)
        assert day_peak > night
        with pytest.raises(ValueError):
            DiurnalCycle(mtbf_multipliers=(1.0, -1.0),
                         arrival_intensities=(1.0, 1.0))


# ----------------------------------------------------------------------
# serve cache metrics under concurrent mixed-tenant load
# ----------------------------------------------------------------------
class TestServeCacheUnderLoad:
    def test_hammer_counters_consistent(self):
        workload = generate_tenant_workload(count=120, seed=3,
                                            templates_per_class=2)
        engine = AdvisoryEngine(cache_size=4096)
        engine.start(workers=4, max_queue=512)
        diurnal = DiurnalCycle()
        requests = []
        for arrival in workload.arrivals:
            stats = ClusterStats(
                mtbf=diurnal.mtbf_at(3600.0, arrival.time)
                * arrival.mtbf_jitter,
                mttr=1.0 * arrival.mttr_jitter,
                nodes=10,
            )
            requests.append(
                (workload.templates[arrival.template_index].plan, stats)
            )
        advices = [None] * len(requests)
        errors = []

        def client(indices):
            for index in indices:
                plan, stats = requests[index]
                try:
                    advices[index] = resolve_advice(engine, plan, stats)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        try:
            with obs.recording() as recorder:
                threads = [
                    threading.Thread(
                        target=client,
                        args=(range(start, len(requests), 4),),
                    )
                    for start in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            engine.stop()
        assert not errors
        assert all(advice is not None for advice in advices)
        stats_now = engine.cache.stats()
        counters = recorder.counters
        # every request is exactly one cache hit or one cache miss
        assert stats_now["hits"] + stats_now["misses"] == len(requests)
        assert counters["serve.requests"] == len(requests)
        # every miss either ran a search or coalesced onto one
        assert stats_now["misses"] == (
            counters.get("serve.searches", 0)
            + counters.get("serve.coalesced", 0)
        )
        assert engine.searches == counters.get("serve.searches", 0)
        # the cache was big enough: nothing evicted, one entry per
        # distinct canonical identity
        assert stats_now["evictions"] == 0
        distinct = {
            engine.advice_key(plan, engine.canonical_stats(stats),
                              "cost-based")
            for plan, stats in requests
        }
        assert stats_now["size"] == len(distinct)
        # cached advice is shared: same canonical identity, same advice
        by_key = {}
        for (plan, stats), advice in zip(requests, advices):
            key = engine.advice_key(
                plan, engine.canonical_stats(stats), "cost-based"
            )
            assert by_key.setdefault(key, advice) == advice

    def test_single_flight_for_identical_canonical_request(
        self, paper_plan, monkeypatch
    ):
        engine = AdvisoryEngine(cache_size=64)
        started = threading.Event()
        release = threading.Event()
        compute_calls = []
        original = AdvisoryEngine._compute

        def counting_compute(self, plan, canonical, scheme):
            compute_calls.append(canonical)
            started.set()
            release.wait(30.0)
            return original(self, plan, canonical, scheme)

        monkeypatch.setattr(AdvisoryEngine, "_compute",
                            counting_compute)
        # two tenants, different raw monitoring reads, same bucket
        stats_a = ClusterStats(mtbf=3600.0, mttr=1.0, nodes=10)
        stats_b = ClusterStats(mtbf=3600.0 * 1.02, mttr=1.02, nodes=10)
        assert engine.canonical_stats(stats_a) \
            == engine.canonical_stats(stats_b)
        engine.start(workers=2, max_queue=8)
        try:
            with obs.recording() as recorder:
                first = engine.submit(paper_plan, stats_a)
                assert started.wait(10.0)  # leader is inside the search
                second = engine.submit(paper_plan, stats_b)
                release.set()
                advice_a = first.result(timeout=30.0)
                advice_b = second.result(timeout=30.0)
        finally:
            release.set()
            engine.stop()
        assert advice_a == advice_b
        assert len(compute_calls) == 1, (
            "two identical canonical requests must coalesce onto one "
            "search"
        )
        assert recorder.counters.get("serve.coalesced", 0) \
            + recorder.counters.get("serve.cache.hits", 0) == 1


# ----------------------------------------------------------------------
# advice traffic accounting
# ----------------------------------------------------------------------
class TestAdviceTrafficSearches:
    @pytest.mark.parametrize("cache_size", [0, 4])
    def test_searches_are_the_searches_the_engine_ran(self, cache_size):
        # a cache smaller than the working set evicts and searches a
        # group again, so the distinct groups undercount the searches
        config = MultiTenantConfig(queries=400, cache_size=cache_size)
        with obs.recording() as recorder:
            traced = prepare(config)
        searches = recorder.counters["serve.searches"]
        assert traced.advice.searches == searches
        assert searches > len(traced.groups)
        if cache_size == 0:
            assert searches == config.queries
        else:
            assert traced.advice.evictions > 0
            assert searches == traced.advice.misses
        # the tally needs no recorder
        assert prepare(config).advice == traced.advice


# ----------------------------------------------------------------------
# the flat passes against the per-arrival reference code
# ----------------------------------------------------------------------
def _reference_arrivals(classes, count, seed, duration,
                        templates_per_class, diurnal):
    """The per-call generator the flat one replaces: ``rng.choices``,
    ``rng.uniform`` and ``DiurnalCycle.arrival_intensity`` per arrival,
    after the same template draws."""
    rng = random.Random(seed)
    params = default_parameters()
    for index, tenant in enumerate(classes):
        _class_templates(tenant, index * templates_per_class,
                         templates_per_class, rng, params)
    peak = max(diurnal.arrival_intensities)
    times = []
    while len(times) < count:
        t = rng.uniform(0.0, duration)
        if rng.random() * peak <= diurnal.arrival_intensity(t):
            times.append(t)
    times.sort()
    arrivals = []
    for index, time_ in enumerate(times):
        tenant_index = rng.choices(range(len(classes)),
                                   [tenant.weight for tenant in classes])[0]
        tenant = classes[tenant_index]
        start = tenant_index * templates_per_class
        template_index = rng.choices(
            range(start, start + templates_per_class),
            [1.0 / (rank + 1) ** tenant.zipf_s
             for rank in range(templates_per_class)],
        )[0]
        arrivals.append((index, time_, tenant_index, tenant.priority,
                         template_index, rng.uniform(0.93, 1.07),
                         rng.uniform(0.9, 1.1)))
    return arrivals


def _reference_admission(arrivals, services, slots):
    """The event-by-event admission replay the column one replaces:
    ``(admitted, finished)`` per arrival."""
    out = [None] * len(arrivals)
    waiting, running, cursor = [], [], 0
    while cursor < len(arrivals) or waiting or running:
        next_arrival = (arrivals[cursor].time if cursor < len(arrivals)
                        else math.inf)
        if (running[0] if running else math.inf) <= next_arrival:
            now = heapq.heappop(running)
        else:
            now = next_arrival
            heapq.heappush(waiting, (arrivals[cursor].priority, cursor))
            cursor += 1
        while waiting and len(running) < slots:
            _, index = heapq.heappop(waiting)
            heapq.heappush(running, now + services[index])
            out[index] = (now, now + services[index])
    return out


def _edge_floats(resolution=8, decades=range(-4, 7)):
    """Every 10^(i/resolution) in ``decades``, the first float of
    bucket ``i`` (a few ulps from it) and that float's neighbours 1 ulp
    away."""
    values = []
    for index in range(decades.start * resolution,
                       decades.stop * resolution):
        edge = 10.0 ** (index / resolution)
        values.append(edge)
        while log_bucket_index(edge, resolution) >= index:
            edge = math.nextafter(edge, 0.0)
        while log_bucket_index(edge, resolution) < index:
            edge = math.nextafter(edge, math.inf)
        values += [math.nextafter(edge, 0.0), edge,
                   math.nextafter(edge, math.inf)]
    return values


class TestFlatPassesMatchReference:
    CYCLE = DiurnalCycle(period=3600.0,
                         mtbf_multipliers=(0.7, 1.3, 2.9),
                         arrival_intensities=(0.4, 2.5, 1.0))

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("classes", [1, 2, 3])
    @pytest.mark.parametrize("diurnal", [None, CYCLE])
    def test_generator(self, seed, classes, diurnal):
        mix = default_tenant_mix(classes)
        for count in (1, 2, 17, 5000):
            flat = generate_tenant_workload(
                classes=mix, count=count, seed=seed, duration=7200.0,
                templates_per_class=3, diurnal=diurnal)
            assert [tuple(arrival) for arrival in flat.arrivals] \
                == _reference_arrivals(mix, count, seed, 7200.0, 3,
                                       diurnal or DiurnalCycle())

    def test_bucket_edges_map_to_the_interned_canonical(self):
        """Arrivals whose MTBF or MTTR/MTBF ratio sits on a bucket edge,
        or 1 ulp beside it, send exactly the object the engine interns
        for their own ``arrival_stats``; ``mttr == 0`` too."""
        cycle = DiurnalCycle(period=3.0,
                             mtbf_multipliers=(1.0, 0.6, 1.7),
                             arrival_intensities=(1.0, 1.0, 1.0))
        edges = _edge_floats()
        # (base_mtbf, mttr) pairs: MTBF on an edge (ratio off it), the
        # ratio on an edge at MTBF 1 (where it is the MTTR itself), and
        # no repair delay
        cases = [(edge, 0.5) for edge in edges]
        cases += [(1.0, edge) for edge in edges]
        cases += [(edge, 0.0) for edge in edges[::7]]
        workload = generate_tenant_workload(count=1, seed=0,
                                            templates_per_class=1)
        # phase 0 multiplies by exactly 1.0 and jitters of 1.0 keep
        # the edges; the other times cover every phase, phase starts,
        # the wrap at the period and 1 ulp below it, and a time whose
        # position rounds to 1.0 (phase_index clamps it to the last)
        arrivals = tuple(
            QueryArrival(index, time_, 0, 0, 0, mtbf_jitter, mttr_jitter)
            for index, (time_, mtbf_jitter, mttr_jitter) in enumerate([
                (0.0, 1.0, 1.0), (0.5, 1.0, 1.0), (1.0, 1.0, 1.0),
                (2.0, 1.0, 1.0), (3.0, 1.0, 1.0),
                (math.nextafter(3.0, 0.0), 1.0, 1.0),
                (-1e-20, 1.0, 1.0), (1.5, 1.07, 0.9), (2.5, 0.93, 1.1),
            ])
        )
        workload = dataclasses.replace(workload, arrivals=arrivals)
        engine = AdvisoryEngine()
        for base_mtbf, mttr in cases:
            config = MultiTenantConfig(base_mtbf=base_mtbf, mttr=mttr,
                                       diurnal=cycle)
            sent = _request_stats(config, workload, engine)
            for arrival, stats in zip(arrivals, sent):
                assert stats is engine.canonical_stats(arrival_stats(
                    config, arrival.time, arrival.mtbf_jitter,
                    arrival.mttr_jitter))

    @pytest.mark.parametrize("engine_kwargs", [
        dict(bucketing=None), dict(cache_size=0), dict(cache_size=4),
        dict(),
    ])
    @pytest.mark.parametrize("started", [False, True])
    def test_prepare(self, engine_kwargs, started):
        config = MultiTenantConfig(queries=60, templates_per_class=2,
                                   seed=11, config_limit=64)

        def engine():
            made = AdvisoryEngine(config_limit=config.config_limit,
                                  **engine_kwargs)
            if started:
                made.start(workers=2, max_queue=256)
            return made

        reference_engine = engine()
        flat_engine = engine()
        try:
            workload = generate_tenant_workload(
                classes=config.tenant_classes, count=config.queries,
                seed=config.seed, duration=config.duration,
                templates_per_class=config.templates_per_class,
                diurnal=config.diurnal)
            groups = {}
            for arrival in workload.arrivals:
                advice = resolve_advice(
                    reference_engine,
                    workload.templates[arrival.template_index].plan,
                    arrival_stats(config, arrival.time,
                                  arrival.mtbf_jitter,
                                  arrival.mttr_jitter))
                key = (arrival.template_index, advice.canonical_mtbf,
                       advice.canonical_mttr)
                groups.setdefault(key, (advice, []))[1].append(
                    arrival.index)
            prepared = prepare(config, engine=flat_engine)
        finally:
            reference_engine.stop()
            flat_engine.stop()
        assert [
            ((group.template_index, group.canonical_mtbf,
              group.canonical_mttr), (group.advice, list(group.arrivals)))
            for group in prepared.groups
        ] == list(groups.items())
        cache = (reference_engine.cache.stats()
                 if reference_engine.cache is not None else
                 {"hits": 0, "misses": config.queries, "evictions": 0})
        assert prepared.advice == AdviceTraffic(
            requests=config.queries, hits=cache["hits"],
            misses=cache["misses"], evictions=cache["evictions"],
            searches=reference_engine.searches)

    @pytest.mark.parametrize("slots", [1, 2, 5])
    def test_admission(self, slots):
        workload = generate_tenant_workload(count=400, seed=4,
                                            duration=3600.0)
        # whole-second arrivals and services make finish/arrival ties
        # common; zero services are the failed queries
        workload = dataclasses.replace(workload, arrivals=tuple(
            arrival._replace(time=float(math.floor(arrival.time)))
            for arrival in workload.arrivals))
        rng = random.Random(slots)
        services = [float(rng.choice([0, 0, 5, 20, 60]))
                    for _ in workload.arrivals]
        failed = [service == 0.0 for service in services]
        records = simulate_admission(workload, services, failed, slots)
        assert [(record.admitted, record.finished) for record in records] \
            == _reference_admission(workload.arrivals, services, slots)
        assert [(record.index, record.tenant_index, record.priority,
                 record.arrival, record.service, record.failed)
                for record in records] == [
            (arrival.index, arrival.tenant_index, arrival.priority,
             arrival.time, service, flag)
            for arrival, service, flag in zip(workload.arrivals, services,
                                              failed)]
        assert any(record.wait > 0 for record in records)
