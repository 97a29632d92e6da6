"""Tests for the advisory service (:mod:`repro.serve`).

Covers stats bucketing (boundary determinism, canonical round-trips),
the LRU advice cache (eviction order, counters), the engine's
single-flight dedup and cache-on/cache-off bit-identity, the queue
frontend (hits answered without a queue slot, counter invariants under
concurrent submits), and the HTTP frontend (round-trip, batch,
backpressure shed, error codes, keep-alive latency) with its event
loop's framing, in-order pipelining, slow-client timeouts and fairness
across connections.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core.cost_model import ClusterStats
from repro.core.enumeration import find_best_ft_plan
from repro.core.pruning import PruningConfig
from repro.core.serialize import plan_to_dict, stats_to_dict
from repro.serve import (
    SCHEME_NAMES,
    AdviceCache,
    AdvisoryEngine,
    ServiceOverloaded,
    StatsBucketing,
    direct_advice,
    log_bucket_index,
    log_bucket_representative,
)
from repro.serve.engine import _Pending
from repro.serve import app
from repro.serve.app import MAX_BODY_BYTES, create_server


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    obs.disable()
    yield
    obs.disable()


def small_engine(**kwargs) -> AdvisoryEngine:
    """An engine over the small test plans (fast, serial searches)."""
    kwargs.setdefault("cache_size", 64)
    return AdvisoryEngine(**kwargs)


# ----------------------------------------------------------------------
# stats bucketing
# ----------------------------------------------------------------------
class TestBucketing:
    def test_boundary_values_land_in_adjacent_buckets(self):
        # bucket k covers [10^(k/res), 10^((k+1)/res)): values clearly
        # on opposite sides of a boundary land in adjacent buckets, and
        # re-bucketing the same float is always stable (pure function)
        res = 8
        for k in (-3, 0, 7, 31):
            boundary = 10.0 ** (k / res)
            below = boundary * (1.0 - 1e-9)
            above = boundary * (1.0 + 1e-9)
            assert log_bucket_index(above, res) \
                == log_bucket_index(below, res) + 1
            for value in (below, boundary, above):
                assert log_bucket_index(value, res) \
                    == log_bucket_index(value, res)

    def test_representative_is_inside_its_bucket(self):
        res = 8
        for index in range(-10, 30):
            rep = log_bucket_representative(index, res)
            assert log_bucket_index(rep, res) == index

    def test_near_identical_stats_share_a_canonical(self):
        bucketing = StatsBucketing()
        a = ClusterStats(mtbf=86400.0, mttr=1.0, nodes=10)
        b = ClusterStats(mtbf=86900.0, mttr=1.05, nodes=10)
        assert bucketing.canonicalize(a) == bucketing.canonicalize(b)

    def test_distant_stats_get_distinct_canonicals(self):
        bucketing = StatsBucketing()
        a = ClusterStats(mtbf=3600.0, mttr=1.0, nodes=10)
        b = ClusterStats(mtbf=86400.0, mttr=1.0, nodes=10)
        assert bucketing.canonicalize(a) != bucketing.canonicalize(b)

    def test_zero_mttr_round_trips_exactly(self):
        bucketing = StatsBucketing()
        canonical = bucketing.canonicalize(
            ClusterStats(mtbf=3600.0, mttr=0.0, nodes=4)
        )
        assert canonical.mttr == pytest.approx(0.0, abs=0.0)

    def test_canonicalize_is_idempotent(self):
        bucketing = StatsBucketing()
        stats = ClusterStats(mtbf=5000.0, mttr=7.3, nodes=10)
        once = bucketing.canonicalize(stats)
        assert bucketing.canonicalize(once) == once

    def test_canonical_mtbf_within_bucket_width(self):
        bucketing = StatsBucketing(mtbf_resolution=8)
        width = 10.0 ** (1.0 / 8.0)
        for mtbf in (59.0, 3600.0, 86400.0, 604800.0):
            canonical = bucketing.canonical_mtbf(mtbf)
            assert canonical / mtbf < width
            assert mtbf / canonical < width

    def test_discrete_knobs_pass_through(self):
        bucketing = StatsBucketing()
        stats = ClusterStats(mtbf=3600.0, mttr=2.0, nodes=13,
                             const_pipe=0.8, success_percentile=0.9,
                             scale_mtbf_by_nodes=True)
        canonical = bucketing.canonicalize(stats)
        assert canonical.nodes == 13
        assert canonical.const_pipe == pytest.approx(0.8)
        assert canonical.success_percentile == pytest.approx(0.9)
        assert canonical.scale_mtbf_by_nodes is True

    def test_validation(self):
        with pytest.raises(ValueError):
            StatsBucketing(mtbf_resolution=0)
        with pytest.raises(ValueError):
            log_bucket_index(-1.0, 8)
        with pytest.raises(ValueError):
            log_bucket_index(10.0, 0)


# ----------------------------------------------------------------------
# the LRU cache
# ----------------------------------------------------------------------
class TestAdviceCache:
    def test_lru_eviction_order(self):
        cache = AdviceCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # freshens a: b is now the LRU
        cache.put("c", 3)
        assert cache.keys() == ["a", "c"]
        assert cache.get("b") is None
        assert cache.evictions == 1

    def test_counters(self):
        cache = AdviceCache(capacity=4)
        assert cache.get("missing") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1

    def test_obs_counters_fire(self):
        cache = AdviceCache(capacity=1)
        with obs.recording() as recorder:
            cache.get("nope")
            cache.put("a", 1)
            cache.get("a")
            cache.put("b", 2)  # evicts a
            counters = dict(recorder.snapshot().counters)
        assert counters["serve.cache.misses"] == 1
        assert counters["serve.cache.hits"] == 1
        assert counters["serve.cache.evictions"] == 1

    def test_put_refresh_does_not_grow(self):
        cache = AdviceCache(capacity=2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            AdviceCache(capacity=0)


# ----------------------------------------------------------------------
# the advisory engine
# ----------------------------------------------------------------------
class TestAdvisoryEngine:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_differential_grid_advice_equals_direct(
        self, paper_plan, chain_plan, scheme
    ):
        """Every (plan, stats, scheme) cell: engine == direct search."""
        engine = small_engine()
        grid = [
            (paper_plan, ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)),
            (paper_plan, ClusterStats(mtbf=3600.0, mttr=1.0, nodes=10)),
            (chain_plan, ClusterStats(mtbf=120.0, mttr=2.0, nodes=4)),
            (chain_plan, ClusterStats(mtbf=86400.0, mttr=1.0, nodes=10)),
        ]
        for plan, stats in grid:
            advice = engine.advise(plan, stats, scheme)
            again = engine.advise(plan, stats, scheme)  # cached path
            reference = direct_advice(plan, stats, engine, scheme)
            assert advice == reference
            assert again == reference

    def test_cost_based_advice_matches_find_best_ft_plan(
        self, paper_plan
    ):
        engine = small_engine()
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        advice = engine.advise(paper_plan, stats)
        result = find_best_ft_plan(
            [paper_plan], engine.canonical_stats(stats),
            pruning=PruningConfig.all(),
        )
        assert advice.cost == result.cost
        assert advice.mat_config == result.mat_config
        assert advice.materialized_ids == result.materialized_ids

    def test_cache_off_bit_identical_to_cache_on(self, paper_plan):
        cached = small_engine(cache_size=64)
        uncached = small_engine(cache_size=0)
        assert uncached.cache is None
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        for _ in range(3):
            assert cached.advise(paper_plan, stats) \
                == uncached.advise(paper_plan, stats)

    def test_bucketed_stats_hit_one_entry(self, paper_plan):
        engine = small_engine()
        a = engine.advise(
            paper_plan, ClusterStats(mtbf=86400.0, mttr=1.0, nodes=10)
        )
        b = engine.advise(
            paper_plan, ClusterStats(mtbf=86900.0, mttr=1.02, nodes=10)
        )
        assert a == b
        assert engine.cache.stats()["misses"] == 1
        assert engine.cache.stats()["hits"] == 1

    def test_no_bucketing_requires_exact_stats(self, paper_plan):
        engine = small_engine(bucketing=None)
        engine.advise(
            paper_plan, ClusterStats(mtbf=86400.0, mttr=1.0, nodes=10)
        )
        engine.advise(
            paper_plan, ClusterStats(mtbf=86900.0, mttr=1.0, nodes=10)
        )
        assert engine.cache.stats()["misses"] == 2

    def test_single_flight_dedups_concurrent_identical(
        self, paper_plan, monkeypatch
    ):
        """N concurrent identical requests -> exactly one search."""
        engine = small_engine()
        searches = []
        gate = threading.Event()
        original = AdvisoryEngine._compute

        def slow_compute(self, plan, canonical, scheme):
            searches.append(scheme)
            gate.wait(5.0)  # hold the leader until everyone queued up
            return original(self, plan, canonical, scheme)

        monkeypatch.setattr(AdvisoryEngine, "_compute", slow_compute)
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        results = []
        errors = []

        def request():
            try:
                results.append(engine.advise(paper_plan, stats))
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=request) for _ in range(8)]
        for thread in threads:
            thread.start()
        # wait until the leader is inside _compute and every follower
        # has had a chance to coalesce, then open the gate
        while not searches:
            pass
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        assert len(results) == 8
        assert len(set(results)) == 1  # Advice is frozen/hashable
        assert len(searches) == 1

    def test_distinct_keys_search_independently(self, paper_plan):
        engine = small_engine()
        with obs.recording() as recorder:
            engine.advise(
                paper_plan, ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
            )
            engine.advise(
                paper_plan, ClusterStats(mtbf=60.0, mttr=0.0, nodes=1),
                scheme="all-mat",
            )
            counters = dict(recorder.snapshot().counters)
        assert counters["serve.searches"] == 2
        assert counters["serve.requests"] == 2

    def test_errors_propagate_and_are_not_cached(
        self, paper_plan, monkeypatch
    ):
        engine = small_engine()
        calls = []
        original = AdvisoryEngine._compute

        def flaky_compute(self, plan, canonical, scheme):
            if self is engine:  # class-level patch also hits the
                calls.append(scheme)  # direct_advice reference engine
                if len(calls) == 1:
                    raise RuntimeError("transient")
            return original(self, plan, canonical, scheme)

        monkeypatch.setattr(AdvisoryEngine, "_compute", flaky_compute)
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        with pytest.raises(RuntimeError, match="transient"):
            engine.advise(paper_plan, stats)
        advice = engine.advise(paper_plan, stats)  # retried, not cached
        assert advice == direct_advice(paper_plan, stats, engine)
        assert len(calls) == 2

    def test_unknown_scheme_rejected(self, paper_plan):
        engine = small_engine()
        with pytest.raises(ValueError, match="unknown fault-tolerance"):
            engine.advise(
                paper_plan, ClusterStats(mtbf=60.0), scheme="nope"
            )

    def test_all_mat_advice_materializes_every_free_op(self, paper_plan):
        engine = small_engine()
        advice = engine.advise(
            paper_plan, ClusterStats(mtbf=60.0, mttr=0.0, nodes=1),
            scheme="all-mat",
        )
        assert advice.materialized_ids \
            == tuple(paper_plan.free_operators)
        assert advice.cost is None

    def test_sharded_engine_bit_identical(self, paper_plan):
        """shards>1 returns the same advice as the serial search."""
        engine = small_engine(shards=4)
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        first = engine.advise(paper_plan, stats)
        other = ClusterStats(mtbf=75.0, mttr=0.0, nodes=1)
        second = engine.advise(paper_plan, other)
        assert first == direct_advice(paper_plan, stats, engine)
        assert second == direct_advice(paper_plan, other, engine)


# ----------------------------------------------------------------------
# the bounded-queue frontend
# ----------------------------------------------------------------------
class TestStatsPush:
    """Hot cluster-stats push: bucket-scoped cache invalidation."""

    OLD = ClusterStats(mtbf=3600.0, mttr=1.0, nodes=10)
    OTHER = ClusterStats(mtbf=86400.0, mttr=1.0, nodes=10)
    NEW = ClusterStats(mtbf=600.0, mttr=5.0, nodes=10)

    def test_first_push_establishes_baseline(self):
        engine = small_engine()
        result = engine.push_cluster_stats(self.OLD)
        assert result["changed"] is False
        assert result["evicted"] == 0
        metrics = engine.metrics()
        assert metrics["stats_pushes"] == 1
        assert metrics["cluster_stats"] == {
            "mtbf": result["canonical"].mtbf,
            "mttr": result["canonical"].mttr,
        }

    def test_invalidation_evicts_only_the_superseded_bucket(
        self, paper_plan, chain_plan
    ):
        engine = small_engine()
        engine.push_cluster_stats(self.OLD)
        engine.advise(paper_plan, self.OLD)    # two entries in the
        engine.advise(chain_plan, self.OLD)    # pushed bucket...
        engine.advise(paper_plan, self.OTHER)  # ...one elsewhere
        assert len(engine.cache) == 3
        result = engine.push_cluster_stats(self.NEW)
        assert result["changed"] is True
        assert result["evicted"] == 2
        assert engine.cache.stats()["invalidations"] == 2
        assert len(engine.cache) == 1
        # the untouched bucket stays warm: re-asking is a pure hit
        hits = engine.cache.stats()["hits"]
        engine.advise(paper_plan, self.OTHER)
        assert engine.cache.stats()["hits"] == hits + 1

    def test_same_bucket_push_evicts_nothing(self, paper_plan):
        """Bucketing absorbs estimation noise on the push path exactly
        as on the request path."""
        engine = small_engine()
        engine.push_cluster_stats(self.OLD)
        engine.advise(paper_plan, self.OLD)
        jittered = ClusterStats(mtbf=3610.0, mttr=1.01, nodes=10)
        assert engine.canonical_stats(jittered) \
            == engine.canonical_stats(self.OLD)
        result = engine.push_cluster_stats(jittered)
        assert result["changed"] is False
        assert result["evicted"] == 0
        assert len(engine.cache) == 1
        assert engine.metrics()["stats_pushes"] == 2

    def test_invalidated_key_recomputes_fresh(self, paper_plan):
        """After its bucket is pushed out, the same request is a miss
        and recomputes -- and the answer still equals a direct search."""
        engine = small_engine()
        engine.push_cluster_stats(self.OLD)
        first = engine.advise(paper_plan, self.OLD)
        engine.push_cluster_stats(self.NEW)
        misses = engine.cache.stats()["misses"]
        again = engine.advise(paper_plan, self.OLD)
        assert engine.cache.stats()["misses"] == misses + 1
        assert again == first  # same canonical inputs, same answer
        assert again == direct_advice(paper_plan, self.OLD, engine)

    def test_hit_miss_accounting_survives_pushes(
        self, paper_plan, chain_plan
    ):
        """Invalidations are neither hits nor misses: after any mix of
        advises and pushes, hits + misses == advise calls."""
        engine = small_engine()
        calls = 0
        engine.push_cluster_stats(self.OLD)
        for plan in (paper_plan, chain_plan, paper_plan):
            engine.advise(plan, self.OLD)
            calls += 1
        engine.push_cluster_stats(self.NEW)
        for plan in (paper_plan, chain_plan):
            engine.advise(plan, self.OLD)
            calls += 1
        stats = engine.cache.stats()
        assert stats["hits"] + stats["misses"] == calls
        assert stats["invalidations"] > 0

    def test_push_and_invalidation_counters_fire(self, paper_plan):
        engine = small_engine()
        with obs.recording() as recorder:
            engine.push_cluster_stats(self.OLD)
            engine.advise(paper_plan, self.OLD)
            engine.push_cluster_stats(self.NEW)
        counters = dict(recorder.snapshot().counters)
        assert counters["serve.stats_push"] == 2
        assert counters["serve.cache.invalidations"] == 1

    def test_cache_disabled_push_is_safe(self):
        engine = small_engine(cache_size=0)
        engine.push_cluster_stats(self.OLD)
        result = engine.push_cluster_stats(self.NEW)
        assert result["changed"] is True
        assert result["evicted"] == 0


class TestFrontend:
    def test_submit_result_roundtrip(self, paper_plan):
        engine = small_engine()
        engine.start(workers=2, max_queue=8)
        try:
            stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
            pending = engine.submit(paper_plan, stats)
            assert pending.result(timeout=30.0) \
                == direct_advice(paper_plan, stats, engine)
        finally:
            engine.stop()

    def test_full_queue_sheds(self, paper_plan, monkeypatch):
        engine = small_engine()
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        warm = engine.advise(paper_plan, stats, scheme="no-mat (lineage)")
        started = threading.Event()
        release = threading.Event()
        original = AdvisoryEngine._compute

        def blocking_compute(self, plan, canonical, scheme):
            started.set()
            release.wait(10.0)
            return original(self, plan, canonical, scheme)

        monkeypatch.setattr(AdvisoryEngine, "_compute",
                            blocking_compute)
        engine.start(workers=1, max_queue=1)
        try:
            first = engine.submit(paper_plan, stats)
            assert started.wait(10.0)  # worker is busy on request 1
            # second request fills the queue; the third must shed --
            # distinct schemes so nothing coalesces
            second = engine.submit(paper_plan, stats, scheme="all-mat")
            with pytest.raises(ServiceOverloaded):
                engine.submit(paper_plan, stats,
                              scheme="no-mat (restart)")
            # a cached key is answered on the submitting thread: never
            # shed, never queued behind the blocked search
            hit = engine.submit(paper_plan, stats,
                                scheme="no-mat (lineage)")
            assert hit.result(timeout=0.0) == warm
            release.set()
            first.result(timeout=30.0)
            second.result(timeout=30.0)
        finally:
            release.set()
            engine.stop()

    def test_submit_hammer_counters_consistent(
        self, paper_plan, chain_plan, monkeypatch
    ):
        """Four threads of mixed hits and misses through submit(): each
        request is one hit or one miss, each miss one search or one
        coalesced follower, one cache entry per canonical key."""
        engine = small_engine()
        original = AdvisoryEngine._compute

        def slow_compute(self, plan, canonical, scheme):
            time.sleep(0.005)  # widen the publish race
            return original(self, plan, canonical, scheme)

        monkeypatch.setattr(AdvisoryEngine, "_compute", slow_compute)
        cells = [
            (plan, ClusterStats(mtbf=mtbf, mttr=1.0, nodes=4), scheme)
            for plan in (paper_plan, chain_plan)
            for mtbf in (60.0, 3600.0, 86400.0)
            for scheme in ("cost-based", "all-mat")
        ]
        # every thread walks the same order, so each key is wanted by
        # four threads at once: leaders, in-flight followers, and queued
        # misses that find the leader's entry already published
        requests = cells * 3
        answers = {}
        errors = []

        def client(thread_index):
            for index, (plan, stats, scheme) in enumerate(requests):
                try:
                    answers[thread_index, index] = engine.submit(
                        plan, stats, scheme).result(timeout=30.0)
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        engine.start(workers=2, max_queue=8)
        try:
            with obs.recording() as recorder:
                threads = [threading.Thread(target=client, args=(index,))
                           for index in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                counters = dict(recorder.counters)
        finally:
            sys.setswitchinterval(switch_interval)
            engine.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(answers) == 4 * len(requests)
        cache = engine.cache.stats()
        assert cache["hits"] > 0 and cache["misses"] > 0
        assert cache["hits"] + cache["misses"] \
            == counters["serve.requests"] == 4 * len(requests)
        assert counters.get("serve.shed", 0) == 0
        assert cache["misses"] == (counters["serve.searches"]
                                   + counters.get("serve.coalesced", 0))
        keys = {engine.advice_key(plan, engine.canonical_stats(stats),
                                  scheme)
                for plan, stats, scheme in requests}
        assert cache["size"] == len(keys) == counters["serve.searches"]
        monkeypatch.setattr(AdvisoryEngine, "_compute", original)
        for (_, index), advice in answers.items():
            plan, stats, scheme = requests[index]
            assert advice == engine.advise(plan, stats, scheme)
        for plan, stats, scheme in cells:
            assert engine.advise(plan, stats, scheme) \
                == direct_advice(plan, stats, engine, scheme)

    def test_done_callback_runs_once_under_races(self, paper_plan):
        """Callbacks added while workers finish the same handles run
        exactly once each, on one side of the race or the other."""
        engine = small_engine(cache_size=0)
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        calls = []
        calls_lock = threading.Lock()

        def callback(pending):
            with calls_lock:
                calls.append(pending)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        engine.start(workers=4, max_queue=512)
        try:
            pendings = [engine.submit(paper_plan, stats, "all-mat")
                        for _ in range(300)]
            for pending in pendings:
                pending.add_done_callback(callback)
            for pending in pendings:
                pending.result(timeout=30.0)
        finally:
            sys.setswitchinterval(switch_interval)
            engine.stop()
        assert sorted(map(id, calls)) == sorted(map(id, pendings))
        hit = _Pending(pendings[0].result())
        hit.add_done_callback(callback)  # born finished: runs at once
        assert calls[-1] is hit

    def test_submit_requires_start(self, paper_plan):
        engine = small_engine()
        with pytest.raises(RuntimeError, match="not started"):
            engine.submit(paper_plan, ClusterStats(mtbf=60.0))

    def test_double_start_rejected(self):
        engine = small_engine()
        engine.start(workers=1, max_queue=1)
        try:
            with pytest.raises(RuntimeError, match="already started"):
                engine.start(workers=1, max_queue=1)
        finally:
            engine.stop()
        engine.stop()  # idempotent


# ----------------------------------------------------------------------
# the HTTP frontend
# ----------------------------------------------------------------------
def _post(url: str, payload: dict) -> dict:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return json.loads(response.read())


@contextlib.contextmanager
def _serving(engine):
    """Serve a started ``engine`` on an ephemeral port; yields the
    server's ``(host, port)`` and stops server and engine on exit."""
    server = create_server(engine)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        engine.stop()


@pytest.fixture
def http_service():
    engine = small_engine()
    engine.start(workers=2, max_queue=16)
    with _serving(engine) as (host, port):
        yield f"http://{host}:{port}", engine


class TestHTTP:
    def test_advise_roundtrip_matches_direct(
        self, http_service, paper_plan
    ):
        base, engine = http_service
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        payload = _post(f"{base}/advise", {
            "plan": plan_to_dict(paper_plan),
            "stats": stats_to_dict(stats),
        })
        reference = direct_advice(paper_plan, stats, engine)
        assert payload["advice"] == reference.to_dict()

    def test_batch_coalesces_and_orders(self, http_service, paper_plan):
        base, engine = http_service
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        entry = {"plan": plan_to_dict(paper_plan),
                 "stats": stats_to_dict(stats)}
        other = dict(entry, scheme="all-mat")
        payload = _post(f"{base}/advise/batch",
                        {"requests": [entry, entry, other]})
        results = payload["results"]
        assert len(results) == 3
        assert results[0] == results[1]
        assert results[2]["advice"]["scheme"] == "all-mat"

    def test_healthz_and_metrics(self, http_service, paper_plan):
        base, engine = http_service
        with urllib.request.urlopen(f"{base}/healthz",
                                    timeout=10.0) as response:
            assert json.loads(response.read()) == {"status": "ok"}
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        _post(f"{base}/advise", {"plan": plan_to_dict(paper_plan),
                                 "stats": stats_to_dict(stats)})
        with urllib.request.urlopen(f"{base}/metrics",
                                    timeout=10.0) as response:
            metrics = json.loads(response.read())
        assert metrics["cache"]["capacity"] == 64
        assert metrics["cache"]["misses"] >= 1

    def test_malformed_payload_is_400(self, http_service):
        base, _ = http_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{base}/advise", {"plan": {"format": "bogus"}})
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, http_service):
        base, _ = http_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{base}/nope", {})
        assert excinfo.value.code == 404

    def test_keepalive_hits_do_not_stall(self, http_service, paper_plan):
        """Back-to-back hits on one persistent connection answer far
        under the ~40 ms a two-write response waits for the client's
        delayed ACK while Nagle's algorithm is on."""
        base, engine = http_service
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        body = json.dumps({"plan": plan_to_dict(paper_plan),
                           "stats": stats_to_dict(stats)})
        expected = {"advice": engine.advise(paper_plan, stats).to_dict()}
        host, port = base[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port),
                                                timeout=30.0)
        round_trips = []
        try:
            for _ in range(30):
                started = time.perf_counter()
                connection.request(
                    "POST", "/advise", body=body,
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                payload = json.loads(response.read())
                round_trips.append(time.perf_counter() - started)
                assert response.status == 200
                assert payload == expected
        finally:
            connection.close()
        assert statistics.median(round_trips) < 0.015

    def test_batch_unknown_scheme_is_a_per_entry_error(
        self, http_service, paper_plan
    ):
        base, _ = http_service
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        good = {"plan": plan_to_dict(paper_plan),
                "stats": stats_to_dict(stats)}
        payload = _post(f"{base}/advise/batch",
                        {"requests": [good, dict(good, scheme="nope")]})
        assert "advice" in payload["results"][0]
        assert "unknown fault-tolerance" in payload["results"][1]["error"]

    def test_batch_reports_per_entry_errors(
        self, http_service, paper_plan
    ):
        base, _ = http_service
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        good = {"plan": plan_to_dict(paper_plan),
                "stats": stats_to_dict(stats)}
        payload = _post(f"{base}/advise/batch",
                        {"requests": [good, {"nonsense": True}]})
        assert "advice" in payload["results"][0]
        assert "error" in payload["results"][1]


# ----------------------------------------------------------------------
# the event loop: framing, pipelining, slow clients, fairness
# ----------------------------------------------------------------------
def _address(base: str):
    host, port = base[len("http://"):].split(":")
    return host, int(port)


def _advise_body(plan, stats, scheme: str = "cost-based") -> bytes:
    return json.dumps({"plan": plan_to_dict(plan),
                       "stats": stats_to_dict(stats),
                       "scheme": scheme}).encode("utf-8")


def _post_bytes(body: bytes, path: str = "/advise",
                extra: str = "") -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\n{extra}"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def _read_until_eof(sock: socket.socket, timeout: float = 10.0) -> bytes:
    sock.settimeout(timeout)
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _split_responses(data: bytes):
    """Parse raw bytes as back-to-back HTTP responses with JSON bodies:
    ``[(status, headers, payload)]``; fails on anything left over."""
    responses = []
    while data:
        head, separator, rest = data.partition(b"\r\n\r\n")
        assert separator, f"incomplete response head: {data[:200]!r}"
        lines = head.decode("latin-1").split("\r\n")
        version, status, _ = lines[0].split(" ", 2)
        assert version == "HTTP/1.1"
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        assert headers["content-type"] == "application/json"
        assert headers["server"] == "repro-serve/1" and headers["date"]
        length = int(headers["content-length"])
        assert len(rest) >= length, "truncated response body"
        responses.append((int(status), headers,
                          json.loads(rest[:length])))
        data = rest[length:]
    return responses


def _exchange(base: str, data: bytes):
    """Send raw bytes on a fresh connection, read every response until
    the server closes it."""
    with socket.create_connection(_address(base), timeout=10.0) as sock:
        sock.sendall(data)
        return _split_responses(_read_until_eof(sock))


#: a request the framing tests smuggle after a broken one: it must
#: never be executed (answered)
SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


class TestFraming:
    def test_non_numeric_content_length_is_400_and_closes(
        self, http_service
    ):
        base, _ = http_service
        responses = _exchange(
            base, b"POST /advise HTTP/1.1\r\nHost: test\r\n"
                  b"Content-Length: abc\r\n\r\n" + SMUGGLED)
        assert len(responses) == 1
        status, headers, payload = responses[0]
        assert status == 400 and headers["connection"] == "close"
        assert "Content-Length" in payload["error"]

    def test_oversized_body_is_413_and_closes(self, http_service):
        base, _ = http_service
        declared = MAX_BODY_BYTES + 1
        responses = _exchange(
            base, b"POST /advise HTTP/1.1\r\nHost: test\r\n"
                  b"Content-Length: %d\r\n\r\n" % declared + SMUGGLED)
        assert len(responses) == 1
        status, headers, payload = responses[0]
        assert status == 413 and headers["connection"] == "close"
        assert "too large" in payload["error"]

    def test_chunked_body_is_json_411_and_closes(self, http_service):
        base, _ = http_service
        chunk = SMUGGLED
        responses = _exchange(
            base, b"POST /advise HTTP/1.1\r\nHost: test\r\n"
                  b"Transfer-Encoding: chunked\r\n\r\n"
                  + b"%x\r\n" % len(chunk) + chunk + b"\r\n0\r\n\r\n")
        assert len(responses) == 1
        status, headers, payload = responses[0]
        assert status == 411 and headers["connection"] == "close"
        assert "Content-Length" in payload["error"]

    def test_connection_close_and_http10_close_after_response(
        self, http_service
    ):
        base, _ = http_service
        for request in (
            b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
            b"Connection: close\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\n\r\n",
        ):
            # the trailing request is never answered: the server closes
            responses = _exchange(base, request + SMUGGLED)
            assert len(responses) == 1
            status, headers, payload = responses[0]
            assert status == 200 and payload == {"status": "ok"}
            assert headers["connection"] == "close"

    def test_a_failing_event_drops_only_its_connection(
        self, http_service, monkeypatch
    ):
        base, engine = http_service

        def broken_metrics():
            raise RuntimeError("metrics broke")

        monkeypatch.setattr(engine, "metrics", broken_metrics)
        with pytest.raises(OSError):  # closed without a response
            with urllib.request.urlopen(f"{base}/metrics",
                                        timeout=10.0) as response:
                response.read()
        # the loop survived: other connections are still served
        with urllib.request.urlopen(f"{base}/healthz",
                                    timeout=10.0) as response:
            assert json.loads(response.read()) == {"status": "ok"}

    def test_pipelined_miss_then_hit_answer_in_order(
        self, paper_plan, monkeypatch
    ):
        release = threading.Event()
        original = AdvisoryEngine._compute

        def gated_compute(self, plan, canonical, scheme):
            release.wait(10.0)
            return original(self, plan, canonical, scheme)

        engine = small_engine()
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        hit = engine.advise(paper_plan, stats)  # warm: cost-based hits
        monkeypatch.setattr(AdvisoryEngine, "_compute", gated_compute)
        engine.start(workers=1, max_queue=4)
        try:
            with _serving(engine) as address, \
                    socket.create_connection(address, timeout=10.0) as sock:
                sock.sendall(
                    _post_bytes(_advise_body(paper_plan, stats,
                                             "all-mat"))
                    + _post_bytes(_advise_body(paper_plan, stats),
                                  extra="Connection: close\r\n"))
                # the hit behind the blocked miss is not answered first
                sock.settimeout(0.3)
                with pytest.raises(socket.timeout):
                    sock.recv(1)
                release.set()
                responses = _split_responses(_read_until_eof(sock))
        finally:
            release.set()
        monkeypatch.setattr(AdvisoryEngine, "_compute", original)
        assert [status for status, _, _ in responses] == [200, 200]
        assert responses[0][2]["advice"] == direct_advice(
            paper_plan, stats, engine, "all-mat").to_dict()
        assert responses[1][2]["advice"] == hit.to_dict()

    def test_slow_clients_neither_delay_hits_nor_linger(
        self, http_service, paper_plan, monkeypatch
    ):
        timeout = 1.0
        monkeypatch.setattr(app, "REQUEST_READ_TIMEOUT_S", timeout)
        base, engine = http_service
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        body = _advise_body(paper_plan, stats)
        expected = {"advice": engine.advise(paper_plan, stats).to_dict()}
        address = _address(base)
        slow_head = socket.create_connection(address, timeout=10.0)
        partial_body = socket.create_connection(address, timeout=10.0)
        try:
            started = time.monotonic()
            slow_head.sendall(b"POST /advise HTTP/1.1\r\nHost: te")
            partial_body.sendall(_post_bytes(body)[:-10])
            connection = http.client.HTTPConnection(*address,
                                                    timeout=10.0)
            try:
                for _ in range(20):
                    connection.request("POST", "/advise", body=body)
                    response = connection.getresponse()
                    assert response.status == 200
                    assert json.loads(response.read()) == expected
            finally:
                connection.close()
            assert time.monotonic() - started < timeout / 2
            # both are dropped once the timeout passes, with no response
            for sock in (slow_head, partial_body):
                assert _read_until_eof(sock, timeout=timeout + 10.0) \
                    == b""
            assert time.monotonic() - started >= timeout
        finally:
            slow_head.close()
            partial_body.close()

    def test_batch_mix_matches_direct_entry_by_entry(
        self, http_service, paper_plan, chain_plan
    ):
        base, engine = http_service
        warm = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        engine.advise(paper_plan, warm)
        engine.advise(chain_plan, warm, "all-mat")
        cold = ClusterStats(mtbf=86400.0, mttr=30.0, nodes=10)
        cells = [(paper_plan, warm, "cost-based"),       # hit
                 (chain_plan, cold, "cost-based"),       # miss
                 None,                                   # bad entry
                 (chain_plan, warm, "all-mat"),          # hit
                 (paper_plan, cold, "no-mat (lineage)"),  # miss
                 (chain_plan, cold, "cost-based")]       # coalesced
        entries = [
            {"nonsense": True} if cell is None else
            {"plan": plan_to_dict(cell[0]),
             "stats": stats_to_dict(cell[1]), "scheme": cell[2]}
            for cell in cells
        ]
        entries.append(dict(entries[0], scheme="nope"))
        results = _post(f"{base}/advise/batch",
                        {"requests": entries})["results"]
        assert len(results) == len(entries)
        for cell, result in zip(cells, results):
            if cell is None:
                assert "missing 'plan'" in result["error"]
            else:
                assert result == {"advice": direct_advice(
                    cell[0], cell[1], engine, cell[2]).to_dict()}
        assert "unknown fault-tolerance" in results[-1]["error"]


class TestMissCompletion:
    def test_concurrent_misses_answer_by_callback(
        self, paper_plan, chain_plan, monkeypatch
    ):
        """Many connections wait on misses at once; each response comes
        back through a worker's callback on its own connection."""
        original = AdvisoryEngine._compute

        def slow_compute(self, plan, canonical, scheme):
            time.sleep(0.002)
            return original(self, plan, canonical, scheme)

        monkeypatch.setattr(AdvisoryEngine, "_compute", slow_compute)
        engine = small_engine(cache_size=0)  # every request searches
        engine.start(workers=4, max_queue=256)
        cells = [(plan, ClusterStats(mtbf=mtbf, mttr=1.0, nodes=4),
                  scheme)
                 for plan in (paper_plan, chain_plan)
                 for mtbf in (60.0, 3600.0)
                 for scheme in ("cost-based", "all-mat")]
        answers = {}
        failures = []
        lock = threading.Lock()

        def client(index: int) -> None:
            try:
                connection = http.client.HTTPConnection(*address,
                                                        timeout=30.0)
                try:
                    for round_index in range(4):
                        cell = (index + round_index) % len(cells)
                        connection.request(
                            "POST", "/advise",
                            body=_advise_body(*cells[cell]))
                        response = connection.getresponse()
                        payload = json.loads(response.read())
                        with lock:
                            answers[index, round_index] = (
                                cell, response.status, payload)
                finally:
                    connection.close()
            except BaseException as error:
                with lock:
                    failures.append(repr(error))

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(16)]
        with _serving(engine) as address:
            for client_thread in threads:
                client_thread.start()
            for client_thread in threads:
                client_thread.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads) and not failures
        assert len(answers) == 16 * 4
        monkeypatch.setattr(AdvisoryEngine, "_compute", original)
        expected = [{"advice": direct_advice(*cell[:2], engine,
                                             cell[2]).to_dict()}
                    for cell in cells]
        for cell, status, payload in answers.values():
            assert status == 200 and payload == expected[cell]


class TestFairness:
    def test_late_connections_are_served_while_others_stream(
        self, http_service, paper_plan
    ):
        """N keep-alive clients start together and stream cache hits;
        every connection's first response arrives within a bound, so no
        client waits on the ones already streaming.  (A thread-per-
        connection server with one accept thread took ~2.7 s on 2 CPUs.)"""
        clients, per_client, bound_s = 128, 20, 1.0
        base, engine = http_service
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        body = _advise_body(paper_plan, stats)
        expected = {"advice": engine.advise(paper_plan, stats).to_dict()}
        address = _address(base)
        barrier = threading.Barrier(clients)
        lock = threading.Lock()
        first_response_s = {}
        failures = []
        peak_threads = [0]

        def client(index: int) -> None:
            barrier.wait()
            started = time.perf_counter()
            try:
                connection = http.client.HTTPConnection(*address,
                                                        timeout=30.0)
                try:
                    for request in range(per_client):
                        connection.request("POST", "/advise", body=body)
                        response = connection.getresponse()
                        payload = json.loads(response.read())
                        if request == 0:
                            with lock:
                                first_response_s[index] = (
                                    time.perf_counter() - started)
                                peak_threads[0] = max(
                                    peak_threads[0],
                                    threading.active_count())
                        if response.status != 200 or payload != expected:
                            raise AssertionError(
                                f"{response.status} {payload}")
                finally:
                    connection.close()
            except BaseException as error:
                with lock:
                    failures.append(f"client {index}: {error!r}")

        before = threading.active_count()
        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        # the loop spawns no thread per connection
        assert peak_threads[0] <= before + clients
        assert len(first_response_s) == clients
        assert max(first_response_s.values()) < bound_s, \
            sorted(first_response_s.values())[-5:]
