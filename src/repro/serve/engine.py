"""The in-process advisory engine: cached, single-flight plan search.

:class:`AdvisoryEngine` answers ``advise(plan, stats, scheme)`` -- "which
intermediates should this job materialize on this cluster?" -- cheaply
enough to sit behind a request-serving frontend.  Three layers take the
per-request cost from "one full configuration search" toward "one dict
lookup":

1. **Canonicalize + cache.**  The request's measured stats snap to their
   log-bucket representative (:mod:`repro.serve.bucketing`), then an LRU
   (:mod:`repro.serve.cache`) is probed with the full advisory identity:
   ``(plan fingerprint, canonical stats, scheme, search knobs)``.  The
   search runs *on the canonical stats*, so cached and fresh advice are
   the same object -- bit-identical to a direct
   :func:`~repro.core.enumeration.find_best_ft_plan` call on those
   stats.  Knobs that cannot change results (``parallelism``, shard
   count) are deliberately *excluded* from the key: the engines are
   pinned bit-identical across them, so including them would only split
   the cache.

2. **Single-flight dedup.**  Concurrent requests for the same key
   coalesce onto one in-flight search: the first becomes the leader and
   computes, the rest wait on an event and share the leader's result
   (or its exception).  N identical concurrent requests cost exactly one
   search (``serve.coalesced`` counts the followers).

3. **Fan-out.**  Distinct keys compute independently -- the
   frontend's worker threads each drive their own search, and a search
   itself can fan out over the resilient process-pool sharded scan
   (``parallelism``, ``shards``).

The bounded-queue/backpressure frontend (:meth:`AdvisoryEngine.start` /
:meth:`submit`) is part of the engine so the HTTP layer stays a thin
codec.  :meth:`submit` answers a cache hit on the caller's thread;
only misses reach the workers, plain ``threading.Thread`` s draining a
``queue.Queue`` (each blocks in its own search's process pool, so
threads are the right concurrency primitive here).  A finished miss
wakes :meth:`_Pending.result` and runs the handle's done-callback on
the worker, which is how the HTTP event loop learns of it without a
thread of its own.  A full queue sheds a miss immediately with
:class:`ServiceOverloaded` -- the HTTP layer maps that to 429.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple,
)

from .. import obs
from ..core.cost_model import ClusterStats
from ..core.enumeration import find_best_ft_plan, plan_fingerprint
from ..core.plan import Plan
from ..core.pruning import PruningConfig
from ..core.strategies import RecoveryMode, scheme_by_name
from .bucketing import StatsBucketing
from .cache import AdviceCache

#: scheme names advise() accepts (the paper's line-up)
SCHEME_NAMES = (
    "all-mat", "no-mat (lineage)", "no-mat (restart)", "cost-based",
)


class ServiceOverloaded(RuntimeError):
    """The bounded request queue is full; retry later (HTTP 429)."""


@dataclass(frozen=True)
class Advice:
    """The answer to one advisory request.

    Frozen and value-comparable: the differential tests assert
    ``advice == direct`` where ``direct`` is built from a fresh
    :func:`~repro.core.enumeration.find_best_ft_plan` call, so every
    field participates in the bit-identity guarantee.  ``cost`` /
    ``failure_free_cost`` are ``None`` for the fixed (non-searching)
    schemes, which pick a configuration without scoring it.
    """

    scheme: str
    recovery: str
    mat_config: Tuple[Tuple[int, bool], ...]
    materialized_ids: Tuple[int, ...]
    cost: Optional[float]
    failure_free_cost: Optional[float]
    canonical_mtbf: float
    canonical_mttr: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload for the HTTP layer."""
        return {
            "scheme": self.scheme,
            "recovery": self.recovery,
            "mat_config": [[op_id, flag] for op_id, flag in
                           self.mat_config],
            "materialized_ids": list(self.materialized_ids),
            "cost": self.cost,
            "failure_free_cost": self.failure_free_cost,
            "canonical_mtbf": self.canonical_mtbf,
            "canonical_mttr": self.canonical_mttr,
        }


class _Inflight:
    """One in-progress computation concurrent requests coalesce onto."""

    __slots__ = ("event", "advice", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.advice: Optional[Advice] = None
        self.error: Optional[BaseException] = None


class _Pending:
    """Handle for a submitted request.

    A cache hit is answered on the submitting thread, so its handle is
    born finished and carries no event; a miss finishes on a worker,
    which wakes :meth:`result` and runs the done-callback, if any.
    """

    __slots__ = ("_event", "_lock", "_callback", "_advice", "_error")

    def __init__(self, advice: Optional[Advice] = None) -> None:
        self._event: Optional[threading.Event] = None
        self._lock: Optional[threading.Lock] = None
        if advice is None:
            self._event = threading.Event()
            self._lock = threading.Lock()
        self._callback: Optional[Callable[["_Pending"], None]] = None
        self._advice = advice
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event is None or self._event.is_set()

    def add_done_callback(
        self, callback: Callable[["_Pending"], None]
    ) -> None:
        """Call ``callback(self)`` once the request has finished: at
        once on this thread if it already has, else on the worker that
        finishes it.  One callback per handle; it must not raise."""
        if self._lock is not None:
            assert self._event is not None
            with self._lock:
                if not self._event.is_set():
                    self._callback = callback
                    return
        callback(self)

    def _finish(self, advice: Optional[Advice],
                error: Optional[BaseException]) -> None:
        assert self._event is not None and self._lock is not None
        with self._lock:
            self._advice = advice
            self._error = error
            self._event.set()
            callback = self._callback
        if callback is not None:
            callback(self)

    def result(self, timeout: Optional[float] = None) -> Advice:
        if self._event is not None and not self._event.wait(timeout):
            raise TimeoutError("advisory request still pending")
        if self._error is not None:
            raise self._error
        assert self._advice is not None
        return self._advice


class AdvisoryEngine:
    """Long-lived advisory state: cache and single-flight table.

    Parameters
    ----------
    cache_size:
        LRU capacity; ``0`` disables caching entirely (every request
        searches -- the cache-off differential mode).
    bucketing:
        Stats canonicalization; ``None`` keys the cache on the exact
        stats (bit-equal stats still hit).
    pruning / exact_waste / search_engine / parallelism / shards /
    config_limit:
        Passed through to :func:`find_best_ft_plan` for the cost-based
        scheme.  Only the result-relevant knobs join the cache key.
    """

    def __init__(
        self,
        cache_size: int = 1024,
        bucketing: Optional[StatsBucketing] = StatsBucketing(),
        pruning: PruningConfig = PruningConfig.all(),
        exact_waste: bool = False,
        search_engine: str = "fast",
        parallelism: int = 1,
        shards: Optional[int] = None,
        config_limit: Optional[int] = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.cache: Optional[AdviceCache] = (
            AdviceCache(cache_size) if cache_size else None
        )
        self.bucketing = bucketing
        self.pruning = pruning
        self.exact_waste = exact_waste
        self.search_engine = search_engine
        self.parallelism = parallelism
        self.shards = shards
        self.config_limit = config_limit
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, _Inflight] = {}
        #: last pushed canonical stats (see push_cluster_stats)
        self._current_canonical: Optional[ClusterStats] = None
        self._stats_pushes = 0
        # frontend state (started lazily by start())
        self._queue: Optional["queue.Queue"] = None
        self._workers: List[threading.Thread] = []
        self._stopping = False

    # ------------------------------------------------------------------
    # the advisory core
    # ------------------------------------------------------------------
    def canonical_stats(self, stats: ClusterStats) -> ClusterStats:
        """The stats the request is actually answered for."""
        if self.bucketing is None:
            return stats
        return self.bucketing.canonicalize(stats)

    def advice_key(self, plan: Plan, canonical: ClusterStats,
                   scheme: str) -> Hashable:
        """The full advisory identity (cache + single-flight key).

        Includes every knob that can change the *answer*; excludes
        ``parallelism``/``shards``, which are pinned result-neutral.
        """
        return (
            plan_fingerprint(plan),
            canonical,
            scheme,
            self.pruning.rule1, self.pruning.rule2, self.pruning.rule3,
            self.exact_waste,
            self.search_engine,
            self.config_limit,
        )

    def advise(self, plan: Plan, stats: ClusterStats,
               scheme: str = "cost-based") -> Advice:
        """Answer one request (synchronously; thread-safe).

        Cache hit -> the stored advice.  Same key already in flight ->
        wait for the leader's result.  Otherwise compute, publish to the
        cache and the followers atomically, and return.
        """
        canonical, key = self._identify(plan, stats, scheme)
        return self._advise_keyed(plan, canonical, scheme, key,
                                  probed=False)

    def _identify(self, plan: Plan, stats: ClusterStats,
                  scheme: str) -> Tuple[ClusterStats, Hashable]:
        """Validate and count one request; its canonical stats and key."""
        if scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown fault-tolerance scheme {scheme!r} "
                             f"(expected one of {SCHEME_NAMES})")
        obs.add("serve.requests")
        canonical = self.canonical_stats(stats)
        return canonical, self.advice_key(plan, canonical, scheme)

    def _advise_keyed(self, plan: Plan, canonical: ClusterStats,
                      scheme: str, key: Hashable, probed: bool) -> Advice:
        """The single-flight core behind :meth:`advise` and the workers.

        ``probed`` requests already missed the cache in :meth:`submit`:
        they look again without counting a second miss, and an entry
        published since (by the leader they raced) answers them as a
        coalesced follower, so every miss is a search, a follower or a
        shed.
        """
        with self._lock:
            cached = None
            if self.cache is not None:
                cached = (self.cache.peek(key) if probed
                          else self.cache.get(key))
            if cached is None:
                entry = self._inflight.get(key)
                leader = entry is None
                if leader:
                    entry = self._inflight[key] = _Inflight()
        if cached is not None:
            if probed:
                obs.add("serve.coalesced")
            return cached
        if not leader:
            obs.add("serve.coalesced")
            assert entry is not None
            entry.event.wait()
            if entry.error is not None:
                raise entry.error
            assert entry.advice is not None
            return entry.advice
        assert entry is not None
        try:
            advice = self._compute(plan, canonical, scheme)
        except BaseException as error:
            # errors propagate to every coalesced waiter but are never
            # cached -- the next request retries the computation
            entry.error = error
            with self._lock:
                del self._inflight[key]
            entry.event.set()
            raise
        entry.advice = advice
        with self._lock:
            # publish-then-unregister under one lock: a request arriving
            # here either sees the cache entry or the in-flight entry,
            # never neither (no duplicate search can start)
            if self.cache is not None:
                self.cache.put(key, advice)
            del self._inflight[key]
        entry.event.set()
        return advice

    def push_cluster_stats(self, stats: ClusterStats) -> Dict[str, Any]:
        """Hot cluster-stats push: the cluster's effective statistics
        changed; invalidate exactly the superseded cached advice.

        Called by an observer that learns the cluster has drifted --
        canonically the adaptive re-planner's ``on_replan`` hook
        (:class:`repro.engine.adaptive.AdaptiveExecutor`), which passes
        the refreshed stats every executed re-plan searched under.  The
        push canonicalizes the stats; when the canonical bucket differs
        from the previously pushed one, every cache entry computed for
        the *superseded* bucket is evicted (advice keys carry the
        canonical stats at a fixed position), and nothing else -- advice
        for other buckets stays warm, and requests already quoting the
        new bucket are untouched.  A push that lands in the same bucket
        is a no-op beyond the bookkeeping: bucketing absorbs estimation
        noise exactly as it does on the request path.

        Runs under the engine lock, serialized with :meth:`advise`'s
        publish step, so a concurrent request can never re-publish stale
        advice after its bucket was invalidated.
        """
        obs.add("serve.stats_push")
        canonical = self.canonical_stats(stats)
        evicted = 0
        with self._lock:
            previous = self._current_canonical
            self._current_canonical = canonical
            self._stats_pushes += 1
            changed = previous is not None and previous != canonical
            if changed and self.cache is not None:
                evicted = self.cache.invalidate(
                    lambda key: isinstance(key, tuple) and len(key) > 1
                    and key[1] == previous
                )
        return {
            "canonical": canonical,
            "changed": changed,
            "evicted": evicted,
        }

    def _compute(self, plan: Plan, canonical: ClusterStats,
                 scheme: str) -> Advice:
        """Run the actual configuration search / scheme configuration."""
        obs.add("serve.searches")
        if scheme == "cost-based":
            result = find_best_ft_plan(
                [plan], canonical,
                pruning=self.pruning,
                exact_waste=self.exact_waste,
                engine=self.search_engine,
                parallelism=self.parallelism,
                shards=self.shards,
                config_limit=self.config_limit,
            )
            return Advice(
                scheme=scheme,
                recovery=RecoveryMode.FINE_GRAINED.value,
                mat_config=result.mat_config,
                materialized_ids=result.materialized_ids,
                cost=result.cost,
                failure_free_cost=result.estimate.failure_free_cost,
                canonical_mtbf=canonical.mtbf,
                canonical_mttr=canonical.mttr,
            )
        configured = scheme_by_name(scheme).configure(plan, canonical)
        mat_config = tuple(
            (op_id, configured.plan[op_id].materialize)
            for op_id in configured.plan.free_operators
        )
        return Advice(
            scheme=scheme,
            recovery=configured.recovery.value,
            mat_config=mat_config,
            materialized_ids=tuple(
                op_id for op_id, flag in mat_config if flag
            ),
            cost=None,
            failure_free_cost=None,
            canonical_mtbf=canonical.mtbf,
            canonical_mttr=canonical.mttr,
        )

    # ------------------------------------------------------------------
    # the bounded-queue frontend
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether the bounded-queue frontend is running (clients that
        can fall back to :meth:`advise` check this, not ``_queue``)."""
        with self._lock:
            return self._queue is not None

    def start(self, workers: int = 4, max_queue: int = 64) -> None:
        """Spawn the worker threads that drain the request queue."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        with self._lock:
            if self._queue is not None:
                raise RuntimeError("engine already started")
            self._queue = queue.Queue(maxsize=max_queue)
            self._stopping = False
        for index in range(workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"advisory-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)

    def stop(self) -> None:
        """Drain and join the workers (idempotent)."""
        with self._lock:
            request_queue = self._queue
            if request_queue is None:
                return
            self._stopping = True
        for _ in self._workers:
            request_queue.put(None)  # one wake-up pill per worker
        for thread in self._workers:
            thread.join()
        with self._lock:
            self._queue = None
            self._workers = []

    def submit(self, plan: Plan, stats: ClusterStats,
               scheme: str = "cost-based") -> _Pending:
        """Answer a cache hit at once; enqueue a miss.

        The hit path is one cache probe on the caller's thread: no queue
        slot, no worker wake-up, so a hit is never shed.  A miss carries
        its canonical stats and key to a worker and raises
        :class:`ServiceOverloaded` when the bounded queue is full (the
        backpressure signal).
        """
        with self._lock:
            request_queue = self._queue
        if request_queue is None:
            raise RuntimeError("engine not started (call start())")
        canonical, key = self._identify(plan, stats, scheme)
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return _Pending(cached)
        pending = _Pending()
        try:
            request_queue.put_nowait((plan, canonical, scheme, key,
                                      pending))
        except queue.Full:
            obs.add("serve.shed")
            raise ServiceOverloaded(
                "advisory queue full; retry later"
            ) from None
        return pending

    def _worker_loop(self) -> None:
        while True:
            assert self._queue is not None
            item = self._queue.get()
            if item is None:
                return
            plan, canonical, scheme, key, pending = item
            try:
                advice = self._advise_keyed(plan, canonical, scheme, key,
                                            probed=True)
            except BaseException as error:  # delivered to the waiter
                pending._finish(None, error)
            else:
                pending._finish(advice, None)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Any]:
        """Cache and cluster-stats state for ``/metrics`` and the
        harness."""
        current = self._current_canonical
        payload: Dict[str, Any] = {
            "cache": (self.cache.stats() if self.cache is not None
                      else None),
            "inflight": len(self._inflight),
            "stats_pushes": self._stats_pushes,
            "cluster_stats": (
                {"mtbf": current.mtbf, "mttr": current.mttr}
                if current is not None else None
            ),
        }
        recorder = obs.get_recorder()
        if recorder is not None:
            payload["counters"] = dict(
                sorted(recorder.snapshot().counters)
            )
        return payload


def direct_advice(plan: Plan, stats: ClusterStats,
                  engine: AdvisoryEngine,
                  scheme: str = "cost-based") -> Advice:
    """The reference answer the engine must reproduce bit-identically.

    Runs the scheme directly on ``engine.canonical_stats(stats)`` with
    the engine's knobs but *no* cache, no single-flight and no
    parallelism -- the plain serial search.  The
    differential grid asserts ``engine.advise(...) == direct_advice(...)``
    for every sampled request.
    """
    reference = AdvisoryEngine(
        cache_size=0,
        bucketing=engine.bucketing,
        pruning=engine.pruning,
        exact_waste=engine.exact_waste,
        search_engine=engine.search_engine,
        parallelism=1,
        shards=None,
        config_limit=engine.config_limit,
    )
    return reference.advise(plan, stats, scheme)


__all__: Sequence[str] = (
    "Advice",
    "AdvisoryEngine",
    "SCHEME_NAMES",
    "ServiceOverloaded",
    "direct_advice",
)
