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

2. **Single-flight dedup.**  The engine keeps one in-flight handle per
   key.  One claim step under the engine lock makes a request a hit, a
   follower of the key's handle or the leader that registers a new
   one.  Only the leader computes; it publishes to the cache and
   finishes the handle, which answers every follower with its result
   (or its exception).  N identical concurrent requests cost exactly
   one search (``serve.coalesced`` counts the followers).

3. **Fan-out.**  Distinct keys compute independently -- the
   frontend's worker threads each drive their own leader's search, and
   a search itself can fan out over the resilient process-pool sharded
   scan (``parallelism``, ``shards``).

The bounded-queue/backpressure frontend (:meth:`AdvisoryEngine.start` /
:meth:`submit`) is part of the engine so the HTTP layer stays a thin
codec.  :meth:`submit` answers a cache hit on the caller's thread and
hands a follower its key's handle there too; only a new key's leader
reaches the workers, plain ``threading.Thread`` s draining a
``queue.Queue`` (each blocks in its own search's process pool, so
threads are the right concurrency primitive here).  A finished search
wakes :meth:`_Pending.result` and runs every done-callback of its
handle on the worker, which is how the HTTP event loop learns of it
without a thread of its own.  A full queue sheds a new key's leader
immediately with :class:`ServiceOverloaded` -- the HTTP layer maps that
to 429; a hit or a follower is never shed.
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
from .bucketing import Bucket, StatsBucketing
from .cache import AdviceCache

#: scheme names advise() accepts (the paper's line-up)
SCHEME_NAMES = (
    "all-mat", "no-mat (lineage)", "no-mat (restart)", "cost-based",
)

#: distinct buckets one engine interns before its memo resets
_CANONICAL_CAPACITY = 4096


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


class _Pending:
    """Handle for one advisory answer, shared by all its waiters.

    A cache hit is answered on the submitting thread, so its handle is
    born finished and carries no event.  A miss's handle is the
    single-flight entry of its key: every request that claims the key
    while it is in flight waits on this one handle, and the leader
    finishes it, which wakes :meth:`result` and runs every
    done-callback.  ``cacheable`` is cleared by a stats push that
    supersedes the key's bucket; the leader then answers but does not
    cache.
    """

    __slots__ = ("_event", "_lock", "_callbacks", "_advice", "_error",
                 "cacheable")

    def __init__(self, advice: Optional[Advice] = None) -> None:
        self._event: Optional[threading.Event] = None
        self._lock: Optional[threading.Lock] = None
        if advice is None:
            self._event = threading.Event()
            self._lock = threading.Lock()
        self._callbacks: List[Callable[["_Pending"], None]] = []
        self._advice = advice
        self._error: Optional[BaseException] = None
        self.cacheable = True

    def done(self) -> bool:
        return self._event is None or self._event.is_set()

    def add_done_callback(
        self, callback: Callable[["_Pending"], None]
    ) -> None:
        """Call ``callback(self)`` once the answer is known: at once on
        this thread if it already is, else on the thread that finishes
        the handle.  Each added callback runs exactly once; it must not
        raise."""
        if self._lock is not None:
            assert self._event is not None
            with self._lock:
                if not self._event.is_set():
                    self._callbacks.append(callback)
                    return
        callback(self)

    def _finish(self, advice: Optional[Advice],
                error: Optional[BaseException]) -> None:
        assert self._event is not None and self._lock is not None
        with self._lock:
            self._advice = advice
            self._error = error
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def result(self, timeout: Optional[float] = None) -> Advice:
        if self._event is not None and not self._event.wait(timeout):
            raise TimeoutError("advisory request still pending")
        if self._error is not None:
            raise self._error
        assert self._advice is not None
        return self._advice


#: a claimed miss for its leader: (plan, canonical stats, scheme, key,
#: the key's in-flight handle)
_Job = Tuple[Plan, ClusterStats, str, Hashable, _Pending]


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
        self._inflight: Dict[Hashable, _Pending] = {}
        #: searches run (``serve.searches``, kept without a recorder)
        self.searches = 0
        #: bucket -> its one interned canonical stats (canonical_stats)
        self._canonicals: Dict[Bucket, ClusterStats] = {}
        #: id -> each interned canonical stats that is its own canonical
        self._interned: Dict[int, ClusterStats] = {}
        #: last pushed canonical stats (see push_cluster_stats)
        self._current_canonical: Optional[ClusterStats] = None
        self._stats_pushes = 0
        # frontend state (started lazily by start())
        self._queue: Optional["queue.Queue"] = None
        self._workers: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # the advisory core
    # ------------------------------------------------------------------
    def canonical_stats(self, stats: ClusterStats) -> ClusterStats:
        """The stats the request is actually answered for.

        Interned per engine: every request in one bucket gets the same
        canonical object, so a cache probe compares its stats by
        identity.  Capacity-capped like the preflight memo: once full
        the memo resets rather than growing without bound.  A hit reads
        the memo without the lock; a new bucket is published under it,
        so racing threads share the first object and the cap holds.
        A caller that sends an interned object back (the multi-tenant
        workload sends one per bucket) is answered by identity, without
        the bucket arithmetic: the object is registered only once it is
        checked to fall in its own bucket.
        """
        if self.bucketing is None:
            return stats
        if self._interned.get(id(stats)) is stats:
            return stats
        bucket = self.bucketing.bucket(stats)
        canonical = self._canonicals.get(bucket)
        if canonical is None:
            fresh = self.bucketing.bucket_stats(bucket)
            own_bucket = self.bucketing.bucket(fresh) == bucket
            with self._lock:
                if len(self._canonicals) >= _CANONICAL_CAPACITY:
                    self._canonicals.clear()
                    self._interned.clear()
                canonical = self._canonicals.setdefault(bucket, fresh)
                if canonical is fresh and own_bucket:
                    self._interned[id(fresh)] = fresh
        return canonical

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
        wait for the leader's result.  Otherwise lead: compute on this
        thread, publish to the cache and the followers, and return.
        """
        cached, pending, job = self._claim(plan, stats, scheme, None)
        if cached is not None:
            return cached
        if job is not None:
            self._lead(*job)
        assert pending is not None
        return pending.result()

    def _claim(
        self, plan: Plan, stats: ClusterStats, scheme: str,
        request_queue: "Optional[queue.Queue[Optional[_Job]]]",
    ) -> Tuple[Optional[Advice], Optional[_Pending], Optional[_Job]]:
        """Count one request; decide under the engine lock whether it
        is a hit ``(advice, None, None)``, a follower of its key's
        in-flight handle ``(None, handle, None)`` or the leader of a
        new handle.  A leader takes a slot in ``request_queue`` (or is
        shed before anyone can follow it) and returns like a follower;
        without a queue it returns ``(None, handle, job)`` for the
        caller to run through :meth:`_lead`.  So every miss counts once:
        as a search, a coalesced follower or a shed.  A leader whose
        ``request_queue`` is no longer the engine's (:meth:`stop` has
        detached it) is shed with :class:`RuntimeError`: queued now, it
        would land behind the workers' wake-up pills and never finish.
        """
        if scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown fault-tolerance scheme {scheme!r} "
                             f"(expected one of {SCHEME_NAMES})")
        obs.add("serve.requests")
        canonical = self.canonical_stats(stats)
        key = self.advice_key(plan, canonical, scheme)
        with self._lock:
            if self.cache is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    return cached, None, None
            pending = self._inflight.get(key)
            if pending is not None:
                obs.add("serve.coalesced")
                return None, pending, None
            pending = _Pending()
            job = (plan, canonical, scheme, key, pending)
            if request_queue is not None:
                if self._queue is not request_queue:
                    obs.add("serve.shed")
                    raise RuntimeError("engine stopped")
                try:
                    request_queue.put_nowait(job)
                except queue.Full:
                    obs.add("serve.shed")
                    raise ServiceOverloaded(
                        "advisory queue full; retry later"
                    ) from None
            self._inflight[key] = pending
            self.searches += 1
        return None, pending, job if request_queue is None else None

    def _lead(self, plan: Plan, canonical: ClusterStats, scheme: str,
              key: Hashable, pending: _Pending) -> None:
        """Compute a claimed key and finish its handle for every waiter.

        Publish-then-unregister under one lock: a request claiming the
        key meanwhile sees either the cache entry or the handle, never
        neither, so no duplicate search can start.  Errors reach every
        waiter but are never cached -- the next request retries.
        """
        advice: Optional[Advice] = None
        error: Optional[BaseException] = None
        try:
            advice = self._compute(plan, canonical, scheme)
        except BaseException as caught:  # delivered to the waiters
            error = caught
        with self._lock:
            if (advice is not None and pending.cacheable
                    and self.cache is not None):
                self.cache.put(key, advice)
            del self._inflight[key]
        pending._finish(advice, error)

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

        Runs under the engine lock, serialized with the leaders' publish
        step: searches of the superseded bucket still in flight are
        marked not cacheable, so their leaders answer every waiter but
        never re-publish stale advice after its bucket was invalidated.
        """
        obs.add("serve.stats_push")
        canonical = self.canonical_stats(stats)
        evicted = 0
        with self._lock:
            previous = self._current_canonical
            self._current_canonical = canonical
            self._stats_pushes += 1
            changed = previous is not None and previous != canonical
            if changed:
                def superseded(key: Hashable) -> bool:
                    return (isinstance(key, tuple) and len(key) > 1
                            and key[1] == previous)

                for key, pending in self._inflight.items():
                    if superseded(key):
                        pending.cacheable = False
                if self.cache is not None:
                    evicted = self.cache.invalidate(superseded)
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
            request_queue = self._queue = queue.Queue(maxsize=max_queue)
        for index in range(workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(request_queue,),
                name=f"advisory-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)

    def stop(self) -> None:
        """Drain and join the workers (idempotent).

        The queue is detached under the engine lock before the wake-up
        pills go in.  A leader is enqueued only under that lock and only
        while its queue is still the engine's, so every job lands ahead
        of the pills and is searched before its worker exits; a submit
        that arrives after the detach raises :class:`RuntimeError`
        instead of queueing behind the pills.
        """
        with self._lock:
            request_queue, self._queue = self._queue, None
            workers, self._workers = self._workers, []
        if request_queue is None:
            return
        for _ in workers:
            request_queue.put(None)  # one wake-up pill per worker
        for thread in workers:
            thread.join()

    def submit(self, plan: Plan, stats: ClusterStats,
               scheme: str = "cost-based") -> _Pending:
        """Answer a cache hit at once; enqueue a new miss.

        The hit path is one cache probe on the caller's thread: no queue
        slot, no worker wake-up, so a hit is never shed.  A miss whose
        key is already in flight gets that key's handle, with no queue
        slot or worker of its own.  Only a new key's leader carries its
        canonical stats and key to a worker, and raises
        :class:`ServiceOverloaded` when the bounded queue is full (the
        backpressure signal).
        """
        with self._lock:
            request_queue = self._queue
        if request_queue is None:
            raise RuntimeError("engine not started (call start())")
        cached, pending, _ = self._claim(plan, stats, scheme,
                                         request_queue)
        return _Pending(cached) if pending is None else pending

    def _worker_loop(self, request_queue: "queue.Queue[Optional[_Job]]"
                     ) -> None:
        while True:
            job = request_queue.get()
            if job is None:
                return
            self._lead(*job)

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
