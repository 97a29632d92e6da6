"""The LRU advice cache behind :class:`repro.serve.AdvisoryEngine`.

A deliberately small, auditable LRU under one lock: a dict maps each key
to its link in a circular doubly linked list kept in recency order.  A
hit moves its link to the most-recent end, an overflow evicts the least
recent.  Keys are the full advisory identity -- ``(plan fingerprint,
canonical stats, scheme, engine knobs)`` -- built by the engine; the
cache never interprets them.  Values are finished
:class:`~repro.serve.engine.Advice` objects, which are frozen, so
sharing one instance across concurrent readers is safe.

The list is what makes a hit hash its key once.  An advisory key holds
the plan's fingerprint tuple, and a tuple's hash is recomputed on every
call, so an ``OrderedDict`` would hash it twice per hit (``get``, then
``move_to_end``).  Here the dict lookup returns the link, and moving it
touches no hash.

Hit/miss/eviction tallies feed the ``serve.cache.{hits,misses,
evictions}`` counters through :mod:`repro.obs` (no-ops unless a recorder
is installed) and are also kept as plain attributes so the service's
``/metrics`` endpoint and the load harness can read a hit-rate without
enabling observability.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, List, Optional

from .. import obs

# fields of a link: [previous, next, key, value]
_PREV, _NEXT, _KEY, _VALUE = 0, 1, 2, 3


class AdviceCache:
    """Thread-safe LRU mapping advisory keys to advice objects.

    The engine calls :meth:`get` exactly once per request, inside the
    claim step that also looks up the key's in-flight search, so every
    request is one counted hit or one counted miss.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1 "
                             "(disable caching at the engine instead)")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._links: Dict[Hashable, List[Any]] = {}
        # the list's sentinel: its next link is the least recently
        # used, its previous link the most recently used
        self._root: List[Any] = []
        self._root[:] = [self._root, self._root, None, None]
        self._lock = threading.Lock()

    def _unlink(self, link: List[Any]) -> None:
        previous, following = link[_PREV], link[_NEXT]
        previous[_NEXT] = following
        following[_PREV] = previous

    def _append(self, link: List[Any]) -> None:
        """Make ``link`` the most recently used."""
        root = self._root
        last = root[_PREV]
        link[_PREV] = last
        link[_NEXT] = root
        last[_NEXT] = root[_PREV] = link

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached advice, freshened to most-recently-used; ``None``
        on miss.  (Advice values are never ``None`` -- the engine only
        stores completed results.)"""
        with self._lock:
            link = self._links.get(key)
            if link is None:
                self.misses += 1
            else:
                # _unlink then _append, inlined: this is the hit path
                previous, following = link[_PREV], link[_NEXT]
                previous[_NEXT] = following
                following[_PREV] = previous
                root = self._root
                last = root[_PREV]
                link[_PREV] = last
                link[_NEXT] = root
                last[_NEXT] = root[_PREV] = link
                self.hits += 1
        if link is None:
            obs.add("serve.cache.misses")
            return None
        obs.add("serve.cache.hits")
        return link[_VALUE]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU on overflow."""
        evicted = 0
        with self._lock:
            link = self._links.get(key)
            if link is None:
                link = self._links[key] = [None, None, key, value]
            else:
                link[_VALUE] = value
                self._unlink(link)
            self._append(link)
            while len(self._links) > self.capacity:
                oldest = self._root[_NEXT]
                self._unlink(oldest)
                del self._links[oldest[_KEY]]
                self.evictions += 1
                evicted += 1
        if evicted:
            obs.add("serve.cache.evictions", evicted)

    def invalidate(self, match: Callable[[Hashable], bool]) -> int:
        """Evict every entry whose key satisfies ``match``.

        The scope-targeted eviction behind the engine's hot
        cluster-stats push: a stats-bucket change drops only the advice
        computed for the superseded bucket, leaving everything else
        warm.  Invalidations are counted separately from capacity
        evictions (and are neither hits nor misses, so the
        ``hits + misses == requests`` accounting the load harness checks
        is untouched).  Returns the number of evicted entries.
        """
        with self._lock:
            stale = [key for key in self._links if match(key)]
            for key in stale:
                self._unlink(self._links.pop(key))
            self.invalidations += len(stale)
        if stale:
            obs.add("serve.cache.invalidations", len(stale))
        return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._links)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._links

    def keys(self) -> list:
        """Current keys, least- to most-recently used (for tests)."""
        with self._lock:
            keys = []
            link = self._root[_NEXT]
            while link is not self._root:
                keys.append(link[_KEY])
                link = link[_NEXT]
            return keys

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for ``/metrics`` and the load harness."""
        with self._lock:
            return {
                "size": len(self._links),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
