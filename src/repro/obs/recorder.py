"""The :class:`Recorder`: nested spans, counters and gauges.

A recorder is a plain in-process event sink.  Instrumented code never
talks to it directly -- it goes through the module-level helpers in
:mod:`repro.obs` (``span`` / ``add`` / ``gauge``), which collapse to
no-ops when no recorder is installed, so the disabled mode costs one
global load and a ``None`` check per call site.

Design points:

* **Spans** form a tree.  ``span()`` is a context manager; entering
  assigns the next monotonic id and links the span to the innermost open
  span, exiting stamps the end time.  Times are ``perf_counter`` seconds
  relative to the recorder's creation, so snapshots from different
  processes can be laid side by side without clock translation.
* **Counters** are monotonically increasing sums, **gauges** are
  last-write-wins values.  Both are plain string-keyed dicts; dotted
  names (``search.configs_enumerated``) group related metrics.
* **Snapshots** (:class:`RecorderSnapshot`) are picklable value objects.
  Process-pool workers record into their own recorder and ship a
  snapshot back; :meth:`Recorder.merge` folds it into the parent --
  counters and gauges by key, spans re-parented under the currently open
  span with ids remapped past the parent's counter.  Merging in unit
  order makes counter totals independent of how work was scheduled
  (``jobs=4`` merges to the same totals as ``jobs=1`` for every counter
  that does not measure process-local cache state; see
  ``docs/observability.md``).
* **Thread safety.**  All mutation (span open/close, counters, gauges,
  merge, snapshot) is guarded by one internal lock, so concurrent
  request threads -- the advisory service (:mod:`repro.serve`) runs many
  at once against the single installed recorder -- never corrupt state
  and never lose counter increments.  Span *nesting* is still a single
  recorder-wide stack: spans opened by different threads interleave on
  it, so concurrent span trees are best-effort (durations stay correct,
  parentage may cross threads).  The engines' hot loops are unaffected:
  they keep local tallies and fold them in once per region.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass
class SpanRecord:
    """One completed (or still open) span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float                     #: seconds since the recorder epoch
    end: Optional[float] = None      #: None while the span is open
    attrs: Dict[str, Any] = field(default_factory=dict)
    track: str = "main"              #: one timeline row per track

    @property
    def duration(self) -> float:
        """Wall duration (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start


@dataclass(frozen=True)
class RecorderSnapshot:
    """Picklable copy of a recorder's state (for cross-process merge)."""

    spans: Tuple[SpanRecord, ...]
    counters: Tuple[Tuple[str, int], ...]
    gauges: Tuple[Tuple[str, float], ...]


class _SpanHandle:
    """Context manager returned by :meth:`Recorder.span`."""

    __slots__ = ("_recorder", "_record")

    def __init__(self, recorder: "Recorder", record: SpanRecord) -> None:
        self._recorder = recorder
        self._record = record

    @property
    def record(self) -> SpanRecord:
        return self._record

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span after entry."""
        self._record.attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._recorder._close_span(self._record)


#: counter namespaces measuring process-local state (cache hit/miss
#: tallies, pool retry plumbing): their totals legitimately depend on
#: how work was scheduled, so determinism comparisons must skip them.
PROCESS_LOCAL_COUNTER_PREFIXES: Tuple[str, ...] = (
    "cache.",
    # advisory-service traffic accounting: hits/sheds/coalescing depend
    # on request arrival order and cache temperature, never on results
    "serve.",
)
PROCESS_LOCAL_COUNTERS: Tuple[str, ...] = (
    "campaign.retries", "campaign.serial_fallbacks",
    # sharded-search orchestration: shard count tracks the requested
    # topology, and Rule-3 effectiveness depends on bound propagation
    # timing between workers (the *result* stays bit-identical; only
    # how much work each shard skipped varies)
    "search.shards", "search.retries", "search.serial_fallbacks",
    "search.bound_updates", "search.bound_skips",
    "search.paths_estimated", "search.rule3.plan_cutoffs",
)


class Recorder:
    """In-process span/counter/gauge sink.

    Mutation is lock-guarded (see the module docstring): the search and
    simulation engines are single-threaded per process, but the advisory
    service serves concurrent request threads against one recorder, and
    its counters must not lose increments under contention.
    """

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self.spans: List[SpanRecord] = []
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self._stack: List[SpanRecord] = []
        self._next_id = 0
        self._lock = threading.Lock()

    def __getstate__(self) -> Dict[str, Any]:
        """Drop the (unpicklable) lock; cross-process transport stays
        snapshot-based, this only keeps ad-hoc pickling from crashing."""
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the recorder was created."""
        return time.perf_counter() - self._epoch

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a nested span; use as a context manager."""
        with self._lock:
            parent = self._stack[-1].span_id if self._stack else None
            record = SpanRecord(
                span_id=self._next_id,
                parent_id=parent,
                name=name,
                start=self.now(),
                attrs=dict(attrs),
            )
            self._next_id += 1
            self.spans.append(record)
            self._stack.append(record)
        return _SpanHandle(self, record)

    def _close_span(self, record: SpanRecord) -> None:
        with self._lock:
            record.end = self.now()
            # exits normally unwind innermost-first; tolerate skipped
            # levels (and, under threads, spans another thread opened)
            if record in self._stack:
                while self._stack:
                    top = self._stack.pop()
                    if top is record:
                        break
                    if top.end is None:
                        top.end = record.end

    def add(self, name: str, value: int = 1) -> None:
        """Increment a counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge (last write wins)."""
        with self._lock:
            self.gauges[name] = value

    # ------------------------------------------------------------------
    # snapshots and merging
    # ------------------------------------------------------------------
    def snapshot(self) -> RecorderSnapshot:
        """A picklable copy of the current state (open spans included)."""
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> RecorderSnapshot:
        spans = tuple(
            SpanRecord(
                span_id=s.span_id, parent_id=s.parent_id, name=s.name,
                start=s.start, end=s.end, attrs=dict(s.attrs),
                track=s.track,
            )
            for s in self.spans
        )
        return RecorderSnapshot(
            spans=spans,
            counters=tuple(sorted(self.counters.items())),
            gauges=tuple(sorted(self.gauges.items())),
        )

    def merge(self, snapshot: RecorderSnapshot,
              track: Optional[str] = None) -> None:
        """Fold a child recording (e.g. from a pool worker) into this one.

        Counters sum, gauges overwrite, spans are appended with their ids
        remapped past this recorder's id counter.  Root spans of the
        snapshot are re-parented under the currently open span, so a
        worker's recording nests under the fan-out span that spawned it.
        ``track`` relabels the merged spans' timeline row (e.g.
        ``"worker-3"``); child span times stay relative to the *child's*
        epoch -- cross-process clock skew is not corrected, which is fine
        for the worker-lifetime profiles this is used for.
        """
        with self._lock:
            for name, value in snapshot.counters:
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in snapshot.gauges:
                self.gauges[name] = value
            if not snapshot.spans:
                return
            offset = self._next_id
            anchor = self._stack[-1].span_id if self._stack else None
            for span in snapshot.spans:
                parent = (
                    span.parent_id + offset
                    if span.parent_id is not None else anchor
                )
                self.spans.append(SpanRecord(
                    span_id=span.span_id + offset,
                    parent_id=parent,
                    name=span.name,
                    start=span.start,
                    end=span.end if span.end is not None else span.start,
                    attrs=dict(span.attrs),
                    track=track if track is not None else span.track,
                ))
            self._next_id = offset + 1 + max(
                span.span_id for span in snapshot.spans
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def deterministic_counters(self) -> Dict[str, int]:
        """Counters whose totals must be identical across job counts.

        The replay sanitizer (:mod:`repro.analysis.sanitizer`) compares
        this view between a ``jobs=1`` and a ``jobs=N`` run; the
        process-local namespaces (:data:`PROCESS_LOCAL_COUNTER_PREFIXES`
        / :data:`PROCESS_LOCAL_COUNTERS`) are excluded because their
        totals measure scheduling, not results.
        """
        with self._lock:
            items = sorted(self.counters.items())
        return {
            name: value
            for name, value in items
            if name not in PROCESS_LOCAL_COUNTERS
            and not name.startswith(PROCESS_LOCAL_COUNTER_PREFIXES)
        }

    def children_of(self, span_id: Optional[int]) -> Iterator[SpanRecord]:
        for span in self.spans:
            if span.parent_id == span_id:
                yield span

    def summary(self) -> Dict[str, Any]:
        """Aggregate view: counters, gauges and per-span-name timings."""
        with self._lock:
            spans = list(self.spans)
        by_name: Dict[str, Dict[str, float]] = {}
        for span in spans:
            entry = by_name.setdefault(
                span.name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += span.duration
            entry["max_s"] = max(entry["max_s"], span.duration)
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "spans": {
                name: {
                    "count": int(entry["count"]),
                    "total_s": entry["total_s"],
                    "max_s": entry["max_s"],
                }
                for name, entry in sorted(by_name.items())
            },
        }
