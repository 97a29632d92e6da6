"""Failure-trace generation (experimental protocol of Section 5.1).

The paper injects failures from pre-generated *traces*: for each unique
MTBF it draws 10 traces of exponential inter-arrival times
(``lambda = 1/MTBF``) and reuses the *same* trace set across all
fault-tolerance schemes so their overheads are directly comparable.  This
module reproduces that protocol with seeded NumPy RNGs.

A :class:`FailureTrace` holds one strictly increasing failure-time sequence
per node.  Times are in seconds from query start.

Every trace comes from one generator, :func:`generate_trace_block`, and
records the failure process it was drawn from: ``mtbf``, the
:class:`~repro.chaos.CorrelatedFailures` spec (rack bursts, and a
Weibull base through its ``base_shape``), the ``chaos_seed`` that keys
the bursts, and the :class:`~repro.chaos.MtbfDrift` spec that thins the
base.  :func:`generate_trace` (one seed), :func:`generate_trace_set`
(a list) and :func:`cached_trace_set` are views of it, and
:func:`extend_trace` redraws a trace's recorded process at a larger
horizon.  Every part of the process is prefix-stable, so an extension
never changes failures inside the old horizon.

Node ``i`` of seed ``s`` always draws from the RNG key ``[s, i]``
(``[s, i, 7]`` for Weibull gaps), whatever the MTBF.  The gaps are drawn
at unit scale, cached per ``(seed, nodes, shape)`` in the process, and
multiplied by each cell's mean gap before the running sum -- so a sweep
that replays the same seeds at many MTBFs (Figure 8's grid) draws each
stream once, and every trace stays bit-identical to drawing
``rng.exponential(mtbf)`` gap by gap.  Every stream's generator equals
``np.random.default_rng(key)`` but is built by
:func:`repro.engine.seeding.generators`, which seeds all the keys of one
request in one array pass: every seed a trace set misses in the cache,
every burst of a trace, every node's drift-thinning stream.

A whole trace set is held as a :class:`TraceBlock`: one flat float64
array with an ``inf`` sentinel closing each ``(trace, node)`` row, which
the lockstep executor reads directly.  A plain set is drawn straight
into that form; the per-process cache holds blocks, and
:func:`cached_trace_set` hands out their :class:`FailureTrace` lists.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

import numpy as np

from .. import obs
from ..chaos.inject import BURST_STREAM, DRIFT_STREAM
from ..chaos.policy import CorrelatedFailures, MtbfDrift


@dataclass(frozen=True)
class FailureTrace:
    """Per-node failure times for one simulated run.

    Attributes
    ----------
    node_failures:
        One strictly increasing tuple of failure timestamps per node.
    mtbf:
        The per-node MTBF the trace was drawn with (informational).
    seed:
        RNG seed used (informational; enables reproduction of a run).
    horizon:
        Time up to which the trace is valid.  The executor raises
        :class:`TraceExhausted` when a simulated run outlives its trace,
        because "no failure recorded after the horizon" would otherwise be
        silently mistaken for "no failure happened".  Traces are
        prefix-stable: regenerating with the same seed and a larger
        horizon extends each node's sequence without changing it.
    correlated / chaos_seed:
        The burst overlay and Weibull ``base_shape`` the trace was
        generated with (``None`` for exponential traces without
        bursts) and the chaos seed namespacing the bursts; kept so
        :func:`extend_trace` regenerates the same process.
    injected:
        Number of failure times the burst overlay added within the
        horizon (0 for plain traces); surfaced by the executor as the
        ``chaos.injected.burst_failures`` counter.
    drift:
        The active :class:`~repro.chaos.MtbfDrift` spec the base
        streams were thinned with (``None`` for constant-rate traces);
        kept, like ``correlated``, so :func:`extend_trace` regenerates
        the same process.
    """

    node_failures: Tuple[Tuple[float, ...], ...]
    mtbf: float
    seed: Optional[int] = None
    horizon: float = float("inf")
    correlated: Optional[CorrelatedFailures] = None
    chaos_seed: int = 0
    injected: int = 0
    drift: Optional[MtbfDrift] = None

    @property
    def nodes(self) -> int:
        return len(self.node_failures)

    def failures_of(self, node: int) -> Tuple[float, ...]:
        """All failure times of ``node``."""
        return self.node_failures[node]

    def next_failure(self, node: int, after: float) -> Optional[float]:
        """First failure of ``node`` strictly after time ``after``."""
        failures = self.node_failures[node]
        index = bisect.bisect_right(failures, after)
        if index < len(failures):
            return failures[index]
        return None

    def first_failure(self, start: float, end: float) -> Optional[Tuple[float, int]]:
        """Earliest ``(time, node)`` failure in the window ``(start, end]``.

        Ties go to the lowest node.  This is the failure that restarts a
        coarse-grained query attempt; the executor finds it by walking a
        merged failure stream of all nodes, in the same order.
        """
        best: Optional[Tuple[float, int]] = None
        for node in range(self.nodes):
            failure = self.next_failure(node, start)
            if failure is not None and failure <= end:
                if best is None or failure < best[0]:
                    best = (failure, node)
        return best

    def failing_nodes(self, start: float, end: float) -> List[int]:
        """Nodes with a failure strictly inside ``(start, end)``, ascending.

        Used by the fine-grained executor when every node runs the same
        share from ``start`` to ``end``: exactly these nodes lose their
        attempt, the others finish undisturbed.
        """
        failing: List[int] = []
        for node, failures in enumerate(self.node_failures):
            index = bisect.bisect_right(failures, start)
            if index < len(failures) and failures[index] < end:
                failing.append(node)
        return failing

    def count_in(self, start: float, end: float) -> int:
        """Number of failures (over all nodes) in ``(start, end]``."""
        total = 0
        for failures in self.node_failures:
            total += (
                bisect.bisect_right(failures, end)
                - bisect.bisect_right(failures, start)
            )
        return total

    def shifted(self, offset: float) -> "FailureTrace":
        """The trace as seen from time ``offset`` onwards.

        Failures before ``offset`` are dropped and the remaining times
        are re-based to zero; used to run several queries back-to-back
        against one continuous failure timeline (the workload runner).
        The shifted trace loses its seed (it is no longer extendable).
        """
        if offset < 0:
            raise ValueError("offset must be >= 0")
        return FailureTrace(
            node_failures=tuple(
                tuple(f - offset for f in failures if f > offset)
                for failures in self.node_failures
            ),
            mtbf=self.mtbf,
            seed=None,
            horizon=self.horizon - offset,
        )

    @classmethod
    def empty(cls, nodes: int) -> "FailureTrace":
        """A trace with no failures -- the baseline run."""
        return cls(
            node_failures=tuple(() for _ in range(nodes)),
            mtbf=float("inf"),
        )


def _generators(keys: Sequence[Sequence[int]]) -> List[np.random.Generator]:
    """:func:`repro.engine.seeding.generators`, imported on first use:
    it loads ``numpy.random`` (~6 MiB resident), which processes that
    never draw a trace, such as ``repro serve``, do not pay for."""
    from .seeding import generators

    return generators(keys)


#: per-process cache of unit-scale inter-arrival gaps, keyed
#: ``(seed, nodes, shape)`` (see :func:`_unit_gaps`); holds plain arrays,
#: never ``Generator`` objects, and resets once it holds
#: ``_STREAM_CACHE_CAPACITY`` floats
_STREAM_CACHE: Dict[Tuple[int, int, Optional[float]], np.ndarray] = {}
_STREAM_CACHE_SIZE = {"floats": 0}
_STREAM_CACHE_CAPACITY = 1 << 20


def _unit_gaps(
    seeds: Sequence[int], nodes: int, shape: Optional[float], width: int,
) -> List[np.ndarray]:
    """One ``(nodes, >= width)`` array of unit-scale gaps per seed.

    Row ``node`` of seed ``s`` is the stream keyed ``[s, node]``
    (standard exponential) or ``[s, node, 7]`` (Weibull of ``shape``).
    These draws do not depend on the MTBF, so every cell that reuses a
    seed shares one array and scales it by its own mean gap.  A request
    wider than the cached array redraws it longer from the same keys;
    the streams are prefix-stable, so the old columns are unchanged.
    The generators of every seed the cache lacks are seeded together
    (:func:`~repro.engine.seeding.generators`).  Each seed counts one
    ``cache.trace_stream.hit`` or ``.miss``; ``seeds`` are distinct.
    """
    found = [_STREAM_CACHE.get((seed, nodes, shape)) for seed in seeds]
    missing = [index for index, gaps in enumerate(found)
               if gaps is None or gaps.shape[1] < width]
    if len(missing) < len(seeds):
        obs.add("cache.trace_stream.hit", len(seeds) - len(missing))
    if not missing:
        return found  # type: ignore[return-value]
    tail = () if shape is None else (7,)
    rngs = iter(_generators([
        (seeds[index], node, *tail)
        for index in missing for node in range(nodes)
    ]))
    for index in missing:
        gaps = np.empty((nodes, width))
        for row in gaps:
            if shape is None:
                next(rngs).standard_exponential(out=row)
            else:
                row[:] = next(rngs).weibull(shape, width)
        if _STREAM_CACHE_SIZE["floats"] + gaps.size > _STREAM_CACHE_CAPACITY:
            _STREAM_CACHE.clear()
            _STREAM_CACHE_SIZE["floats"] = 0
        _STREAM_CACHE[(seeds[index], nodes, shape)] = gaps
        _STREAM_CACHE_SIZE["floats"] += gaps.size
        found[index] = gaps
    obs.add("cache.trace_stream.miss", len(missing))
    return found  # type: ignore[return-value]


def _arrival_block(
    draw: Callable[[int], Sequence[np.ndarray]],
    scale: float,
    mean_gap: float,
    horizon: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Arrival times up to ``horizon`` for every row ``draw`` yields, as
    one flat block.

    ``draw(width)`` returns arrays of rows of at least ``width``
    unit-scale gaps.  Each row's gaps are multiplied by ``scale`` and
    summed along the row; the arrivals at or below ``horizon`` are laid
    out row after row in one float64 array, each row closed by an
    ``inf`` sentinel.  Returns ``(flat, offsets)``: row ``r`` spans
    ``flat[offsets[r]:offsets[r+1]]`` and its last entry is the
    sentinel.

    Bit-identical to drawing ``rng.exponential(scale)`` (or
    ``scale * rng.weibull(shape)``) one gap at a time and summing as it
    goes: NumPy computes ``exponential(m)`` as
    ``m * standard_exponential()``, batched draws equal repeated single
    draws, and the row-wise ``np.cumsum`` performs the same
    left-to-right float64 additions.  The scaling must come before the
    sum; scaling summed unit arrivals would round differently.  All rows
    are summed together; when some row falls short of the horizon,
    every row is drawn again twice as wide (prefix-stable, so the values
    do not depend on the width).
    """
    # expected count plus slack; widened until every row passes horizon
    expected = horizon / mean_gap if math.isfinite(mean_gap) else 0.0
    width = int(min(expected + 4.0 * math.sqrt(expected) + 16.0, 1e6))
    while True:
        gaps = [part[:, :width] for part in draw(width)]
        arrivals = np.concatenate(gaps) if len(gaps) > 1 else gaps[0].copy()
        np.multiply(arrivals, scale, out=arrivals)
        np.cumsum(arrivals, axis=1, out=arrivals)
        if (arrivals[:, -1] > horizon).all():
            break
        width *= 2
    # rows are increasing, so each row's covered arrivals are a prefix;
    # the first uncovered column becomes the row's sentinel
    beyond = arrivals > horizon
    counts = beyond.argmax(axis=1)
    rows = np.arange(arrivals.shape[0])
    beyond[rows, counts] = False
    arrivals[rows, counts] = np.inf
    flat = arrivals[~beyond]
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts + 1, out=offsets[1:])
    return flat, offsets


def _block_rows(flat: np.ndarray, offsets: np.ndarray,
                first: int, stop: int) -> Tuple[Tuple[float, ...], ...]:
    """Rows ``first .. stop-1`` of a block as tuples (sentinels dropped)."""
    bounds = offsets[first:stop + 1].tolist()
    base = bounds[0]
    values = flat[base:bounds[-1]].tolist()
    return tuple(
        tuple(values[start - base:end - base - 1])
        for start, end in zip(bounds, bounds[1:])
    )


def generate_trace(
    nodes: int,
    mtbf: float,
    horizon: float,
    seed: int,
    correlated: Optional[CorrelatedFailures] = None,
    chaos_seed: int = 0,
    drift: Optional[MtbfDrift] = None,
) -> FailureTrace:
    """Draw one failure trace: :func:`generate_trace_block` with one seed.

    Parameters
    ----------
    nodes:
        Cluster size; each node gets an independent failure process.
    mtbf:
        Per-node mean time between failures (seconds).
    horizon:
        Generate failures up to this time.  Pick comfortably above the
        expected query runtime under failures; the executor raises if a
        run outlives its trace (see :class:`TraceExhausted`).
    seed:
        RNG seed; the same seed always yields the same trace.
    correlated / chaos_seed / drift:
        The failure process beyond plain exponential gaps (see
        :func:`generate_trace_block`); all recorded on the trace.
    """
    return generate_trace_block(
        nodes, mtbf, horizon, count=1, base_seed=seed,
        correlated=correlated, chaos_seed=chaos_seed, drift=drift,
    )[0]


def _apply_burst_overlay(
    base: Sequence[Tuple[float, ...]],
    nodes: int,
    horizon: float,
    seed: int,
    spec: CorrelatedFailures,
    chaos_seed: int,
) -> Tuple[Tuple[Tuple[float, ...], ...], int]:
    """Layer ``spec``'s rack bursts on the base streams.

    Burst opportunities arrive from one seeded stream with mean gap
    ``spec.burst_mtbf``; opportunity ``i`` draws its thinning
    acceptance, rack start, and per-node jitters from a fresh stream
    keyed ``(chaos_seed, seed, BURST_STREAM, i)``, so the overlay is

    * **prefix-stable** -- extending the horizon never changes failures
      already inside it (same discipline as the base streams), and
    * **metamorphic** -- raising ``intensity`` or ``rack_size`` with the
      same seeds only ever *adds* failure times, never moves or removes
      one (the monotonicity the property suite pins).

    Returns the merged streams and the number of failures added.
    """
    extra: Dict[int, List[float]] = {}
    injected = 0
    if spec.active:
        key = (chaos_seed, seed, BURST_STREAM)
        flat, _ = _arrival_block(
            lambda width: [_generators([key])[0].standard_exponential(
                (1, width))],
            spec.burst_mtbf, spec.burst_mtbf, horizon,
        )
        opportunities = flat[:-1].tolist()  # drop the inf sentinel
        width = min(spec.rack_size, nodes)
        burst_rngs = _generators([(*key, index)
                                 for index in range(len(opportunities))])
        for burst_time, burst_rng in zip(opportunities, burst_rngs):
            # fixed in-stream draw order (accept, rack, jitters) keeps a
            # burst's shape identical across intensity settings
            if float(burst_rng.random()) >= spec.intensity:
                continue
            rack_start = int(burst_rng.integers(0, nodes))
            if spec.jitter > 0:
                jitters = burst_rng.exponential(spec.jitter, size=width)
            else:
                jitters = np.zeros(width)
            for offset in range(width):
                node = (rack_start + offset) % nodes
                when = burst_time + float(jitters[offset])
                if when <= horizon:
                    extra.setdefault(node, []).append(when)
                    injected += 1
    node_failures: List[Tuple[float, ...]] = []
    for node in range(nodes):
        added = extra.get(node)
        if added:
            node_failures.append(
                tuple(sorted(set(base[node]).union(added)))
            )
        else:
            node_failures.append(base[node])
    return tuple(node_failures), injected


class TraceExhausted(RuntimeError):
    """A simulated run outlived its failure trace's horizon.

    Regenerate the trace with a larger horizon (:func:`extend_trace`) and
    re-run; :func:`retry_with_extension` does both.
    """


#: most runs :func:`retry_with_extension` attempts, the trace growing
#: x4 between attempts, before it gives the run up
MAX_TRACE_EXTENSIONS = 20

_Result = TypeVar("_Result")


def retry_with_extension(
    run: Callable[[FailureTrace], _Result],
    trace: FailureTrace,
    max_extensions: int = MAX_TRACE_EXTENSIONS,
) -> Tuple[_Result, FailureTrace]:
    """Call ``run(trace)``, growing the horizon x4 while it is exhausted.

    Returns the run's result and the (possibly extended) trace, so
    callers can keep the longer trace instead of re-extending it on the
    next run.  Extension is prefix-stable, so a deterministic run replays
    the failures it already consumed and simply continues past the old
    horizon: the result equals having generated the longer trace up
    front.  ``run`` is attempted at most ``max_extensions`` times; a
    trace without a seed cannot be extended, so its first
    :class:`TraceExhausted` propagates unchanged.
    """
    for attempt in range(max_extensions):
        if attempt:
            trace = extend_trace(trace, trace.horizon * 4)
        try:
            return run(trace), trace
        except TraceExhausted:
            if trace.seed is None:
                raise
    raise TraceExhausted(
        f"run did not finish within {max_extensions} trace extensions; "
        "the configuration likely cannot make progress at this MTBF"
    )


def extend_trace(trace: FailureTrace, horizon: float) -> FailureTrace:
    """Regenerate ``trace`` with a larger horizon (same seed, same prefix).

    The trace records its whole failure process (``mtbf``,
    ``correlated``, ``chaos_seed``, ``drift``), so the extension is one
    :func:`generate_trace` call with that process and the new horizon.
    Every part of the process is prefix-stable, so the extension never
    changes failures the caller already replayed.
    """
    if trace.seed is None:
        raise ValueError("cannot extend a trace without a seed")
    if horizon <= trace.horizon:
        return trace
    return generate_trace(
        trace.nodes, trace.mtbf, horizon, trace.seed,
        correlated=trace.correlated, chaos_seed=trace.chaos_seed,
        drift=trace.drift,
    )


def _rows_array(
    rows: Sequence[Tuple[float, ...]],
) -> Tuple[np.ndarray, List[int]]:
    """``rows`` as one flat array, each row closed by an ``inf``
    sentinel, plus each row's length (sentinel included)."""
    lengths = [len(row) + 1 for row in rows]
    flat = np.fromiter(
        (time for row in rows for time in (*row, math.inf)),
        dtype=np.float64, count=sum(lengths),
    )
    return flat, lengths


class TraceBlock(Sequence[FailureTrace]):
    """A trace set held as one flat float64 failure array.

    Row ``t * nodes + n`` holds node ``n`` of trace ``t``: its failure
    times in increasing order, closed by an ``inf`` sentinel, at
    ``flat[offsets[row]:offsets[row + 1]]``.  The lockstep executor
    (:meth:`~repro.engine.executor.SimulatedEngine.execute_many`) reads
    the arrays directly, so a plain generated set never builds per-node
    tuples; indexing builds the :class:`FailureTrace` of one trace on
    first request and keeps it.

    A block is a read-only sequence except for write-back:
    ``block[i] = extended`` replaces trace ``i`` by an extension of
    itself (same seed, larger horizon).  :meth:`as_list` hands out the
    block's own trace list, so extensions written into that list count
    the same.  Either way the next :meth:`arrays` call splices the new
    rows in.
    """

    def __init__(
        self,
        nodes: int,
        mtbf: float,
        seeds: Sequence[Optional[int]],
        horizons: Sequence[float],
        flat: Optional[np.ndarray] = None,
        offsets: Optional[np.ndarray] = None,
        traces: Optional[Sequence[FailureTrace]] = None,
    ) -> None:
        self.nodes = nodes
        self.mtbf = mtbf
        self.seeds = list(seeds)
        #: per-trace horizon, kept in step with the arrays' rows
        self.horizons = np.array(horizons, dtype=np.float64)
        self._flat = flat
        self._offsets = offsets
        self._traces: List[Optional[FailureTrace]] = (
            list(traces) if traces is not None else [None] * len(seeds)
        )
        #: the trace each index's rows were taken from (None: generated)
        self._row_source: List[Optional[FailureTrace]] = list(self._traces)

    @classmethod
    def from_traces(cls, traces: Sequence[FailureTrace]) -> "TraceBlock":
        """A block over existing traces; the arrays are built on first
        use (so list-only callers never pay for them)."""
        if not traces:
            raise ValueError("a trace block needs at least one trace")
        nodes = traces[0].nodes
        if any(trace.nodes != nodes for trace in traces):
            raise ValueError("every trace of a block must cover the same "
                             "nodes")
        return cls(
            nodes, traces[0].mtbf, [trace.seed for trace in traces],
            [trace.horizon for trace in traces], traces=traces,
        )

    def __len__(self) -> int:
        return len(self._traces)

    def __getitem__(  # type: ignore[override]
        self, index: int,
    ) -> FailureTrace:
        trace = self._traces[index]
        if trace is None:
            flat, offsets = self.arrays()
            first = (index % len(self)) * self.nodes
            trace = FailureTrace(
                node_failures=_block_rows(flat, offsets, first,
                                          first + self.nodes),
                mtbf=self.mtbf,
                seed=self.seeds[index],
                horizon=float(self.horizons[index]),
            )
            self._traces[index] = trace
            self._row_source[index] = trace
        return trace

    def __iter__(self) -> Iterator[FailureTrace]:
        return (self[index] for index in range(len(self)))

    def __setitem__(self, index: int, trace: FailureTrace) -> None:
        """Write back an extension of trace ``index``."""
        if trace.nodes != self.nodes:
            raise ValueError(f"trace covers {trace.nodes} nodes, the "
                             f"block {self.nodes}")
        # the arrays take the new rows on their next use (arrays())
        self._traces[index] = trace

    @property
    def injected(self) -> List[int]:
        """Per-trace burst-overlay failure counts (0 for plain traces)."""
        return [0 if trace is None else trace.injected
                for trace in self._traces]

    def as_list(self) -> List[FailureTrace]:
        """Every trace as a :class:`FailureTrace`: the block's own list."""
        for index in range(len(self)):
            self[index]
        return self._traces  # type: ignore[return-value]

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(flat, offsets)``, with any written-back extension spliced
        in."""
        if self._flat is None:
            flat, lengths = _rows_array([
                row for trace in self._traces for row in trace.node_failures
            ])
            self._flat = flat
            self._offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
            np.cumsum(lengths, out=self._offsets[1:])
            self.horizons[:] = [trace.horizon for trace in self._traces]
            self._row_source = list(self._traces)
        else:
            for index, trace in enumerate(self._traces):
                if trace is not self._row_source[index]:
                    self._splice(index, trace)
        return self._flat, self._offsets  # type: ignore[return-value]

    def _splice(self, index: int, trace: FailureTrace) -> None:
        """Replace trace ``index``'s rows in the arrays by ``trace``'s."""
        flat, offsets = self._flat, self._offsets
        first = index * self.nodes
        piece, lengths = _rows_array(trace.node_failures)
        start, end = int(offsets[first]), int(offsets[first + self.nodes])
        self._flat = np.concatenate((flat[:start], piece, flat[end:]))
        offsets[first + self.nodes + 1:] += piece.size - (end - start)
        offsets[first + 1:first + self.nodes + 1] = (
            start + np.cumsum(lengths))
        self.horizons[index] = trace.horizon
        self._row_source[index] = trace


def generate_trace_block(
    nodes: int,
    mtbf: float,
    horizon: float,
    count: int = 10,
    base_seed: int = 0,
    correlated: Optional[CorrelatedFailures] = None,
    chaos_seed: int = 0,
    drift: Optional[MtbfDrift] = None,
) -> TraceBlock:
    """The one failure-trace generator: ``count`` traces, seeds
    ``base_seed + i``, as a :class:`TraceBlock`.

    The failure process is ``mtbf`` plus three optional parts, each
    recorded on every trace so :func:`extend_trace` can redraw it:

    * ``correlated.base_shape`` makes the base gaps Weibull of that
      shape with the same mean (field studies -- Schroeder & Gibson,
      FAST'07 -- fit node failures with shape < 1: failures cluster);
    * ``drift`` (an active :class:`~repro.chaos.MtbfDrift`) thins a
      homogeneous envelope at the peak rate ``drift.max_factor / mtbf``:
      arrival ``t`` of node ``n`` is kept iff its uniform ``u`` from the
      stream keyed ``[chaos_seed, seed, n, DRIFT_STREAM]`` satisfies
      ``u * max_factor < drift.rate_factor(t)``.  At zero drift the
      envelope is the exponential process itself and every ``u < 1``
      accepts;
    * ``correlated`` (with ``chaos_seed``) layers rack-scoped bursts on
      the base streams (:func:`_apply_burst_overlay`).

    The base rows of every seed come from one :func:`_arrival_block`
    pass over the cached unit gaps; thinning and bursts then run trace
    by trace.  A plain set (no ``correlated``, no active ``drift``)
    stays in that block form, which the lockstep executor reads
    directly.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    if mtbf <= 0:
        raise ValueError("mtbf must be > 0")
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    if drift is not None and not drift.active:
        drift = None
    shape = correlated.base_shape if correlated is not None else None
    if drift is not None and shape is not None:
        raise ValueError(
            "MTBF drift thins an exponential envelope and cannot "
            "compose with a Weibull base_shape"
        )
    seeds = [base_seed + index for index in range(count)]
    max_factor = 1.0 if drift is None else drift.max_factor
    mean_gap = mtbf / max_factor
    scale = mean_gap
    if shape is not None:
        # scale chosen so the mean inter-arrival equals mtbf:
        # E[X] = scale * Gamma(1 + 1/shape)
        scale = mtbf / math.gamma(1.0 + 1.0 / shape)
    flat, offsets = _arrival_block(
        lambda width: _unit_gaps(seeds, nodes, shape, width),
        scale, mean_gap, horizon,
    )
    if correlated is None and drift is None:
        return TraceBlock(nodes, mtbf, seeds, [horizon] * count, flat=flat,
                          offsets=offsets)
    accept_rngs = [] if drift is None else _generators([
        (chaos_seed, seed, node, DRIFT_STREAM)
        for seed in seeds for node in range(nodes)
    ])
    traces = []
    for index, seed in enumerate(seeds):
        first, stop = index * nodes, (index + 1) * nodes
        rows = _block_rows(flat, offsets, first, stop)
        if drift is not None:
            rows = tuple(
                tuple(t for t, u in zip(arrivals,
                                        accept.random(len(arrivals)))
                      if float(u) * max_factor < drift.rate_factor(t))
                for arrivals, accept in zip(rows, accept_rngs[first:stop])
            )
        injected = 0
        if correlated is not None:
            rows, injected = _apply_burst_overlay(
                rows, nodes, horizon, seed, correlated, chaos_seed,
            )
        traces.append(FailureTrace(
            node_failures=rows, mtbf=mtbf, seed=seed, horizon=horizon,
            correlated=correlated, chaos_seed=chaos_seed,
            injected=injected, drift=drift,
        ))
    return TraceBlock.from_traces(traces)


def generate_trace_set(
    nodes: int,
    mtbf: float,
    horizon: float,
    count: int = 10,
    base_seed: int = 0,
    correlated: Optional[CorrelatedFailures] = None,
    chaos_seed: int = 0,
    drift: Optional[MtbfDrift] = None,
) -> List[FailureTrace]:
    """The paper's protocol: ``count`` traces per unique MTBF (default 10).

    Seeds are ``base_seed + i`` so trace sets are reproducible and
    disjoint across experiments that pick different ``base_seed`` values.
    :func:`generate_trace_block` as a list; ``correlated`` and ``drift``
    select the failure process as there.
    """
    return generate_trace_block(
        nodes, mtbf, horizon, count=count, base_seed=base_seed,
        correlated=correlated, chaos_seed=chaos_seed, drift=drift,
    ).as_list()


#: cache key: the full trace protocol, including any chaos overlay
_TraceSetKey = Tuple[int, float, float, int, int,
                     Optional[CorrelatedFailures], int,
                     Optional[MtbfDrift]]

#: process-global trace-set cache (see :func:`cached_trace_block`)
_TRACE_SET_CACHE: Dict[_TraceSetKey, TraceBlock] = {}
_TRACE_SET_CAPACITY = 256
#: cache effectiveness counters (process-local; see trace_cache_stats)
_TRACE_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def trace_cache_stats() -> Dict[str, int]:
    """Hit/miss/eviction counts of the process-global trace-set cache.

    Returns a copy; counters are per-process (pool workers each warm and
    count their own cache) and reset with :func:`reset_trace_cache`.
    """
    return dict(_TRACE_CACHE_STATS)


def reset_trace_cache() -> None:
    """Drop all cached trace sets and unit-gap streams and zero the
    counters (test hook)."""
    _TRACE_SET_CACHE.clear()
    _STREAM_CACHE.clear()
    _STREAM_CACHE_SIZE["floats"] = 0
    for key in _TRACE_CACHE_STATS:
        _TRACE_CACHE_STATS[key] = 0


def cached_trace_block(
    nodes: int,
    mtbf: float,
    horizon: float,
    count: int = 10,
    base_seed: int = 0,
    correlated: Optional[CorrelatedFailures] = None,
    chaos_seed: int = 0,
    drift: Optional[MtbfDrift] = None,
) -> TraceBlock:
    """Process-global cached variant of :func:`generate_trace_block`.

    Keyed by ``(nodes, mtbf, horizon, count, base_seed)`` plus the chaos
    overlay ``(correlated, chaos_seed)`` so every experiment cell that
    asks for the same protocol shares one generated set instead of
    regenerating it per call site -- and injected and clean campaigns
    can never collide on a cache entry.  The returned block is the
    *shared* cache entry: callers may replace a trace only with an
    extension of the same trace (same seed, larger horizon) --
    extensions are prefix-stable, so every sharer still observes
    identical failure times while re-extension work is amortized across
    callers.

    The cache is capacity-capped (it resets once full rather than growing
    without bound) and per-process, so campaign workers each warm their
    own copy and never share mutable state across processes.  Hits and
    misses are counted (:func:`trace_cache_stats`) and mirrored into the
    observability layer as ``cache.trace_set.hit`` / ``.miss``.

    A miss generates the set from the per-process unit-gap cache, which
    is keyed by seed rather than by MTBF: cells that differ only in MTBF
    (or horizon) reuse the same unit streams and scale them by their own
    mean gap.  Those lookups count as ``cache.trace_stream.hit`` /
    ``.miss`` (a miss is one draw of a seed's streams); the stream cache
    is bounded by its total floats and cleared, like this one, by
    :func:`reset_trace_cache`.
    """
    key: _TraceSetKey = (nodes, mtbf, horizon, count, base_seed,
                         correlated, chaos_seed, drift)
    block = _TRACE_SET_CACHE.get(key)
    if block is None:
        if len(_TRACE_SET_CACHE) >= _TRACE_SET_CAPACITY:
            _TRACE_SET_CACHE.clear()
            _TRACE_CACHE_STATS["evictions"] += 1
        block = generate_trace_block(
            nodes, mtbf, horizon, count=count, base_seed=base_seed,
            correlated=correlated, chaos_seed=chaos_seed, drift=drift,
        )
        _TRACE_SET_CACHE[key] = block
        _TRACE_CACHE_STATS["misses"] += 1
        obs.add("cache.trace_set.miss")
    else:
        _TRACE_CACHE_STATS["hits"] += 1
        obs.add("cache.trace_set.hit")
    return block


def cached_trace_set(
    nodes: int,
    mtbf: float,
    horizon: float,
    count: int = 10,
    base_seed: int = 0,
    correlated: Optional[CorrelatedFailures] = None,
    chaos_seed: int = 0,
    drift: Optional[MtbfDrift] = None,
) -> List[FailureTrace]:
    """:func:`cached_trace_block` as a list of :class:`FailureTrace`.

    The list is the cached block's own (:meth:`TraceBlock.as_list`):
    every call with the same key returns the same list object, and an
    extension written into it is seen by the block's other users.
    """
    return cached_trace_block(
        nodes, mtbf, horizon, count=count, base_seed=base_seed,
        correlated=correlated, chaos_seed=chaos_seed, drift=drift,
    ).as_list()


def empirical_mtbf(trace: FailureTrace) -> Optional[float]:
    """Observed per-node MTBF of a trace (None when it has no failures).

    Estimated from the total failure count over the covered horizon; used
    by tests to validate the generator against its nominal rate.
    """
    total_failures = sum(len(f) for f in trace.node_failures)
    if total_failures == 0:
        return None
    horizon = max(
        (failures[-1] for failures in trace.node_failures if failures),
        default=0.0,
    )
    if horizon <= 0.0:
        return None
    return horizon * trace.nodes / total_failures
