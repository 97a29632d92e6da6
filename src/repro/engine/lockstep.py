"""Lockstep execution: one prepared plan over a whole trace set at once.

The Section 5 protocol replays one shared trace set against every
scheme of a cell, and :meth:`SimulatedEngine.execute_prepared` replays
it one trace at a time.  When a run's outcome depends on nothing but
failure times (:meth:`SimulatedEngine.lockstep_eligible`), every trace
can instead advance through the plan together, as NumPy lanes over the
set's :class:`~repro.engine.traces.TraceBlock` -- one flat float64 array
in which row ``t * nodes + n`` holds node ``n``'s failures of trace
``t``, closed by an ``inf`` sentinel.

* **Fine-grained recovery** walks the collapsed groups in the same
  topological order as the per-trace executor.  A group's gates and its
  failure-free finish are ``(traces,)`` vectors; a vectorised
  ``bisect_right`` over every ``(trace, node)`` row finds the shares a
  failure interrupts, and only those shares become lanes that replay
  attempts until one survives.
* **RESTART_QUERY** merges each trace's rows into one time-ordered
  stream and steps one lane per trace through its attempts, aborting
  after ``Cluster.max_restarts`` restarts.

Every lane performs the per-trace executor's float operations in the
same order (``max`` then ``+``, element-wise), and failure lookups are
exact comparisons, so results are bit-identical to it.  A trace whose
run outlives its horizon is discarded here and rerun through
:meth:`SimulatedEngine.run_extending`, which also writes the extended
trace back -- exactly the per-trace path, counters included.
"""

from __future__ import annotations

from functools import reduce
from typing import (
    TYPE_CHECKING, Dict, MutableSequence, Optional, Sequence, Tuple,
)

import numpy as np

from .. import obs
from ..core.strategies import RecoveryMode
from .executor import BatchResult
from .traces import FailureTrace, TraceBlock

if TYPE_CHECKING:
    from .executor import PreparedExecution, SimulatedEngine, _GroupTemplate


def run_lockstep(
    engine: "SimulatedEngine",
    prepared: "PreparedExecution",
    traces: Sequence[FailureTrace],
) -> BatchResult:
    """:meth:`SimulatedEngine.execute_many` for an eligible set."""
    block = (traces if isinstance(traces, TraceBlock)
             else TraceBlock.from_traces(traces))
    nodes = engine.cluster.nodes
    if block.nodes != nodes:
        raise ValueError(f"trace covers {block.nodes} nodes, cluster has "
                         f"{nodes}")
    flat, offsets = block.arrays()
    count = len(block)
    if prepared.configured.recovery is RecoveryMode.RESTART_QUERY:
        runtime, aborted, restarts = _coarse_lanes(
            engine, prepared, flat, offsets, count)
        share_restarts = np.zeros(count, dtype=np.int64)
        failures = restarts
    else:
        runtime, share_restarts, failures = _fine_lanes(
            engine, prepared, flat, offsets, count)
        aborted = np.zeros(count, dtype=bool)
        restarts = np.zeros(count, dtype=np.int64)
    exhausted = runtime > block.horizons
    _count_runs(engine, prepared, block, exhausted)

    rows = [runtime.tolist(), aborted.tolist(), restarts.tolist(),
            share_restarts.tolist(), failures.tolist()]
    writeback = (traces is not block
                 and isinstance(traces, MutableSequence))
    for index in np.flatnonzero(exhausted).tolist():
        # the run outlived the trace: rerun it the per-trace way, which
        # extends the trace (and counts the discarded run, as here)
        trace = block[index]
        result, extended = engine.run_extending(prepared, trace)
        if extended is not trace:
            block[index] = extended
            if writeback:
                traces[index] = extended  # type: ignore[index]
        for row, value in zip(rows, (
                result.runtime, result.aborted, result.restarts,
                result.share_restarts, result.failures_hit)):
            row[index] = value
    return BatchResult(*map(tuple, rows), lockstep=True)


def _count_runs(
    engine: "SimulatedEngine",
    prepared: "PreparedExecution",
    block: TraceBlock,
    exhausted: np.ndarray,
) -> None:
    """The ``obs`` counters the per-trace executor adds per run, for the
    runs that finished within their horizon (exhausted ones are counted
    by their rerun)."""
    recorder = obs.get_recorder()
    if recorder is None:
        return
    kept = ~exhausted
    runs = int(kept.sum())
    injected = sum(value for value, keep
                   in zip(block.injected, kept.tolist()) if keep)
    if injected > 0:
        recorder.add("chaos.injected.burst_failures", injected)
    if prepared.configured.recovery is not RecoveryMode.RESTART_QUERY:
        writes = sum(template.materializes
                     for template in prepared.templates)
        if runs and writes:
            # each node's share persists its partition of a group output
            recorder.add("sim.checkpoint.writes",
                         runs * writes * engine.cluster.nodes)


# ----------------------------------------------------------------------
# fine-grained recovery
# ----------------------------------------------------------------------
def _fine_lanes(
    engine: "SimulatedEngine",
    prepared: "PreparedExecution",
    flat: np.ndarray,
    offsets: np.ndarray,
    count: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trace ``(runtime, share restarts, failures hit)``."""
    nodes = engine.cluster.nodes
    first = offsets[:-1]
    sentinel = offsets[1:] - 1
    rounds = int((sentinel - first).max() + 1).bit_length()
    #: flat positions of the failures some share was hit by
    seen = np.zeros(flat.size, dtype=bool)
    share_restarts = np.zeros(count, dtype=np.int64)
    completion: Dict[int, np.ndarray] = {}
    for template in prepared.templates:
        gates = [_gate(anchors, completion) for anchors, _ in template.steps]
        durations = [duration for _, duration in template.steps]
        start = gates[0] if gates[0] is not None else np.zeros(count)
        finish = _attempt(start, gates, durations)
        # every (trace, node) share's first failure after the start;
        # the shares it hits before the finish replay as lanes
        hit = _bisect_right(flat, first, sentinel,
                            np.repeat(start, nodes), rounds)
        lanes = np.flatnonzero(flat[hit] < np.repeat(finish, nodes))
        if lanes.size:
            _replay_shares(engine, template, flat, lanes, hit[lanes],
                           gates, durations, finish, share_restarts, seen)
        completion[template.anchor] = finish
    runtime = reduce(np.maximum,
                     [completion[sink] for sink in prepared.collapsed.sinks])
    trace_starts = offsets[0:count * nodes:nodes]
    failures = np.add.reduceat(seen, trace_starts, dtype=np.int64)
    return runtime, share_restarts, failures


def _gate(anchors: Tuple[int, ...],
          completion: Dict[int, np.ndarray]) -> Optional[np.ndarray]:
    """A step's gate per trace: its latest producer completion (``None``
    for gate 0, which never delays a share)."""
    if not anchors:
        return None
    return reduce(np.maximum, [completion[anchor] for anchor in anchors])


def _attempt(
    start: np.ndarray,
    gates: Sequence[Optional[np.ndarray]],
    durations: Sequence[float],
) -> np.ndarray:
    """An attempt's finish: ``current = max(current, gate) + duration``
    per step, element-wise.  A gate of 0 is skipped: ``current`` is
    never negative, so ``max`` would return it unchanged."""
    current = start
    for gate, duration in zip(gates, durations):
        if gate is not None:
            current = np.maximum(current, gate)
        current = current + duration
    return current


def _bisect_right(
    flat: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    x: np.ndarray,
    rounds: int,
) -> np.ndarray:
    """Per row, the first position in ``[lo, hi]`` whose value exceeds
    ``x`` -- ``bisect.bisect_right`` on every row at once.  ``hi`` holds
    the row's ``inf`` sentinel, so the answer always exists; ``rounds``
    halvings (``bit_length`` of the longest row) pin it down."""
    for _ in range(rounds):
        mid = (lo + hi) >> 1
        right = flat[mid] <= x
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo


def _replay_shares(
    engine: "SimulatedEngine",
    template: "_GroupTemplate",
    flat: np.ndarray,
    lanes: np.ndarray,
    hit: np.ndarray,
    gates: Sequence[Optional[np.ndarray]],
    durations: Sequence[float],
    done: np.ndarray,
    share_restarts: np.ndarray,
    seen: np.ndarray,
) -> None:
    """Replay the interrupted shares until each attempt survives.

    ``lanes`` are the interrupted ``(trace, node)`` rows and ``hit`` the
    flat position of the failure that killed each one's first attempt.
    Each later attempt resumes ``MTTR`` after the failure, pays the
    group's recovery surcharge and replays the segments, as in
    ``SimulatedEngine._share_completion``.  Raises ``done`` (per trace)
    to each surviving share's finish and adds its restarts to
    ``share_restarts``.
    """
    nodes = engine.cluster.nodes
    mttr = engine.cluster.mttr
    extra = template.recovery_extra
    owner = lanes // nodes
    lane_gates = [None if gate is None else gate[owner] for gate in gates]
    seen[hit] = True
    resume = flat[hit] + mttr
    # every lane still replaying has restarted once per pass
    restarts = 1
    while True:
        start = (resume if lane_gates[0] is None
                 else np.maximum(resume, lane_gates[0]))
        finish = _attempt(start + extra, lane_gates, durations)
        # the next failure strictly after the start: the row is sorted
        # and the last failure hit lies at or before it
        hit = hit + 1
        failure = flat[hit]
        behind = failure <= start
        while behind.any():
            hit += behind
            failure = flat[hit]
            behind = failure <= start
        failed = failure < finish
        survived = ~failed
        np.maximum.at(done, owner[survived], finish[survived])
        np.add.at(share_restarts, owner[survived], restarts)
        if not failed.any():
            return
        owner, hit, failure = owner[failed], hit[failed], failure[failed]
        lane_gates = [None if gate is None else gate[failed]
                      for gate in lane_gates]
        seen[hit] = True
        resume = failure + mttr
        restarts += 1


# ----------------------------------------------------------------------
# coarse-grained recovery (restart the whole query)
# ----------------------------------------------------------------------
def _coarse_lanes(
    engine: "SimulatedEngine",
    prepared: "PreparedExecution",
    flat: np.ndarray,
    offsets: np.ndarray,
    count: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trace ``(runtime, aborted, restarts)``, as
    ``SimulatedEngine._run_coarse`` computes them."""
    nodes = engine.cluster.nodes
    mttr = engine.cluster.mttr
    limit = engine.cluster.max_restarts
    makespan = engine._attempt_makespan(prepared)
    # each trace's failures as one time-ordered stream: sorting its rows
    # together moves their inf sentinels to the end
    bounds = offsets[0:count * nodes + 1:nodes].tolist()
    merged = flat.copy()
    for start, end in zip(bounds, bounds[1:]):
        merged[start:end].sort()
    runtime = np.empty(count)
    aborted = np.zeros(count, dtype=bool)
    restarts = np.zeros(count, dtype=np.int64)
    lanes = np.arange(count)
    cursor = np.array(bounds[:-1], dtype=np.int64)
    attempt = np.zeros(count)
    # every lane still running has restarted once per pass
    for restart in range(limit + 1):
        finish = attempt + makespan
        # the first failure after the attempt's start
        failure = merged[cursor]
        behind = failure <= attempt
        while behind.any():
            cursor += behind
            failure = merged[cursor]
            behind = failure <= attempt
        failed = failure <= finish
        survived = ~failed
        runtime[lanes[survived]] = finish[survived]
        restarts[lanes[survived]] = restart
        lanes, failure = lanes[failed], failure[failed]
        if not lanes.size:
            break
        attempt = failure + mttr
        # the failure just hit lies at or before the next attempt's start
        cursor = cursor[failed] + 1
    else:
        # one restart more than the limit allows: the query aborts
        runtime[lanes] = failure
        aborted[lanes] = True
        restarts[lanes] = limit + 1
    return runtime, aborted, restarts
