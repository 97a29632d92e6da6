"""Simulated parallel execution of fault-tolerant plans.

This is the reproduction's substitute for the paper's XDB testbed (10-node
MySQL cluster): a deterministic simulator that executes a configured plan
``[P, M_P]`` over a cluster, replaying an injected failure trace, and
reports the achieved wall-clock runtime.

Execution model
---------------
The plan is first collapsed (a collapsed operator is the recovery unit,
exactly as the real engine splits sub-plans at materialization
boundaries).  Each collapsed group runs partition-parallel as one
*sub-plan share* per node.  A share executes the group's dominant path as
a sequence of segments, one per dominant-path operator:

* a segment cannot start before its *gate*: the completion of every
  producer group outside the current group that feeds the segment's
  operator or any of its in-group ancestors (materialization boundaries
  are blocking, Section 2.1).  Operators with only base-table inputs are
  gated at time 0, so scans overlap with upstream sub-plans exactly as in
  a real engine;
* segment durations are ``tr(o)`` (scaled by ``CONST_pipe`` for
  multi-operator pipelines, Equation 1); the anchor's materialization
  cost ``tm`` is appended to the final segment.  Off-dominant-path group
  members contribute their gates but not their durations -- the same
  inter-operator-parallelism approximation the paper's cost model makes;
* a node failure destroys the share's entire in-flight attempt (the
  sub-plan process dies; nothing of it was materialized).  The node
  resumes ``MTTR`` later from the first segment -- materialized inputs
  survive on fault-tolerant storage, so already-passed gates stay
  satisfied.  With node-local intermediate storage the retry additionally
  pays the lineage-recomputation cost of the group's ancestors
  (Section 2.2);
* the group completes when all node shares complete; the query completes
  when all sink groups complete.

Recovery granularity follows the configured scheme: ``FINE_GRAINED``
restarts only failed shares, while ``RESTART_QUERY`` restarts the complete
query on the first failure during an attempt, aborting after
``Cluster.max_restarts`` attempts (the paper's protocol: abort after 100
restarts).

The simulator intentionally honours the same independence assumptions the
cost model makes (no resource contention between concurrently running
groups); what it adds over the model is *actual* failure arrival times,
per-node max effects, full-DAG makespans, and real (not percentile)
attempt counts -- exactly the gap the accuracy experiment (Figure 12)
measures.

:meth:`SimulatedEngine.execute_many` runs one prepared plan under a
whole trace set: trace by trace, or -- when the runs depend on failure
times alone -- in lockstep (:mod:`repro.engine.lockstep`), with
bit-identical results.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import repeat
from typing import (
    TYPE_CHECKING, Dict, List, MutableSequence, Optional, Sequence, Set,
    Tuple,
)

from .. import obs
from ..chaos.inject import ChaosRun
from ..chaos.policy import FaultPolicy
from ..core.collapse import CollapsedOperator, CollapsedPlan, collapse_plan
from ..core.strategies import ConfiguredPlan, RecoveryMode
from .cluster import Cluster
from .timeline import EventKind, MutedTimeline, Timeline
from .traces import (
    MAX_TRACE_EXTENSIONS,
    FailureTrace,
    TraceBlock,
    TraceExhausted,
    retry_with_extension,
)

if TYPE_CHECKING:
    from ..core.checkpointing import CheckpointSpec


#: smallest trace set :meth:`SimulatedEngine.execute_many` runs in
#: lockstep by default: the measured crossover (``docs/simulator.md``)
LOCKSTEP_MIN_TRACES = 12


class QueryAborted(RuntimeError):
    """Raised internally when the restart limit is exceeded."""


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one simulated run."""

    runtime: float             #: wall-clock completion time (seconds)
    aborted: bool              #: True when max_restarts was exceeded
    restarts: int              #: coarse-grained full-query restarts
    share_restarts: int        #: fine-grained share restarts
    failures_hit: int          #: failures that destroyed work
    scheme: str                #: name of the fault-tolerance scheme
    timeline: Timeline         #: full event log

    @property
    def finished(self) -> bool:
        return not self.aborted


@dataclass(frozen=True)
class BatchResult:
    """Outcomes of one prepared plan over a trace set, one entry per
    trace in trace order (see :meth:`SimulatedEngine.execute_many`).

    The same fields as :class:`ExecutionResult` without the event logs;
    ``lockstep`` records which executor produced them (the results are
    identical either way).
    """

    runtimes: Tuple[float, ...]
    aborted: Tuple[bool, ...]
    restarts: Tuple[int, ...]
    share_restarts: Tuple[int, ...]
    failures_hit: Tuple[int, ...]
    lockstep: bool = False

    @classmethod
    def of(cls, results: Sequence[ExecutionResult]) -> "BatchResult":
        return cls(
            runtimes=tuple(result.runtime for result in results),
            aborted=tuple(result.aborted for result in results),
            restarts=tuple(result.restarts for result in results),
            share_restarts=tuple(result.share_restarts
                                 for result in results),
            failures_hit=tuple(result.failures_hit for result in results),
        )

    @property
    def finished_runtimes(self) -> Tuple[float, ...]:
        """Runtimes of the runs that did not abort, in trace order.

        Equal runtimes share one float object: every failure-free run
        of a plan finishes at the same time (about a third of a Figure 8
        round's runs), and campaign rows keep these tuples.
        """
        shared: Dict[float, float] = {}
        return tuple([shared.setdefault(runtime, runtime)
                      for runtime, aborted in zip(self.runtimes, self.aborted)
                      if not aborted])

    @property
    def aborted_runs(self) -> int:
        return sum(self.aborted)


#: one dominant-path step of a group share in one run: (gate, duration)
_Segment = Tuple[float, float]


@dataclass(frozen=True)
class _GroupTemplate:
    """Trace-independent shape of one collapsed group's shares.

    ``steps`` has one ``(external anchors, duration)`` pair per
    dominant-path operator.  The anchors are the sorted producer groups
    outside this group that feed the operator or any of its in-group
    ancestors; a run's segment gate is the latest of their completions
    (0 without any).  Durations are ``CONST_pipe``-scaled and the final
    step carries the group's materialization cost ``tm``.
    """

    anchor: int
    steps: Tuple[Tuple[Tuple[int, ...], float], ...]
    materializes: bool          #: the group writes its output (tm > 0)
    recovery_extra: float       #: storage surcharge per failure restart
    refetch_extra: float        #: input restore after a failed write
    spec: Optional["CheckpointSpec"]

    def segments(self, completion: Dict[int, float]) -> List[_Segment]:
        """This run's ``(gate, duration)`` segments, given the producer
        groups' completion times."""
        return [
            (max([completion[a] for a in anchors]) if anchors else 0.0,
             duration)
            for anchors, duration in self.steps
        ]


class PreparedExecution:
    """Reusable execution state for one :class:`ConfiguredPlan`.

    ``SimulatedEngine.execute`` collapses the plan and rederives its
    topological orders and lineage costs on *every* call, which dominates
    the simulation cost when the same configured plan runs against many
    failure traces (the Section 5 protocol: 10+ traces per scheme).
    ``prepare()`` hoists everything trace-independent out of the loop;
    ``execute_prepared`` then replays any number of traces against it
    with results bit-identical to fresh ``execute()`` calls (the cached
    pieces are deterministic functions of the configured plan alone):

    * ``collapsed`` -- the collapsed plan (its sinks end the query);
    * ``templates`` -- one :class:`_GroupTemplate` per collapsed group,
      in collapsed topological order: each dominant-path operator's
      sorted external producer anchors and scaled duration, plus the
      group's storage surcharges and checkpoint spec.  A run only takes
      the max of the anchors' completion times to gate each segment;
    * the failure-free attempt makespan of ``RESTART_QUERY`` plans,
      filled in by the first run that needs it.
    """

    __slots__ = ("configured", "collapsed", "templates", "_coarse_makespan")

    def __init__(self, engine: "SimulatedEngine",
                 configured: ConfiguredPlan) -> None:
        self.configured = configured
        plan = configured.plan
        self.collapsed = collapse_plan(plan, const_pipe=engine.const_pipe)
        topo_order = plan.topological_order()
        ancestor_cost = engine._ancestor_costs(self.collapsed)
        checkpoints = configured.op_checkpoints or {}
        self.templates = tuple(
            engine._group_template(
                plan, topo_order, self.collapsed[anchor],
                ancestor_cost[anchor], checkpoints.get(anchor),
            )
            for anchor in self.collapsed.topological_order()
        )
        #: failure-free makespan, lazily cached for RESTART_QUERY runs
        self._coarse_makespan: Optional[float] = None


class SimulatedEngine:
    """Executes configured plans against failure traces.

    Parameters
    ----------
    cluster:
        Cluster description (nodes, MTTR, storage medium, abort limit).
    const_pipe:
        ``CONST_pipe`` used when collapsing plans; keep it identical to
        the optimizer's value so estimated and simulated runtimes refer
        to the same collapsed plan.
    record_events:
        ``False`` attaches a muted timeline to every result: runtimes,
        restarts and abort decisions are unchanged, but no events are
        logged.  Measurement loops that never read the event log (the
        simulation campaign) run measurably faster this way.
    chaos:
        Optional :class:`~repro.chaos.FaultPolicy`.  Its executor-level
        injections (straggler nodes, checkpoint-write failures) perturb
        every simulated run; decisions are keyed by the policy seed and
        the replayed trace's seed, so results are independent of which
        process runs the simulation.  ``None`` (and any policy whose
        executor-level rates are zero) leaves every run bit-identical to
        the chaos-free engine.
    """

    def __init__(self, cluster: Cluster, const_pipe: float = 1.0,
                 record_events: bool = True,
                 chaos: Optional[FaultPolicy] = None) -> None:
        self.cluster = cluster
        self.const_pipe = const_pipe
        self.record_events = record_events
        self.chaos = chaos
        #: every node runs at nominal speed (no ``node_skew``)
        self.uniform_skew = all(
            math.isclose(factor, 1.0, rel_tol=1e-12, abs_tol=0.0)
            for factor in cluster.node_skew
        )

    def _new_timeline(self) -> Timeline:
        return Timeline() if self.record_events else MutedTimeline()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(
        self,
        configured: ConfiguredPlan,
        trace: Optional[FailureTrace] = None,
    ) -> ExecutionResult:
        """Run ``configured`` under ``trace`` (no failures when ``None``).

        Collapses the plan from scratch on every call; when the same
        configured plan runs against many traces, ``prepare()`` once and
        call :meth:`execute_prepared` instead -- same results, without
        the per-call setup cost.
        """
        return self.execute_prepared(self.prepare(configured), trace)

    def prepare(self, configured: ConfiguredPlan) -> PreparedExecution:
        """Precompute the trace-independent execution state once."""
        return PreparedExecution(self, configured)

    def execute_prepared(
        self,
        prepared: PreparedExecution,
        trace: Optional[FailureTrace] = None,
    ) -> ExecutionResult:
        """Run a prepared plan under ``trace`` (no failures when ``None``).

        Bit-identical to ``execute(prepared.configured, trace)``.
        """
        if trace is None:
            trace = FailureTrace.empty(self.cluster.nodes)
        if trace.nodes != self.cluster.nodes:
            raise ValueError(
                f"trace covers {trace.nodes} nodes, cluster has "
                f"{self.cluster.nodes}"
            )
        chaos_run = ChaosRun.create(self.chaos, trace.seed)
        recorder = obs.get_recorder()
        if recorder is not None and trace.injected > 0:
            recorder.add("chaos.injected.burst_failures", trace.injected)
        if prepared.configured.recovery is RecoveryMode.RESTART_QUERY:
            result = self._run_coarse(prepared, trace, chaos_run=chaos_run)
        else:
            result = self._run_fine(prepared, trace, chaos_run=chaos_run)
        if result.runtime > trace.horizon:
            raise TraceExhausted(
                f"run needed {result.runtime:.1f}s but the trace only "
                f"covers {trace.horizon:.1f}s"
            )
        return result

    def run_extending(
        self,
        prepared: PreparedExecution,
        trace: FailureTrace,
        max_extensions: int = MAX_TRACE_EXTENSIONS,
    ) -> Tuple[ExecutionResult, FailureTrace]:
        """Run one trace, extending its horizon when needed; return both
        (:func:`~repro.engine.traces.retry_with_extension`).

        The (possibly extended) trace is returned so callers can write it
        back into a shared trace set instead of re-extending on every
        scheme.
        """
        return retry_with_extension(
            lambda current: self.execute_prepared(prepared, current),
            trace, max_extensions,
        )

    def lockstep_eligible(self, prepared: PreparedExecution,
                          count: int) -> bool:
        """Does :meth:`execute_many` run ``count`` traces in lockstep?

        Only runs whose outcome is a function of failure times alone
        qualify: a muted timeline (no event log to order), no
        ``node_skew``, no straggler or flaky-write injection, no
        mid-operator checkpoints, and a set of at least
        :data:`LOCKSTEP_MIN_TRACES` traces -- below that the per-trace
        executor is faster (``docs/simulator.md``).
        """
        return (
            count >= LOCKSTEP_MIN_TRACES
            and not self.record_events
            and self.uniform_skew
            and not (self.chaos is not None and self.chaos.sim_active())
            and not prepared.configured.op_checkpoints
        )

    def execute_many(
        self,
        prepared: PreparedExecution,
        traces: Sequence[FailureTrace],
    ) -> BatchResult:
        """Run a prepared plan under every trace of a set.

        Equal, trace by trace, to :meth:`run_extending` on each trace in
        order -- results, extended traces and ``obs`` counters alike.  A
        trace that outlives its horizon is extended, and the extension
        is written back into ``traces`` when the set is mutable (a list
        or a :class:`~repro.engine.traces.TraceBlock`), so later schemes
        on the same set reuse it.

        Eligible sets (:meth:`lockstep_eligible`) run in lockstep: every
        trace advances through the plan's groups together, as NumPy
        lanes over one flat failure array (:mod:`repro.engine.lockstep`).
        Every other set runs trace by trace.
        """
        if self.lockstep_eligible(prepared, len(traces)):
            # deferred import: the lockstep executor builds on this module
            from .lockstep import run_lockstep

            return run_lockstep(self, prepared, traces)
        writeback = isinstance(traces, (MutableSequence, TraceBlock))
        results: List[ExecutionResult] = []
        for index, trace in enumerate(traces):
            result, extended = self.run_extending(prepared, trace)
            if writeback and extended is not trace:
                traces[index] = extended  # type: ignore[index]
            results.append(result)
        return BatchResult.of(results)

    def baseline_runtime(self, configured: ConfiguredPlan) -> float:
        """Failure-free runtime of the *configured* plan (including its
        materialization costs).  For the paper's baseline -- the pure
        runtime without extra materializations -- execute the no-mat
        configuration instead (``pure_baseline_runtime``)."""
        return self.execute(configured).runtime

    # ------------------------------------------------------------------
    # fine-grained recovery
    # ------------------------------------------------------------------
    def _run_fine(
        self,
        prepared: PreparedExecution,
        trace: FailureTrace,
        chaos_run: Optional[ChaosRun] = None,
    ) -> ExecutionResult:
        timeline = self._new_timeline()
        seen_failures: Set[Tuple[int, float]] = set()
        completion: Dict[int, float] = {}
        share_restarts = 0

        for template in prepared.templates:
            done, restarts = self._execute_group(
                template, completion, trace, timeline, seen_failures,
                chaos_run,
            )
            completion[template.anchor] = done
            share_restarts += restarts

        runtime = max(completion[sink] for sink in prepared.collapsed.sinks)
        timeline.record(runtime, EventKind.QUERY_COMPLETED)
        return ExecutionResult(
            runtime=runtime,
            aborted=False,
            restarts=0,
            share_restarts=share_restarts,
            failures_hit=len(seen_failures),
            scheme=prepared.configured.scheme,
            timeline=timeline,
        )

    def _group_template(
        self,
        plan,
        topo_order: Sequence[int],
        group: CollapsedOperator,
        ancestor_cost: float,
        spec: Optional["CheckpointSpec"] = None,
    ) -> _GroupTemplate:
        """Build one collapsed group's trace-independent share template.

        Each group member's external anchors are the producer groups
        feeding it directly plus those of its in-group producers, so a
        dominant-path segment also waits for the external inputs of its
        off-path ancestors.
        """
        member_set = set(group.members)
        external: Dict[int, Set[int]] = {}
        for op_id in topo_order:
            if op_id not in member_set:
                continue
            anchors: Set[int] = set()
            for producer in plan.producers(op_id):
                if producer in member_set:
                    anchors |= external[producer]
                else:
                    # external producers are materialized anchors
                    anchors.add(producer)
            external[op_id] = anchors

        pipe = self.const_pipe if len(group.dominant_path) > 1 else 1.0
        steps = [
            (tuple(sorted(external[op_id])), plan[op_id].runtime_cost * pipe)
            for op_id in group.dominant_path
        ]
        if group.mat_cost > 0:
            anchors, duration = steps[-1]
            steps[-1] = (anchors, duration + group.mat_cost)
        storage = self.cluster.storage
        return _GroupTemplate(
            anchor=group.anchor_id,
            steps=tuple(steps),
            materializes=group.mat_cost > 0,
            recovery_extra=storage.recovery_extra_cost(ancestor_cost),
            refetch_extra=storage.refetch_cost_after_failed_write(
                ancestor_cost
            ),
            spec=spec,
        )

    def run_group(
        self,
        plan,
        collapsed: CollapsedPlan,
        anchor: int,
        completion: Dict[int, float],
        trace: FailureTrace,
        timeline: Timeline,
        seen_failures: Set[Tuple[int, float]],
        checkpoints: Optional[Dict[int, "CheckpointSpec"]] = None,
        topo_order: Optional[Sequence[int]] = None,
        ancestor_cost: Optional[Dict[int, float]] = None,
        chaos_run: Optional[ChaosRun] = None,
    ) -> Tuple[float, int]:
        """Execute one collapsed group's shares on every node.

        Producer completions must already be present in ``completion``.
        Returns ``(group completion time, share restarts)``.  Exposed so
        the adaptive executor (:mod:`repro.engine.adaptive`) can
        re-optimize between groups; its plan changes at every re-plan,
        so the group's template is built afresh on each call.
        """
        if topo_order is None:
            topo_order = plan.topological_order()
        if ancestor_cost is None:
            ancestor_cost = self._ancestor_costs(collapsed)
        template = self._group_template(
            plan, topo_order, collapsed[anchor], ancestor_cost[anchor],
            (checkpoints or {}).get(anchor),
        )
        return self._execute_group(
            template, completion, trace, timeline, seen_failures, chaos_run
        )

    def _shares_uniform(self, chaos_run: Optional[ChaosRun]) -> bool:
        """Do all nodes run identical segments (no skew, no stragglers)?"""
        if chaos_run is not None and chaos_run.has_stragglers:
            return False
        return self.uniform_skew

    def _execute_group(
        self,
        template: _GroupTemplate,
        completion: Dict[int, float],
        trace: FailureTrace,
        timeline: Timeline,
        seen_failures: Set[Tuple[int, float]],
        chaos_run: Optional[ChaosRun] = None,
    ) -> Tuple[float, int]:
        """Run one group's shares from its template; see :meth:`run_group`."""
        anchor = template.anchor
        segments = template.segments(completion)
        timeline.record(segments[0][0], EventKind.GROUP_STARTED, group=anchor)
        spec = template.spec
        recorder = obs.get_recorder()
        # checkpoint-write injection targets group materializations; the
        # mid-operator snapshot path keeps its own durability semantics
        flaky = (
            chaos_run is not None and chaos_run.has_flaky_writes
            and spec is None and template.materializes
        )
        write_fallbacks = 0
        straggling_shares = 0
        if spec is None and not flaky and self._shares_uniform(chaos_run):
            group_done, share_restarts = self._uniform_shares(
                template, segments, trace, timeline, seen_failures
            )
        else:
            share_restarts = 0
            node_done: List[float] = []
            for node in range(self.cluster.nodes):
                scaled = self._scale_for_node(segments, node, chaos_run)
                if (chaos_run is not None
                        and chaos_run.straggler_factor(node) > 1.0):
                    straggling_shares += 1
                if spec is not None:
                    done, restarts = self._share_completion_chunked(
                        node=node,
                        segments=scaled,
                        spec=spec,
                        trace=trace,
                        timeline=timeline,
                        group=anchor,
                        seen_failures=seen_failures,
                    )
                else:
                    done, restarts, fallbacks = self._share_completion(
                        node=node,
                        segments=scaled,
                        recovery_extra=template.recovery_extra,
                        trace=trace,
                        timeline=timeline,
                        group=anchor,
                        seen_failures=seen_failures,
                        chaos_run=chaos_run if flaky else None,
                        refetch_extra=template.refetch_extra,
                    )
                    write_fallbacks += fallbacks
                timeline.record(
                    done, EventKind.GROUP_COMPLETED, group=anchor, node=node
                )
                node_done.append(done)
                share_restarts += restarts
            group_done = max(node_done)
        timeline.record(group_done, EventKind.GROUP_COMPLETED, group=anchor)
        if recorder is not None and spec is None and template.materializes:
            # each node's share persists its partition of the group output
            recorder.add("sim.checkpoint.writes", self.cluster.nodes)
        if recorder is not None and write_fallbacks > 0:
            recorder.add("chaos.injected.write_failures", write_fallbacks)
            recorder.add("sim.fallbacks", write_fallbacks)
        if recorder is not None and straggling_shares > 0:
            recorder.add("chaos.injected.straggler_shares", straggling_shares)
        return group_done, share_restarts

    def _uniform_shares(
        self,
        template: _GroupTemplate,
        segments: Sequence[_Segment],
        trace: FailureTrace,
        timeline: Timeline,
        seen_failures: Set[Tuple[int, float]],
    ) -> Tuple[float, int]:
        """Every node's share when all nodes run identical segments.

        The failure-free attempt is the same on every node, so it is
        computed once; a node whose first failure after ``work_start``
        lies at or beyond ``finish`` completes at ``finish`` exactly as
        :meth:`_share_completion` would.  Only the nodes the trace fails
        strictly inside ``(work_start, finish)`` replay through it.
        Per-node events are emitted for every node (in node order, as
        the per-node path does) only when the timeline records them.
        """
        anchor = template.anchor
        work_start = segments[0][0]
        finish = work_start
        for gate, duration in segments:
            finish = max(finish, gate) + duration
        failing = trace.failing_nodes(work_start, finish)
        group_done = finish
        share_restarts = 0
        muted = isinstance(timeline, MutedTimeline)
        for node in failing if muted else range(self.cluster.nodes):
            if node in failing:
                done, restarts, _ = self._share_completion(
                    node=node,
                    segments=segments,
                    recovery_extra=template.recovery_extra,
                    trace=trace,
                    timeline=timeline,
                    group=anchor,
                    seen_failures=seen_failures,
                )
                share_restarts += restarts
                group_done = max(group_done, done)
            else:
                done = finish
                timeline.record(work_start, EventKind.GROUP_STARTED,
                                group=anchor, node=node)
            timeline.record(
                done, EventKind.GROUP_COMPLETED, group=anchor, node=node
            )
        return group_done, share_restarts

    def _scale_for_node(
        self, segments: List[_Segment], node: int,
        chaos_run: Optional[ChaosRun] = None,
    ) -> List[_Segment]:
        """Apply the node's skew (and straggler) factor to its durations."""
        factor = self.cluster.skew_of(node)
        if chaos_run is not None:
            factor *= chaos_run.straggler_factor(node)
        if math.isclose(factor, 1.0, rel_tol=1e-12, abs_tol=0.0):
            return segments
        return [(gate, duration * factor) for gate, duration in segments]

    def _share_completion_chunked(
        self,
        node: int,
        segments: Sequence[_Segment],
        spec,
        trace: FailureTrace,
        timeline: Timeline,
        group: int,
        seen_failures: Set[Tuple[int, float]],
    ) -> Tuple[float, int]:
        """Share completion with mid-operator checkpointing.

        Each segment's work is cut into chunks per the
        :class:`~repro.core.checkpointing.CheckpointSpec`; every chunk
        but the share's last also writes a state snapshot.  Completed
        chunks are durable on fault-tolerant storage, so a failure only
        re-runs the current chunk (after ``MTTR``).
        """
        recorder = obs.get_recorder()
        current = 0.0
        restarts = 0
        started = False
        flat: List[Tuple[float, float]] = []   # (gate, chunk work)
        for gate, duration in segments:
            for chunk in spec.chunks_for(duration):
                flat.append((gate, chunk))
        for index, (gate, work) in enumerate(flat):
            is_last = index == len(flat) - 1
            duration = work + (0.0 if is_last else spec.snapshot_cost)
            start = max(current, gate)
            if not started:
                timeline.record(start, EventKind.GROUP_STARTED,
                                group=group, node=node)
                started = True
            while True:
                failure = trace.next_failure(node, start)
                finish = start + duration
                if failure is None or failure >= finish:
                    current = finish
                    break
                key = (node, failure)
                if key not in seen_failures:
                    seen_failures.add(key)
                    timeline.record(failure, EventKind.NODE_FAILED,
                                    node=node)
                restarts += 1
                start = max(failure + self.cluster.mttr, gate)
                timeline.record(start, EventKind.SHARE_RESTARTED,
                                group=group, node=node)
        if recorder is not None:
            # every non-final chunk persisted a snapshot; every restart
            # resumed by reading the latest one back
            recorder.add("sim.checkpoint.writes", max(len(flat) - 1, 0))
            recorder.add("sim.checkpoint.reads", restarts)
        return current, restarts

    def _share_completion(
        self,
        node: int,
        segments: Sequence[_Segment],
        recovery_extra: float,
        trace: FailureTrace,
        timeline: Timeline,
        group: int,
        seen_failures: Set[Tuple[int, float]],
        chaos_run: Optional[ChaosRun] = None,
        refetch_extra: float = 0.0,
    ) -> Tuple[float, int, int]:
        """Completion time of one node's share, replaying its failures.

        Each attempt replays the segment sequence; any failure between
        the attempt's first working moment and its finish kills the
        attempt, and the node resumes ``MTTR`` later from segment zero
        (plus the storage medium's recovery surcharge).

        When ``chaos_run`` is given (only for materializing groups under
        an active :class:`~repro.chaos.FlakyWrites` policy), a surviving
        attempt may still fail its materialization write: the node --
        which did *not* fail -- immediately falls back to re-executing
        the share from its last durable ancestors (``refetch_extra``
        restores its inputs; no ``MTTR`` is paid) and retries the write.
        Returns ``(finish, restarts, write fallbacks)``.
        """
        resume = 0.0
        restarts = 0
        write_attempts = 0
        fallbacks = 0
        extra = 0.0
        first_attempt = True
        while True:
            work_start = max(resume, segments[0][0])
            if first_attempt:
                timeline.record(
                    work_start, EventKind.GROUP_STARTED,
                    group=group, node=node,
                )
                first_attempt = False
            current = work_start + extra
            for gate, duration in segments:
                current = max(current, gate) + duration
            finish = current
            failure = trace.next_failure(node, work_start)
            if failure is None or failure >= finish:
                if chaos_run is not None and chaos_run.write_fails(
                    group, node, write_attempts
                ):
                    write_attempts += 1
                    fallbacks += 1
                    resume = finish
                    extra = refetch_extra
                    timeline.record(
                        finish, EventKind.SHARE_RESTARTED,
                        group=group, node=node,
                    )
                    continue
                return finish, restarts, fallbacks
            key = (node, failure)
            if key not in seen_failures:
                seen_failures.add(key)
                timeline.record(failure, EventKind.NODE_FAILED, node=node)
            resume = failure + self.cluster.mttr
            extra = recovery_extra
            restarts += 1
            timeline.record(
                resume, EventKind.SHARE_RESTARTED, group=group, node=node
            )

    def _ancestor_costs(self, collapsed: CollapsedPlan) -> Dict[int, float]:
        """Summed ``t(c)`` of each group's transitive producers.

        Charged as lineage-recomputation cost under node-local storage.
        A group reachable via several paths is counted once (its output
        only needs recomputing once).
        """
        ancestors: Dict[int, Set[int]] = {}
        for anchor in collapsed.topological_order():
            merged: Set[int] = set()
            for producer in collapsed.producers(anchor):
                merged.add(producer)
                merged |= ancestors[producer]
            ancestors[anchor] = merged
        # sorted(): float addition is order-sensitive and set order is
        # not stable across processes -- the sum must not depend on it
        return {
            anchor: sum(collapsed[a].total_cost
                        for a in sorted(group_ancestors))
            for anchor, group_ancestors in ancestors.items()
        }

    # ------------------------------------------------------------------
    # coarse-grained recovery (restart the whole query)
    # ------------------------------------------------------------------
    def _attempt_makespan(
        self,
        prepared: PreparedExecution,
        chaos_run: Optional[ChaosRun] = None,
    ) -> float:
        """Failure-free makespan of one ``RESTART_QUERY`` attempt."""
        if chaos_run is not None and chaos_run.has_stragglers:
            # stragglers are drawn per (trace, node), so the attempt
            # makespan is trace-dependent and the cache does not apply;
            # write-failure injection is scoped to fine-grained recovery
            # (see docs/robustness.md), hence stragglers_only()
            return self._run_fine(
                prepared, FailureTrace.empty(self.cluster.nodes),
                chaos_run=chaos_run.stragglers_only(),
            ).runtime
        if prepared._coarse_makespan is None:
            # the failure-free attempt makespan is trace-independent;
            # compute it once per prepared plan instead of per run
            prepared._coarse_makespan = self._run_fine(
                prepared, FailureTrace.empty(self.cluster.nodes)).runtime
        return prepared._coarse_makespan

    def _run_coarse(
        self,
        prepared: PreparedExecution,
        trace: FailureTrace,
        chaos_run: Optional[ChaosRun] = None,
    ) -> ExecutionResult:
        scheme = prepared.configured.scheme
        timeline = self._new_timeline()
        makespan = self._attempt_makespan(prepared, chaos_run)
        # every node's failures as one (time, node) stream in time order,
        # ties on the lowest node -- the failure that restarts an attempt
        # is the first one after its start, as in trace.first_failure
        stream = heapq.merge(*(
            zip(failures, repeat(node))
            for node, failures in enumerate(trace.node_failures)
        ))
        pending = next(stream, None)
        attempt_start = 0.0
        restarts = 0
        while True:
            finish = attempt_start + makespan
            while pending is not None and pending[0] <= attempt_start:
                pending = next(stream, None)
            if pending is None or pending[0] > finish:
                timeline.record(finish, EventKind.QUERY_COMPLETED)
                return ExecutionResult(
                    runtime=finish,
                    aborted=False,
                    restarts=restarts,
                    share_restarts=0,
                    failures_hit=restarts,
                    scheme=scheme,
                    timeline=timeline,
                )
            failure_time, node = pending
            timeline.record(failure_time, EventKind.NODE_FAILED, node=node)
            restarts += 1
            if restarts > self.cluster.max_restarts:
                timeline.record(failure_time, EventKind.QUERY_ABORTED)
                return ExecutionResult(
                    runtime=failure_time,
                    aborted=True,
                    restarts=restarts,
                    share_restarts=0,
                    failures_hit=restarts,
                    scheme=scheme,
                    timeline=timeline,
                )
            attempt_start = failure_time + self.cluster.mttr
            timeline.record(attempt_start, EventKind.QUERY_RESTARTED)
