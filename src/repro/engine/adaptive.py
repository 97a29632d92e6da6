"""Adaptive mid-query re-optimization (the paper's Section 7 outlook).

The static cost-based scheme decides the materialization configuration
once, before execution, from *estimates*.  When those estimates are wrong
-- skewed data, misestimated cardinalities, a stale MTBF -- the chosen
checkpoints can be far from optimal.  The paper's outlook proposes "more
dynamic decisions for cases where data is skewed or statistics are hard
to estimate"; this module implements that idea on the simulator and
closes the estimate -> observe -> re-optimize loop:

* execution proceeds one collapsed group at a time, exactly as the
  engine schedules them (every completed group's output is materialized
  by construction, so each group boundary is a natural decision point);
* a :class:`DriftMonitor` ingests the run's observations online -- the
  observed/estimated work ratio of each finished group (an
  exponentially smoothed **correction factor**) and the timeline's
  ``NODE_FAILED`` events through a decayed
  :class:`~repro.stats.mtbf_estimation.MtbfTracker`;
* at each decision point the monitor checks a configurable
  :class:`DriftEnvelope`: has the observed MTBF point estimate left the
  band the plan was optimized for (with the chi-square confidence
  interval excluding the assumed MTBF), or has the runtime correction
  left its band?  Only then is a re-plan **triggered** -- otherwise the
  decision is **suppressed** and the flight plan stands;
* a triggered re-plan re-runs
  :func:`~repro.core.enumeration.find_best_ft_plan` from the current
  durable frontier: completed operators are sunk at zero remaining cost
  with their executed flags (:func:`frontier_plan`), remaining estimates
  are rescaled by the correction, and the not-yet-started free
  operators switch to the new configuration in flight.

With ``envelope=None`` the executor re-plans *eagerly* at every group
boundary (the original behaviour, kept for the perturbed-estimate
experiments); with an envelope it only re-plans on drift, which makes a
zero-drift run bit-identical to the static cost-based scheme -- the
property suite byte-compares the two.

:class:`AdaptiveCostBased` packages the executor as a campaign-runnable
scheme (``jobs=N`` bit-identical to ``jobs=1``: every decision is a pure
function of the cell and trace), and ``on_replan`` lets a deployment
push the refreshed cluster statistics to a serving layer (the advisory
engine's hot stats push,
:meth:`repro.serve.AdvisoryEngine.push_cluster_stats`).

Observability: every decision point opens an ``adaptive.decision`` span
and ends in exactly one of the counters ``adaptive.triggers`` ->
``adaptive.replans`` (the search actually ran) or
``adaptive.suppressed``.

Limitation: decision points only exist at materialization boundaries.
If the initial (misled) decision materializes nothing, the whole query
is one recovery unit and there is nothing to adapt mid-flight -- a
production system would plant an early low-cost checkpoint to buy
itself an observation point, which is exactly the "more dynamic
decisions" engineering the paper defers to future work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from .. import obs
from ..chaos.inject import ChaosRun
from ..core.collapse import collapse_plan
from ..core.cost_model import ClusterStats
from ..core.enumeration import find_best_ft_plan
from ..core.plan import Plan
from ..core.pruning import PruningConfig
from ..core.strategies import (
    ConfiguredPlan,
    CostBased,
    FaultToleranceScheme,
    RecoveryMode,
)
from ..stats.mtbf_estimation import MtbfTracker
from .executor import ExecutionResult, SimulatedEngine, TraceExhausted
from .timeline import EventKind, Timeline
from .traces import (
    MAX_TRACE_EXTENSIONS,
    FailureTrace,
    retry_with_extension,
)


@dataclass(frozen=True)
class DriftEnvelope:
    """The band observations may wander in before a re-plan triggers.

    A *tighter* envelope (smaller ratios, fewer required failures, no CI
    gate) triggers on a superset of observation histories -- the
    monotonicity the property suite pins: tightening the envelope never
    decreases the number of re-plans for the same run.

    Parameters
    ----------
    mtbf_ratio:
        Trigger when the observed MTBF point estimate leaves
        ``[assumed / mtbf_ratio, assumed * mtbf_ratio]`` (None disables
        the MTBF trigger).  Must be > 1.
    runtime_ratio:
        Trigger when the smoothed observed/estimated runtime correction
        leaves ``[1 / runtime_ratio, runtime_ratio]`` (None disables the
        runtime trigger).  Must be > 1.
    min_failures:
        Minimum (decay-weighted) failure count before the MTBF estimate
        is trusted at all; below it the prior stands (one failure is
        compatible with almost any rate).
    confidence / use_ci:
        With ``use_ci`` (the default), the MTBF trigger additionally
        requires the chi-square confidence interval at ``confidence`` to
        *exclude* the assumed MTBF -- point-estimate noise from a
        handful of on-model failures then cannot trigger a re-plan.
    """

    mtbf_ratio: Optional[float] = 2.0
    runtime_ratio: Optional[float] = 1.5
    min_failures: int = 2
    confidence: float = 0.95
    use_ci: bool = True

    def __post_init__(self) -> None:
        if self.mtbf_ratio is not None and self.mtbf_ratio <= 1.0:
            raise ValueError("mtbf_ratio must be > 1")
        if self.runtime_ratio is not None and self.runtime_ratio <= 1.0:
            raise ValueError("runtime_ratio must be > 1")
        if self.min_failures < 1:
            raise ValueError("min_failures must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")

    @classmethod
    def never(cls) -> "DriftEnvelope":
        """An envelope that never triggers (static behaviour)."""
        return cls(mtbf_ratio=None, runtime_ratio=None)


@dataclass(frozen=True)
class DriftTrigger:
    """Why a decision point fired: the cause a re-plan is annotated with."""

    kind: str                #: "mtbf-drift" | "runtime-drift" | "boundary"
    cause: str               #: human-readable detail
    observed_mtbf: float     #: tracker point estimate (inf = no failures)
    correction: float        #: smoothed runtime correction at the trigger


class DriftMonitor:
    """Online drift detection: the estimate -> observe half of the loop.

    Feed it each finished group's observed/estimated work ratio
    (:meth:`observe_group`) and the timeline's failure events
    (:meth:`observe_failures`); ask it at each decision point whether the
    observations still fit the statistics the flight plan was optimized
    for (:meth:`decide`).  All state is derived deterministically from
    the fed observations, so two runs over the same trace make identical
    decisions in any process.
    """

    def __init__(
        self,
        stats: ClusterStats,
        envelope: Optional[DriftEnvelope] = None,
        smoothing: float = 0.5,
        half_life: Optional[float] = None,
        track_mtbf: bool = False,
    ) -> None:
        if not 0 < smoothing <= 1:
            raise ValueError("smoothing must be in (0, 1]")
        self.stats = stats
        self.envelope = envelope
        self.smoothing = smoothing
        #: eager mode only: let the tracker's MLE override the prior
        self.track_mtbf = track_mtbf
        self.tracker = MtbfTracker(half_life=half_life)
        self.correction = 1.0

    # -- observation ---------------------------------------------------
    def observe_group(self, estimated: float, observed: float) -> float:
        """Blend one group's observed/estimated work ratio into the
        exponentially smoothed correction factor; returns the new one."""
        if estimated > 0:
            ratio = observed / estimated
            self.correction = (
                (1 - self.smoothing) * self.correction
                + self.smoothing * ratio
            )
        return self.correction

    def observe_failures(self, timeline: Timeline, upto: float,
                         nodes: int) -> int:
        """Ingest the timeline's ``NODE_FAILED`` events up to ``upto``."""
        return self.tracker.ingest(
            (event.time for event in
             timeline.of_kind(EventKind.NODE_FAILED)),
            upto=upto, nodes=nodes,
        )

    # -- decision ------------------------------------------------------
    @property
    def observed_mtbf(self) -> float:
        return self.tracker.mtbf

    def decide(self) -> Optional[DriftTrigger]:
        """The drift check at one decision point.

        ``None`` means every observation is still inside the envelope
        (the decision is suppressed).  Without an envelope the monitor
        is *eager*: every decision point triggers a "boundary" re-plan,
        the pre-drift behaviour the perturbed-estimate experiments use.
        """
        observed = self.tracker.mtbf
        if self.envelope is None:
            return DriftTrigger(
                kind="boundary",
                cause="eager re-plan at group boundary",
                observed_mtbf=observed,
                correction=self.correction,
            )
        envelope = self.envelope
        causes: List[str] = []
        kind = ""
        if envelope.mtbf_ratio is not None and self._mtbf_drifted():
            kind = "mtbf-drift"
            causes.append(
                f"observed MTBF {observed:.0f}s left "
                f"[{self.stats.mtbf / envelope.mtbf_ratio:.0f}, "
                f"{self.stats.mtbf * envelope.mtbf_ratio:.0f}]s"
            )
        if envelope.runtime_ratio is not None:
            ratio = envelope.runtime_ratio
            if not (1.0 / ratio <= self.correction <= ratio):
                kind = kind or "runtime-drift"
                causes.append(
                    f"runtime correction {self.correction:.2f} left "
                    f"[{1.0 / ratio:.2f}, {ratio:.2f}]"
                )
        if not causes:
            return None
        return DriftTrigger(
            kind=kind,
            cause="; ".join(causes),
            observed_mtbf=observed,
            correction=self.correction,
        )

    def _mtbf_drifted(self) -> bool:
        envelope = self.envelope
        assert envelope is not None and envelope.mtbf_ratio is not None
        if self.tracker.failures < envelope.min_failures:
            return False
        observed = self.tracker.mtbf
        assumed = self.stats.mtbf
        inside = (
            assumed / envelope.mtbf_ratio
            <= observed
            <= assumed * envelope.mtbf_ratio
        )
        if inside:
            return False
        if envelope.use_ci and self.tracker.node_time > 0:
            estimate = self.tracker.estimate(
                confidence=envelope.confidence
            )
            if not estimate.excludes(assumed):
                return False
        return True

    def replan_stats(self, trigger: DriftTrigger) -> ClusterStats:
        """The cluster statistics the triggered re-plan searches under.

        The observed MTBF replaces the assumed one only when the MTBF
        itself drifted (or, in eager mode, when ``track_mtbf`` is on and
        the estimate is trustworthy) -- a runtime-only drift keeps the
        failure statistics it was optimized for.
        """
        observed = self.tracker.mtbf
        if trigger.kind == "mtbf-drift" and math.isfinite(observed):
            return self.stats.with_mtbf(observed)
        if (
            self.envelope is None and self.track_mtbf
            and self.tracker.failures >= 2 and math.isfinite(observed)
        ):
            return self.stats.with_mtbf(observed)
        return self.stats


@dataclass(frozen=True)
class Reconfiguration:
    """One adaptive decision taken at a group boundary."""

    time: float                      #: when the group completed
    completed_anchor: int            #: the group that just finished
    correction: float                #: smoothed observed/estimated ratio
    mat_config: Tuple[Tuple[int, bool], ...]  #: flags chosen for the rest
    trigger: str = "boundary"        #: what fired (DriftTrigger.kind)
    cause: str = ""                  #: why it fired (DriftTrigger.cause)
    observed_mtbf: float = float("inf")  #: tracker estimate at the trigger
    stats_mtbf: float = 0.0          #: MTBF the re-plan searched under
    completed_ops: Tuple[int, ...] = ()  #: durable frontier (sunk ops)
    #: full per-operator flags *before* this re-plan -- together with
    #: ``completed_ops``/``correction``/``stats_mtbf`` this is enough to
    #: replay the frontier search (the differential suite re-runs it on
    #: every engine and asserts exact equality)
    frozen_config: Tuple[Tuple[int, bool], ...] = ()


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of an adaptive run."""

    result: ExecutionResult
    reconfigurations: Tuple[Reconfiguration, ...]
    final_correction: float
    #: decision points where the envelope fired / stayed quiet
    triggers: int = 0
    suppressed: int = 0
    #: the monitor's final MTBF point estimate (inf = no failures seen)
    observed_mtbf: float = float("inf")

    @property
    def runtime(self) -> float:
        return self.result.runtime

    @property
    def replans(self) -> int:
        """Number of re-plan searches actually executed."""
        return len(self.reconfigurations)


class AdaptiveExecutor:
    """Runs a query with between-group re-optimization.

    Parameters
    ----------
    engine:
        The simulated engine supplying cluster, storage, skew, and any
        executor-level chaos injections (stragglers, flaky writes).
    stats:
        Cluster statistics for the optimizer.
    smoothing:
        Weight of the newest observation in the exponential smoothing of
        the correction factor (1.0 = trust only the latest group).
    pruning:
        Pruning rules for the embedded configuration searches.
    track_mtbf:
        Eager mode only: once the run has seen >= 2 failures, its own
        maximum-likelihood MTBF estimate replaces the configured prior.
    envelope:
        ``None`` re-plans eagerly at every group boundary (the original
        behaviour); a :class:`DriftEnvelope` gates re-planning on
        observed drift -- zero drift means zero re-plans and a run
        bit-identical to the static cost-based scheme.
    half_life:
        Exponential forgetting of the MTBF tracker's evidence (seconds
        of node-time), so diurnal drift is followed instead of averaged
        away; ``None`` keeps all evidence.
    on_replan:
        Hook called after every executed re-plan with
        ``(Reconfiguration, ClusterStats)`` -- the stats the re-plan
        searched under.  Wired by deployments to push refreshed
        statistics outward (e.g.
        :meth:`repro.serve.AdvisoryEngine.push_cluster_stats`).
    """

    def __init__(
        self,
        engine: SimulatedEngine,
        stats: ClusterStats,
        smoothing: float = 0.5,
        pruning: PruningConfig = PruningConfig.all(),
        track_mtbf: bool = False,
        envelope: Optional[DriftEnvelope] = None,
        half_life: Optional[float] = None,
        on_replan: Optional[
            Callable[[Reconfiguration, ClusterStats], None]
        ] = None,
    ) -> None:
        if not 0 < smoothing <= 1:
            raise ValueError("smoothing must be in (0, 1]")
        self.engine = engine
        self.stats = stats
        self.smoothing = smoothing
        self.pruning = pruning
        #: also re-estimate the MTBF online from failures observed during
        #: the run, so a stale cluster statistic is corrected mid-query
        #: just like stale cost estimates are
        self.track_mtbf = track_mtbf
        self.envelope = envelope
        self.half_life = half_life
        self.on_replan = on_replan

    # ------------------------------------------------------------------
    def execute(
        self,
        true_plan: Plan,
        estimated_plan: Optional[Plan] = None,
        trace: Optional[FailureTrace] = None,
        initial_config: Optional[Dict[int, bool]] = None,
    ) -> AdaptiveResult:
        """Run ``true_plan``, deciding from ``estimated_plan``.

        ``estimated_plan`` defaults to the true plan (perfect
        statistics).  Both plans must share operator ids and edges.
        ``initial_config`` short-circuits the initial static decision
        (callers measuring many traces compute it once); it must equal
        what the static cost-based scheme would choose.
        """
        if estimated_plan is None:
            estimated_plan = true_plan
        _check_same_shape(true_plan, estimated_plan)
        if trace is None:
            trace = FailureTrace.empty(self.engine.cluster.nodes)

        # initial static decision from the estimates
        if initial_config is None:
            initial_config = dict(CostBased(pruning=self.pruning).configure(
                estimated_plan, self.stats
            ).plan.mat_config())
        config = dict(initial_config)

        monitor = DriftMonitor(
            self.stats,
            envelope=self.envelope,
            smoothing=self.smoothing,
            half_life=self.half_life,
            track_mtbf=self.track_mtbf,
        )
        chaos_run = ChaosRun.create(self.engine.chaos, trace.seed)
        timeline = Timeline()
        seen_failures: Set[Tuple[int, float]] = set()
        completion: Dict[int, float] = {}
        completed_ops: Set[int] = set()
        reconfigurations: List[Reconfiguration] = []
        triggers = 0
        suppressed = 0
        share_restarts = 0
        clock = 0.0

        while len(completed_ops) < len(true_plan):
            executable = true_plan.with_mat_config(_free_part(
                true_plan, config
            ))
            collapsed = collapse_plan(
                executable, const_pipe=self.stats.const_pipe
            )
            anchor = self._next_ready_group(
                collapsed, completion, completed_ops
            )
            group = collapsed[anchor]
            done, restarts = self.engine.run_group(
                plan=executable,
                collapsed=collapsed,
                anchor=anchor,
                completion=completion,
                trace=trace,
                timeline=timeline,
                seen_failures=seen_failures,
                chaos_run=chaos_run,
            )
            completion[anchor] = done
            completed_ops |= set(group.members)
            share_restarts += restarts
            clock = max(clock, done)

            if len(completed_ops) >= len(true_plan):
                break

            self._update_correction(
                monitor, estimated_plan, executable, group, chaos_run,
            )
            monitor.observe_failures(
                timeline, upto=clock, nodes=self.engine.cluster.nodes
            )
            with obs.span("adaptive.decision", anchor=anchor,
                          time=done) as decision_span:
                trigger = monitor.decide()
                if trigger is None:
                    suppressed += 1
                    obs.add("adaptive.suppressed")
                    decision_span.set(outcome="suppressed")
                    continue
                triggers += 1
                obs.add("adaptive.triggers")
                decision_span.set(outcome=trigger.kind)
                stats = monitor.replan_stats(trigger)
                frozen_config = tuple(sorted(config.items()))
                config = self._reoptimize(
                    estimated_plan, config, completed_ops,
                    monitor.correction, stats,
                )
                obs.add("adaptive.replans")
            reconfiguration = Reconfiguration(
                time=done,
                completed_anchor=anchor,
                correction=monitor.correction,
                mat_config=tuple(sorted(
                    (op_id, flag) for op_id, flag in config.items()
                    if estimated_plan[op_id].free
                    and op_id not in completed_ops
                )),
                trigger=trigger.kind,
                cause=trigger.cause,
                observed_mtbf=trigger.observed_mtbf,
                stats_mtbf=stats.mtbf,
                completed_ops=tuple(sorted(completed_ops)),
                frozen_config=frozen_config,
            )
            reconfigurations.append(reconfiguration)
            if self.on_replan is not None:
                self.on_replan(reconfiguration, stats)

        timeline.record(clock, EventKind.QUERY_COMPLETED)
        result = ExecutionResult(
            runtime=clock,
            aborted=False,
            restarts=0,
            share_restarts=share_restarts,
            failures_hit=len(seen_failures),
            scheme="adaptive cost-based",
            timeline=timeline,
        )
        if clock > trace.horizon:
            raise TraceExhausted(
                f"adaptive run needed {clock:.1f}s but the trace only "
                f"covers {trace.horizon:.1f}s"
            )
        return AdaptiveResult(
            result=result,
            reconfigurations=tuple(reconfigurations),
            final_correction=monitor.correction,
            triggers=triggers,
            suppressed=suppressed,
            observed_mtbf=monitor.observed_mtbf,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _next_ready_group(collapsed, completion, completed_ops) -> int:
        for anchor in collapsed.topological_order():
            if anchor in completion:
                continue
            if all(p in completion for p in collapsed.producers(anchor)):
                return anchor
        raise RuntimeError("no ready group found")  # pragma: no cover

    def _update_correction(
        self, monitor: DriftMonitor, estimated_plan: Plan,
        executable: Plan, group, chaos_run: Optional[ChaosRun],
    ) -> float:
        """Blend the group's observed/estimated work ratio in.

        Observed work is read from the *true* plan's costs (what the
        engine actually charged); estimates from the optimizer's view.
        Skew -- configured or chaos-injected stragglers -- inflates
        observation via the slowest node.
        """
        estimated = sum(
            estimated_plan[m].runtime_cost for m in group.members
        )
        observed = sum(
            executable[m].runtime_cost for m in group.members
        )
        worst_skew = max(
            (self.engine.cluster.skew_of(node) * (
                chaos_run.straggler_factor(node)
                if chaos_run is not None else 1.0
            ) for node in range(self.engine.cluster.nodes)),
            default=1.0,
        )
        observed *= worst_skew
        return monitor.observe_group(estimated, observed)

    def _current_stats(self, failures_seen: int,
                       elapsed: float) -> ClusterStats:
        """Cluster statistics for the next decision (eager mode).

        With ``track_mtbf``, once the run has seen at least two failures
        its own maximum-likelihood estimate (observed node-time over
        failures) replaces the configured prior -- within-query
        adaptation must react in minutes, and a stale weekly prior would
        otherwise take a week of evidence to overturn.  With fewer than
        two failures the prior stands (one failure is compatible with
        almost any rate).
        """
        if not self.track_mtbf or elapsed <= 0 or failures_seen < 2:
            return self.stats
        node_time = elapsed * self.engine.cluster.nodes
        return self.stats.with_mtbf(node_time / failures_seen)

    def _reoptimize(
        self,
        estimated_plan: Plan,
        config: Dict[int, bool],
        completed_ops: Set[int],
        correction: float,
        stats: Optional[ClusterStats] = None,
    ) -> Dict[int, bool]:
        """Re-search the configuration of the remaining free operators."""
        if stats is None:
            stats = self.stats
        remaining = frontier_plan(
            estimated_plan, config, completed_ops, correction
        )
        search = find_best_ft_plan([remaining], stats,
                                   pruning=self.pruning)
        updated = dict(config)
        updated.update(search.plan.mat_config())
        for op_id in completed_ops:
            updated[op_id] = config[op_id]
        return updated


def frontier_plan(
    estimated_plan: Plan,
    config: Dict[int, bool],
    completed_ops: Set[int],
    correction: float,
) -> Plan:
    """The durable-frontier sub-plan a re-plan searches.

    Completed operators are sunk: zero remaining cost, their executed
    materialization flag kept, pinned (``free=False``) so the search
    cannot revisit them.  Remaining operators keep their flags but have
    their estimates rescaled by the runtime ``correction``.  Exposed as
    a module function so the differential suite can replay every
    recorded re-plan's search on every engine from the
    :class:`Reconfiguration` record alone.
    """
    operators = []
    for op_id, operator in estimated_plan.operators.items():
        if op_id in completed_ops:
            # sunk work: keep the executed flag, zero remaining cost
            operators.append(replace(
                operator,
                runtime_cost=0.0,
                mat_cost=0.0,
                materialize=config[op_id],
                free=False,
            ))
        else:
            operators.append(replace(
                operator,
                runtime_cost=operator.runtime_cost * correction,
                mat_cost=operator.mat_cost * correction,
                materialize=config[op_id],
            ))
    return Plan.from_edges(operators, estimated_plan.edges())


class AdaptiveCostBased(FaultToleranceScheme):
    """The adaptive executor packaged as a campaign-runnable scheme.

    Unlike the static schemes it cannot pre-commit a configuration --
    it decides *while* simulating -- so the campaign's measurement unit
    recognizes it and drives :class:`AdaptiveExecutor` per trace instead
    of the prepare/execute path.  :meth:`configure` still returns the
    *initial* static decision (identical to :class:`CostBased`), which
    is what the scheme flies until the first drift trigger and what the
    campaign reports as the chosen configuration.

    Instances are frozen-by-convention, picklable value objects: the
    pool can ship them to workers and every worker reaches the same
    decisions (``jobs=N`` stays bit-identical to ``jobs=1``).
    """

    name = "adaptive cost-based"

    def __init__(
        self,
        envelope: Optional[DriftEnvelope] = DriftEnvelope(),
        smoothing: float = 0.5,
        half_life: Optional[float] = None,
        pruning: PruningConfig = PruningConfig.all(),
    ) -> None:
        if not 0 < smoothing <= 1:
            raise ValueError("smoothing must be in (0, 1]")
        if half_life is not None and half_life <= 0:
            raise ValueError("half_life must be > 0")
        self.envelope = envelope
        self.smoothing = smoothing
        self.half_life = half_life
        self.pruning = pruning

    def configure(self, plan: Plan,
                  stats: ClusterStats) -> ConfiguredPlan:
        """The initial static decision (what the scheme starts flying)."""
        search = find_best_ft_plan([plan], stats, pruning=self.pruning)
        return ConfiguredPlan(
            plan=search.plan,
            recovery=RecoveryMode.FINE_GRAINED,
            scheme=self.name,
            search=search,
        )

    def executor(self, engine: SimulatedEngine,
                 stats: ClusterStats) -> AdaptiveExecutor:
        """An :class:`AdaptiveExecutor` configured with this scheme's
        knobs (the campaign's per-unit entry point)."""
        return AdaptiveExecutor(
            engine, stats,
            smoothing=self.smoothing,
            pruning=self.pruning,
            envelope=self.envelope,
            half_life=self.half_life,
        )


def run_adaptive_with_extension(
    executor: AdaptiveExecutor,
    true_plan: Plan,
    trace: FailureTrace,
    estimated_plan: Optional[Plan] = None,
    initial_config: Optional[Dict[int, bool]] = None,
    max_extensions: int = MAX_TRACE_EXTENSIONS,
) -> Tuple[AdaptiveResult, FailureTrace]:
    """Adaptive twin of :func:`~repro.engine.coordinator.run_with_extension`.

    Re-runs the whole adaptive execution on a horizon-extended trace when
    it outlives the current one
    (:func:`~repro.engine.traces.retry_with_extension`); the executor is
    deterministic, so the re-run replays the consumed prefix identically.
    """
    return retry_with_extension(
        lambda current: executor.execute(
            true_plan,
            estimated_plan=estimated_plan,
            trace=current,
            initial_config=initial_config,
        ),
        trace, max_extensions,
    )


def _free_part(plan: Plan, config: Dict[int, bool]) -> Dict[int, bool]:
    """Restrict a full mat-config dict to the plan's free operators."""
    return {op_id: config[op_id] for op_id in plan.free_operators}


def _check_same_shape(true_plan: Plan, estimated_plan: Plan) -> None:
    if set(true_plan.operators) != set(estimated_plan.operators):
        raise ValueError("true and estimated plans have different operators")
    if set(true_plan.edges()) != set(estimated_plan.edges()):
        raise ValueError("true and estimated plans have different edges")
    for op_id in true_plan.operators:
        if true_plan[op_id].free != estimated_plan[op_id].free:
            raise ValueError(
                f"operator {op_id}: free flags differ between plans"
            )
