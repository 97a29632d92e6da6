"""Static vs adaptive regret under drift: does closing the loop pay?

The robustness experiment measures how much the static cost-based choice
*loses* when reality violates the model (chosen-vs-oracle regret); this
experiment asks how much of that loss the drift-aware adaptive re-planner
(:mod:`repro.engine.adaptive`) *recoups*.  Per drift regime it reports
three numbers over the same trace sets:

* ``oracle`` -- the best mean runtime over **all** materialization
  configurations, simulated exhaustively under the regime (exact, not
  sampled);
* ``static`` -- the mean runtime of the configuration the cost-based
  scheme picks from the assumed (stale) statistics, frozen for the whole
  run;
* ``adaptive`` -- the mean runtime of :class:`~repro.engine.adaptive.
  AdaptiveCostBased`, which starts from the *same* static choice and
  re-plans mid-query when its :class:`~repro.engine.adaptive.DriftMonitor`
  sees the observed MTBF or runtime leave the drift envelope.

``static_regret = static / oracle`` and ``adaptive_regret = adaptive /
oracle``; closing the loop pays wherever ``adaptive_regret <
static_regret``.  The zero-drift regime doubles as the identity control:
the adaptive runner must perform **zero** re-plans and reproduce the
static runtimes bit-for-bit (``identical_to_static``), so the envelope's
false-trigger rate is measured, not assumed.  The adaptive scheme can
even beat the *static* oracle on drifting regimes -- the oracle is the
best *fixed* configuration, while re-planning switches configurations
mid-flight.

``tests/test_adaptive.py`` gates on this sweep (see ``docs/adaptive.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..chaos import CorrelatedFailures, FaultPolicy, MtbfDrift, Stragglers
from ..core.failure import HOUR
from ..engine.adaptive import AdaptiveCostBased, DriftEnvelope
from ..engine.campaign import CampaignCell, run_campaign
from ..engine.cluster import Cluster
from ..engine.coordinator import pure_baseline_runtime
from ..engine.executor import SimulatedEngine
from ..tpch.queries import build_query_plan
from .common import (
    DEFAULT_MTTR,
    DEFAULT_NODES,
    default_params_for,
    sweep_configs,
)
from .robustness import Regime


def default_regimes(
    mtbf: float, chaos_seed: int = 0
) -> Tuple[Regime, ...]:
    """The swept drift regimes, mildest first.

    ``zero drift`` is the identity control (reality matches the
    statistics exactly); the drifting regimes make the cluster fail
    faster than assumed -- constantly (stale statistic), cyclically
    (diurnal health), in rack-scoped bursts, or slow it down with
    stragglers the estimates don't know about.  Strengths are tuned so
    the sweep exercises both sides of the envelope: the stale and
    straggler regimes push observations far enough out that re-planning
    fires and pays, while the diurnal and burst regimes stay near the
    boundary where a well-calibrated envelope should *hold* (zero
    re-plans, bit-identical to static).
    """
    return (
        Regime("zero drift", None),
        Regime("stale MTBF /8", FaultPolicy(
            seed=chaos_seed, mtbf_drift=MtbfDrift(scale=8.0),
        )),
        Regime("diurnal x6 +-80%", FaultPolicy(
            seed=chaos_seed, mtbf_drift=MtbfDrift(
                scale=6.0, amplitude=0.8, period=mtbf / 8.0,
            ),
        )),
        Regime("rack bursts", FaultPolicy(
            seed=chaos_seed,
            correlated=CorrelatedFailures(
                burst_mtbf=mtbf / 4.0, intensity=1.0, rack_size=5,
                jitter=2.0,
            ),
        )),
        Regime("stragglers 40% x3", FaultPolicy(
            seed=chaos_seed, stragglers=Stragglers(rate=0.4, factor=3.0),
        )),
    )


@dataclass(frozen=True)
class AdaptiveDriftRow:
    """Static vs adaptive vs oracle for one drift regime."""

    regime: str
    effective_mtbf: float          #: what the regime's process really implies
    chosen_config: str             #: the assumed-statistics winner
    oracle_config: str             #: the regime's true best fixed config
    static_mean: float             #: mean runtime of the frozen choice
    adaptive_mean: float           #: mean runtime of the re-planning run
    oracle_mean: float             #: best fixed-config mean
    replans: int                   #: re-plan searches over all traces
    identical_to_static: bool      #: adaptive runtimes == static, bitwise

    @property
    def static_regret(self) -> float:
        if not math.isfinite(self.static_mean):
            return float("inf")
        return self.static_mean / self.oracle_mean

    @property
    def adaptive_regret(self) -> float:
        if not math.isfinite(self.adaptive_mean):
            return float("inf")
        return self.adaptive_mean / self.oracle_mean


@dataclass(frozen=True)
class AdaptiveDriftResult:
    query: str
    mtbf: float
    baseline: float                      #: pure failure-free runtime
    envelope: DriftEnvelope
    config_labels: Tuple[str, ...]       #: enumeration order
    rows: Tuple[AdaptiveDriftRow, ...]


def run(
    query: str = "Q5",
    scale_factor: float = 100.0,
    mtbf: float = 4.0 * HOUR,
    nodes: int = DEFAULT_NODES,
    trace_count: int = 10,
    base_seed: int = 1700,
    chaos_seed: int = 0,
    regimes: Optional[Sequence[Regime]] = None,
    envelope: DriftEnvelope = DriftEnvelope(),
    half_life: Optional[float] = None,
    jobs: int = 1,
) -> AdaptiveDriftResult:
    """Sweep drift regimes: frozen choice vs mid-query re-planning.

    One campaign per regime with two cells sharing the regime's trace
    sets: an exhaustive all-configurations cell (yields the oracle and
    the static chosen row) and an :class:`AdaptiveCostBased` cell.
    ``jobs`` fans each campaign out; results are bit-identical to
    ``jobs=1`` under every policy.

    The default assumed MTBF (4h) sits where the static scheme picks a
    *partial* configuration (one mid-plan checkpoint for Q5 at scale
    100): re-planning can only act at materialization boundaries, so a
    choice of ``{}`` would leave the adaptive runner with no decision
    points and the sweep would measure nothing (see the limitation note
    in :mod:`repro.engine.adaptive`).
    """
    if regimes is None:
        regimes = default_regimes(mtbf, chaos_seed=chaos_seed)
    params = default_params_for(nodes)
    plan = build_query_plan(query, scale_factor, params)
    cluster = Cluster(nodes=nodes, mttr=DEFAULT_MTTR)
    stats = cluster.stats(mtbf)

    # what the cost-based scheme picks under the assumed statistics
    sweep = sweep_configs(plan, stats)
    chosen_index, labels = sweep.chosen, sweep.labels
    configured = sweep.configured(plan)
    adaptive_scheme = AdaptiveCostBased(
        envelope=envelope, half_life=half_life,
    )
    engine = SimulatedEngine(cluster)
    baseline = pure_baseline_runtime(plan, engine, stats)

    rows: List[AdaptiveDriftRow] = []
    for regime in regimes:
        grid_cell = CampaignCell(
            label=query,
            plan=plan,
            mtbf=mtbf,
            configured=configured,
            trace_count=trace_count,
            base_seed=base_seed,
            baseline=baseline,
        )
        adaptive_cell = CampaignCell(
            label=query,
            plan=plan,
            mtbf=mtbf,
            schemes=(adaptive_scheme,),
            trace_count=trace_count,
            base_seed=base_seed,
            baseline=baseline,
        )
        results = run_campaign(
            [grid_cell, adaptive_cell], cluster, jobs=jobs,
            chaos=regime.policy,
        )
        grid = results[:len(configured)]
        adaptive = results[len(configured)]
        if adaptive.error is not None:
            raise RuntimeError(
                f"adaptive unit failed under {regime.name!r}: "
                f"{adaptive.error}"
            )
        means = [result.mean_runtime for result in grid]
        oracle_index = min(range(len(means)), key=means.__getitem__)
        rows.append(AdaptiveDriftRow(
            regime=regime.name,
            effective_mtbf=regime.effective_mtbf(nodes, mtbf),
            chosen_config=labels[chosen_index],
            oracle_config=labels[oracle_index],
            static_mean=means[chosen_index],
            adaptive_mean=adaptive.mean_runtime,
            oracle_mean=means[oracle_index],
            replans=adaptive.replans,
            # deliberate bit-identity check (not cost arithmetic): the
            # zero-drift gate demands the adaptive run reproduce the
            # static scheme's runtimes exactly, so no tolerance applies
            identical_to_static=(
                tuple(adaptive.runtimes)
                == tuple(grid[chosen_index].runtimes)
            ),
        ))
    return AdaptiveDriftResult(
        query=query,
        mtbf=mtbf,
        baseline=baseline,
        envelope=envelope,
        config_labels=tuple(labels),
        rows=tuple(rows),
    )


def format_table(result: AdaptiveDriftResult) -> str:
    envelope = result.envelope
    lines = [
        f"Adaptive re-planning under drift -- static vs adaptive "
        f"chosen-vs-oracle M_P regret ({result.query}, assumed MTBF "
        f"{result.mtbf:.0f}s, baseline {result.baseline:.0f}s, "
        f"envelope mtbf x{envelope.mtbf_ratio}, "
        f"runtime x{envelope.runtime_ratio}):",
        f"{'regime':<20s}{'eff.MTBF':>10s}{'oracle':>9s}"
        f"{'static':>9s}{'adaptive':>10s}{'replans':>9s}",
    ]
    for row in result.rows:
        identity = " (=static)" if row.identical_to_static else ""
        lines.append(
            f"{row.regime:<20s}{row.effective_mtbf:>9.0f}s"
            f"{row.oracle_config:>9s}"
            f"{row.static_regret:>8.2f}x"
            f"{row.adaptive_regret:>9.2f}x"
            f"{row.replans:>9d}{identity}"
        )
    lines.append(
        "regret = mean simulated runtime / the regime's best fixed "
        "configuration; the adaptive runner starts from the static "
        "choice and re-plans when observations leave the envelope."
    )
    return "\n".join(lines)
