"""Robustness under *wrong assumptions*: chosen-vs-oracle regret (chaos).

Table 3 asks how the cost model degrades when the *statistics* it is fed
are inaccurate.  This experiment extends that question to the model's
structural *assumptions*: failures arrive independently and
exponentially, materialization writes always succeed, nodes are equally
fast.  Each injected regime (a :class:`~repro.chaos.FaultPolicy`)
violates one assumption while the optimizer still plans under the
assumed exponential statistics.

Protocol: enumerate every materialization configuration ``M_P`` of the
query's plan; the *chosen* configuration is the estimated-cost winner
under the assumed statistics (what the cost-based scheme would pick).
Simulate **all** configurations under each injected regime over the same
trace sets; the *oracle* configuration is the one with the smallest mean
simulated runtime under that regime.  Report

``regret = mean runtime of chosen / mean runtime of oracle``

per regime -- 1.00x means the cost model's pick was still optimal even
though its assumptions were violated; the gap quantifies how much a
regime-aware optimizer could recoup.  The search layer itself is never
shown the injections (pinned by the differential test battery); an
operator who *knows* the burst regime can compensate by feeding the
model the effective MTBF
(:meth:`~repro.chaos.CorrelatedFailures.effective_mtbf`), reported per
regime for reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..chaos import CorrelatedFailures, FaultPolicy, FlakyWrites, Stragglers
from ..core.failure import HOUR
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


@dataclass(frozen=True)
class Regime:
    """One injected fault regime: a name plus the policy realizing it."""

    name: str
    policy: Optional[FaultPolicy]   #: ``None`` = the assumed regime

    def effective_mtbf(self, nodes: int, mtbf: float) -> float:
        """The MTBF this regime's failure process really implies."""
        policy = self.policy
        if policy is not None and policy.mtbf_drift is not None:
            return policy.mtbf_drift.effective_mtbf(mtbf)
        if policy is not None and policy.correlated is not None:
            return policy.correlated.effective_mtbf(nodes, mtbf)
        return mtbf


def default_regimes(
    mtbf: float, chaos_seed: int = 0
) -> Tuple[Regime, ...]:
    """The swept regimes, mildest first.

    Scaled off the assumed per-node ``mtbf`` so the sweep stays
    meaningful at any cluster: rack bursts with a cluster-wide burst
    gap of half (resp. a quarter of) the per-node MTBF roughly double
    (resp. quadruple) the failure rate a 10-node cluster sees.
    """
    return (
        Regime("assumed (exponential)", None),
        Regime("weibull k=0.7", FaultPolicy(
            seed=chaos_seed,
            correlated=CorrelatedFailures(
                burst_mtbf=mtbf, intensity=0.0, base_shape=0.7,
            ),
        )),
        Regime("rack bursts", FaultPolicy(
            seed=chaos_seed,
            correlated=CorrelatedFailures(
                burst_mtbf=mtbf / 2.0, intensity=1.0, rack_size=3,
                jitter=2.0,
            ),
        )),
        Regime("heavy rack bursts", FaultPolicy(
            seed=chaos_seed,
            correlated=CorrelatedFailures(
                burst_mtbf=mtbf / 4.0, intensity=1.0, rack_size=5,
                jitter=2.0,
            ),
        )),
        Regime("flaky writes 10%", FaultPolicy(
            seed=chaos_seed, flaky_writes=FlakyWrites(rate=0.1),
        )),
        Regime("stragglers 30% x2", FaultPolicy(
            seed=chaos_seed, stragglers=Stragglers(rate=0.3, factor=2.0),
        )),
    )


@dataclass(frozen=True)
class RobustnessRow:
    """Chosen-vs-oracle outcome for one injected regime."""

    regime: str
    effective_mtbf: float          #: what the regime's traces really imply
    chosen_config: str             #: the assumed-statistics winner
    oracle_config: str             #: the regime's true best configuration
    chosen_mean: float             #: mean simulated runtime of chosen
    oracle_mean: float             #: mean simulated runtime of oracle

    @property
    def regret(self) -> float:
        """``chosen_mean / oracle_mean`` (1.0 = chosen was optimal)."""
        if not math.isfinite(self.chosen_mean):
            return float("inf")
        return self.chosen_mean / self.oracle_mean


@dataclass(frozen=True)
class RobustnessResult:
    query: str
    mtbf: float
    baseline: float                      #: pure failure-free runtime
    config_labels: Tuple[str, ...]       #: enumeration order
    rows: Tuple[RobustnessRow, ...]


def run(
    query: str = "Q5",
    scale_factor: float = 100.0,
    mtbf: float = HOUR,
    nodes: int = DEFAULT_NODES,
    trace_count: int = 10,
    base_seed: int = 1500,
    chaos_seed: int = 0,
    regimes: Optional[Sequence[Regime]] = None,
    jobs: int = 1,
) -> RobustnessResult:
    """Sweep injected regimes against the assumed-statistics choice.

    One campaign per regime (a regime's policy is campaign-wide); every
    campaign measures *all* materialization configurations over the
    regime's trace sets, so the oracle is exact, not sampled.  ``jobs``
    fans each campaign out; results are bit-identical to ``jobs=1``
    under every policy.
    """
    if regimes is None:
        regimes = default_regimes(mtbf, chaos_seed=chaos_seed)
    params = default_params_for(nodes)
    plan = build_query_plan(query, scale_factor, params)
    cluster = Cluster(nodes=nodes, mttr=DEFAULT_MTTR)
    stats = cluster.stats(mtbf)

    # what the cost-based scheme would pick under the assumed statistics
    sweep = sweep_configs(plan, stats)
    chosen_index, labels = sweep.chosen, sweep.labels
    configured = sweep.configured(plan)
    engine = SimulatedEngine(cluster)
    baseline = pure_baseline_runtime(plan, engine, stats)

    rows: List[RobustnessRow] = []
    for regime in regimes:
        cell = CampaignCell(
            label=query,
            plan=plan,
            mtbf=mtbf,
            configured=configured,
            trace_count=trace_count,
            base_seed=base_seed,
            baseline=baseline,
        )
        results = run_campaign(
            [cell], cluster, jobs=jobs, chaos=regime.policy
        )
        means = [result.mean_runtime for result in results]
        oracle_index = min(range(len(means)), key=means.__getitem__)
        rows.append(RobustnessRow(
            regime=regime.name,
            effective_mtbf=regime.effective_mtbf(nodes, mtbf),
            chosen_config=labels[chosen_index],
            oracle_config=labels[oracle_index],
            chosen_mean=means[chosen_index],
            oracle_mean=means[oracle_index],
        ))
    return RobustnessResult(
        query=query,
        mtbf=mtbf,
        baseline=baseline,
        config_labels=tuple(labels),
        rows=tuple(rows),
    )


def format_table(result: RobustnessResult) -> str:
    lines = [
        f"Robustness -- chosen-vs-oracle M_P regret under injected "
        f"regimes ({result.query}, assumed MTBF {result.mtbf:.0f}s, "
        f"baseline {result.baseline:.0f}s):",
        f"{'regime':<24s}{'eff.MTBF':>10s}{'chosen':>10s}"
        f"{'oracle':>10s}{'regret':>9s}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.regime:<24s}{row.effective_mtbf:>9.0f}s"
            f"{row.chosen_config:>10s}{row.oracle_config:>10s}"
            f"{row.regret:>8.2f}x"
        )
    lines.append(
        "regret = mean simulated runtime of the assumed-statistics "
        "choice / the regime's true best; the optimizer never sees the "
        "injections."
    )
    return "\n".join(lines)
