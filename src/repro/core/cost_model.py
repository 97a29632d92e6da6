"""The paper's cost model (Section 3.5, Equations 2-8).

Given a *collapsed* plan (see :mod:`repro.core.collapse`) the cost model
estimates, for every collapsed operator ``c`` with failure-free runtime
``t(c) = tr(c) + tm(c)``:

* the average runtime wasted per failure ``w(c)`` (Eq. 2-4),
* the per-attempt failure/success probabilities ``eta(c)`` / ``gamma(c)``,
* the number of extra attempts ``a(c)`` needed to reach the desired success
  percentile ``S`` (Eq. 6), and
* the total runtime under failures
  ``T(c) = t(c) + a(c)*w(c) + a(c)*MTTR_cost`` (Eq. 8).

The cost of an execution path is ``T_Pt = sum(T(c) for c in Pt)`` (Eq. 7)
and the plan is represented by its *dominant* (most expensive) path.

All equations use ``MTBF_cost = MTBF * CONST_cost`` where ``CONST_cost``
converts wall-clock time into internal engine cost units; the paper (and
this reproduction's experiments) use ``CONST_cost = 1``.

``MTBF`` here is the *per-node* MTBF, exactly as in the paper: the model
estimates each sub-plan share's retries against the failure rate of the
node executing it, and deliberately ignores that the slowest of ``n``
nodes determines a partition-parallel operator's completion (Section 3.5's
footnote: paths are not modelled as stochastic variables).  This is what
makes the model fast -- and optimistic under low MTBFs, the ~30 %
underestimate the accuracy experiment (Figure 12a) measures.  Setting
``scale_mtbf_by_nodes=True`` on :class:`ClusterStats` switches to the
pessimistic cluster-superposition rate ``MTBF / n`` instead (an ablation;
see ``benchmarks/bench_ablation.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, List, Sequence


from .failure import effective_mtbf
from .summation import left_sum


@dataclass(frozen=True)
class ClusterStats:
    """Cluster statistics consumed by the cost model (``getCostStats``).

    Parameters
    ----------
    mtbf:
        Mean time between failures of a *single* node, in wall-clock
        seconds.
    mttr:
        Mean time to repair (redeploy a failed sub-plan), in wall-clock
        seconds.
    nodes:
        Number of nodes participating in (partition-parallel) query
        execution.  Informational for the cost model by default (the
        paper's equations use the per-node MTBF; see the module
        docstring); the simulator and the Figure 1 math use it directly.
    scale_mtbf_by_nodes:
        Ablation switch: use the cluster-superposition rate
        ``mtbf / nodes`` as ``MTBF_cost`` instead of the paper's
        per-node rate.
    const_cost:
        ``CONST_cost`` -- wall-clock -> cost-unit conversion factor.
    const_pipe:
        ``CONST_pipe`` in ``(0, 1]`` -- pipeline-parallelism discount
        applied to multi-operator collapsed pipelines (Eq. 1).
    success_percentile:
        ``S`` -- the desired cumulative probability of success used to
        derive the number of attempts (0.95 in all paper experiments).
    """

    mtbf: float
    mttr: float = 0.0
    nodes: int = 1
    const_cost: float = 1.0
    const_pipe: float = 1.0
    success_percentile: float = 0.95
    scale_mtbf_by_nodes: bool = False

    def __post_init__(self) -> None:
        if self.mtbf <= 0:
            raise ValueError("mtbf must be > 0")
        if self.mttr < 0:
            raise ValueError("mttr must be >= 0")
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.const_cost <= 0:
            raise ValueError("const_cost must be > 0")
        if not 0 < self.const_pipe <= 1:
            raise ValueError("const_pipe must be in (0, 1]")
        if not 0 < self.success_percentile < 1:
            raise ValueError("success_percentile must be in (0, 1)")

    @property
    def mtbf_cost(self) -> float:
        """``MTBF_cost`` -- the MTBF in cost units (per-node by default)."""
        mtbf = self.mtbf
        if self.scale_mtbf_by_nodes:
            mtbf = effective_mtbf(mtbf, self.nodes)
        return mtbf * self.const_cost

    @property
    def mttr_cost(self) -> float:
        """``MTTR_cost`` -- repair time in cost units."""
        return self.mttr * self.const_cost

    def with_mtbf(self, mtbf: float) -> "ClusterStats":
        """Copy with a different per-node MTBF."""
        return replace(self, mtbf=mtbf)

    def with_nodes(self, nodes: int) -> "ClusterStats":
        """Copy with a different cluster size."""
        return replace(self, nodes=nodes)


def wasted_runtime_exact(total_cost: float, mtbf_cost: float) -> float:
    """Average runtime wasted by one failure of an operator (Eq. 3).

    ``w(c) = MTBF_cost - t(c) / (e^(t(c)/MTBF_cost) - 1)``

    Derived from integrating the failure-time density conditioned on a
    failure happening during the operator's execution window.
    """
    _check_positive_mtbf(mtbf_cost)
    if total_cost < 0:
        raise ValueError("total_cost must be >= 0")
    ratio = total_cost / mtbf_cost
    if ratio < 1e-6:
        # near the limit (Eq. 4) the closed form suffers catastrophic
        # cancellation (two ~MTBF-sized terms differing by ~t/2); the
        # series value t/2 * (1 - ratio/6) is exact to float precision
        # and evaluates to exactly 0.0 for total_cost == 0
        return total_cost / 2.0 * (1.0 - ratio / 6.0)
    if ratio > 700.0:
        # expm1 overflow guard; the correction term vanishes and the
        # average failure arrives one MTBF into the attempt.
        return mtbf_cost
    return mtbf_cost - total_cost / math.expm1(ratio)


def wasted_runtime_approx(total_cost: float, mtbf_cost: float) -> float:
    """The paper's fast approximation ``w(c) ~= t(c)/2`` (Eq. 4).

    Already for ``MTBF_cost > t(c)`` the exact value is close to
    ``t(c)/2``; the paper uses this approximation throughout.  The
    ``mtbf_cost`` argument is accepted (and validated) so the two
    implementations are interchangeable.
    """
    _check_positive_mtbf(mtbf_cost)
    if total_cost < 0:
        raise ValueError("total_cost must be >= 0")
    return total_cost / 2.0


def failure_probability(total_cost: float, mtbf_cost: float) -> float:
    """``eta(c) = 1 - e^(-t(c)/MTBF_cost)`` -- one attempt fails."""
    _check_positive_mtbf(mtbf_cost)
    if total_cost < 0:
        raise ValueError("total_cost must be >= 0")
    return -math.expm1(-total_cost / mtbf_cost)


def success_probability(total_cost: float, mtbf_cost: float) -> float:
    """``gamma(c) = e^(-t(c)/MTBF_cost)`` -- one attempt succeeds."""
    _check_positive_mtbf(mtbf_cost)
    if total_cost < 0:
        raise ValueError("total_cost must be >= 0")
    return math.exp(-total_cost / mtbf_cost)


def cumulative_success(total_cost: float, mtbf_cost: float,
                       attempts: float) -> float:
    """``S(A <= N) = 1 - eta(c)^(N+1)`` (closed form of Eq. 5)."""
    if attempts < 0:
        raise ValueError("attempts must be >= 0")
    eta = failure_probability(total_cost, mtbf_cost)
    return 1.0 - eta ** (attempts + 1)


def attempts(total_cost: float, mtbf_cost: float,
             success_percentile: float = 0.95) -> float:
    """Extra attempts needed to reach the success percentile ``S`` (Eq. 6).

    ``a(c) = max(ln(1 - S) / ln(eta(c)) - 1, 0)``

    The value is fractional by design -- the cost model scales the wasted
    runtime and repair cost linearly with it.  Zero-cost operators (and
    operators whose single-attempt success probability already exceeds
    ``S``) need no extra attempts.
    """
    if not 0 < success_percentile < 1:
        raise ValueError("success_percentile must be in (0, 1)")
    eta = failure_probability(total_cost, mtbf_cost)
    if eta <= 0.0:
        return 0.0
    if eta >= 1.0:
        # eta < 1 mathematically, but rounds to 1.0 in floating point for
        # t(c) >> MTBF_cost; the percentile is then unreachable in any
        # finite number of attempts, and an infinite estimate correctly
        # ranks such configurations last.
        return float("inf")
    raw = math.log(1.0 - success_percentile) / math.log(eta) - 1.0
    return max(raw, 0.0)


def operator_runtime(
    total_cost: float,
    stats: ClusterStats,
    exact_waste: bool = False,
) -> float:
    """Total runtime ``T(c)`` of a collapsed operator under failures (Eq. 8).

    ``T(c) = t(c) + a(c) * w(c) + a(c) * MTTR_cost``

    Parameters
    ----------
    total_cost:
        ``t(c) = tr(c) + tm(c)`` of the collapsed operator.
    stats:
        Cluster statistics; supplies ``MTBF_cost``, ``MTTR_cost`` and ``S``.
    exact_waste:
        Use the exact integral for ``w(c)`` (Eq. 3) instead of the paper's
        default ``t(c)/2`` approximation (Eq. 4).
    """
    mtbf_cost = stats.mtbf_cost
    waste_fn = wasted_runtime_exact if exact_waste else wasted_runtime_approx
    wasted = waste_fn(total_cost, mtbf_cost)
    extra_attempts = attempts(total_cost, mtbf_cost, stats.success_percentile)
    return total_cost + extra_attempts * (wasted + stats.mttr_cost)


def path_cost(
    operator_costs: Iterable[float],
    stats: ClusterStats,
    exact_waste: bool = False,
) -> float:
    """Total cost of an execution path ``T_Pt = sum T(c)`` (Eq. 7)."""
    return left_sum(
        operator_runtime(cost, stats, exact_waste=exact_waste)
        for cost in operator_costs
    )


def path_cost_failure_free(operator_costs: Iterable[float]) -> float:
    """``R_Pt = sum t(c)`` -- path runtime ignoring failures (Rule 3)."""
    return left_sum(operator_costs)


@dataclass(frozen=True)
class OperatorCostBreakdown:
    """Per-operator cost-model intermediates (the rows of Table 2)."""

    total_cost: float      #: t(c)
    wasted: float          #: w(c)
    gamma: float           #: gamma(c)
    eta: float             #: eta(c)
    attempts: float        #: a(c)
    runtime: float         #: T(c)


def operator_breakdown(
    total_cost: float,
    stats: ClusterStats,
    exact_waste: bool = False,
) -> OperatorCostBreakdown:
    """All cost-model intermediates for one collapsed operator.

    Mirrors the columns of the paper's Table 2 worked example and is used
    by the golden tests and the ``bench_tab2_example`` benchmark.
    """
    mtbf_cost = stats.mtbf_cost
    waste_fn = wasted_runtime_exact if exact_waste else wasted_runtime_approx
    wasted = waste_fn(total_cost, mtbf_cost)
    eta = failure_probability(total_cost, mtbf_cost)
    gamma = 1.0 - eta
    extra = attempts(total_cost, mtbf_cost, stats.success_percentile)
    runtime = total_cost + extra * (wasted + stats.mttr_cost)
    return OperatorCostBreakdown(
        total_cost=total_cost,
        wasted=wasted,
        gamma=gamma,
        eta=eta,
        attempts=extra,
        runtime=runtime,
    )


def breakdown_table(
    operator_costs: Sequence[float],
    stats: ClusterStats,
    exact_waste: bool = False,
) -> List[OperatorCostBreakdown]:
    """Vector form of :func:`operator_breakdown` (one row per operator)."""
    return [
        operator_breakdown(cost, stats, exact_waste=exact_waste)
        for cost in operator_costs
    ]


def _check_positive_mtbf(mtbf_cost: float) -> None:
    if mtbf_cost <= 0:
        raise ValueError("mtbf_cost must be > 0")
