"""Figure 13: effectiveness of the pruning rules (Section 5.5).

The paper enumerates all 1344 cross-product-free join orders of TPC-H Q5
at SF = 10 (each with 2^5 = 32 materialization configurations, i.e.
43,008 fault-tolerant plans in total) and reports the percentage of
fault-tolerant plans pruned by each rule, for MTBFs of one week, one day
and one hour.

Accounting follows the paper:

* Rules 1 and 2 bind operators to ``m(o) = 0`` before configuration
  enumeration; a plan with ``k`` of its 5 free operators bound skips
  ``32 - 2^(5-k)`` configurations.
* Rule 3 prunes lazily during path enumeration.  A fault-tolerant plan
  where the rule fires at all is counted as *half* pruned (the paper's
  averaging over the rule firing on the first vs the last enumerated
  path).
* "All rules" applies rules 1 and 2 first and rule 3 on the surviving
  configurations, memoizing the best dominant paths across *all* join
  orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.collapse import CollapsedPlan
from ..core.cost_model import ClusterStats
from ..core.enumeration import count_mat_configs
from ..core.failure import DAY, HOUR, WEEK
from ..core.paths import enumerate_paths, path_total_costs
from ..core.plan import Plan
from ..core.pruning import (
    DominantPathMemo,
    apply_rule1,
    apply_rule2,
)
from ..core.search_context import SearchContext
from ..joinorder import enumerate_join_trees, q5_join_graph, tree_to_plan
from .common import DEFAULT_MTTR, DEFAULT_NODES, default_params_for

#: the paper's cluster setups for this experiment
PAPER_MTBFS: Tuple[Tuple[str, float], ...] = (
    ("Cluster A (10 nodes, MTBF=1 week)", WEEK),
    ("Cluster B (10 nodes, MTBF=1 day)", DAY),
    ("Cluster C (10 nodes, MTBF=1 hour)", HOUR),
)


@dataclass(frozen=True)
class PruningEffect:
    """Pruning percentages for one cluster setup."""

    label: str
    mtbf: float
    total_ft_plans: int
    rule1_percent: float
    rule2_percent: float
    rule3_percent: float
    all_rules_percent: float


@dataclass(frozen=True)
class Fig13Result:
    join_orders: int
    effects: Tuple[PruningEffect, ...]


def run(
    scale_factor: float = 1000.0,
    nodes: int = DEFAULT_NODES,
    mtbfs: Sequence[Tuple[str, float]] = PAPER_MTBFS,
    max_join_orders: int = None,
) -> Fig13Result:
    """Measure pruning effectiveness over the Q5 join-order space.

    ``max_join_orders`` limits the sweep (useful for quick runs/tests);
    ``None`` sweeps all 1344 orders as the paper does.

    The default scale factor is 1000 rather than the paper's label of 10:
    the paper's pruning thresholds operate on the optimizer's *internal
    cost units* (``MTBF_cost = MTBF * CONST_cost``), and its reported
    rule 2/3 gradients require operator costs comparable to
    ``-MTBF * ln(S)`` (tens of minutes to hours).  Our cost units are
    calibrated seconds, so the equivalent regime -- operator costs
    straddling the one-hour-to-one-week thresholds -- is reached at
    SF ~= 1000.  The rules' qualitative behaviour (rule 1 MTBF-invariant
    and strongest; rules 2 and 3 growing with MTBF) is what this
    experiment checks.
    """
    params = default_params_for(nodes)
    graph = q5_join_graph(scale_factor)
    plans: List[Plan] = []
    for index, tree in enumerate(enumerate_join_trees(graph)):
        if max_join_orders is not None and index >= max_join_orders:
            break
        plans.append(tree_to_plan(tree, graph, params))

    effects: List[PruningEffect] = []
    for label, mtbf in mtbfs:
        stats = ClusterStats(mtbf=mtbf, mttr=DEFAULT_MTTR, nodes=nodes)
        total = sum(count_mat_configs(plan) for plan in plans)
        rule1 = _eager_rule_pruned(plans, stats, rule=1)
        rule2 = _eager_rule_pruned(plans, stats, rule=2)
        rule3 = _rule3_pruned(plans, stats, pre_bind=False)
        all_rules = _all_rules_pruned(plans, stats)
        effects.append(PruningEffect(
            label=label,
            mtbf=mtbf,
            total_ft_plans=total,
            rule1_percent=100.0 * rule1 / total,
            rule2_percent=100.0 * rule2 / total,
            rule3_percent=100.0 * rule3 / total,
            all_rules_percent=100.0 * all_rules / total,
        ))
    return Fig13Result(join_orders=len(plans), effects=tuple(effects))


def _eager_rule_pruned(
    plans: Sequence[Plan], stats: ClusterStats, rule: int
) -> float:
    """FT plans skipped because Rule 1 or 2 bound free operators."""
    pruned = 0.0
    for plan in plans:
        before = count_mat_configs(plan)
        if rule == 1:
            bound_plan = apply_rule1(plan, stats.const_pipe)
        else:
            bound_plan = apply_rule2(plan, stats)
        after = count_mat_configs(bound_plan)
        pruned += before - after
    return pruned


def _rule3_pruned(
    plans: Sequence[Plan], stats: ClusterStats, pre_bind: bool
) -> float:
    """FT plans where Rule 3 cut path enumeration short (half credit).

    The memo of best dominant paths is shared across all join orders, as
    Section 4.3 suggests for cost-based enumeration.
    """
    memo = DominantPathMemo()
    cutoffs = 0
    for plan in plans:
        search_plan = plan
        if pre_bind:
            search_plan = apply_rule2(apply_rule1(plan, stats.const_pipe),
                                      stats)
        context = SearchContext(search_plan, stats)
        for mask in range(1 << len(context.free_ids)):
            fired_cheap, dominant_costs, dominant_total = _scan_paths(
                context.collapsed(mask), stats, memo
            )
            if fired_cheap:
                cutoffs += 1
            elif dominant_costs is not None:
                memo.record_dominant(dominant_costs, dominant_total)
    return 0.5 * cutoffs


def _scan_paths(
    collapsed: CollapsedPlan, stats: ClusterStats, memo: DominantPathMemo
):
    """Enumerate paths with Rule 3 checks; mirror the search inner loop.

    Returns ``(fired_cheap, dominant_costs, dominant_total)``.  Following
    the paper's accounting, only the *cheap* checks count as pruning --
    the failure-free ``R_Pt >= bestT`` comparison and the Equation 9
    dominance test avoid calling the cost function at all, whereas the
    ``T_Pt >= bestT`` check already paid for the estimate.
    """
    dominant_costs = None
    dominant_total = -1.0
    for path in enumerate_paths(collapsed):
        costs = path_total_costs(path)
        decision = memo.should_skip_plan(costs, stats)
        if decision.skip and decision.cheap:
            return True, None, None
        if decision.skip:
            return False, None, None
        if decision.estimated > dominant_total:
            dominant_total = decision.estimated
            dominant_costs = costs
    return False, dominant_costs, dominant_total


def _all_rules_pruned(plans: Sequence[Plan], stats: ClusterStats) -> float:
    """Rules 1+2 eagerly, then Rule 3 on the surviving configurations."""
    pruned = 0.0
    memo = DominantPathMemo()
    for plan in plans:
        before = count_mat_configs(plan)
        bound_plan = apply_rule2(apply_rule1(plan, stats.const_pipe), stats)
        after = count_mat_configs(bound_plan)
        pruned += before - after
        context = SearchContext(bound_plan, stats)
        for mask in range(1 << len(context.free_ids)):
            fired_cheap, dominant_costs, dominant_total = _scan_paths(
                context.collapsed(mask), stats, memo
            )
            if fired_cheap:
                pruned += 0.5
            elif dominant_costs is not None:
                memo.record_dominant(dominant_costs, dominant_total)
    return pruned


def format_table(result: Fig13Result) -> str:
    lines = [
        f"Figure 13 -- pruning effectiveness over {result.join_orders} "
        f"join orders ({result.effects[0].total_ft_plans} FT plans):",
        f"{'cluster':<38s}{'Rule 1':>9s}{'Rule 2':>9s}{'Rule 3':>9s}"
        f"{'All':>9s}",
    ]
    for effect in result.effects:
        lines.append(
            f"{effect.label:<38s}{effect.rule1_percent:>8.1f}%"
            f"{effect.rule2_percent:>8.1f}%{effect.rule3_percent:>8.1f}%"
            f"{effect.all_rules_percent:>8.1f}%"
        )
    return "\n".join(lines)
