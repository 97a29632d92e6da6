"""Core library: the paper's cost-based fault-tolerance scheme.

Public surface:

* plans -- :class:`~repro.core.plan.Plan`, :class:`~repro.core.plan.Operator`
* failure math -- :mod:`repro.core.failure`
* cost model -- :class:`~repro.core.cost_model.ClusterStats` and the
  Equation 2-8 functions in :mod:`repro.core.cost_model`
* collapsing -- :func:`~repro.core.collapse.collapse_plan`
* search -- :func:`~repro.core.enumeration.find_best_ft_plan`
* pruning -- :mod:`repro.core.pruning`
* schemes -- :mod:`repro.core.strategies`
"""

from .checkpointing import (
    CheckpointSpec,
    checkpointed_runtime,
    estimated_runtime_with_checkpoints,
    plan_operator_checkpoints,
    young_daly_interval,
)
from .collapse import CollapsedOperator, CollapsedPlan, collapse_plan
from .dot import collapsed_to_dot, plan_to_dot
from .cost_model import (
    ClusterStats,
    OperatorCostBreakdown,
    attempts,
    breakdown_table,
    cumulative_success,
    failure_probability,
    operator_breakdown,
    operator_runtime,
    path_cost,
    path_cost_failure_free,
    success_probability,
    wasted_runtime_approx,
    wasted_runtime_exact,
)
from .enumeration import (
    PlanCostEstimate,
    SearchResult,
    count_mat_configs,
    enumerate_mat_configs,
    estimate_plan_cost,
    find_best_ft_plan,
)
from .optimizer import FaultTolerantOptimizer, OptimizerResult, QuerySpec
from .paths import count_paths, enumerate_paths, path_ids, path_total_costs
from .plan import Operator, Plan, PlanError, linear_plan
from .search_context import SearchContext
from .serialize import (
    dump_plan,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    stats_from_dict,
    stats_to_dict,
)
from .pruning import (
    DominantPathMemo,
    PruningConfig,
    PruningStats,
    apply_rule1,
    apply_rule2,
)
from .strategies import (
    AllMat,
    ConfiguredPlan,
    CostBased,
    CostBasedWithOpCheckpoints,
    FaultToleranceScheme,
    NoMatLineage,
    NoMatRestart,
    RecoveryMode,
    scheme_by_name,
    standard_schemes,
)

__all__ = [
    "AllMat",
    "CheckpointSpec",
    "CostBasedWithOpCheckpoints",
    "FaultTolerantOptimizer",
    "OptimizerResult",
    "QuerySpec",
    "checkpointed_runtime",
    "estimated_runtime_with_checkpoints",
    "plan_operator_checkpoints",
    "young_daly_interval",
    "collapsed_to_dot",
    "plan_to_dot",
    "dump_plan",
    "load_plan",
    "plan_from_dict",
    "plan_to_dict",
    "stats_from_dict",
    "stats_to_dict",
    "ClusterStats",
    "CollapsedOperator",
    "CollapsedPlan",
    "ConfiguredPlan",
    "CostBased",
    "DominantPathMemo",
    "FaultToleranceScheme",
    "NoMatLineage",
    "NoMatRestart",
    "Operator",
    "OperatorCostBreakdown",
    "Plan",
    "PlanCostEstimate",
    "PlanError",
    "PruningConfig",
    "PruningStats",
    "RecoveryMode",
    "SearchContext",
    "SearchResult",
    "apply_rule1",
    "apply_rule2",
    "attempts",
    "breakdown_table",
    "collapse_plan",
    "count_mat_configs",
    "count_paths",
    "cumulative_success",
    "enumerate_mat_configs",
    "enumerate_paths",
    "estimate_plan_cost",
    "failure_probability",
    "find_best_ft_plan",
    "linear_plan",
    "operator_breakdown",
    "operator_runtime",
    "path_cost",
    "path_cost_failure_free",
    "path_ids",
    "path_total_costs",
    "scheme_by_name",
    "standard_schemes",
    "success_probability",
    "wasted_runtime_approx",
    "wasted_runtime_exact",
]
