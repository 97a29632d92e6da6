"""Shared plumbing for the evaluation experiments.

Every overhead experiment follows the paper's protocol (Section 5.1/5.2):

1. build the query's costed plan at the experiment's scale factor;
2. measure the baseline -- the failure-free runtime of the plan without
   any extra materialization;
3. generate 10 failure traces for the MTBF under test;
4. run every fault-tolerance scheme against the *same* traces;
5. report overhead = mean runtime / baseline - 1.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence, Tuple

from ..core.cost_model import ClusterStats
from ..core.plan import Plan
from ..core.search_context import SearchContext
from ..core.strategies import ConfiguredPlan, RecoveryMode
from ..engine.campaign import CellResult
from ..stats.calibration import DEFAULT_NODES, default_parameters
from ..stats.estimates import CostParameters

#: the paper's cluster configuration
DEFAULT_MTTR = 1.0

#: a materialization configuration: ``(op_id, materialize)`` pairs
MatConfigKey = Tuple[Tuple[int, bool], ...]


def overhead_grid(cells: Sequence[CellResult]) -> str:
    """Render campaign rows as a label x scheme text table (Figure 8)."""
    queries = list(dict.fromkeys(cell.label for cell in cells))
    schemes = list(dict.fromkeys(cell.scheme for cell in cells))
    lookup: Dict[tuple, CellResult] = {
        (cell.label, cell.scheme): cell for cell in cells
    }
    width = max(len(s) for s in schemes) + 2
    header = "query".ljust(8) + "".join(s.rjust(width) for s in schemes)
    lines = [header]
    for query in queries:
        row = query.ljust(8)
        for scheme in schemes:
            cell = lookup.get((query, scheme))
            row += (cell.formatted() if cell else "-").rjust(width)
        lines.append(row)
    return "\n".join(lines)


def config_label(config: Sequence[Tuple[int, bool]]) -> str:
    """A materialization configuration as the set of its checkpoints."""
    materialized = [str(op_id) for op_id, flag in config if flag]
    return "{" + ",".join(materialized) + "}"


def default_params_for(nodes: int = DEFAULT_NODES) -> CostParameters:
    return default_parameters(nodes=nodes)


class ConfigSweep(NamedTuple):
    """Every materialization configuration of one plan with its
    estimated runtime, in mask order (the naive enumeration's order)."""

    costs: Tuple[float, ...]
    configs: Tuple[MatConfigKey, ...]

    @property
    def chosen(self) -> int:
        """Index of the cost-based scheme's pick: the first cheapest."""
        return min(range(len(self.costs)), key=self.costs.__getitem__)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(config_label(config) for config in self.configs)

    def configured(self, plan: Plan) -> Tuple[ConfiguredPlan, ...]:
        """Each configuration as a fine-grained plan named by its label."""
        return tuple(
            ConfiguredPlan(plan=plan.with_mat_config(dict(config)),
                           recovery=RecoveryMode.FINE_GRAINED, scheme=label)
            for config, label in zip(self.configs, self.labels)
        )


def sweep_configs(plan: Plan, stats: ClusterStats) -> ConfigSweep:
    """Score every configuration through one :class:`SearchContext`.

    The context is walked in Gray order, so each step flips one bit and
    re-scores only the anchors it reaches; every cost is stored at its
    mask, so the sweep is still in mask order.
    """
    context = SearchContext(plan, stats)
    count = 1 << len(context.free_ids)
    costs = [0.0] * count
    for index in range(count):
        mask = index ^ (index >> 1)
        costs[mask] = context.scores(mask)[1]
    return ConfigSweep(
        tuple(costs), tuple(context.config_for(mask) for mask in range(count))
    )
