"""Static linter for plans, materialization configs, and collapsed plans.

The cost-based scheme only beats blind strategies when every candidate
``[P, M_P]`` is structurally sound and the cost model's invariants hold.
This pass validates all of that *without executing anything*:

* **structure** -- cycles, dangling/inconsistent edges, empty plans,
  negative/NaN/inf costs (``P001``-``P004``);
* **configurations** -- flags for unknown operators, attempts to flip a
  bound (``f(o) = 0``) operator (``P005``-``P006``);
* **collapsed plans** -- every anchor materialized or a sink, group
  membership covering the plan, dominant paths consistent with the
  recorded runtime (``P007``-``P009``), plus the ``P010`` advisory for
  materialized sinks;
* **cost-model invariants** -- ``eta(c)`` in ``[0, 1]``, the wasted-work
  bound ``w(c) <= t(c)/2``, the attempts floor ``1 + a(c) >= 1``, and
  runtime monotonicity ``T(c) >= t(c)``, each evaluated symbolically over
  a grid of :class:`~repro.core.cost_model.ClusterStats`
  (``M001``-``M004``).

The entry points are :func:`lint_plan` (structure + collapse +
invariants for the plan's current flags), :func:`lint_mat_config`
(a candidate configuration against its plan) and :func:`lint_collapsed`
(an already-built collapsed plan, e.g. from a custom collapse
implementation).  ``engine.coordinator`` and ``core.enumeration`` call
:func:`preflight_check` before touching a plan; pass
``preflight_lint=False`` there to opt out.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core import cost_model
from ..core.collapse import CollapsedPlan, collapse_plan
from ..core.cost_model import ClusterStats
from ..core.plan import Plan, PlanError
from ..core.summation import left_sum
from .diagnostics import (
    Diagnostic,
    DiagnosticSink,
    Location,
    Severity,
    register_rule,
    require_clean,
)

# ----------------------------------------------------------------------
# rule catalog
# ----------------------------------------------------------------------
EMPTY_PLAN = register_rule(
    "P001", Severity.ERROR,
    "plan has no operators",
    "build the plan before linting; an empty DAG cannot be scheduled",
)
CYCLE = register_rule(
    "P002", Severity.ERROR,
    "plan contains a cycle",
    "plans must be DAGs; check the edge list for a back edge",
)
DANGLING_EDGE = register_rule(
    "P003", Severity.ERROR,
    "edge references a missing operator or the adjacency lists disagree",
    "use Plan.add_operator/add_edge instead of mutating internals",
)
INVALID_COST = register_rule(
    "P004", Severity.ERROR,
    "operator or group cost is negative, NaN, or infinite",
    "cost estimates must be finite and >= 0; check the statistics layer",
)
BOUND_FLIP = register_rule(
    "P005", Severity.ERROR,
    "configuration flips the m(o) flag of a bound (f(o)=0) operator",
    "bound operators are excluded from enumeration; drop them from the "
    "configuration or re-bind the operator",
)
UNKNOWN_OPERATOR = register_rule(
    "P006", Severity.ERROR,
    "configuration references an operator id not in the plan",
    "configurations may only name the plan's free operators",
)
ANCHOR_NOT_MATERIALIZED = register_rule(
    "P007", Severity.ERROR,
    "collapsed group anchored on an operator that neither materializes "
    "nor is a sink",
    "a recovery unit must end at a materialization boundary (or stream "
    "to the client from a sink)",
)
COVERAGE_GAP = register_rule(
    "P008", Severity.ERROR,
    "collapsed groups do not cover every plan operator",
    "every operator must belong to at least one recovery unit; re-run "
    "collapse_plan",
)
DOMINANT_PATH_MISMATCH = register_rule(
    "P009", Severity.ERROR,
    "a group's dominant path is inconsistent with its members or its "
    "recorded runtime cost",
    "the dominant path must lie inside the group, end at the anchor, "
    "and sum (with the CONST_pipe discount) to tr(c)",
)
SINK_MATERIALIZATION = register_rule(
    "P010", Severity.WARNING,
    "a free sink materializes its output",
    "sink outputs leave the plan; materializing them pays tm without "
    "shortening any recovery",
)
ETA_BOUNDS = register_rule(
    "M001", Severity.ERROR,
    "per-attempt failure probability eta(c) falls outside [0, 1]",
    "eta = 1 - exp(-t/MTBF) is a probability; non-finite t(c) or a "
    "broken stats grid produces this",
)
WASTE_BOUND = register_rule(
    "M002", Severity.ERROR,
    "wasted work w(c) exceeds the paper's t(c)/2 approximation bound",
    "Eq. 3's exact waste is bounded by t(c)/2 (Eq. 4); a violation "
    "means corrupted costs",
)
ATTEMPTS_FLOOR = register_rule(
    "M003", Severity.ERROR,
    "total attempts 1 + a(c) dropped below one (or became NaN)",
    "a(c) counts *extra* attempts and must be >= 0 (Eq. 6)",
)
RUNTIME_MONOTONE = register_rule(
    "M004", Severity.ERROR,
    "runtime under failures T(c) is below the failure-free runtime t(c)",
    "T(c) = t(c) + a(c)(w(c) + MTTR) can never undercut t(c) (Eq. 8)",
)

#: relative tolerance for the numeric invariant comparisons
_REL_TOL = 1e-9


def default_stats_grid() -> List[ClusterStats]:
    """The grid the invariant rules are evaluated over.

    Spans three MTBF decades (one minute, one hour, one day) crossed
    with repair-free and slow-repair clusters -- enough to exercise both
    the high-failure and the asymptotic regimes of Equations 2-8.
    """
    grid = []
    for mtbf in (60.0, 3600.0, 86400.0):
        for mttr in (0.0, 30.0):
            grid.append(ClusterStats(mtbf=mtbf, mttr=mttr, nodes=10))
    return grid


# ----------------------------------------------------------------------
# structural checks
# ----------------------------------------------------------------------
def _finite_nonnegative(value: Optional[float]) -> bool:
    return value is None or (math.isfinite(value) and value >= 0)


def _loc(plan_name: Optional[str], obj: str) -> Location:
    return Location(plan=plan_name, obj=obj)


def _check_structure(plan: Plan, sink: DiagnosticSink,
                     plan_name: Optional[str]) -> bool:
    """Emit P001-P004; return True when the plan is safe to collapse."""
    if not plan.operators:
        sink.emit(EMPTY_PLAN, _loc(plan_name, "plan"),
                  "plan has no operators")
        return False

    sound = True
    known = set(plan.operators)
    consumers: Mapping[int, Sequence[int]] = plan._consumers
    producers: Mapping[int, Sequence[int]] = plan._producers
    for op_id in known:
        for consumer_id in consumers.get(op_id, ()):  # forward edges
            if consumer_id not in known:
                sink.emit(
                    DANGLING_EDGE, _loc(plan_name, f"edge {op_id}->{consumer_id}"),
                    f"edge {op_id} -> {consumer_id} points at an operator "
                    "that is not in the plan",
                )
                sound = False
            elif op_id not in producers.get(consumer_id, ()):
                sink.emit(
                    DANGLING_EDGE, _loc(plan_name, f"edge {op_id}->{consumer_id}"),
                    f"edge {op_id} -> {consumer_id} is missing from the "
                    "reverse adjacency list",
                )
                sound = False
        for producer_id in producers.get(op_id, ()):  # reverse edges
            if producer_id not in known:
                sink.emit(
                    DANGLING_EDGE, _loc(plan_name, f"edge {producer_id}->{op_id}"),
                    f"operator {op_id} lists missing producer {producer_id}",
                )
                sound = False

    if sound and _has_cycle(plan):
        sink.emit(CYCLE, _loc(plan_name, "plan"),
                  "the operator graph contains a cycle")
        sound = False

    for op_id, operator in sorted(plan.operators.items()):
        bad_fields = [
            name for name, value in (
                ("runtime_cost", operator.runtime_cost),
                ("mat_cost", operator.mat_cost),
                ("state_ckpt_cost", operator.state_ckpt_cost),
            )
            if not _finite_nonnegative(value)
        ]
        if bad_fields:
            sink.emit(
                INVALID_COST,
                _loc(plan_name, f"operator {op_id} ({operator.name})"),
                f"operator {op_id} has invalid {', '.join(bad_fields)}",
            )
            sound = False
    return sound


def _has_cycle(plan: Plan) -> bool:
    """Kahn's algorithm over the raw adjacency, never raising."""
    in_degree = {op_id: len(plan._producers.get(op_id, ()))
                 for op_id in plan.operators}
    ready = [op_id for op_id, deg in in_degree.items() if deg == 0]
    seen = 0
    while ready:
        op_id = ready.pop()
        seen += 1
        for consumer_id in plan._consumers.get(op_id, ()):
            if consumer_id not in in_degree:
                continue
            in_degree[consumer_id] -= 1
            if in_degree[consumer_id] == 0:
                ready.append(consumer_id)
    return seen != len(plan.operators)


# ----------------------------------------------------------------------
# configuration checks
# ----------------------------------------------------------------------
def lint_mat_config(
    plan: Plan,
    mat_config: Iterable[Tuple[int, bool]],
    plan_name: Optional[str] = None,
) -> List[Diagnostic]:
    """Validate a candidate materialization configuration (P005, P006)."""
    sink = DiagnosticSink()
    for op_id, flag in dict(mat_config).items():
        if op_id not in plan.operators:
            sink.emit(
                UNKNOWN_OPERATOR, _loc(plan_name, f"config[{op_id}]"),
                f"configuration names operator {op_id}, which is not in "
                "the plan",
            )
            continue
        operator = plan[op_id]
        if not operator.free and flag != operator.materialize:
            sink.emit(
                BOUND_FLIP,
                _loc(plan_name, f"operator {op_id} ({operator.name})"),
                f"operator {op_id} is bound to m(o)={int(operator.materialize)} "
                f"but the configuration sets m(o)={int(flag)}",
            )
    return sink.diagnostics


# ----------------------------------------------------------------------
# collapsed-plan and invariant checks
# ----------------------------------------------------------------------
def lint_collapsed(
    plan: Plan,
    collapsed: CollapsedPlan,
    stats_grid: Optional[Sequence[ClusterStats]] = None,
    const_pipe: float = 1.0,
    plan_name: Optional[str] = None,
) -> List[Diagnostic]:
    """Validate a collapsed plan against its source plan (P004, P007-P009)
    and evaluate the cost-model invariants over ``stats_grid`` (M001-M004).
    """
    sink = DiagnosticSink()
    if stats_grid is None:
        stats_grid = default_stats_grid()

    sinks_of_plan = set(plan.sinks)
    covered: Set[int] = set()
    for anchor_id in sorted(collapsed.groups):
        group = collapsed.groups[anchor_id]
        obj = f"group {group}"
        covered |= group.members

        if anchor_id not in plan.operators:
            sink.emit(COVERAGE_GAP, _loc(plan_name, obj),
                      f"anchor {anchor_id} is not a plan operator")
            continue
        anchor = plan[anchor_id]
        if not anchor.materialize and anchor_id not in sinks_of_plan:
            sink.emit(
                ANCHOR_NOT_MATERIALIZED, _loc(plan_name, obj),
                f"anchor {anchor_id} ({anchor.name}) has m(o)=0 and has "
                "consumers; its group has no recovery boundary",
            )

        cost_ok = True
        for field_name, value in (("runtime_cost", group.runtime_cost),
                                  ("mat_cost", group.mat_cost)):
            if not _finite_nonnegative(value):
                sink.emit(
                    INVALID_COST, _loc(plan_name, obj),
                    f"collapsed group {group} has invalid {field_name} "
                    f"({value!r})",
                )
                cost_ok = False

        _check_dominant_path(plan, group, const_pipe, sink, plan_name, obj)
        if cost_ok:
            sink.diagnostics.extend(
                lint_invariants(group.total_cost, stats_grid,
                                obj=obj, plan_name=plan_name)
            )

    missing = set(plan.operators) - covered
    if missing:
        sink.emit(
            COVERAGE_GAP, _loc(plan_name, "collapsed plan"),
            f"operators {sorted(missing)} belong to no collapsed group",
        )

    # bound-materialized sinks are the engine writing the query result;
    # only a *free* sink the enumeration chose to materialize is waste.
    for sink_id in sorted(sinks_of_plan):
        if (sink_id in plan.operators and plan[sink_id].materialize
                and plan[sink_id].free):
            sink.emit(
                SINK_MATERIALIZATION,
                _loc(plan_name, f"operator {sink_id} ({plan[sink_id].name})"),
                f"sink {sink_id} materializes its output "
                f"(tm={plan[sink_id].mat_cost:g}) with no downstream "
                "consumer to recover",
            )
    return sink.diagnostics


def _check_dominant_path(
    plan: Plan,
    group,
    const_pipe: float,
    sink: DiagnosticSink,
    plan_name: Optional[str],
    obj: str,
) -> None:
    path = group.dominant_path
    if not path or path[-1] != group.anchor_id:
        sink.emit(
            DOMINANT_PATH_MISMATCH, _loc(plan_name, obj),
            f"dominant path {list(path)} does not end at anchor "
            f"{group.anchor_id}",
        )
        return
    stray = [op_id for op_id in path if op_id not in group.members]
    if stray:
        sink.emit(
            DOMINANT_PATH_MISMATCH, _loc(plan_name, obj),
            f"dominant path operators {stray} are not members of the group",
        )
        return
    if any(op_id not in plan.operators for op_id in path):
        return  # coverage rule already reported the missing operator
    path_runtime = left_sum(plan[op_id].runtime_cost for op_id in path)
    pipe = const_pipe if len(path) > 1 else 1.0
    expected = path_runtime * pipe
    if not math.isfinite(expected) or not math.isfinite(group.runtime_cost):
        return  # P004 owns non-finite costs
    if not math.isclose(group.runtime_cost, expected, rel_tol=_REL_TOL,
                        abs_tol=1e-12):
        sink.emit(
            DOMINANT_PATH_MISMATCH, _loc(plan_name, obj),
            f"recorded tr(c)={group.runtime_cost:g} but the dominant path "
            f"sums to {expected:g} (CONST_pipe={pipe:g})",
        )


def lint_invariants(
    total_cost: float,
    stats_grid: Optional[Sequence[ClusterStats]] = None,
    eta_fn=None,
    waste_fn=None,
    attempts_fn=None,
    runtime_fn=None,
    obj: str = "t(c)",
    plan_name: Optional[str] = None,
) -> List[Diagnostic]:
    """Evaluate the M001-M004 invariants for one collapsed-operator cost.

    The four model functions default to the paper's implementation in
    :mod:`repro.core.cost_model`; pass replacements to validate an
    alternative cost-model implementation (e.g. a new wasted-work
    approximation) against the invariants before trusting its estimates:

    * ``eta_fn(t, mtbf_cost) -> eta(c)``           must land in ``[0, 1]``
    * ``waste_fn(t, mtbf_cost) -> w(c)``           must stay ``<= t/2``
    * ``attempts_fn(t, mtbf_cost, S) -> a(c)``     must keep ``1 + a >= 1``
    * ``runtime_fn(t, stats) -> T(c)``             must keep ``T >= t``
    """
    sink = DiagnosticSink()
    if stats_grid is None:
        stats_grid = default_stats_grid()
    eta_fn = eta_fn or cost_model.failure_probability
    waste_fn = waste_fn or cost_model.wasted_runtime_exact
    attempts_fn = attempts_fn or cost_model.attempts
    runtime_fn = runtime_fn or cost_model.operator_runtime
    for stats in stats_grid:
        mtbf_cost = stats.mtbf_cost
        try:
            eta = eta_fn(total_cost, mtbf_cost)
            wasted = waste_fn(total_cost, mtbf_cost)
            extra = attempts_fn(
                total_cost, mtbf_cost, stats.success_percentile
            )
            runtime = runtime_fn(total_cost, stats)
        except (ValueError, OverflowError) as exc:
            sink.emit(
                INVALID_COST, _loc(plan_name, obj),
                f"cost model rejected t(c)={total_cost!r} at "
                f"MTBF={stats.mtbf:g}: {exc}",
            )
            return sink.diagnostics
        grid_point = f"MTBF={stats.mtbf:g}s MTTR={stats.mttr:g}s"
        if not (0.0 <= eta <= 1.0):  # NaN also lands here
            sink.emit(
                ETA_BOUNDS, _loc(plan_name, obj),
                f"eta(c)={eta!r} outside [0, 1] at {grid_point}",
            )
        half = total_cost / 2.0
        if not (wasted <= half * (1.0 + _REL_TOL) or
                math.isclose(wasted, half, rel_tol=_REL_TOL)):
            sink.emit(
                WASTE_BOUND, _loc(plan_name, obj),
                f"w(c)={wasted!r} exceeds t(c)/2={half!r} at {grid_point}",
            )
        if not (1.0 + extra >= 1.0):  # catches extra < 0 and NaN
            sink.emit(
                ATTEMPTS_FLOOR, _loc(plan_name, obj),
                f"1 + a(c) = {1.0 + extra!r} < 1 at {grid_point}",
            )
        if not (runtime >= total_cost * (1.0 - _REL_TOL)):
            sink.emit(
                RUNTIME_MONOTONE, _loc(plan_name, obj),
                f"T(c)={runtime!r} below t(c)={total_cost!r} at {grid_point}",
            )
    return sink.diagnostics


# ----------------------------------------------------------------------
# top-level entry points
# ----------------------------------------------------------------------
def lint_plan(
    plan: Plan,
    stats_grid: Optional[Sequence[ClusterStats]] = None,
    const_pipe: float = 1.0,
    plan_name: Optional[str] = None,
) -> List[Diagnostic]:
    """Full static validation of one plan under its current ``m(o)`` flags.

    Runs the structural rules first; only when the plan is structurally
    sound does it collapse the plan and run the collapsed-plan and
    cost-model invariant rules (a broken DAG cannot be collapsed
    meaningfully).
    """
    sink = DiagnosticSink()
    sound = _check_structure(plan, sink, plan_name)
    if sound:
        try:
            collapsed = collapse_plan(plan, const_pipe=const_pipe)
        except (PlanError, ValueError) as exc:
            sink.emit(
                DANGLING_EDGE, _loc(plan_name, "plan"),
                f"collapse failed on a structurally-valid plan: {exc}",
            )
        else:
            sink.diagnostics.extend(
                lint_collapsed(plan, collapsed, stats_grid=stats_grid,
                               const_pipe=const_pipe, plan_name=plan_name)
            )
    return sink.diagnostics


def preflight_check(
    plan: Plan,
    stats: Optional[ClusterStats] = None,
    plan_name: Optional[str] = None,
) -> None:
    """Cheap pre-execution gate used by the coordinator and the search.

    Lints the plan over a single-point grid (the caller's own stats,
    when given) and raises
    :class:`~repro.analysis.diagnostics.LintError` on error-severity
    findings.  Warnings (e.g. ``P010``) do not block execution.
    """
    grid = [stats] if stats is not None else None
    const_pipe = stats.const_pipe if stats is not None else 1.0
    require_clean(
        lint_plan(plan, stats_grid=grid, const_pipe=const_pipe,
                  plan_name=plan_name)
    )
