"""Search-space pruning rules (Section 4).

Three rules cut down the space of fault-tolerant plans ``[P, M_P]``:

* **Rule 1 -- high materialization costs.**  Before enumerating
  materialization configurations, mark an operator ``o`` as
  non-materializable when collapsing it into its parent ``p`` is guaranteed
  to cost no more than materializing it: ``t({o, p}) <= t({o})`` for a
  unary parent, and ``t({o_1..o_k, p}) <= t({o_i})`` for every child of an
  n-ary parent.

* **Rule 2 -- high probability of success.**  Mark ``o`` (child of a unary
  parent ``p``) as non-materializable when the collapsed operator
  ``{o, p}`` already meets the desired success percentile:
  ``gamma({o, p}) >= S``.

* **Rule 3 -- long execution paths.**  During path enumeration, stop early
  once any path of the current plan is provably at least as expensive as
  the best dominant path memoized so far: (1) the failure-free runtime
  check ``R_Pt >= bestT``, (2) the full-cost check ``T_Pt >= bestT``, and
  (3) the pairwise-dominance test of Equation 9 against memoized dominant
  paths with at most as many collapsed operators.

Safety: Rule 3 is exactly safe (it only skips plans provably at least as
expensive as the memoized best), and Rule 1's unary case is exactly safe
whenever the parent is free (for any configuration materializing ``o``,
the configuration that materializes ``p`` instead is no worse).  Property
testing (``tests/test_property_pruning.py``) found two caveats the paper's
Section 4 proofs gloss over, both boundary effects with sub-percent
regret:

* *Rule 1, n-ary case:* on DAG-structured plans, binding all children of
  an n-ary parent changes the set of execution paths (a materialized
  child forms its own path segment), and at the ``t({o..,p}) <= t({o_i})``
  boundary this occasionally excludes a configuration that was globally
  optimal by a sliver (``tests/test_pruning.py::TestRule1NaryProofGap``).
* *Rule 2:* the check ``gamma({o,p}) >= S`` looks at the pairwise
  collapse, but in configurations where ``p`` itself does not materialize
  the realized group extends beyond ``p`` and its success probability can
  fall below ``S``; marking ``o`` then forgoes a marginally better
  checkpoint (``tests/test_pruning.py::TestRule2ProofGap``).

We keep both rules exactly as published and document the gaps; the
observed regret is typically well under one percent of the plan cost,
with rare boundary constructions reaching a few percent (the property
suite bounds it at 5 % over its generator ranges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import cost_model
from .cost_model import ClusterStats
from .plan import Operator, Plan


@dataclass
class PruningStats:
    """Counters describing how much work each rule saved (Figure 13)."""

    rule1_marked: int = 0            #: operators bound by Rule 1
    rule2_marked: int = 0            #: operators bound by Rule 2
    rule3_plan_cutoffs: int = 0      #: plans whose path enumeration stopped early
    configs_total: int = 0           #: FT plans an unpruned search would visit
    configs_enumerated: int = 0      #: FT plans actually visited
    paths_estimated: int = 0         #: paths scored by the cost model

    @property
    def configs_pruned(self) -> int:
        return self.configs_total - self.configs_enumerated

    def merge(self, other: "PruningStats") -> None:
        self.rule1_marked += other.rule1_marked
        self.rule2_marked += other.rule2_marked
        self.rule3_plan_cutoffs += other.rule3_plan_cutoffs
        self.configs_total += other.configs_total
        self.configs_enumerated += other.configs_enumerated
        self.paths_estimated += other.paths_estimated


def _collapsed_pair_cost(
    children: Sequence[Operator], parent: Operator, const_pipe: float
) -> float:
    """``t({o_1..o_k, p})`` for the Rule 1 / Rule 2 collapse check.

    The dominant path of the collapsed group is the most expensive child
    followed by the parent; ``CONST_pipe`` applies because the pipeline has
    at least two operators (cf. Figure 5's arithmetic).
    """
    dominant_child = max(child.runtime_cost for child in children)
    runtime = (dominant_child + parent.runtime_cost) * const_pipe
    return runtime + parent.mat_cost


def _singleton_cost(operator: Operator) -> float:
    """``t({o})`` when ``o`` is materialized on its own."""
    return operator.runtime_cost + operator.mat_cost


def apply_rule1(plan: Plan, const_pipe: float = 1.0,
                stats_out: Optional[PruningStats] = None) -> Plan:
    """Rule 1: bind high-materialization-cost operators to ``m(o) = 0``.

    Returns a new plan; the input is unchanged.  Only free operators are
    considered, and the rule fires per consuming parent: if ``o`` has
    several consumers it must satisfy the inequality for each of them
    (collapsing happens into *every* consumer when ``m(o) = 0``).
    """
    marked: List[int] = []
    for op_id, operator in plan.operators.items():
        if not operator.free:
            continue
        consumer_ids = plan.consumers(op_id)
        if not consumer_ids:
            continue  # sinks have no parent to collapse into
        if all(
            _rule1_holds_for_parent(plan, parent_id, const_pipe)
            and op_id in plan.producers(parent_id)
            for parent_id in consumer_ids
        ):
            marked.append(op_id)
    if stats_out is not None:
        stats_out.rule1_marked += len(marked)
    return _bind_non_materializable(plan, marked)


def _rule1_holds_for_parent(plan: Plan, parent_id: int,
                            const_pipe: float) -> bool:
    """Check ``t({children, p}) <= t({o_i})`` for all children of ``p``."""
    parent = plan[parent_id]
    children = [plan[c] for c in plan.producers(parent_id)]
    if not children:
        return False
    collapsed_cost = _collapsed_pair_cost(children, parent, const_pipe)
    return all(
        collapsed_cost <= _singleton_cost(child) for child in children
    )


def apply_rule2(plan: Plan, stats: ClusterStats,
                stats_out: Optional[PruningStats] = None) -> Plan:
    """Rule 2: bind operators whose collapse already meets the percentile.

    Only fires for children of *unary* parents, as in the paper: for n-ary
    parents the collapse pulls in sibling sub-plans, and the success
    probability of the merged group no longer upper-bounds each child's.
    Arity counts folded base-table inputs (a join reading a base table is
    binary), so in practice the rule fires near the top of a plan --
    aggregations and projections -- exactly as the paper observes.
    """
    marked: List[int] = []
    for op_id, operator in plan.operators.items():
        if not operator.free:
            continue
        consumer_ids = plan.consumers(op_id)
        if len(consumer_ids) != 1:
            continue
        parent_id = consumer_ids[0]
        if plan.arity(parent_id) != 1:
            continue  # parent must be unary
        collapsed_cost = _collapsed_pair_cost(
            [operator], plan[parent_id], stats.const_pipe
        )
        gamma = cost_model.success_probability(collapsed_cost, stats.mtbf_cost)
        if gamma >= stats.success_percentile:
            marked.append(op_id)
    if stats_out is not None:
        stats_out.rule2_marked += len(marked)
    return _bind_non_materializable(plan, marked)


def _bind_non_materializable(plan: Plan, op_ids: Sequence[int]) -> Plan:
    if not op_ids:
        return plan
    to_bind = set(op_ids)
    return Plan.from_edges(
        (operator.as_bound(materialize=False) if op_id in to_bind
         else operator
         for op_id, operator in plan.operators.items()),
        plan.edges(),
    )


# ----------------------------------------------------------------------
# Rule 3 -- memoized dominant paths
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SkipDecision:
    """Outcome of one Rule 3 check on an enumerated path."""

    skip: bool                     #: the whole plan can be skipped
    estimated: Optional[float]     #: T_Pt when the cost model ran
    cheap: bool                    #: a pre-cost-model check fired


@dataclass
class DominantPathMemo:
    """Memo of the best (cheapest) dominant paths seen so far (Rule 3).

    Stores, per collapsed-operator count, the sorted ``t(c)`` vector of the
    cheapest dominant path observed, plus the global best dominant cost
    ``bestT``.  :meth:`should_skip_plan` implements the three early-exit
    checks of Section 4.3.

    The memo counts its own effectiveness: ``hits`` is every check that
    skipped a plan (split into ``cheap_skips`` for the failure-free
    bound, ``dominance_skips`` for Equation 9, ``estimated_skips`` for
    the full-cost check), ``misses`` is checks that let the plan
    through.  :meth:`hit_rate` summarizes; the observability layer
    surfaces the same numbers as ``search.rule3.*`` counters.
    """

    best_cost: float = float("inf")  #: bestT across all FT plans so far
    #: path length -> descending-sorted t(c) vector of the best dominant path
    _by_length: Dict[int, Tuple[float, ...]] = field(default_factory=dict)
    # -- introspection counters -----------------------------------------
    cheap_skips: int = 0       #: skips by the failure-free R >= bestT bound
    dominance_skips: int = 0   #: skips by the Equation 9 pairwise test
    estimated_skips: int = 0   #: skips by the full cost-model estimate
    misses: int = 0            #: checks that did not skip
    records: int = 0           #: record_dominant calls
    improvements: int = 0      #: times bestT strictly improved

    @property
    def hits(self) -> int:
        """Checks that skipped a plan (any of the three rules fired)."""
        return self.cheap_skips + self.dominance_skips + self.estimated_skips

    @property
    def checks(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of :meth:`should_skip_plan` calls that skipped."""
        checks = self.checks
        return self.hits / checks if checks else 0.0

    def record_dominant(self, path_costs: Sequence[float],
                        total_cost: float) -> None:
        """Memoize a plan's dominant path and its cost under failures."""
        self.records += 1
        if total_cost < self.best_cost:
            self.best_cost = total_cost
            self.improvements += 1
        key = len(path_costs)
        ordered = tuple(sorted(path_costs, reverse=True))
        current = self._by_length.get(key)
        if current is None or _vector_leq(ordered, current):
            self._by_length[key] = ordered

    def dominates(self, path_costs: Sequence[float]) -> bool:
        """Equation 9: is some memoized path pairwise <= this path?

        A memoized dominant path ``Ptm`` with *fewer* collapsed operators
        also qualifies (pad it with zero-cost operators).
        """
        ordered = sorted(path_costs, reverse=True)
        for length, memoized in self._by_length.items():
            if length > len(ordered):
                continue
            padded = memoized + (0.0,) * (len(ordered) - length)
            if all(mine >= theirs
                   for mine, theirs in zip(ordered, padded)):
                return True
        return False

    def should_skip_plan(
        self,
        path_costs: Sequence[float],
        stats: ClusterStats,
        exact_waste: bool = False,
    ) -> "SkipDecision":
        """Apply Rule 3's checks to one enumerated path.

        Returns a :class:`SkipDecision`; its ``estimated`` is ``None``
        when one of the *cheap* checks fired before calling the cost
        model (the failure-free check ``R_Pt >= bestT`` and the
        Equation 9 dominance test), in which case ``cheap`` is True.
        """
        # check 1: failure-free runtime already beats bestT -> skip,
        # no cost-model call needed.
        if cost_model.path_cost_failure_free(path_costs) >= self.best_cost:
            self.cheap_skips += 1
            return SkipDecision(skip=True, estimated=None, cheap=True)
        # Equation 9 dominance against memoized dominant paths: T_Pt is
        # monotone in the sorted t(c) vector, so domination implies the
        # path costs at least as much as a memoized dominant path, and
        # every memoized dominant cost is >= bestT by construction.
        if self._by_length and self.dominates(path_costs):
            self.dominance_skips += 1
            return SkipDecision(skip=True, estimated=None, cheap=True)
        # check 2: full cost-model estimate against bestT.
        estimated = cost_model.path_cost(
            path_costs, stats, exact_waste=exact_waste
        )
        if estimated >= self.best_cost:
            self.estimated_skips += 1
            return SkipDecision(skip=True, estimated=estimated, cheap=False)
        self.misses += 1
        return SkipDecision(skip=False, estimated=estimated, cheap=False)


def _vector_leq(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pairwise ``a[i] <= b[i]`` for equal-length descending vectors."""
    return all(x <= y for x, y in zip(a, b))


@dataclass(frozen=True)
class PruningConfig:
    """Which pruning rules an optimizer run applies (for Figure 13)."""

    rule1: bool = True
    rule2: bool = True
    rule3: bool = True

    @classmethod
    def none(cls) -> "PruningConfig":
        return cls(rule1=False, rule2=False, rule3=False)

    @classmethod
    def all(cls) -> "PruningConfig":
        return cls(rule1=True, rule2=True, rule3=True)

    @classmethod
    def only(cls, rule: int) -> "PruningConfig":
        if rule not in (1, 2, 3):
            raise ValueError("rule must be 1, 2 or 3")
        return cls(rule1=rule == 1, rule2=rule == 2, rule3=rule == 3)
