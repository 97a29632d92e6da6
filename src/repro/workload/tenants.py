"""Seeded multi-tenant query mixes (who submits what, and when).

The paper's evaluation measures one query at a time; a shared cluster
serves *tenants* -- classes of users with different priorities, query
shapes and arrival patterns.  This module generates that traffic
deterministically:

* a :class:`TenantClass` names a priority class (interactive dashboards,
  scheduled reports, batch pipelines) with its own TPC-H query templates
  and scale-factor band;
* each class owns a small catalog of :class:`PlanTemplate` s (query x
  scale factor, costed once) and draws instances from it with a
  zipf-skewed popularity -- a few hot plans dominate, exactly the
  traffic shape the advisory cache is built for;
* arrivals follow a thinned (non-homogeneous) Poisson process whose
  intensity tracks the diurnal cycle, so load peaks and troughs like a
  real day of traffic.

Everything is derived from one ``seed`` via explicitly threaded
:class:`random.Random` instances -- two calls with the same arguments
produce the identical workload, which is what lets the multi-tenant
experiment pin goldens and guarantee ``jobs=N == jobs=1``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..core.plan import Plan
from ..stats.calibration import default_parameters
from ..stats.estimates import CostParameters
from ..tpch.queries import build_query_plan
from .churn import DiurnalCycle


@dataclass(frozen=True)
class TenantClass:
    """One priority class of a shared cluster's tenant population.

    ``priority`` is the admission rank (0 = most important, admitted
    first under contention); ``weight`` is the class's share of the
    arrival stream; ``queries``/``sf_low``/``sf_high`` bound the shapes
    and sizes of the plans its tenants submit; ``zipf_s`` skews template
    popularity within the class (higher = hotter head).
    """

    name: str
    priority: int
    weight: float
    queries: Tuple[str, ...]
    sf_low: float
    sf_high: float
    zipf_s: float = 1.1

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ValueError("priority must be >= 0")
        if not 0 < self.weight < math.inf:
            # random.choices rejected a non-finite weight total too
            raise ValueError("weight must be > 0 and finite")
        if not self.queries:
            raise ValueError("a tenant class needs at least one query")
        if not 0 < self.sf_low <= self.sf_high:
            raise ValueError("need 0 < sf_low <= sf_high")


#: the default three-class population (interactive > reporting > batch)
DEFAULT_TENANT_CLASSES: Tuple[TenantClass, ...] = (
    TenantClass(name="interactive", priority=0, weight=0.6,
                queries=("Q1", "Q6", "Q3"), sf_low=1.0, sf_high=20.0),
    TenantClass(name="reporting", priority=1, weight=0.3,
                queries=("Q3", "Q5", "Q10"), sf_low=10.0, sf_high=60.0),
    TenantClass(name="batch", priority=2, weight=0.1,
                queries=("Q5", "Q13", "Q1C"), sf_low=40.0, sf_high=120.0),
)


def default_tenant_mix(classes: int = 3) -> Tuple[TenantClass, ...]:
    """The first ``classes`` default tenant classes (highest first)."""
    if not 1 <= classes <= len(DEFAULT_TENANT_CLASSES):
        raise ValueError(
            f"classes must be within [1, {len(DEFAULT_TENANT_CLASSES)}]"
        )
    return DEFAULT_TENANT_CLASSES[:classes]


@dataclass(frozen=True)
class PlanTemplate:
    """One distinct costed plan tenants can instantiate."""

    index: int            #: position in the workload's template catalog
    label: str            #: e.g. "interactive/Q6@SF12.3"
    tenant: str
    query_name: str
    scale_factor: float
    plan: Plan


class QueryArrival(NamedTuple):
    """One submitted query: who, what, and when.

    ``mtbf_jitter``/``mttr_jitter`` perturb the *measured* cluster
    statistics the tenant attaches to its request (every monitoring
    window reads slightly differently), so raw stats are almost never
    bit-equal and advice-cache hits must come from log-bucketing.
    A ``NamedTuple``: a workload builds tens of thousands of them in
    one pass, and a tuple builds several times faster than a frozen
    dataclass.
    """

    index: int
    time: float
    tenant_index: int
    priority: int
    template_index: int
    mtbf_jitter: float
    mttr_jitter: float


@dataclass(frozen=True)
class TenantWorkload:
    """A full generated workload: classes, plan catalog, arrival stream."""

    classes: Tuple[TenantClass, ...]
    templates: Tuple[PlanTemplate, ...]
    arrivals: Tuple[QueryArrival, ...]
    duration: float
    seed: int


def _class_templates(
    tenant: TenantClass,
    start_index: int,
    per_class: int,
    rng: random.Random,
    params: CostParameters,
) -> List[PlanTemplate]:
    """``per_class`` (query, scale factor) templates for one class.

    Queries round-robin through the class's shapes; scale factors are
    log-uniform inside the class band (the "seconds to hours" spread of
    the mixed-workload scenario, scoped per class).
    """
    templates: List[PlanTemplate] = []
    for offset in range(per_class):
        query_name = tenant.queries[offset % len(tenant.queries)]
        scale = math.exp(rng.uniform(math.log(tenant.sf_low),
                                     math.log(tenant.sf_high)))
        scale = round(scale, 3)
        index = start_index + offset
        templates.append(PlanTemplate(
            index=index,
            label=f"{tenant.name}/{query_name}@SF{scale:g}",
            tenant=tenant.name,
            query_name=query_name,
            scale_factor=scale,
            plan=build_query_plan(query_name, scale, params),
        ))
    return templates


def _thinned_arrival_times(
    count: int, duration: float, diurnal: DiurnalCycle,
    rng: random.Random,
) -> List[float]:
    """``count`` seeded arrival instants whose density follows the
    diurnal intensity (rejection-sampled uniform draws).

    Each candidate is ``rng.uniform(0.0, duration)`` and is kept when
    ``rng.random() * peak <= diurnal.arrival_intensity(t)``; both calls
    are inlined as their float operations on one bound ``random``, so
    the instants are those of the calls.
    """
    random_ = rng.random
    intensities = diurnal.arrival_intensities
    peak = max(intensities)
    period = diurnal.period
    phases = diurnal.phases
    # DiurnalCycle.phase_index clamps int(position * phases) to the last
    # phase; one more copy of the last intensity does the same
    intensity = intensities + intensities[-1:]
    # uniform(0.0, duration) is 0.0 + (duration - 0.0) * random(), and
    # adding 0.0 to a non-negative product returns it unchanged
    span = duration - 0.0
    times: List[float] = []
    append = times.append
    while len(times) < count:
        t = span * random_()
        if random_() * peak <= intensity[int(t % period / period
                                             * phases)]:
            append(t)
    times.sort()
    return times


def generate_tenant_workload(
    classes: Sequence[TenantClass] = DEFAULT_TENANT_CLASSES,
    count: int = 2000,
    seed: int = 0,
    duration: float = 86400.0,
    templates_per_class: int = 4,
    diurnal: Optional[DiurnalCycle] = None,
    params: Optional[CostParameters] = None,
) -> TenantWorkload:
    """Draw ``count`` arrivals over ``duration`` seconds of cluster time.

    Deterministic in ``seed``: the template catalog, the arrival
    instants, the class assignment, the zipf template choice and the
    per-request stats jitter are all derived from it.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if duration <= 0:
        raise ValueError("duration must be > 0")
    if templates_per_class < 1:
        raise ValueError("templates_per_class must be >= 1")
    classes = tuple(classes)
    if not classes:
        raise ValueError("need at least one tenant class")
    if diurnal is None:
        diurnal = DiurnalCycle()
    if params is None:
        params = default_parameters()
    rng = random.Random(seed)

    # class i owns templates [i * templates_per_class, (i + 1) * ...)
    templates: List[PlanTemplate] = []
    for tenant in classes:
        start = len(templates)
        templates.extend(_class_templates(
            tenant, start, templates_per_class, rng, params,
        ))

    times = _thinned_arrival_times(count, duration, diurnal, rng)
    # One pass over the instants.  Every arrival draws four random()
    # values, in this order: its class, its template, its MTBF jitter
    # and its MTTR jitter.  Each draw is the float operations of the
    # call it stands for, so the stream is that of the calls:
    # rng.choices(population, cum_weights=cum)[0] is
    # population[bisect(cum, random() * (cum[-1] + 0.0), 0, len(cum) - 1)]
    # and rng.uniform(a, b) is a + (b - a) * random().
    random_ = rng.random
    class_cum = list(accumulate(tenant.weight for tenant in classes))
    class_total = class_cum[-1] + 0.0
    class_hi = len(class_cum) - 1
    zipf_cum = [
        list(accumulate(1.0 / (rank + 1) ** tenant.zipf_s
                        for rank in range(templates_per_class)))
        for tenant in classes
    ]
    zipf_total = [cum[-1] + 0.0 for cum in zipf_cum]
    zipf_hi = templates_per_class - 1
    priorities = [tenant.priority for tenant in classes]
    make = QueryArrival._make
    arrivals: List[QueryArrival] = []
    append = arrivals.append
    for index, time in enumerate(times):
        tenant_index = bisect_right(class_cum, random_() * class_total,
                                    0, class_hi)
        template_index = (
            tenant_index * templates_per_class
            + bisect_right(zipf_cum[tenant_index],
                           random_() * zipf_total[tenant_index],
                           0, zipf_hi)
        )
        append(make((
            index, time, tenant_index, priorities[tenant_index],
            template_index,
            0.93 + (1.07 - 0.93) * random_(),
            0.9 + (1.1 - 0.9) * random_(),
        )))
    return TenantWorkload(
        classes=classes,
        templates=tuple(templates),
        arrivals=tuple(arrivals),
        duration=duration,
        seed=seed,
    )
