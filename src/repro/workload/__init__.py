"""Multi-tenant cluster workloads: thousands of queries, one cluster.

The package composes the existing subsystems into the roadmap's shared
production-cluster scenario: seeded tenant traffic
(:mod:`~repro.workload.tenants`), diurnal MTBF cycles and spot-fleet
churn (:mod:`~repro.workload.churn`), resilient advisory-driven plan
choice (:mod:`~repro.workload.advisor`), and the end-to-end simulation
with priority admission queueing (:mod:`~repro.workload.simulate`).
See ``docs/workload.md``.
"""

from .advisor import (
    DEFAULT_ADVICE_RETRIES,
    configured_from_advice,
    resolve_advice,
)
from .churn import DiurnalCycle, spot_fleet_policy
from .simulate import (
    CHOSEN_INDEX,
    SCHEME_ORDER,
    AdmissionRecord,
    AdviceTraffic,
    ClassMetrics,
    GroupOutcome,
    MeasurementGroup,
    MultiTenantConfig,
    MultiTenantPrepared,
    MultiTenantResult,
    arrival_stats,
    assemble,
    prepare,
    run_multitenant,
    simulate_admission,
)
from .tenants import (
    DEFAULT_TENANT_CLASSES,
    PlanTemplate,
    QueryArrival,
    TenantClass,
    TenantWorkload,
    default_tenant_mix,
    generate_tenant_workload,
)

__all__ = [
    "DEFAULT_ADVICE_RETRIES",
    "configured_from_advice",
    "resolve_advice",
    "DiurnalCycle",
    "spot_fleet_policy",
    "CHOSEN_INDEX",
    "SCHEME_ORDER",
    "AdmissionRecord",
    "AdviceTraffic",
    "ClassMetrics",
    "GroupOutcome",
    "MeasurementGroup",
    "MultiTenantConfig",
    "MultiTenantPrepared",
    "MultiTenantResult",
    "arrival_stats",
    "assemble",
    "prepare",
    "run_multitenant",
    "simulate_admission",
    "DEFAULT_TENANT_CLASSES",
    "PlanTemplate",
    "QueryArrival",
    "TenantClass",
    "TenantWorkload",
    "default_tenant_mix",
    "generate_tenant_workload",
]
