"""Driving plan choice through the advisory service, resiliently.

The multi-tenant workload does not call
:func:`~repro.core.enumeration.find_best_ft_plan` directly -- every
query's materialization configuration comes from a
:class:`~repro.serve.AdvisoryEngine`, exactly like a fleet of clients
hitting the advisory service.  That buys the workload the engine's
cache/single-flight layers (and lets the experiment *measure* them),
but it also imports the service's failure mode: a bounded request queue
that sheds with :class:`~repro.serve.ServiceOverloaded` under pressure.

:func:`resolve_advice` is the client-side contract: bounded retries
with exponential backoff on shed (counted on the
``workload.advice_retries`` counter), then a :class:`ServiceOverloaded`
whose message carries the retry count.  The engine holds locks and
threads and does not pickle, so :mod:`repro.workload.simulate` resolves
every arrival's advice in the parent and hands the campaign picklable
:class:`~repro.core.strategies.ConfiguredPlan` s
(:func:`configured_from_advice`).
"""

from __future__ import annotations

import time
from typing import Optional

from .. import obs
from ..core.cost_model import ClusterStats
from ..core.plan import Plan
from ..core.strategies import ConfiguredPlan, RecoveryMode
from ..serve.engine import Advice, AdvisoryEngine, ServiceOverloaded

#: default shed-retry budget of the workload's advisory clients
DEFAULT_ADVICE_RETRIES = 3


def resolve_advice(
    engine: AdvisoryEngine,
    plan: Plan,
    stats: ClusterStats,
    scheme: str = "cost-based",
    max_retries: int = DEFAULT_ADVICE_RETRIES,
    retry_backoff: float = 0.01,
) -> Advice:
    """One advisory request with bounded retries on queue shed.

    Uses the engine's bounded-queue frontend (:meth:`submit`) when it is
    started -- the path that can shed -- and falls back to the direct
    synchronous :meth:`advise` otherwise (which never sheds; retries are
    then irrelevant).  Each shed increments ``workload.advice_retries``
    and sleeps ``retry_backoff * 2**attempt`` before retrying; once the
    budget is exhausted the final :class:`ServiceOverloaded` is
    re-raised with the retry count in its message, which records how
    hard the client tried.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if retry_backoff < 0:
        raise ValueError("retry_backoff must be >= 0")
    if not engine.started:
        return engine.advise(plan, stats, scheme)
    for attempt in range(max_retries + 1):
        try:
            return engine.submit(plan, stats, scheme).result()
        except ServiceOverloaded:
            if attempt == max_retries:
                raise ServiceOverloaded(
                    f"advisory queue still full after {max_retries} "
                    f"retries"
                ) from None
            obs.add("workload.advice_retries")
            time.sleep(retry_backoff * (2.0 ** attempt))
    raise AssertionError("unreachable")  # pragma: no cover


def configured_from_advice(
    plan: Plan, advice: Advice, scheme: Optional[str] = None,
) -> ConfiguredPlan:
    """The simulatable plan an :class:`Advice` describes."""
    return ConfiguredPlan(
        plan=plan.with_mat_config(dict(advice.mat_config)),
        recovery=RecoveryMode(advice.recovery),
        scheme=scheme if scheme is not None else advice.scheme,
    )
