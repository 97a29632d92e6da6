"""``repro.chaos`` -- fault injection for the simulator and campaign pool.

Composable :class:`FaultPolicy` objects plug into the existing
trace/executor/campaign stack:

* correlated rack-scoped failure bursts layered on exponential or
  Weibull base streams (:class:`CorrelatedFailures`);
* checkpoint-write failures with fallback to re-execution from the last
  durable ancestor (:class:`FlakyWrites`);
* straggler nodes (:class:`Stragglers`);
* campaign worker crashes with bounded retry + exponential backoff and
  graceful degradation to serial execution (:class:`WorkerCrashes`);
* drifting failure rates -- stale statistics and diurnal health cycles
  (:class:`MtbfDrift`) -- the regimes the adaptive re-planner
  (:mod:`repro.engine.adaptive`) reacts to.

The trace-level injections (bursts, Weibull base, drift) are all drawn
by the one trace generator,
:func:`repro.engine.traces.generate_trace_block`.

Every injection decision is derived from seeds and structural keys, so
``jobs=N`` campaigns stay bit-identical to ``jobs=1`` under any policy,
and zero-rate policies reproduce un-injected results exactly.  The
guarantees are pinned by ``tests/test_chaos.py`` and
``tests/test_property_chaos.py``; the catalog and semantics are
documented in ``docs/robustness.md``.
"""

from .inject import ChaosRun, worker_crash_decision
from .policy import (
    PRESET_NAMES,
    CorrelatedFailures,
    FaultPolicy,
    FlakyWrites,
    MtbfDrift,
    Stragglers,
    WorkerCrashes,
    preset,
)

__all__ = [
    "ChaosRun",
    "CorrelatedFailures",
    "FaultPolicy",
    "FlakyWrites",
    "MtbfDrift",
    "PRESET_NAMES",
    "Stragglers",
    "WorkerCrashes",
    "preset",
    "worker_crash_decision",
]
