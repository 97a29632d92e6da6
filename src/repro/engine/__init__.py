"""Simulated parallel data engine with failure injection.

This package replaces the paper's XDB/MySQL testbed: it executes
fault-tolerant plans ``[P, M_P]`` over a simulated shared-nothing cluster,
replaying seeded failure traces, and measures achieved runtimes and
overheads under each fault-tolerance scheme.
"""

from .adaptive import (
    AdaptiveCostBased,
    AdaptiveExecutor,
    AdaptiveResult,
    DriftEnvelope,
    DriftMonitor,
    DriftTrigger,
    Reconfiguration,
    frontier_plan,
    run_adaptive_with_extension,
)
from .campaign import CampaignCell, CellResult, campaign_map, run_campaign
from .cluster import Cluster
from .coordinator import (
    compare_schemes,
    pure_baseline_runtime,
    run_with_extension,
)
from .executor import (
    BatchResult,
    ExecutionResult,
    PreparedExecution,
    SimulatedEngine,
    TraceExhausted,
)
from .reference import ReferenceEngine
from .storage import FaultTolerantStorage, LocalStorage, StorageMedium
from .timeline import (
    Event,
    EventKind,
    MutedTimeline,
    NodeInterval,
    Timeline,
    node_intervals,
)
from .viz import render_gantt, render_line_chart, render_overhead_bars
from .traces import (
    FailureTrace,
    TraceBlock,
    cached_trace_block,
    cached_trace_set,
    empirical_mtbf,
    extend_trace,
    generate_trace,
    generate_trace_block,
    generate_trace_set,
)

__all__ = [
    "AdaptiveCostBased",
    "AdaptiveExecutor",
    "AdaptiveResult",
    "DriftEnvelope",
    "DriftMonitor",
    "DriftTrigger",
    "frontier_plan",
    "run_adaptive_with_extension",
    "BatchResult",
    "CampaignCell",
    "CellResult",
    "Cluster",
    "Reconfiguration",
    "Event",
    "EventKind",
    "ExecutionResult",
    "FailureTrace",
    "FaultTolerantStorage",
    "LocalStorage",
    "MutedTimeline",
    "NodeInterval",
    "ReferenceEngine",
    "SimulatedEngine",
    "StorageMedium",
    "Timeline",
    "PreparedExecution",
    "TraceBlock",
    "TraceExhausted",
    "cached_trace_block",
    "cached_trace_set",
    "campaign_map",
    "compare_schemes",
    "run_with_extension",
    "run_campaign",
    "empirical_mtbf",
    "extend_trace",
    "generate_trace",
    "generate_trace_block",
    "generate_trace_set",
    "render_gantt",
    "render_line_chart",
    "render_overhead_bars",
    "node_intervals",
    "pure_baseline_runtime",
]
