"""JSON (de)serialization for plans and cluster statistics.

A library users adopt needs its core objects to survive a round trip to
disk: optimizer inputs arrive from other systems as JSON, chosen
configurations get shipped to executors, experiment setups get archived.
The format is a plain dict -- stable keys, no pickling -- versioned via
a ``format`` field so later revisions can migrate.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Union

from .cost_model import ClusterStats
from .plan import Operator, Plan

FORMAT = "repro-plan/1"
STATS_FORMAT = "repro-cluster-stats/1"


def plan_to_dict(plan: Plan) -> Dict[str, Any]:
    """Serialize a plan (operators, flags, costs, edges) to a dict."""
    return {
        "format": FORMAT,
        "operators": [
            {
                "op_id": op.op_id,
                "name": op.name,
                "runtime_cost": op.runtime_cost,
                "mat_cost": op.mat_cost,
                "materialize": op.materialize,
                "free": op.free,
                "cardinality": op.cardinality,
                "base_inputs": op.base_inputs,
                "state_ckpt_cost": op.state_ckpt_cost,
            }
            for _, op in sorted(plan.operators.items())
        ],
        "edges": [list(edge) for edge in sorted(plan.edges())],
    }


def plan_from_dict(payload: Dict[str, Any]) -> Plan:
    """Rebuild a plan from :func:`plan_to_dict` output."""
    if payload.get("format") != FORMAT:
        raise ValueError(
            f"unsupported plan format: {payload.get('format')!r} "
            f"(expected {FORMAT!r})"
        )
    operators = [
        Operator(
            op_id=int(entry["op_id"]),
            name=str(entry["name"]),
            runtime_cost=float(entry["runtime_cost"]),
            mat_cost=float(entry["mat_cost"]),
            materialize=bool(entry["materialize"]),
            free=bool(entry["free"]),
            cardinality=(None if entry.get("cardinality") is None
                         else int(entry["cardinality"])),
            base_inputs=int(entry.get("base_inputs", 0)),
            state_ckpt_cost=(
                None if entry.get("state_ckpt_cost") is None
                else float(entry["state_ckpt_cost"])
            ),
        )
        for entry in payload["operators"]
    ]
    edges = [(int(producer), int(consumer))
             for producer, consumer in payload["edges"]]
    plan = Plan.from_edges(operators, edges)
    plan.validate()
    return plan


def stats_to_dict(stats: ClusterStats) -> Dict[str, Any]:
    """Serialize cluster statistics."""
    return {
        "format": STATS_FORMAT,
        "mtbf": stats.mtbf,
        "mttr": stats.mttr,
        "nodes": stats.nodes,
        "const_cost": stats.const_cost,
        "const_pipe": stats.const_pipe,
        "success_percentile": stats.success_percentile,
        "scale_mtbf_by_nodes": stats.scale_mtbf_by_nodes,
    }


def stats_from_dict(payload: Dict[str, Any]) -> ClusterStats:
    if payload.get("format") != STATS_FORMAT:
        raise ValueError(
            f"unsupported stats format: {payload.get('format')!r} "
            f"(expected {STATS_FORMAT!r})"
        )
    return ClusterStats(
        mtbf=float(payload["mtbf"]),
        mttr=float(payload["mttr"]),
        nodes=int(payload["nodes"]),
        const_cost=float(payload.get("const_cost", 1.0)),
        const_pipe=float(payload.get("const_pipe", 1.0)),
        success_percentile=float(payload.get("success_percentile", 0.95)),
        scale_mtbf_by_nodes=bool(payload.get("scale_mtbf_by_nodes",
                                             False)),
    )


def dump_plan(plan: Plan, target: Union[str, IO[str]]) -> None:
    """Write a plan as JSON to a path or open text file."""
    payload = plan_to_dict(plan)
    if isinstance(target, str):
        with open(target, "w") as handle:
            json.dump(payload, handle, indent=2)
    else:
        json.dump(payload, target, indent=2)


def load_plan(source: Union[str, IO[str]]) -> Plan:
    """Read a plan from a JSON path or open text file."""
    if isinstance(source, str):
        with open(source) as handle:
            payload = json.load(handle)
    else:
        payload = json.load(source)
    return plan_from_dict(payload)
