"""Static vs adaptive regret gate (``repro.experiments.adaptive_drift``).

Runs the adaptive-drift sweep -- frozen cost-based choice vs the
drift-aware re-planner over the same failure trace sets -- and writes
``BENCH_adaptive.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_adaptive.py           # full
    PYTHONPATH=src python benchmarks/bench_adaptive.py --quick   # CI mode

Reported numbers, per drift regime:

* ``static_regret`` / ``adaptive_regret`` -- mean simulated runtime of
  the frozen choice / the re-planning run, each divided by the regime's
  best *fixed* configuration (the oracle, simulated exhaustively);
* ``replans`` -- re-plan searches performed across all traces;
* ``identical_to_static`` -- whether the adaptive runtimes matched the
  static cell bit-for-bit.

Acceptance gates (exit status 1 on violation):

1. **Identity** -- on the zero-drift regime (the sweep's first) the
   adaptive runner performs zero re-plans and reproduces the static
   runtimes bit-for-bit: the envelope's false-trigger rate is zero when
   reality matches the model.
2. **Never worse** -- on every drifting regime ``adaptive_regret <=
   static_regret * (1 + tolerance)``.
3. **Pays somewhere** -- on at least one drifting regime the adaptive
   regret is *strictly* below static (by more than ``--margin``):
   closing the estimate->observe->re-optimize loop recoups real runtime,
   not noise.

Everything is deterministic (seeded traces, ``jobs=N`` bit-identical to
serial), so two runs of this script produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List

from repro.experiments import adaptive_drift


def run_bench(
    query: str, scale_factor: float, mtbf: float, trace_count: int,
    jobs: int, tolerance: float, margin: float,
) -> Dict[str, Any]:
    started = time.perf_counter()
    result = adaptive_drift.run(
        query=query, scale_factor=scale_factor, mtbf=mtbf,
        trace_count=trace_count, jobs=jobs,
    )
    wall = time.perf_counter() - started

    rows: List[Dict[str, Any]] = []
    for row in result.rows:
        rows.append({
            "regime": row.regime,
            "effective_mtbf": row.effective_mtbf,
            "chosen_config": row.chosen_config,
            "oracle_config": row.oracle_config,
            "static_mean": row.static_mean,
            "adaptive_mean": row.adaptive_mean,
            "oracle_mean": row.oracle_mean,
            "static_regret": row.static_regret,
            "adaptive_regret": row.adaptive_regret,
            "replans": row.replans,
            "identical_to_static": row.identical_to_static,
        })

    zero = result.rows[0]
    drifting = result.rows[1:]
    gate_identity = (zero.regime == "zero drift" and zero.replans == 0
                     and zero.identical_to_static)
    gate_never_worse = all(
        row.adaptive_regret <= row.static_regret * (1.0 + tolerance)
        for row in drifting
    )
    gate_pays = any(
        row.adaptive_regret < row.static_regret - margin
        for row in drifting
    )
    envelope = result.envelope
    return {
        "benchmark": "adaptive_replanning_regret",
        "workload": {
            "query": query,
            "scale_factor": scale_factor,
            "assumed_mtbf": mtbf,
            "trace_count": trace_count,
            "jobs": jobs,
            "configurations": len(result.config_labels),
            "regimes": [row.regime for row in result.rows],
        },
        "envelope": {
            "mtbf_ratio": envelope.mtbf_ratio,
            "runtime_ratio": envelope.runtime_ratio,
            "min_failures": envelope.min_failures,
            "confidence": envelope.confidence,
            "use_ci": envelope.use_ci,
        },
        "baseline_runtime": result.baseline,
        "rows": rows,
        "gates": {
            "zero_drift_identity": gate_identity,
            "never_worse": gate_never_worse,
            "strictly_better_somewhere": gate_pays,
            "tolerance": tolerance,
            "margin": margin,
        },
        "wall_seconds": wall,
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate adaptive re-planning regret against the "
                    "static cost-based choice; writes "
                    "BENCH_adaptive.json."
    )
    parser.add_argument("--query", default="Q5",
                        help="TPC-H query (default Q5)")
    parser.add_argument("--scale-factor", type=float, default=100.0,
                        help="TPC-H scale factor (default 100)")
    parser.add_argument("--mtbf", type=float, default=4.0 * 3600.0,
                        help="assumed per-node MTBF seconds "
                             "(default 14400; picked so the static "
                             "choice has a mid-plan checkpoint)")
    parser.add_argument("--traces", type=int, default=25,
                        help="failure traces per regime (default 25)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="parallel campaign workers (default 4; "
                             "bit-identical to --jobs 1)")
    parser.add_argument("--tolerance", type=float, default=0.005,
                        help="never-worse gate slack as a fraction of "
                             "static regret (default 0.5%%)")
    parser.add_argument("--margin", type=float, default=1e-6,
                        help="strict-win gate margin (default 1e-6)")
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: 10 traces")
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_adaptive.json",
        help="where to write the JSON report "
             "(default <repo>/BENCH_adaptive.json)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.traces = 10
    report = run_bench(
        query=args.query, scale_factor=args.scale_factor,
        mtbf=args.mtbf, trace_count=args.traces, jobs=args.jobs,
        tolerance=args.tolerance, margin=args.margin,
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    for row in report["rows"]:
        identity = " (=static)" if row["identical_to_static"] else ""
        print(f"{row['regime']:<20s} static {row['static_regret']:.4f}x"
              f"  adaptive {row['adaptive_regret']:.4f}x"
              f"  replans {row['replans']}{identity}")
    gates = report["gates"]
    print(f"gates: identity={gates['zero_drift_identity']} "
          f"never_worse={gates['never_worse']} "
          f"pays={gates['strictly_better_somewhere']}  "
          f"({report['wall_seconds']:.1f}s)")
    print(f"wrote {args.output}")
    if not (gates["zero_drift_identity"] and gates["never_worse"]
            and gates["strictly_better_somewhere"]):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
