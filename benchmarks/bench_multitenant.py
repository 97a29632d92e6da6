"""Benchmark the multi-tenant shared-cluster workload (PR 9).

Runs the full :mod:`repro.workload` pipeline -- thousands of queries
from priority-tenant classes, advisory-driven plan choice, spot-fleet
churn, priority admission queueing -- once at ``jobs=1`` and once at
``jobs=N``, and writes ``BENCH_multitenant.json`` at the repository
root::

    PYTHONPATH=src python benchmarks/bench_multitenant.py          # full
    PYTHONPATH=src python benchmarks/bench_multitenant.py --quick  # CI

Reported numbers:

* per-tenant-class aggregate FT overhead, latency p50/p99, queue wait
  mean/p99, chosen-vs-oracle regret;
* advice-cache economics (requests, hits, misses, hit rate, searches)
  over the zipf-skewed mix;
* ``jobs_equal`` -- the ``jobs=N`` payload compared field-for-field
  against ``jobs=1`` (the bit-identity acceptance gate);
* wall-clock seconds for both runs (informational; kept out of the
  equality payload).

Exit status is non-zero when any acceptance gate fails: error rows in
the campaign, a failed query, advice-cache hit rate below the floor, or
a ``jobs`` mismatch.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.workload import MultiTenantConfig, run_multitenant

#: the skewed mix must keep the advice cache at least this warm
HIT_RATE_FLOOR = 0.5


def run_bench(queries: int, trace_count: int, templates_per_class: int,
              churn: float, jobs: int, seed: int) -> dict:
    config = MultiTenantConfig(
        queries=queries,
        churn=churn,
        seed=seed,
        trace_count=trace_count,
        templates_per_class=templates_per_class,
    )
    start = time.perf_counter()
    serial = run_multitenant(config, jobs=1)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    fanned = run_multitenant(config, jobs=jobs)
    fanned_seconds = time.perf_counter() - start

    payload = serial.to_payload()
    jobs_equal = payload == fanned.to_payload()
    report = dict(payload)
    report["jobs"] = {
        "compared": jobs,
        "jobs_equal": jobs_equal,
        "serial_seconds": round(serial_seconds, 3),
        "fanned_seconds": round(fanned_seconds, 3),
    }
    report["gates"] = {
        "error_rows": serial.error_rows,
        "hit_rate": serial.advice.hit_rate,
        "hit_rate_floor": HIT_RATE_FLOOR,
        "jobs_equal": jobs_equal,
        "failed_queries": serial.failed_queries,
        "passed": (serial.error_rows == 0
                   and serial.failed_queries == 0
                   and serial.advice.hit_rate >= HIT_RATE_FLOOR
                   and jobs_equal),
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the multi-tenant workload at jobs=1 and "
                    "jobs=N and write BENCH_multitenant.json."
    )
    parser.add_argument("--queries", type=int, default=2500,
                        help="arrivals to simulate (default 2500)")
    parser.add_argument("--traces", type=int, default=3,
                        help="failure traces per measurement "
                             "(default 3)")
    parser.add_argument("--templates", type=int, default=4,
                        help="plan templates per tenant class "
                             "(default 4)")
    parser.add_argument("--churn", type=float, default=0.5,
                        help="spot-fleet reclaim intensity (default "
                             "0.5)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="fan-out compared against jobs=1 "
                             "(default 4)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: 300 queries, 2 traces, 3 "
                             "templates per class")
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_multitenant.json",
        help="where to write the JSON report "
             "(default <repo>/BENCH_multitenant.json)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.queries, args.traces, args.templates = 300, 2, 3
    report = run_bench(
        queries=args.queries, trace_count=args.traces,
        templates_per_class=args.templates, churn=args.churn,
        jobs=args.jobs, seed=args.seed,
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    gates = report["gates"]
    cache = report["advice_cache"]
    print(f"{report['workload']['queries']} queries over "
          f"{report['workload']['tenant_classes']} classes "
          f"({report['workload']['distinct_groups']} groups): "
          f"hit-rate {cache['hit_rate']:.3f}  "
          f"searches {cache['searches']}  "
          f"error-rows {gates['error_rows']}  "
          f"jobs{report['jobs']['compared']}=="
          f"jobs1: {gates['jobs_equal']}  "
          f"serial {report['jobs']['serial_seconds']}s / "
          f"fanned {report['jobs']['fanned_seconds']}s")
    for row in report["classes"]:
        print(f"  {row['name']:<14s} prio {row['priority']} "
              f"queries {row['queries']:>5d}  "
              f"overhead {row['overhead_percent']:6.1f}%  "
              f"p50 {row['latency_p50']:8.1f}s  "
              f"p99 {row['latency_p99']:8.1f}s  "
              f"wait-p99 {row['wait_p99']:8.1f}s  "
              f"regret {row['regret']:.3f}x")
    print(f"wrote {args.output}")
    if not gates["passed"]:
        print("ACCEPTANCE GATE FAILED")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
