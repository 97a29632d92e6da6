"""Simulator campaign benchmarks: serial oracle vs prepared vs parallel.

The engineering claim behind the campaign engine
(:mod:`repro.engine.campaign`): the Section 5 measurement grid runs
several times faster through the prepared-execution path and the
process-pool fan-out, while producing *exactly* the rows the pre-change
serial loop produced.

The benchmark sweep is Figure 8's grid -- five TPC-H queries x four
fault-tolerance schemes x two MTBF settings -- with a raised trace count
so the per-trace work dominates fixed costs.  Three modes are timed:

* ``oracle``  -- the pre-change serial protocol, reconstructed: fresh
  ``engine.execute`` per trace (re-collapsing the plan every call), a
  fresh trace set per cell, fresh baselines, full event logging;
* ``serial``  -- the campaign with ``jobs=1`` (prepared execution,
  trace-set/baseline caches, muted timelines);
* ``jobs=N``  -- the same campaign fanned out over worker processes.

Every mode's rows are asserted equal to the oracle's before any number
is reported -- the speedup is only meaningful if the outputs match.

What the oracle can and cannot catch: it runs through the same
:class:`~repro.engine.executor.SimulatedEngine` as the campaign, so the
equality checks the *campaign* layer (prepared executions, caches,
muted timelines, process fan-out) and nothing below it.  A bug in the
executor's own shortcuts (segment templates, the uniform-share window
check, the merged failure stream of query restarts) would change the
oracle and the campaign alike and pass here.  Those are pinned instead
by ``tests/golden/executor_fast_path.json``: per-run results, event-log
digests and counters of a seeded battery recorded with the executor
that predates the shortcuts (``tests/test_property_executor.py``).

Besides the pytest-benchmark tests, the module doubles as a script::

    PYTHONPATH=src python benchmarks/bench_simulator.py

which writes ``BENCH_simulator.json`` (wall time and speedup per mode,
plus the CPU count, Python version and platform it ran on) at the
repository root.  ``--quick`` shrinks the sweep for CI.  See
``docs/perf.md`` for how to read it.
"""

import argparse
import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.core.strategies import NoMatLineage, standard_schemes
from repro.engine.campaign import CampaignCell, run_campaign
from repro.engine.cluster import Cluster
from repro.engine.coordinator import _default_horizon
from repro.engine.executor import SimulatedEngine, TraceExhausted
from repro.engine.traces import extend_trace, generate_trace_set
from repro.stats.calibration import default_parameters
from repro.tpch.queries import build_query_plan

FIG8_QUERIES = ("Q1", "Q3", "Q5", "Q1C", "Q2C")
NODES = 10
BASE_SEED = 800


# ----------------------------------------------------------------------
# the sweep grid (Figure 8: query x scheme x low/high MTBF)
# ----------------------------------------------------------------------
def build_grid(scale_factor, trace_count, queries=FIG8_QUERIES):
    """The Figure 8 cells, with per-query baselines resolved."""
    params = default_parameters(nodes=NODES)
    cluster = Cluster(nodes=NODES, mttr=1.0)
    engine = SimulatedEngine(cluster)
    schemes = tuple(standard_schemes(preflight_lint=False))
    cells = []
    for query in queries:
        plan = build_query_plan(query, scale_factor, params)
        stats = cluster.stats(mtbf=1.0)
        baseline = engine.execute(
            NoMatLineage().configure(plan, stats)
        ).runtime
        for seed_offset, mtbf in ((0, 1.1 * baseline),
                                  (1, 10.0 * baseline)):
            cells.append(CampaignCell(
                label=query,
                plan=plan,
                mtbf=mtbf,
                schemes=schemes,
                trace_count=trace_count,
                base_seed=BASE_SEED + seed_offset,
                baseline=baseline,
            ))
    return cells, cluster


def run_oracle(cells, cluster):
    """The pre-change serial measurement loop, reconstructed.

    No prepared executions, no trace-set or baseline caches, full event
    logging: every ``execute`` call re-collapses the plan, every cell
    regenerates its traces, exactly like the per-experiment loops the
    campaign replaced.  Returns rows in campaign order and shape.
    """
    engine = SimulatedEngine(cluster)
    rows = []
    for cell_index, cell in enumerate(cells):
        stats = cluster.stats(cell.mtbf, const_pipe=cell.const_pipe)
        baseline = cell.baseline
        if baseline is None:
            baseline = engine.execute(
                NoMatLineage().configure(cell.plan, stats)
            ).runtime
        horizon = _default_horizon(baseline, cell.mtbf, cluster)
        for scheme in cell.targets():
            configured = scheme.configure(cell.plan, stats)
            traces = generate_trace_set(
                cluster.nodes, cell.mtbf, horizon,
                count=cell.trace_count, base_seed=cell.base_seed,
            )
            runtimes, aborted = [], 0
            for trace in traces:
                while True:
                    try:
                        result = engine.execute(configured, trace)
                        break
                    except TraceExhausted:
                        trace = extend_trace(trace, trace.horizon * 4)
                if result.aborted:
                    aborted += 1
                else:
                    runtimes.append(result.runtime)
            rows.append((
                cell_index, cell.label, configured.scheme,
                tuple(runtimes), aborted,
                tuple(op_id
                      for op_id, op in configured.plan.operators.items()
                      if op.materialize and cell.plan[op_id].free),
            ))
    return rows


def campaign_rows(results):
    """Project campaign results onto the oracle's comparison shape."""
    return [
        (r.cell_index, r.label, r.scheme, r.runtimes, r.aborted_runs,
         r.materialized_ids)
        for r in results
    ]


def run_comparison(scale_factor=100.0, trace_count=200, jobs=(4, 8)):
    """Time every mode over the identical sweep; verify equal rows."""
    cells, cluster = build_grid(scale_factor, trace_count)

    started = time.perf_counter()
    oracle = run_oracle(cells, cluster)
    oracle_s = time.perf_counter() - started

    modes = []
    for label, job_count in [("serial", 1)] + [
        (f"jobs={n}", n) for n in jobs
    ]:
        started = time.perf_counter()
        results = run_campaign(cells, cluster, jobs=job_count)
        elapsed = time.perf_counter() - started
        # the speedup only counts if the outputs are exactly equal
        assert campaign_rows(results) == oracle, (
            f"campaign ({label}) diverged from the serial oracle"
        )
        modes.append({
            "mode": label,
            "seconds": round(elapsed, 6),
            "speedup_vs_oracle": round(oracle_s / elapsed, 2),
            "equal_to_oracle": True,
        })
    return {
        "benchmark": "fig8_sweep",
        "queries": list(FIG8_QUERIES),
        "schemes": [s.name for s in standard_schemes()],
        "mtbf_settings": ["1.1x baseline", "10x baseline"],
        "scale_factor": scale_factor,
        "trace_count": trace_count,
        "nodes": NODES,
        "cells": len(cells),
        "units": sum(len(cell.targets()) for cell in cells),
        "oracle_seconds": round(oracle_s, 6),
        "modes": modes,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# pytest-benchmark tests (small grid: keep CI fast)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_grid():
    return build_grid(scale_factor=20.0, trace_count=10,
                      queries=("Q1", "Q5"))


def test_oracle_serial_loop(benchmark, small_grid):
    """The pre-change protocol (the baseline the campaign is judged by)."""
    cells, cluster = small_grid
    rows = benchmark(run_oracle, cells, cluster)
    assert len(rows) == 4 * len(cells)


def test_campaign_serial(benchmark, small_grid):
    """Campaign jobs=1: prepared executions + caches, same results."""
    cells, cluster = small_grid
    oracle = run_oracle(cells, cluster)
    results = benchmark(run_campaign, cells, cluster)
    assert campaign_rows(results) == oracle


def test_campaign_parallel(benchmark, small_grid):
    """Campaign jobs=4: adds process fan-out, still the same results."""
    cells, cluster = small_grid
    oracle = run_oracle(cells, cluster)
    results = benchmark(run_campaign, cells, cluster, jobs=4)
    assert campaign_rows(results) == oracle


# ----------------------------------------------------------------------
# script mode: the fixed Figure 8 sweep behind BENCH_simulator.json
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the simulation campaign (serial / prepared / "
                    "parallel) against the pre-change serial oracle on "
                    "the Figure 8 sweep."
    )
    parser.add_argument("--scale-factor", type=float, default=100.0)
    parser.add_argument("--trace-count", type=int, default=200,
                        help="traces per cell (default 200; the paper "
                             "protocol's 10 finishes too fast to time)")
    parser.add_argument("--jobs", type=int, nargs="*", default=[4, 8],
                        help="worker counts to benchmark (default 4 8)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized sweep (SF 20, 40 traces, jobs=4)")
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_simulator.json",
        help="where to write the JSON report "
             "(default <repo>/BENCH_simulator.json)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        report = run_comparison(scale_factor=20.0, trace_count=40,
                                jobs=[4])
    else:
        report = run_comparison(scale_factor=args.scale_factor,
                                trace_count=args.trace_count,
                                jobs=args.jobs)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"oracle (pre-change serial loop): {report['oracle_seconds']:.3f}s "
          f"({report['cells']} cells, {report['units']} units, "
          f"{report['trace_count']} traces/cell)")
    for mode in report["modes"]:
        print(f"  campaign {mode['mode']:<8s} {mode['seconds']:.3f}s  "
              f"speedup {mode['speedup_vs_oracle']:.2f}x  "
              f"equal={mode['equal_to_oracle']}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
