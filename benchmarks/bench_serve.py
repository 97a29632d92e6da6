"""Load harness for the advisory service (``repro.serve``).

Measures what the caching/batching layers of PR 8 actually buy: the
harness stands up the real HTTP service (ephemeral port), fires
thousands of concurrent ``POST /advise`` requests from a zipf-skewed
mix of (TPC-H plan, jittered cluster stats, scheme) keys -- the traffic
shape a fleet-wide advisor sees, where a few hot queries dominate and
every request carries slightly different measured stats -- and writes
``BENCH_serve.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full load
    PYTHONPATH=src python benchmarks/bench_serve.py --quick    # CI mode

Reported numbers:

* ``latency_ms`` p50/p90/p99/max over every request (client-observed;
  each client keeps one keep-alive connection, so only its first
  request pays connection setup).  This is a closed loop: every client
  sends its next request as soon as the last one returns, so the p50
  is mostly queueing -- about ``clients / throughput_rps`` (Little's
  law), not the service time of one request;
* ``throughput_rps`` (completed requests / wall seconds);
* ``cache`` hit/miss/eviction counts and ``hit_rate``;
* ``counters`` -- the engine's ``serve.*`` traffic accounting
  (coalesced followers, sheds, searches actually run);
* ``advice_equal_direct`` -- every sampled response compared against a
  fresh, cache-less, serial :func:`repro.serve.direct_advice` call; the
  bit-identity acceptance gate.

Exit status 1 when a gate fails: any request error, a sampled response
that differs from direct search, no sampled response at all, or (in
--quick mode) a cache hit rate below 0.5.

The zipf sampling and the stats jitter are seeded: two runs issue the
same request sequence.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import random
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro import obs
from repro.core.cost_model import ClusterStats
from repro.core.plan import Operator, Plan
from repro.core.serialize import plan_to_dict, stats_to_dict
from repro.serve import AdvisoryEngine, direct_advice
from repro.serve.app import create_server
from repro.stats.calibration import default_parameters
from repro.tpch.queries import build_query_plan

SEED = 20150531  # SIGMOD'15
#: --quick gate: the fixed zipf mix must be served mostly from cache
QUICK_HIT_RATE_FLOOR = 0.5


def paper_plan() -> Plan:
    """The Figure 2/3 plan (same shape the test suite pins)."""
    operators = [
        Operator(1, "Scan R", 1.0, 1.0),
        Operator(2, "Scan S", 2.0, 1.0),
        Operator(3, "HashJoin", 2.0, 1.0, materialize=True),
        Operator(4, "Repartition", 1.0, 1.0),
        Operator(5, "MapUDF", 2.0, 1.0, materialize=True),
        Operator(6, "ReduceUDF", 1.0, 0.0, materialize=True, free=False),
        Operator(7, "ReduceUDF", 2.0, 0.0, materialize=True, free=False),
    ]
    edges = [(1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7)]
    return Plan.from_edges(operators, edges)


def build_workload() -> List[Dict[str, Any]]:
    """The distinct request keys, hottest first (zipf rank order).

    Plans x cluster profiles x schemes.  The profiles are the *centers*;
    each issued request jitters mtbf/mttr around its center so raw stats
    are almost never bit-equal -- cache hits must come from bucketing.
    """
    params = default_parameters()
    plans = [
        ("paper-fig2", paper_plan()),
        ("Q3@sf100", build_query_plan("Q3", 100.0, params)),
        ("Q5@sf100", build_query_plan("Q5", 100.0, params)),
        ("Q1@sf100", build_query_plan("Q1", 100.0, params)),
        ("Q10@sf100", build_query_plan("Q10", 100.0, params)),
        ("Q5@sf10", build_query_plan("Q5", 10.0, params)),
        ("Q6@sf100", build_query_plan("Q6", 100.0, params)),
        ("Q13@sf100", build_query_plan("Q13", 100.0, params)),
    ]
    profiles = [
        ("hourly-failures", 3600.0, 60.0, 10),
        ("daily-failures", 86400.0, 300.0, 100),
        ("table2-adversarial", 60.0, 0.0, 1),
        ("flaky-cluster", 600.0, 30.0, 20),
    ]
    schemes = ["cost-based", "cost-based", "cost-based", "all-mat"]
    keys: List[Dict[str, Any]] = []
    for (plan_name, plan), (profile, mtbf, mttr, nodes), scheme in (
        (p, c, s) for p in plans for c in profiles for s in schemes
    ):
        keys.append({
            "plan_name": plan_name,
            "plan": plan,
            "profile": profile,
            "mtbf": mtbf,
            "mttr": mttr,
            "nodes": nodes,
            "scheme": scheme,
        })
    return keys


def sample_requests(
    keys: List[Dict[str, Any]], count: int, zipf_s: float,
    rng: random.Random,
) -> List[Dict[str, Any]]:
    """``count`` requests, key popularity ~ 1/rank^s, stats jittered."""
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(keys))]
    requests = []
    for _ in range(count):
        key = rng.choices(keys, weights=weights)[0]
        jitter = rng.uniform(0.93, 1.07)  # ~ +/-7%: inside +/-1 bucket
        stats = ClusterStats(
            mtbf=key["mtbf"] * jitter,
            mttr=key["mttr"] * rng.uniform(0.9, 1.1),
            nodes=key["nodes"],
        )
        requests.append({
            "key": key,
            "stats": stats,
            "body": json.dumps({
                "plan": plan_to_dict(key["plan"]),
                "stats": stats_to_dict(stats),
                "scheme": key["scheme"],
            }).encode("utf-8"),
        })
    return requests


def fire_load(
    host: str, port: int, requests_list: List[Dict[str, Any]],
    clients: int,
) -> Tuple[List[float], float, int]:
    """Drive the request list through ``clients`` concurrent threads.

    Each client thread holds one persistent HTTP/1.1 connection and
    sends its requests back to back on it, as a real keep-alive client
    does; a failed request closes the connection, and the next one
    reconnects.  Returns (per-request latencies in seconds, wall
    seconds, errors).
    """
    work = list(enumerate(requests_list))
    position = {"next": 0}
    position_lock = threading.Lock()
    latencies: List[float] = [0.0] * len(requests_list)
    errors = [0]
    barrier = threading.Barrier(clients + 1)
    headers = {"Content-Type": "application/json"}

    def client() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=120.0)
        barrier.wait()
        try:
            while True:
                with position_lock:
                    if position["next"] >= len(work):
                        return
                    index, request = work[position["next"]]
                    position["next"] += 1
                started = time.perf_counter()
                try:
                    connection.request("POST", "/advise",
                                       body=request["body"],
                                       headers=headers)
                    response = connection.getresponse()
                    payload = json.loads(response.read())
                    if response.status != 200:
                        raise RuntimeError(payload.get("error"))
                    request["advice"] = payload["advice"]
                except Exception:
                    errors[0] += 1
                    connection.close()
                latencies[index] = time.perf_counter() - started
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_started
    return latencies, wall, errors[0]


def percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def check_bit_identity(
    engine: AdvisoryEngine, requests_list: List[Dict[str, Any]],
    samples: int, rng: random.Random,
) -> Tuple[bool, int]:
    """Compare sampled HTTP responses against fresh direct searches."""
    answered = [r for r in requests_list if "advice" in r]
    picked = rng.sample(answered, min(samples, len(answered)))
    equal = True
    for request in picked:
        reference = direct_advice(
            request["key"]["plan"], request["stats"], engine,
            request["key"]["scheme"],
        ).to_dict()
        if request["advice"] != reference:
            equal = False
    return equal, len(picked)


def run_load(
    total_requests: int, clients: int, workers: int, cache_size: int,
    zipf_s: float, samples: int,
) -> Dict[str, Any]:
    keys = build_workload()
    rng = random.Random(SEED)
    requests_list = sample_requests(keys, total_requests, zipf_s, rng)
    engine = AdvisoryEngine(cache_size=cache_size)
    # queue sized to the client pool: the harness measures latency under
    # full concurrency, not shed behaviour (sheds still get counted)
    engine.start(workers=workers, max_queue=max(64, clients * 4))
    server = create_server(engine)
    host, port = server.server_address[:2]
    server_thread = threading.Thread(target=server.serve_forever,
                                     daemon=True)
    server_thread.start()
    try:
        with obs.recording() as recorder:
            latencies, wall, errors = fire_load(
                host, port, requests_list, clients
            )
            counters = {
                name: value
                for name, value in sorted(recorder.counters.items())
                if name.startswith("serve.")
            }
        equal, sampled = check_bit_identity(
            engine, requests_list, samples, rng
        )
        cache_stats = engine.cache.stats() if engine.cache else None
    finally:
        server.shutdown()
        server.server_close()
        engine.stop()
    ordered = sorted(latencies)
    lookups = (cache_stats["hits"] + cache_stats["misses"]
               if cache_stats else 0)
    return {
        "benchmark": "advisory_service_load",
        "workload": {
            "distinct_keys": len(keys),
            "total_requests": total_requests,
            "concurrent_clients": clients,
            "zipf_s": zipf_s,
            "stats_jitter": "mtbf +/-7%, mttr +/-10% per request",
        },
        "service": {
            "workers": workers,
            "cache_size": cache_size,
            "transport": "http (one stdlib selectors event loop: hits "
                         "answered inline, misses completed by worker "
                         "callback), one keep-alive connection per "
                         "client",
        },
        "latency_ms": {
            "p50": percentile(ordered, 0.50) * 1e3,
            "p90": percentile(ordered, 0.90) * 1e3,
            "p99": percentile(ordered, 0.99) * 1e3,
            "max": (ordered[-1] if ordered else 0.0) * 1e3,
        },
        "throughput_rps": (total_requests / wall) if wall else 0.0,
        "wall_seconds": wall,
        "errors": errors,
        "cache": dict(cache_stats or {}, hit_rate=(
            cache_stats["hits"] / lookups if lookups else 0.0
        )) if cache_stats else None,
        "counters": counters,
        "advice_equal_direct": equal,
        "equality_samples": sampled,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Load-test the advisory HTTP service and write "
                    "BENCH_serve.json."
    )
    parser.add_argument("--requests", type=int, default=2000,
                        help="total requests to issue (default 2000)")
    parser.add_argument("--clients", type=int, default=256,
                        help="concurrent client threads (default 256)")
    parser.add_argument("--workers", type=int, default=8,
                        help="engine worker threads (default 8)")
    parser.add_argument("--cache-size", type=int, default=1024,
                        help="advice cache capacity (default 1024)")
    parser.add_argument("--zipf", type=float, default=1.1,
                        help="zipf skew exponent s (default 1.1)")
    parser.add_argument("--samples", type=int, default=25,
                        help="responses checked against direct search")
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: 400 requests over 208 clients, "
                             "8 equality samples")
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_serve.json",
        help="where to write the JSON report "
             "(default <repo>/BENCH_serve.json)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.requests, args.clients, args.samples = 400, 208, 8
    report = run_load(
        total_requests=args.requests, clients=args.clients,
        workers=args.workers, cache_size=args.cache_size,
        zipf_s=args.zipf, samples=args.samples,
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    latency = report["latency_ms"]
    cache = report["cache"]
    print(f"{report['workload']['total_requests']} requests, "
          f"{report['workload']['concurrent_clients']} clients: "
          f"p50 {latency['p50']:.1f}ms p99 {latency['p99']:.1f}ms  "
          f"{report['throughput_rps']:.0f} req/s  "
          f"hit-rate {cache['hit_rate']:.3f}  "
          f"searches {report['counters'].get('serve.searches', 0)}  "
          f"equal_direct={report['advice_equal_direct']} "
          f"({report['equality_samples']} sampled)  "
          f"errors={report['errors']}")
    print(f"wrote {args.output}")
    failures = gate_failures(report, quick=args.quick)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    return 1 if failures else 0


def gate_failures(report: Dict[str, Any], quick: bool) -> List[str]:
    """The acceptance gates: no request errors, every sampled response
    bit-identical to a direct search (and at least one sampled), and in
    --quick mode a warm enough cache on the fixed zipf mix."""
    failures = []
    if report["errors"]:
        failures.append(f"{report['errors']} request errors")
    if not report["advice_equal_direct"]:
        failures.append("a sampled response differs from direct search")
    if report["equality_samples"] <= 0:
        failures.append("no response was compared against direct search")
    hit_rate = (report["cache"] or {}).get("hit_rate", 0.0)
    if quick and hit_rate < QUICK_HIT_RATE_FLOOR:
        failures.append(f"hit rate {hit_rate:.3f} < "
                        f"{QUICK_HIT_RATE_FLOOR}")
    return failures


if __name__ == "__main__":
    raise SystemExit(main())
