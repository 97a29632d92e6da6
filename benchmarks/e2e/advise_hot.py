"""The advise-hot workload: ``python -m repro serve`` under an open loop.

The service runs as the shipped entry point in its own process.  This
process is the only load source: two threads, each owning one
persistent HTTP/1.1 keep-alive connection, send requests on a fixed
schedule (request ``i`` is due at ``start + i / rate``, alternating
connections) whether or not earlier requests have finished.  Latency is
timed from the due time, so a stall also charges the requests queued
behind it; the generator's own lateness (sent after due although its
connection was free) is reported as a validity check.

The traffic is 128 keys (8 plans x 4 cluster profiles x 4 schemes),
zipf(s=1.1) popular, with every request's MTBF/MTTR jittered so hits must
come from the service's stats bucketing.  Warm-up (untimed, part of
set-up) replays the sampler until ``/metrics`` shows no new cache
entries, sending each unseen canonical key once on a fresh connection:
back-to-back requests on one keep-alive connection stall on the
service's two-write responses, which would slow warm-up for no gain.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.sanitizer import fingerprint
from repro.core.cost_model import ClusterStats
from repro.core.plan import Operator, Plan
from repro.core.serialize import plan_to_dict, stats_to_dict
from repro.serve import AdvisoryEngine, StatsBucketing, direct_advice
from repro.serve.app import parse_advise_body
from repro.stats.calibration import default_parameters
from repro.tpch.queries import build_query_plan

import tracing
from shared import percentile
from tracing import layer_counts, per_second, share_table

REPO = Path(__file__).resolve().parents[2]
HOST = "127.0.0.1"
SERVE_WORKERS = 2
CONNECTIONS = 2
REFERENCE_RPS = 30.0
LADDER_RPS = (60.0, 120.0, 240.0, 480.0, 960.0)
P90_LIMIT_MS = 10.0
STEP_GRACE_S = 1.0
DIRECT_SAMPLES = 25
#: sampler draws per warm-up pass; only unseen canonical keys are sent
WARM_PASS = 1000
ZIPF_S = 1.1
REQUEST_TIMEOUT_S = 30.0


def paper_plan() -> Plan:
    """The paper's Figure 2/3 plan."""
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


@dataclass(frozen=True)
class Key:
    plan: Plan
    plan_dict: Dict[str, Any]
    mtbf: float
    mttr: float
    nodes: int
    scheme: str


@dataclass(frozen=True)
class Request:
    key: Key
    stats: ClusterStats
    canonical_mtbf: float
    body: bytes


def traffic_keys() -> List[Key]:
    """The 128 request keys, hottest first (zipf rank order)."""
    params = default_parameters()
    plans = [paper_plan()] + [
        build_query_plan(query, scale, params) for query, scale in (
            ("Q3", 100.0), ("Q5", 100.0), ("Q1", 100.0), ("Q10", 100.0),
            ("Q5", 10.0), ("Q6", 100.0), ("Q13", 100.0))
    ]
    profiles = [(3600.0, 60.0, 10), (86400.0, 300.0, 100),
                (60.0, 0.0, 1), (600.0, 30.0, 20)]
    schemes = ["cost-based", "cost-based", "cost-based", "all-mat"]
    return [
        Key(plan, plan_to_dict(plan), mtbf, mttr, nodes, scheme)
        for plan in plans for mtbf, mttr, nodes in profiles
        for scheme in schemes
    ]


def sample(keys: Sequence[Key], count: int, rng: Any,
           bucketing: StatsBucketing) -> List[Request]:
    """``count`` requests; key popularity ~ 1/rank^s, stats jittered."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys))]
    requests = []
    for key in rng.choices(keys, weights=weights, k=count):
        stats = ClusterStats(mtbf=key.mtbf * rng.uniform(0.93, 1.07),
                             mttr=key.mttr * rng.uniform(0.9, 1.1),
                             nodes=key.nodes)
        requests.append(Request(
            key=key, stats=stats,
            canonical_mtbf=bucketing.canonical_mtbf(stats.mtbf),
            body=json.dumps({"plan": key.plan_dict,
                             "stats": stats_to_dict(stats),
                             "scheme": key.scheme}).encode("utf-8"),
        ))
    return requests


class Server:
    """The shipped ``repro serve`` entry point in its own process."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        # -u: the bound port is printed to a pipe
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--workers", str(SERVE_WORKERS)],
            cwd=REPO, env=env, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match is None:
            self.close()
            raise RuntimeError(f"server did not report its port: {line!r}")
        self.port = int(match.group(1))

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(HOST, self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def cache_size(self) -> int:
        conn = self.connection()
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())["cache"]["size"]
        finally:
            conn.close()

    def post_fresh(self, body: bytes) -> int:
        conn = self.connection()
        try:
            conn.request("POST", "/advise", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            return response.status
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (read before shutdown)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)   # run_server's shutdown
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def warm_up(server: Server, keys: Sequence[Key], child: Any,
            bucketing: StatsBucketing) -> List[Request]:
    """Replay the sampler (another seed per pass) until a pass adds no
    cache entry; returns the distinct requests sent."""
    seen = set()
    sent: List[Request] = []
    for pass_index in itertools.count():
        before = server.cache_size()
        for request in sample(keys, WARM_PASS,
                              child.rng("warm", child.index, pass_index),
                              bucketing):
            ident = (id(request.key), bucketing.canonicalize(request.stats))
            if ident in seen:
                continue
            seen.add(ident)
            status = server.post_fresh(request.body)
            if status != 200:
                raise RuntimeError(f"warm-up request returned {status}")
            sent.append(request)
        if server.cache_size() == before:
            return sent


@dataclass
class Step:
    """One open-loop step: offered rate, per-request outcomes."""

    rate: float
    requests: List[Request]
    latency_s: List[float]
    status: List[int]
    advice: List[Optional[Dict[str, Any]]]
    late_s: List[float]
    completed_at: List[float]
    start: float

    @property
    def done(self) -> List[int]:
        return [i for i, at in enumerate(self.completed_at)
                if not math.isnan(at)]

    def correct(self, index: int) -> bool:
        """200, and the advice answers this request's scheme at its
        canonical MTBF -- exactly: the service answers at the bucket's
        representative, bit for bit, so any difference is a bug."""
        advice = self.advice[index]
        request = self.requests[index]
        return (self.status[index] == 200 and advice is not None
                and advice.get("scheme") == request.key.scheme
                and advice.get("canonical_mtbf") == request.canonical_mtbf)

    def latencies_ms(self) -> List[float]:
        return sorted(1e3 * self.latency_s[i] for i in self.done)

    def completion_rate(self) -> float:
        """Requests completed per second between the first and the last
        completion."""
        times = sorted(self.completed_at[i] for i in self.done)
        if len(times) < 2 or times[-1] <= times[0]:
            return 0.0
        return (len(times) - 1) / (times[-1] - times[0])

    def passed(self, duration: float) -> bool:
        """Every request answered correctly within the step + grace,
        and p90 within the latency limit."""
        done = self.done
        if len(done) < len(self.requests):
            return False
        if not all(self.correct(i) for i in done):
            return False
        if max(self.completed_at) - self.start > duration + STEP_GRACE_S:
            return False
        return percentile(self.latencies_ms(), 0.90) <= P90_LIMIT_MS

    def summary(self, duration: float) -> Dict[str, Any]:
        latencies = self.latencies_ms()
        return {
            "rate": self.rate,
            "requests": len(self.requests),
            "completed": len(latencies),
            "p50_ms": percentile(latencies, 0.50),
            "p90_ms": percentile(latencies, 0.90),
            "completion_rate": self.completion_rate(),
            "passed": self.passed(duration),
        }


def open_loop(port: int, requests: List[Request], rate: float,
              duration: float) -> Step:
    """Send ``requests`` at ``rate`` over the persistent connections.

    Sending stops once ``duration + STEP_GRACE_S`` has passed (the step
    has failed by then); unsent requests stay incomplete.
    """
    count = len(requests)
    nan = math.nan
    step = Step(rate=rate, requests=requests, latency_s=[nan] * count,
                status=[0] * count, advice=[None] * count,
                late_s=[0.0] * count, completed_at=[nan] * count,
                start=time.perf_counter() + 0.05)
    stop_at = step.start + duration + STEP_GRACE_S

    def connection_loop(first: int) -> None:
        conn = http.client.HTTPConnection(HOST, port,
                                          timeout=REQUEST_TIMEOUT_S)
        free = step.start
        try:
            for index in range(first, count, CONNECTIONS):
                due = step.start + index / rate
                now = time.perf_counter()
                if now >= stop_at:
                    return
                if now < due:
                    time.sleep(due - now)
                sent = time.perf_counter()
                step.late_s[index] = max(0.0, sent - max(due, free))
                try:
                    conn.request("POST", "/advise",
                                 body=requests[index].body,
                                 headers={"Content-Type":
                                          "application/json"})
                    response = conn.getresponse()
                    payload = response.read()
                    step.status[index] = response.status
                    if response.status == 200:
                        step.advice[index] = json.loads(payload)["advice"]
                except (OSError, http.client.HTTPException, ValueError):
                    step.status[index] = -1
                    conn.close()
                free = time.perf_counter()
                step.completed_at[index] = free
                step.latency_s[index] = free - due
        finally:
            conn.close()

    threads = [threading.Thread(target=connection_loop, args=(first,))
               for first in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return step


def check_direct(child: Any, steps: Sequence[Step], samples: int) -> None:
    """Sampled responses must equal a fresh, cache-less direct search."""
    reference = AdvisoryEngine()
    answered = [(step, i) for step in steps for i in step.done
                if step.advice[i] is not None]
    rng = child.rng("direct", child.index)
    for step, index in rng.sample(answered, min(samples, len(answered))):
        request = step.requests[index]
        expected = direct_advice(request.key.plan, request.stats, reference,
                                 request.key.scheme).to_dict()
        child.check(f"response == direct_advice ({request.key.scheme}, "
                    f"mtbf {request.stats.mtbf:.6g})",
                    step.advice[index] == expected)


def inprocess_replay(requests: Sequence[Request], warm: Sequence[Request],
                     traced: bool) -> Tuple[List[float], List[Any],
                                            Optional[obs.Recorder]]:
    """The reference step's requests through an in-process engine with
    the service's settings: decode, engine queue hand-off, encode."""
    engine_type = tracing.TracedEngine if traced else AdvisoryEngine
    engine = engine_type()
    for request in warm:
        engine.advise(request.key.plan, request.stats, request.key.scheme)
    engine.start(workers=SERVE_WORKERS)
    durations: List[float] = []
    answers: List[Any] = []
    recording = obs.recording() if traced else contextlib.nullcontext()
    try:
        with recording as recorder:
            for request in requests:
                started = time.perf_counter()
                with obs.span("e2e.op"):
                    with obs.span("e2e.serve.decode"):
                        plan, stats, scheme = parse_advise_body(
                            json.loads(request.body))
                    with obs.span("e2e.serve.handoff"):
                        advice = engine.submit(plan, stats, scheme).result(
                            REQUEST_TIMEOUT_S)
                    with obs.span("e2e.serve.encode"):
                        json.dumps({"advice": advice.to_dict()})
                durations.append(time.perf_counter() - started)
                answers.append(advice.to_dict())
    finally:
        engine.stop()
    return durations, answers, recorder


def traced_rows(recorder: obs.Recorder, ops: int,
                http_p50_ms: float) -> Dict[str, Any]:
    """Layer shares of one request at the HTTP p50: in-process stages
    from the replay's spans, the rest is HTTP/socket frontend time."""
    totals = tracing.span_totals(recorder)
    serve = tracing.serve_rows(totals)
    rows = dict(serve, **{
        "serve.decode": totals["serve.decode"],
        "serve.handoff": (totals["serve.handoff"]
                          - tracing.engine_time(totals)),
        "serve.encode": totals["serve.encode"],
    })
    wall = totals["op"] - tracing.probe_total(totals)
    base = http_p50_ms / 1e3 * ops        # the HTTP p50, once per request
    # HTTP/socket time: what the p50 request spent outside the process's
    # stages; what is left unattributed is replay time outside any span
    rows["serve.frontend"] = base - wall
    table = share_table(rows, base, ops)
    counts = layer_counts(recorder)
    table.update(counts=counts, rates={
        "search.configs_per_s": per_second(counts["search.configs"],
                                           serve["serve.miss_search"]),
    })
    return table


def run(child: Any) -> Dict[str, Any]:
    keys = traffic_keys()
    bucketing = StatsBucketing()
    reference_s = child.seconds / child.children
    ladder_s = child.seconds / len(LADDER_RPS)
    reference = sample(keys, max(1, round(REFERENCE_RPS * reference_s)),
                       child.rng("reference", child.index), bucketing)
    server = Server()
    steps: List[Step] = []
    ladder: List[Dict[str, Any]] = []
    try:
        warm = warm_up(server, keys, child, bucketing)
        child.ready()
        steps.append(open_loop(server.port, reference, REFERENCE_RPS,
                               reference_s))
        if not child.traced and child.index == child.children - 1:
            for rate in LADDER_RPS:
                step = open_loop(
                    server.port,
                    sample(keys, round(rate * ladder_s),
                           child.rng("ladder", rate), bucketing),
                    rate, ladder_s)
                steps.append(step)
                ladder.append(step.summary(ladder_s))
                if not ladder[-1]["passed"]:
                    break
        rss = server.peak_rss_mb()
    finally:
        server.close()

    ref = steps[0]
    child.attempted = sum(len(step.requests) for step in steps)
    child.failed = sum(not step.correct(i) for step in steps
                       for i in step.done)
    child.check("reference step: every request sent and answered",
                len(ref.done) == len(ref.requests))
    result: Dict[str, Any] = {
        "ops_ms": ref.latencies_ms(),
        "reference": ref.summary(reference_s),
        "ladder": ladder,
        "generator_late_ms": 1e3 * max(max(step.late_s) for step in steps),
        "warm_requests": len(warm),
        "peak_rss_mb": rss,
    }
    if not child.traced:
        check_direct(child, steps,
                     math.ceil(DIRECT_SAMPLES / child.children))
    if child.mode == "measure":
        return result
    durations, answers, recorder = inprocess_replay(reference, warm,
                                                    child.traced)
    child.check("in-process replay == HTTP responses",
                answers == [ref.advice[i] for i in range(len(reference))])
    result.update(replay_ms=[1e3 * value for value in durations],
                  digests=[fingerprint(answers)])
    if child.traced:
        result.update(traced_rows(recorder, len(reference),
                                  percentile(ref.latencies_ms(), 0.50)))
    return result
