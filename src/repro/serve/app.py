"""The HTTP/JSON frontend of the advisory service (stdlib only).

A thin codec around :class:`~repro.serve.engine.AdvisoryEngine`: parse
the wire formats (``repro-plan/1`` / ``repro-cluster-stats/1`` from
:mod:`repro.core.serialize`), submit to the engine's bounded queue, and
map outcomes to status codes.  All policy -- caching, coalescing,
backpressure, sharding -- lives in the engine, so the in-process API and
the HTTP API cannot drift apart.

Endpoints::

    POST /advise        {"plan": <repro-plan/1>,
                         "stats": <repro-cluster-stats/1>,
                         "scheme": "cost-based"}          -> {"advice": ...}
    POST /advise/batch  {"requests": [<advise body>, ...]}
                        -> {"results": [{"advice": ...} | {"error": ...}]}
    GET  /healthz       -> {"status": "ok"}
    GET  /metrics       -> cache/sizer/counter snapshot

Status codes: 200 success, 400 malformed payload, 404 unknown path,
429 queue full (shed -- retry later), 500 a search raised.

Concurrency model: :class:`ThreadingHTTPServer` gives each connection a
thread.  That thread decodes the request, canonicalizes its stats and
probes the engine's cache; a hit is answered right there, so it never
waits behind searches and is never shed.  A miss takes a slot in the
engine's bounded queue and the connection thread *blocks* until a
worker answers -- connection concurrency can exceed search concurrency,
and when the gap exceeds the queue bound the service sheds misses
instead of building unbounded latency.  A batch request coalesces
internally like any other traffic: its entries are submitted together
and identical entries dedupe onto one search.

Each response leaves in one ``send()`` (when it fits the 8 KiB write
buffer): the handler buffers its writes (``wbufsize = -1``) and
``http.server`` flushes once per request.  Nagle's algorithm is off
(``TCP_NODELAY``).  With it on, a response written as
headers then body waits on a keep-alive connection for the client's
delayed ACK of the first segment -- about 40 ms per request, a cap of
roughly 25 requests/s per connection.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from ..core.serialize import plan_from_dict, stats_from_dict
from .engine import AdvisoryEngine, ServiceOverloaded

#: request body size cap -- a plan of thousands of operators fits well
#: under this; anything larger is a client error, not a workload
MAX_BODY_BYTES = 8 * 1024 * 1024


class BadRequest(ValueError):
    """Client payload error (HTTP 400)."""


def parse_advise_body(payload: Any) -> Tuple[Any, Any, str]:
    """Decode one advise entry: ``(plan, stats, scheme)``.

    Raises :class:`BadRequest` with a message safe to echo to clients.
    """
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    try:
        plan = plan_from_dict(payload["plan"])
    except KeyError:
        raise BadRequest("missing 'plan'") from None
    except (TypeError, ValueError) as error:
        raise BadRequest(f"bad plan: {error}") from None
    try:
        stats = stats_from_dict(payload["stats"])
    except KeyError:
        raise BadRequest("missing 'stats'") from None
    except (TypeError, ValueError) as error:
        raise BadRequest(f"bad stats: {error}") from None
    scheme = payload.get("scheme", "cost-based")
    if not isinstance(scheme, str):
        raise BadRequest("'scheme' must be a string")
    return plan, stats, scheme


class AdvisoryRequestHandler(BaseHTTPRequestHandler):
    """One HTTP connection; ``server.engine`` is the shared engine."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: one buffered write per response, sent at once (module docstring)
    disable_nagle_algorithm = True
    wbufsize = -1

    # -- plumbing ------------------------------------------------------
    @property
    def engine(self) -> AdvisoryEngine:
        return self.server.engine  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        """Quiet by default; the load harness hammers thousands of
        requests and per-line stderr logging would dominate."""

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise BadRequest("empty request body")
        if length > MAX_BODY_BYTES:
            raise BadRequest("request body too large")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError:
            raise BadRequest("request body is not valid JSON") from None

    # -- endpoints -----------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif self.path == "/metrics":
            self._send_json(200, self.engine.metrics())
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        if self.path not in ("/advise", "/advise/batch"):
            self._send_json(404, {"error": f"unknown path {self.path}"})
            return
        try:
            payload = self._read_body()
            if self.path == "/advise":
                self._advise_one(payload)
            else:
                self._advise_batch(payload)
        except BadRequest as error:
            self._send_json(400, {"error": str(error)})
        except ServiceOverloaded as error:
            self._send_json(429, {"error": str(error)})
        except Exception as error:  # a search raised: server error
            self._send_json(500, {"error": f"{type(error).__name__}: "
                                           f"{error}"})

    def _advise_one(self, payload: Any) -> None:
        plan, stats, scheme = parse_advise_body(payload)
        pending = self.engine.submit(plan, stats, scheme)
        advice = pending.result()
        self._send_json(200, {"advice": advice.to_dict()})

    def _advise_batch(self, payload: Any) -> None:
        if not isinstance(payload, dict) or not isinstance(
            payload.get("requests"), list
        ):
            raise BadRequest("batch body must be "
                             "{'requests': [<advise body>, ...]}")
        entries = payload["requests"]
        # submit everything first so identical entries coalesce and
        # distinct entries overlap, then collect in order
        pendings: List[Tuple[Optional[Any], Optional[str]]] = []
        for entry in entries:
            try:
                plan, stats, scheme = parse_advise_body(entry)
                pendings.append(
                    (self.engine.submit(plan, stats, scheme), None)
                )
            except BadRequest as error:
                pendings.append((None, str(error)))
            except ServiceOverloaded as error:
                pendings.append((None, f"shed: {error}"))
            except ValueError as error:  # an unknown scheme
                pendings.append((None, f"{type(error).__name__}: "
                                       f"{error}"))
        results: List[Dict[str, Any]] = []
        for pending, error_text in pendings:
            if pending is None:
                results.append({"error": error_text})
                continue
            try:
                results.append({"advice": pending.result().to_dict()})
            except Exception as error:
                results.append({"error": f"{type(error).__name__}: "
                                         f"{error}"})
        self._send_json(200, {"results": results})


class AdvisoryServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with a listen backlog sized for bursts.

    socketserver's default backlog of 5 drops SYNs when hundreds of
    clients connect in the same instant (each retransmits ~1 s later,
    poisoning every latency percentile); the service's concurrency
    bound is the engine queue, so accept generously here.
    """

    daemon_threads = True
    request_queue_size = 512


def create_server(
    engine: AdvisoryEngine,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """A bound (not yet serving) HTTP server wired to ``engine``.

    ``port=0`` binds an ephemeral port (tests and the load harness read
    ``server.server_address``).  The caller owns the engine lifecycle:
    ``engine.start(...)`` before serving, ``engine.stop()`` after
    ``server.shutdown()``.
    """
    server = AdvisoryServer((host, port), AdvisoryRequestHandler)
    server.engine = engine  # type: ignore[attr-defined]
    return server


def run_server(
    host: str = "127.0.0.1",
    port: int = 8758,
    workers: int = 4,
    cache_size: int = 1024,
    max_queue: int = 64,
    engine: Optional[AdvisoryEngine] = None,
) -> None:
    """Blocking entry point behind ``python -m repro serve``."""
    if engine is None:
        engine = AdvisoryEngine(cache_size=cache_size)
    engine.start(workers=workers, max_queue=max_queue)
    server = create_server(engine, host=host, port=port)
    bound_host, bound_port = server.server_address[:2]
    print(f"advisory service on http://{bound_host}:{bound_port} "
          f"({workers} workers, cache {cache_size}, "
          f"queue {max_queue}) -- Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.shutdown()
        server.server_close()
        engine.stop()
