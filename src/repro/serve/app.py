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
    GET  /metrics       -> cache/cluster-stats/counter snapshot

Status codes: 200 success, 400 malformed payload or request (a
``Content-Length`` that is not a number included), 404 unknown path,
411 a body not framed by ``Content-Length`` (``Transfer-Encoding``,
chunked included, is refused), 413 a body over :data:`MAX_BODY_BYTES`,
429 queue full (shed -- retry later), 431 a request head over
:data:`MAX_HEAD_BYTES`, 500 a search raised, 501 a method other than
GET/POST.  Every error body is JSON.  When the byte stream cannot be
framed (a bad request line or header, 411, 413, 431) the response
carries ``Connection: close`` and the connection closes, so bytes after
the broken request are never parsed as a request.

Concurrency model: one thread -- the caller of
:meth:`AdvisoryServer.serve_forever` -- runs a :mod:`selectors` loop
that owns every socket: the listener, each client connection, and the
read end of a socketpair that wakes it.  It accepts every pending
connection at once, reads what has arrived, frames complete requests
(HTTP/1.1 keep-alive; ``Connection: close`` and HTTP/1.0 close after
the response; ``Content-Length`` bodies only) and answers them:

* a **cache hit** is answered inline: decode, ``engine.submit`` (which
  answers a hit on the calling thread), encode and one ``send()``, with
  no thread hand-off;
* a **miss** of a new key takes a slot in the engine's bounded queue;
  a miss of a key already in flight shares that search's handle.  Each
  connection waiting on a handle adds its own done-callback, which runs
  on the worker that finishes it, encodes the response, queues it and
  wakes the loop, which writes it.  A batch answers when its last entry
  finishes.  While a connection waits on a miss the loop parses none of
  its later (pipelined) requests, so responses leave in request order.

No thread is spawned per connection or per miss, and the loop does not
poll: it sleeps in ``select`` until a socket is ready, a miss
completes, or a deadline passes.  A request whose head or body is still
incomplete :data:`REQUEST_READ_TIMEOUT_S` after its first byte arrived
closes its connection; until then it holds only its buffer, so slow
clients cannot delay others.  When new keys outrun the workers the
queue sheds them (429) instead of building unbounded latency; a hit or
a miss that joins an in-flight search is never shed.  An unexpected
error while handling one socket event is printed with its traceback
and closes that connection only; the loop keeps serving.

Each response leaves in one ``send()`` with Nagle's algorithm off
(``TCP_NODELAY``).  A response written as headers then body with Nagle
on waits on a keep-alive connection for the client's delayed ACK of the
first segment -- about 40 ms per request.
"""

from __future__ import annotations

import collections
import email.utils
import functools
import json
import selectors
import socket
import threading
import time
from http import HTTPStatus
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from ..core.serialize import plan_from_dict, stats_from_dict
from .engine import Advice, AdvisoryEngine, ServiceOverloaded, _Pending

#: request body size cap -- a plan of thousands of operators fits well
#: under this; anything larger is a client error, not a workload
MAX_BODY_BYTES = 8 * 1024 * 1024
#: request line plus headers cap
MAX_HEAD_BYTES = 64 * 1024
#: seconds a request's head and body may take to arrive in full, a
#: response may take to be read, or a closing client may take to hang
#: up, before the loop drops the connection
REQUEST_READ_TIMEOUT_S = 10.0
#: listen backlog: the default of 5 drops SYNs when hundreds of clients
#: connect in the same instant (each retransmits ~1 s later, poisoning
#: every latency percentile); the service's concurrency bound is the
#: engine queue, so accept generously here
LISTEN_BACKLOG = 512
RECV_BYTES = 64 * 1024
SERVER_NAME = "repro-serve/1"

#: path -> the one method it answers
_ROUTES = {"/advise": "POST", "/advise/batch": "POST",
           "/healthz": "GET", "/metrics": "GET"}

#: an answer: (status, JSON payload or its UTF-8 encoding)
_Answer = Tuple[int, Any]
_CLOSE = "Connection: close\r\n"


class BadRequest(ValueError):
    """Client payload error (HTTP 400)."""


class _Unframeable(Exception):
    """The byte stream cannot be split into requests: answer and close."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


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


def _pop_request(
    buffer: bytearray,
) -> Optional[Tuple[str, str, bool, bytes]]:
    """Take one complete request off ``buffer``: ``(method, path,
    keep_alive, body)``, or ``None`` while it is still incomplete.

    Raises :class:`_Unframeable` when the stream cannot be framed.
    """
    head_end = buffer.find(b"\r\n\r\n", 0, MAX_HEAD_BYTES)
    if head_end < 0:
        if len(buffer) >= MAX_HEAD_BYTES:
            raise _Unframeable(431, "request head too large")
        return None
    lines = buffer[:head_end].decode("latin-1").split("\r\n")
    request_line = lines[0].split()
    if len(request_line) != 3 \
            or request_line[2] not in ("HTTP/1.0", "HTTP/1.1"):
        raise _Unframeable(400, "malformed request line")
    method, path, version = request_line
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        name, value = name.lower(), value.strip()
        if not colon or not name or name != name.strip():
            raise _Unframeable(400, "malformed header line")
        if name == "content-length" and headers.get(name, value) != value:
            raise _Unframeable(400, "conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise _Unframeable(411, "only Content-Length bodies are "
                                "accepted (no Transfer-Encoding)")
    length_text = headers.get("content-length", "0")
    if not (length_text.isascii() and length_text.isdigit()):
        raise _Unframeable(400, f"bad Content-Length {length_text!r}")
    length = int(length_text)
    if length > MAX_BODY_BYTES:
        raise _Unframeable(413, "request body too large")
    start = head_end + 4
    if len(buffer) < start + length:
        return None
    body = bytes(buffer[start:start + length])
    del buffer[:start + length]
    tokens = {token.strip().lower()
              for token in headers.get("connection", "").split(",")}
    keep_alive = version == "HTTP/1.1" and "close" not in tokens
    return method, path, keep_alive, body


@functools.lru_cache(maxsize=None)
def _head_start(status: int) -> str:
    """The response head up to ``Date:``, which every response shares."""
    return (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: {SERVER_NAME}\r\n"
            "Content-Type: application/json\r\n")


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    return email.utils.formatdate(second, usegmt=True)


def _advice_body(advice: Advice) -> bytes:
    """The encoded ``{"advice": ...}`` body."""
    return json.dumps({"advice": advice.to_dict()}).encode("utf-8")


def _response(answer: _Answer, close: bool) -> bytes:
    """One whole HTTP response, ready for a single ``send()``."""
    status, payload = answer
    body = (payload if isinstance(payload, bytes)
            else json.dumps(payload).encode("utf-8"))
    head = (f"{_head_start(status)}"
            f"Date: {_http_date(int(time.time()))}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{_CLOSE if close else ''}\r\n")
    return head.encode("latin-1") + body


def _error(error: BaseException) -> Dict[str, Any]:
    return {"error": f"{type(error).__name__}: {error}"}


def _decode(body: bytes) -> Any:
    if not body:
        raise BadRequest("empty request body")
    try:
        return json.loads(body)
    except ValueError:
        raise BadRequest("request body is not valid JSON") from None


class _Connection:
    """One client socket and its buffers (touched by the loop only)."""

    __slots__ = ("sock", "inbuf", "outbuf", "events", "waiting",
                 "closing")

    def __init__(self, sock: socket.socket) -> None:
        self.sock: Optional[socket.socket] = sock
        self.inbuf = bytearray()
        #: the unsent tail of the current response
        self.outbuf = memoryview(b"")
        #: the selector events registered for ``sock`` (0: none)
        self.events = 0
        #: a miss will answer the current request
        self.waiting = False
        #: the last response is queued; then the connection closes
        self.closing = False


class AdvisoryServer:
    """The advisory HTTP service on one :mod:`selectors` event loop.

    Bound and listening on construction.  :meth:`serve_forever` runs the
    loop on the calling thread until :meth:`shutdown` (from another
    thread) or an exception -- ``KeyboardInterrupt`` under
    ``repro serve``.  :meth:`server_close` then releases every socket.
    """

    def __init__(self, server_address: Tuple[str, int],
                 engine: AdvisoryEngine) -> None:
        self.engine = engine
        self.socket = socket.create_server(server_address,
                                           backlog=LISTEN_BACKLOG)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        #: finished misses, queued by workers: (connection, response,
        #: close after it)
        self._completed: Deque[Tuple[_Connection, bytes, bool]] = \
            collections.deque()
        self._connections: Set[_Connection] = set()
        #: connection -> monotonic time it is dropped at, while it owes
        #: the loop bytes (a partial request) or a read (a blocked
        #: response) or a hang-up (after its last response)
        self._deadlines: Dict[_Connection, float] = {}
        self._stop_requested = False
        self._stopped = threading.Event()
        #: cache hits share one :class:`Advice` per key, so a hot key's
        #: body is encoded once
        self._advice_body = functools.lru_cache(maxsize=1024)(
            _advice_body)

    # -- lifecycle -----------------------------------------------------
    def serve_forever(self) -> None:
        self._stopped.clear()
        try:
            while not self._stop_requested:
                timeout = self._expire()
                for key, events in self._selector.select(timeout):
                    conn = key.data
                    try:
                        self._dispatch(key.fileobj, conn, events)
                    except Exception:  # one connection's fault: drop it
                        import traceback  # loaded only when an error occurs
                        traceback.print_exc()
                        if conn is not None:
                            self._close(conn)
        finally:
            self._stop_requested = False
            self._stopped.set()

    def _dispatch(self, fileobj: Any, conn: Optional[_Connection],
                  events: int) -> None:
        if conn is None:
            if fileobj is self.socket:
                self._accept()
            else:
                self._write_completed()
        elif conn.sock is None:
            return  # closed earlier in this batch
        elif events & selectors.EVENT_WRITE:
            self._send(conn)
            self._serve_buffered(conn)
        else:
            self._read(conn)

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        self._stop_requested = True
        self._wake()
        self._stopped.wait()

    def server_close(self) -> None:
        for conn in list(self._connections):
            self._close(conn)
        self._selector.close()
        self.socket.close()
        self._wake_r.close()
        self._wake_w.close()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:  # buffer full: a wake-up is already pending
            return       # (or the server is closed: nobody to wake)

    # -- sockets -------------------------------------------------------
    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self.socket.accept()
            except OSError:  # no connection left to accept right now
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            self._connections.add(conn)
            self._rearm(conn)

    def _read(self, conn: _Connection) -> None:
        assert conn.sock is not None
        try:
            data = conn.sock.recv(RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._close(conn)
        elif not conn.closing:  # a closing connection's input is dropped
            conn.inbuf += data
            self._serve_buffered(conn)

    def _reply(self, conn: _Connection, data: bytes, close: bool) -> None:
        """Send one response; what the socket does not take now waits in
        ``outbuf`` for the loop's next write event."""
        conn.closing = close
        conn.outbuf = memoryview(data)
        self._send(conn)

    def _send(self, conn: _Connection) -> None:
        assert conn.sock is not None
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        conn.outbuf = conn.outbuf[sent:]
        if not conn.outbuf:
            self._deadlines.pop(conn, None)
            if conn.closing:
                self._half_close(conn)

    def _half_close(self, conn: _Connection) -> None:
        """End our side after the last response; the client's unread
        bytes are drained until it hangs up, so closing does not reset
        the connection under a response it has not read yet."""
        assert conn.sock is not None
        conn.inbuf.clear()
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            self._close(conn)

    def _close(self, conn: _Connection) -> None:
        if conn.sock is None:
            return
        if conn.events:
            self._selector.unregister(conn.sock)
        conn.sock.close()
        conn.sock = None
        self._connections.discard(conn)
        self._deadlines.pop(conn, None)

    def _rearm(self, conn: _Connection) -> None:
        """Register the events ``conn`` waits for, and its deadline."""
        if conn.sock is None:
            return
        if conn.outbuf:
            events = selectors.EVENT_WRITE
        elif conn.waiting:
            events = 0
        else:
            events = selectors.EVENT_READ
        if events != conn.events:
            if not conn.events:
                self._selector.register(conn.sock, events, conn)
            elif not events:
                self._selector.unregister(conn.sock)
            else:
                self._selector.modify(conn.sock, events, conn)
            conn.events = events
        if conn.outbuf or conn.closing or (conn.inbuf and not conn.waiting):
            if conn not in self._deadlines:
                self._deadlines[conn] = (time.monotonic()
                                         + REQUEST_READ_TIMEOUT_S)
        else:
            self._deadlines.pop(conn, None)

    def _expire(self) -> Optional[float]:
        """Drop connections past their deadline; seconds until the next
        deadline (``None``: no deadline pending)."""
        if not self._deadlines:
            return None
        now = time.monotonic()
        for conn in [conn for conn, deadline in self._deadlines.items()
                     if deadline <= now]:
            self._close(conn)
        if not self._deadlines:
            return None
        return max(0.0, min(self._deadlines.values()) - now)

    # -- requests ------------------------------------------------------
    def _serve_buffered(self, conn: _Connection) -> None:
        """Answer the complete requests buffered on ``conn`` in order,
        until one waits on a miss, a response blocks, or the connection
        is closing."""
        while (conn.sock is not None and not conn.waiting
               and not conn.outbuf and not conn.closing):
            try:
                request = _pop_request(conn.inbuf)
            except _Unframeable as error:
                self._reply(conn, _response(
                    (error.status, {"error": str(error)}), close=True),
                    close=True)
                break
            if request is None:
                break
            self._deadlines.pop(conn, None)  # the next request's clock
            method, path, keep_alive, body = request
            data = self._handle(conn, method, path, body, not keep_alive)
            if data is not None:
                self._reply(conn, data, not keep_alive)
        self._rearm(conn)

    def _handle(self, conn: _Connection, method: str, path: str,
                body: bytes, close: bool) -> Optional[bytes]:
        """One request's response, or ``None`` when a miss answers it
        later (see :meth:`_defer`)."""
        if _ROUTES.get(path) != method:
            if method in ("GET", "POST"):
                answer: _Answer = (404, {"error": f"unknown path {path}"})
            else:
                answer = (501, {"error": f"unsupported method {method}"})
            return _response(answer, close)
        if path == "/healthz":
            return _response((200, {"status": "ok"}), close)
        if path == "/metrics":
            return _response((200, self.engine.metrics()), close)
        try:
            payload = _decode(body)
            if path == "/advise":
                pendings, render = self._advise_one(payload)
            else:
                pendings, render = self._advise_batch(payload)
        except BadRequest as error:
            return _response((400, {"error": str(error)}), close)
        except ServiceOverloaded as error:
            return _response((429, {"error": str(error)}), close)
        except Exception as error:  # a search raised: server error
            return _response((500, _error(error)), close)
        if all(pending.done() for pending in pendings):
            return _response(render(), close)
        conn.waiting = True
        self._defer(conn, pendings, render, close)
        return None

    def _defer(self, conn: _Connection, pendings: List[_Pending],
               render: Callable[[], _Answer], close: bool) -> None:
        """Answer ``conn`` once every handle in ``pendings`` finishes.

        Adds a done-callback to the first unfinished handle (other
        connections may wait on the same one); it runs on the worker
        that finishes the handle and moves on to the next, and the last
        one encodes the response, queues it and wakes the loop.
        """
        for pending in pendings:
            if not pending.done():
                pending.add_done_callback(
                    lambda _: self._defer(conn, pendings, render, close))
                return
        self._completed.append((conn, _response(render(), close), close))
        self._wake()

    def _write_completed(self) -> None:
        """Drain the wake-ups and send the responses misses queued."""
        try:
            self._wake_r.recv(RECV_BYTES)
        except BlockingIOError:
            return
        while self._completed:
            conn, data, close = self._completed.popleft()
            if conn.sock is None:
                continue  # the client left while its miss ran
            conn.waiting = False
            self._reply(conn, data, close)
            self._serve_buffered(conn)

    def _advise_one(
        self, payload: Any
    ) -> Tuple[List[_Pending], Callable[[], _Answer]]:
        plan, stats, scheme = parse_advise_body(payload)
        pending = self.engine.submit(plan, stats, scheme)

        def render() -> _Answer:
            try:
                return 200, self._advice_body(pending.result())
            except Exception as error:  # the search raised
                return 500, _error(error)

        return [pending], render

    def _advise_batch(
        self, payload: Any
    ) -> Tuple[List[_Pending], Callable[[], _Answer]]:
        if not isinstance(payload, dict) or not isinstance(
            payload.get("requests"), list
        ):
            raise BadRequest("batch body must be "
                             "{'requests': [<advise body>, ...]}")
        # submit everything first so identical entries coalesce and
        # distinct entries overlap; answer in order once all finished
        entries: List[Tuple[Optional[_Pending], Optional[str]]] = []
        for entry in payload["requests"]:
            try:
                plan, stats, scheme = parse_advise_body(entry)
                entries.append(
                    (self.engine.submit(plan, stats, scheme), None)
                )
            except BadRequest as error:
                entries.append((None, str(error)))
            except ServiceOverloaded as error:
                entries.append((None, f"shed: {error}"))
            except ValueError as error:  # an unknown scheme
                entries.append((None, f"{type(error).__name__}: "
                                      f"{error}"))

        def render() -> _Answer:
            results: List[Dict[str, Any]] = []
            for pending, error_text in entries:
                if pending is None:
                    results.append({"error": error_text})
                    continue
                try:
                    results.append({"advice": pending.result().to_dict()})
                except Exception as error:
                    results.append(_error(error))
            return 200, {"results": results}

        return [pending for pending, _ in entries
                if pending is not None], render


def create_server(
    engine: AdvisoryEngine,
    host: str = "127.0.0.1",
    port: int = 0,
) -> AdvisoryServer:
    """A bound (not yet serving) HTTP server wired to ``engine``.

    ``port=0`` binds an ephemeral port (tests and the load harness read
    ``server.server_address``).  The caller owns the engine lifecycle:
    ``engine.start(...)`` before serving, ``engine.stop()`` after
    ``server.shutdown()``.
    """
    return AdvisoryServer((host, port), engine)


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
