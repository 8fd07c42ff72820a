"""Single-threaded event-loop HTTP front: the service's only front.

One :mod:`selectors` loop multiplexes every client connection of the
partition service: the loop thread owns all connection state (parse
buffers, pipelining windows, write queues) and never blocks on request
execution.  A request takes one of two paths, chosen from what it
shows:

* **held answers, on the loop thread** — a digest-only ``POST
  /v1/partition`` whose body is at most :data:`MAX_INLINE_BODY` bytes
  and whose answer the service already holds.  The loop hands the body
  to :func:`repro.service.http.held_response` (the route's own module
  parses it and asks the service's ``held_answer``, which counts the
  hit) and queues the response bytes itself: no pool submit, no
  completion-queue entry, no wake byte.  Any error there, like a miss,
  sends the request to the pool, which answers it.
* **everything else, on the worker pool** — every other request, and a
  digest-only request whose answer is not held, runs the route table
  (:func:`repro.service.http.dispatch_request`) on a small worker pool,
  which posts the finished response back through a completion queue
  plus a wake socket.  The pool's ``submit`` counts the miss.

:func:`repro.service.http.make_server` builds it.

Protocol surface:

* **HTTP/1.1 keep-alive** — connections persist across requests
  (HTTP/1.0 closes unless the client asks to keep alive), so a client
  pays connection setup once, not per request.
* **Pipelining** — up to :data:`MAX_PIPELINE_DEPTH` requests per
  connection may be in flight at once; responses are written strictly
  in request order (each request gets a per-connection sequence number,
  and a response that overtakes an earlier request, such as a held
  answer behind a miss, parks in a reorder window).  Above the cap
  the connection's read interest is dropped — TCP backpressure, not
  unbounded buffering.
* **Bounded inputs** — request heads over :data:`MAX_HEADER_BYTES`
  answer ``431``, bodies over :data:`~repro.service.http.
  MAX_BODY_BYTES` answer ``413``, chunked uploads answer ``501``; all
  three then close cleanly.  Malformed request lines, and a
  Content-Length that is not ASCII digits or disagrees with another
  Content-Length (RFC 9112 §6.3), answer ``400`` and close.

Threading contract (asserted by the LockWitness stress test): the only
lock of its own is the completion-queue mutex, a leaf held for a deque
append/pop only — never across a socket send, never while another lock
is held.  The wake-socket write happens *outside* it.  The held-answer
path runs on the loop thread with no loop lock held and takes only the
service's leaf locks (its answer LRU, metrics registry and span ring)
and no I/O: a service whose tracer writes a JSONL file holds no answer
for the loop, so its hits go to the pool.  Everything else is
loop-thread-owned and needs no lock at all.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from .http import (
    MAX_BODY_BYTES,
    dispatch_request,
    held_response,
    keeps_alive,
    parse_headers,
)

__all__ = [
    "EventLoopHTTPServer",
    "MAX_HEADER_BYTES",
    "MAX_INLINE_BODY",
    "MAX_PIPELINE_DEPTH",
]

#: request-head ceiling (request line + headers); a head that exceeds
#: it answers 431 and closes
MAX_HEADER_BYTES = 64 << 10

#: per-connection cap on pipelined in-flight requests; beyond it the
#: connection's read interest is dropped until responses drain
MAX_PIPELINE_DEPTH = 32

#: largest request body the loop thread looks at itself: a digest-only
#: ``POST /v1/partition`` is a few hundred bytes.  A larger body, and
#: any request whose answer the service does not hold, goes to the pool
MAX_INLINE_BODY = 4 << 10

#: bytes pulled off a readable socket per loop iteration
_READ_CHUNK = 256 << 10

#: pipeline-depth histogram bounds (requests in flight per connection)
_DEPTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


def _response_bytes(
    status: int, content_type: str, body: bytes, close: bool
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


def _error_bytes(status: int, message: str, close: bool = True) -> bytes:
    body = json.dumps({"error": message}).encode()
    return _response_bytes(status, "application/json", body, close)


class _Connection:
    """Loop-owned state machine of one client connection.

    States are implicit in the fields: reading heads/bodies from
    ``inbuf``, dispatching parsed requests (``in_flight`` > 0), parking
    out-of-order completions in ``ready``, draining ``outbuf``, and
    closing (``closing`` set: no further reads, the connection dies
    once every queued byte is written).  Every field is touched by the
    loop thread only — connection state carries **no lock**.
    """

    __slots__ = (
        "sock", "events", "inbuf", "outbuf", "out_off",
        "next_seq", "next_send", "ready", "in_flight",
        "closing", "paused",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.events = 0           # currently registered selector mask
        self.inbuf = bytearray()
        self.outbuf: deque = deque()  # queued response byte blocks
        self.out_off = 0          # progress into outbuf[0]
        self.next_seq = 0         # sequence assigned to the next request
        self.next_send = 0        # sequence the next written response has
        self.ready: dict = {}     # seq -> (response bytes, close_after)
        self.in_flight = 0        # dispatched, response not yet queued
        self.closing = False      # stop reading; close once drained
        self.paused = False       # read interest dropped (backpressure)


class EventLoopHTTPServer:
    """Selectors event-loop front over one service.

    Exposes the :mod:`socketserver`-style surface — ``server_address``,
    ``service``, :meth:`serve_forever`, :meth:`shutdown`,
    :meth:`server_close` — that the CLI, benchmarks, and tests drive.
    """

    def __init__(
        self,
        address: tuple,
        service,
        max_pipeline: int = MAX_PIPELINE_DEPTH,
        workers: int = 16,
    ) -> None:
        self.service = service
        self.max_pipeline = int(max_pipeline)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(address)
        self._listener.listen(1024)
        self._listener.setblocking(False)
        self.server_address = self._listener.getsockname()
        self._sel = selectors.DefaultSelector()
        # wake pipe: workers poke one byte to pull the loop out of select
        self._wake_recv_sock, self._wake_send_sock = socket.socketpair()
        self._wake_recv_sock.setblocking(False)
        self._wake_send_sock.setblocking(False)
        #: completion-queue mutex — a leaf lock: held for deque ops only,
        #: never across any socket call (see module docstring)
        self._mutex = threading.Lock()
        self._completions: deque = deque()
        self._pool = ThreadPoolExecutor(
            max_workers=int(workers), thread_name_prefix="http-worker"
        )
        self._conns: dict = {}     # fd -> _Connection
        self._shut = threading.Event()
        self._stopped = threading.Event()
        self._stopped.set()        # not running yet
        self._registry = getattr(service, "registry", None)
        self._connections_total = 0
        self._in_flight_total = 0
        if self._registry is not None:
            self._registry.gauge_fn(
                "repro_http_inflight_requests",
                lambda: [({}, float(max(self._in_flight_total, 0)))],
            )

    # -- lifecycle -----------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Run the loop until :meth:`shutdown` (``poll_interval`` kept
        for signature parity; the wake socket makes polling needless)."""
        self._shut.clear()
        self._stopped.clear()
        self._sel.register(self._listener, selectors.EVENT_READ, "accept")
        self._sel.register(self._wake_recv_sock, selectors.EVENT_READ, "wake")
        try:
            while not self._shut.is_set():
                for key, events in self._sel.select():
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wake":
                        self._drained_wake()
                    else:
                        conn = key.data
                        if events & selectors.EVENT_WRITE:
                            self._on_writable(conn)
                        if (
                            events & selectors.EVENT_READ
                            and conn.sock.fileno() >= 0
                        ):
                            self._on_readable(conn)
                self._drain_completions()
        finally:
            for conn in list(self._conns.values()):
                self._close(conn)
            for sock in (self._listener, self._wake_recv_sock):
                try:
                    self._sel.unregister(sock)
                except (KeyError, ValueError):
                    pass
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait for the loop to exit."""
        self._shut.set()
        self._wake()
        self._stopped.wait()

    def server_close(self) -> None:
        """Release sockets and the worker pool (call after shutdown)."""
        self._shut.set()
        for sock in (
            self._listener, self._wake_recv_sock, self._wake_send_sock
        ):
            try:
                sock.close()
            except OSError:  # pragma: no cover - double close
                pass
        self._sel.close()
        self._pool.shutdown(wait=True, cancel_futures=True)

    # -- loop internals ------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_send_sock.send(b"\x00")
        except (BlockingIOError, InterruptedError):
            pass  # a wake byte is already pending — good enough
        except OSError:
            pass  # shutdown race: loop already gone

    def _drained_wake(self) -> None:
        try:
            while self._wake_recv_sock.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:  # pragma: no cover - shutdown race
            pass

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed mid-accept (shutdown)
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP sockets
                pass
            conn = _Connection(sock)
            self._conns[sock.fileno()] = conn
            self._set_events(conn, selectors.EVENT_READ)
            self._connections_total += 1
            if self._registry is not None:
                self._registry.inc("repro_http_connections_total")
                self._registry.set_gauge(
                    "repro_http_connections_open", len(self._conns)
                )

    def _set_events(self, conn: _Connection, events: int) -> None:
        if events == conn.events:
            return
        if conn.events == 0:
            self._sel.register(conn.sock, events, conn)
        elif events == 0:
            self._sel.unregister(conn.sock)
        else:
            self._sel.modify(conn.sock, events, conn)
        conn.events = events

    def _close(self, conn: _Connection) -> None:
        fd = conn.sock.fileno()
        if fd < 0:
            return
        if conn.events:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):  # pragma: no cover - raced
                pass
            conn.events = 0
        self._conns.pop(fd, None)
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - double close
            pass
        # late completions for this connection are dropped by the
        # fileno() guard in _drain_completions
        self._in_flight_total -= conn.in_flight
        conn.in_flight = 0
        conn.ready.clear()
        conn.outbuf.clear()
        if self._registry is not None:
            self._registry.set_gauge(
                "repro_http_connections_open", len(self._conns)
            )

    # -- reading & parsing ---------------------------------------------

    def _on_readable(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_READ_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        if not data:
            # peer finished sending; anything mid-parse is abandoned,
            # but queued and in-flight responses still drain
            conn.closing = True
            if conn.in_flight == 0 and not conn.outbuf and not conn.ready:
                self._close(conn)
            else:
                self._set_events(
                    conn, conn.events & ~selectors.EVENT_READ
                )
            return
        conn.inbuf += data
        self._parse(conn)

    def _parse(self, conn: _Connection) -> None:
        """Serve every complete pipelined request in ``inbuf``, then
        write what is ready."""
        while not conn.closing:
            if conn.in_flight >= self.max_pipeline:
                conn.paused = True
                self._set_events(conn, conn.events & ~selectors.EVENT_READ)
                break
            head_end = conn.inbuf.find(b"\r\n\r\n")
            if head_end < 0:
                if len(conn.inbuf) > MAX_HEADER_BYTES:
                    self._reject(
                        conn, 431,
                        f"request head over {MAX_HEADER_BYTES} bytes",
                    )
                break
            try:
                method, target, accept, keep_alive, length, chunked = (
                    self._parse_head(bytes(conn.inbuf[:head_end]))
                )
            except ValueError as exc:
                self._reject(conn, 400, str(exc))
                break
            if chunked:
                self._reject(
                    conn, 501, "chunked request bodies are not supported"
                )
                break
            if length > MAX_BODY_BYTES:
                self._reject(
                    conn, 413, f"request body over {MAX_BODY_BYTES} bytes"
                )
                break
            total = head_end + 4 + length
            if len(conn.inbuf) < total:
                break  # body still in flight
            body = bytes(conn.inbuf[head_end + 4:total])
            del conn.inbuf[:total]
            self._dispatch(conn, method, target, body, accept, keep_alive)
        if conn.outbuf:
            self._on_writable(conn)

    @staticmethod
    def _parse_head(head: bytes) -> tuple[str, str, str, bool, int, bool]:
        """``(method, target, accept, keep_alive, content_length,
        chunked)`` of one request head; :class:`ValueError` = 400."""
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ValueError(f"malformed request line: {lines[0]!r}")
        method, target, version = parts
        headers = parse_headers(lines[1:])
        return (
            method,
            target,
            headers.get("accept", ""),
            keeps_alive(version, headers),
            int(headers.get("content-length", "0")),
            "chunked" in headers.get("transfer-encoding", "").lower(),
        )

    def _reject(self, conn: _Connection, status: int, message: str) -> None:
        """Protocol-level failure: answer in sequence, then close."""
        seq = conn.next_seq
        conn.next_seq += 1
        conn.in_flight += 1
        self._in_flight_total += 1
        conn.closing = True  # stop parsing; drain and die
        self._set_events(conn, conn.events & ~selectors.EVENT_READ)
        self._queue(conn, seq, _error_bytes(status, message), True)

    def _dispatch(
        self,
        conn: _Connection,
        method: str,
        target: str,
        body: bytes,
        accept: str,
        keep_alive: bool,
    ) -> None:
        seq = conn.next_seq
        conn.next_seq += 1
        conn.in_flight += 1
        self._in_flight_total += 1
        if not keep_alive:
            # no pipelining past an explicit close: stop reading now
            conn.closing = True
            self._set_events(conn, conn.events & ~selectors.EVENT_READ)
        if self._registry is not None:
            self._registry.observe(
                "repro_http_pipeline_depth",
                conn.in_flight,
                buckets=_DEPTH_BUCKETS,
            )
        held = (
            held_response(self.service, method, target, body)
            if len(body) <= MAX_INLINE_BODY
            else None
        )
        if held is not None:
            self._queue(
                conn, seq, _response_bytes(*held, not keep_alive),
                not keep_alive,
            )
            return
        self._pool.submit(
            self._run, conn, seq, method, target, body, accept,
            not keep_alive,
        )

    # -- execution (worker threads) ------------------------------------

    def _run(
        self,
        conn: _Connection,
        seq: int,
        method: str,
        target: str,
        body: bytes,
        accept: str,
        close_after: bool,
    ) -> None:
        try:
            status, ctype, out = dispatch_request(
                self.service, method, target, body, accept
            )
        # repro: allow[BROAD-EXCEPT] — dispatch_request already maps every
        # error; this is the can't-happen boundary keeping seq accounting
        # intact (a lost completion would stall the connection forever)
        except Exception as exc:  # pragma: no cover - defensive boundary
            status, ctype, out = (
                500,
                "application/json",
                json.dumps({"error": f"internal error: {exc}"}).encode(),
            )
        self._finish(
            conn, seq, _response_bytes(status, ctype, out, close_after),
            close_after,
        )

    def _finish(
        self, conn: _Connection, seq: int, response: bytes, close_after: bool
    ) -> None:
        """Post one finished response to the loop (any thread)."""
        with self._mutex:
            self._completions.append((conn, seq, response, close_after))
        # wake OUTSIDE the mutex: the mutex must never be held across a
        # socket call (it is the only lock shared with the loop thread)
        self._wake()

    # -- completion & writing (loop thread) ----------------------------

    def _drain_completions(self) -> None:
        while True:
            with self._mutex:
                if not self._completions:
                    return
                conn, seq, response, close_after = self._completions.popleft()
            if conn.sock.fileno() < 0:
                continue  # connection died while the request ran
            self._queue(conn, seq, response, close_after)
            if conn.outbuf:
                self._on_writable(conn)
            if (
                conn.paused
                and not conn.closing
                and conn.in_flight < self.max_pipeline
                and conn.sock.fileno() >= 0
            ):
                conn.paused = False
                self._set_events(conn, conn.events | selectors.EVENT_READ)
                self._parse(conn)  # buffered pipelined requests, if any

    def _queue(
        self, conn: _Connection, seq: int, response: bytes, close_after: bool
    ) -> None:
        """Slot one response into ``conn``'s send queue in request order;
        one that overtook an earlier request parks in ``ready``."""
        conn.ready[seq] = (response, close_after)
        while conn.next_send in conn.ready:
            resp, close = conn.ready.pop(conn.next_send)
            conn.next_send += 1
            conn.in_flight -= 1
            self._in_flight_total -= 1
            conn.outbuf.append(resp)
            if close:
                conn.closing = True

    def _on_writable(self, conn: _Connection) -> None:
        try:
            while conn.outbuf:
                block = conn.outbuf[0]
                sent = conn.sock.send(memoryview(block)[conn.out_off:])
                conn.out_off += sent
                if conn.out_off >= len(block):
                    conn.outbuf.popleft()
                    conn.out_off = 0
        except (BlockingIOError, InterruptedError):
            self._set_events(conn, conn.events | selectors.EVENT_WRITE)
            return
        except OSError:
            self._close(conn)
            return
        # fully drained
        self._set_events(conn, conn.events & ~selectors.EVENT_WRITE)
        if conn.closing and conn.in_flight == 0 and not conn.ready:
            self._close(conn)

    def __repr__(self) -> str:
        host, port = self.server_address[:2]
        return (
            f"EventLoopHTTPServer(address={host}:{port}, "
            f"connections={len(self._conns)})"
        )
