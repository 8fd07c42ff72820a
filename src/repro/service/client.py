"""Clients for the partition service.

Two interchangeable clients expose the same verbs (``partition``,
``refine``, ``open_session``, ``update_session``, ``close_session``,
``stats``) returning the same :class:`JobResult` objects:

* :class:`ServiceClient` drives an in-process
  :class:`~repro.service.core.PartitionService` directly — zero
  serialization, the right tool for embedding the service in a Python
  application or benchmark;
* :class:`HTTPServiceClient` speaks the JSON endpoint of
  :mod:`repro.service.http` in lean HTTP/1.1 over a **persistent
  keep-alive connection** (one ``TCP_NODELAY`` socket per thread,
  reconnecting automatically; each request is one ``sendall`` and each
  response is read by a strict Content-Length reader) — the right tool
  from another process or machine, and the pairing for the event-loop
  front: a client-side benchmark measures the server, not per-request
  TCP setup or header parsing.  It ships each graph to its server
  once: a later ``partition`` of the same graph sends the graph's
  digest alone, and a ``409 needs_graph`` answer (the server no longer
  holds the graph) resends once with the graph.  ``close()`` closes
  the connections of every thread, and the client works as a context
  manager.

Because both run the identical service core, a test or traffic replay
written against one client holds for the other.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import weakref
from typing import Optional, Sequence
from urllib.parse import urlsplit

import numpy as np

from ..errors import NeedsGraph, ServiceError, ShardDiedError, UnknownSession
from ..graphs.csr import CSRGraph
from .cache import ShippedLRU, graph_digest
from .core import PartitionService
from .http import keeps_alive, parse_headers
from .models import (
    JobResult,
    PartitionRequest,
    RefineRequest,
    UpdateRequest,
    graph_to_wire,
)

__all__ = ["ServiceClient", "HTTPServiceClient"]

#: graphs an :class:`HTTPServiceClient` remembers having shipped.  A
#: remembered graph the server has dropped costs one 409 and a resend,
#: so the bound caps memory only; it exceeds the graphs the server's
#: default graph store holds at the paper's mesh sizes.
SHIPPED_DIGESTS = 1024

#: response-head ceiling (status line plus headers) of the client's
#: reader, the front's request-head ceiling mirrored
MAX_RESPONSE_HEAD = 64 << 10

#: bytes asked of one ``recv`` while a response head is incomplete
_RECV_CHUNK = 64 << 10


class ServiceClient:
    """Programmatic client (owns its service by default).

    ``shards=N`` builds a digest-sharded
    :class:`~repro.service.sharding.ShardedPartitionService` of N
    worker processes instead of an in-process service;
    ``attach=["host:port", ...]`` builds the same front over remote
    socket shards (``serve --shard-listen``).  The client API (and
    every answer) is identical either way.  An explicit ``service`` may
    be a :class:`PartitionService` or a sharded front.
    """

    def __init__(
        self,
        service: Optional[PartitionService] = None,
        shards: int = 0,
        attach: Optional[Sequence[str]] = None,
        **kwargs,
    ) -> None:
        if service is not None and (shards or attach):
            raise ServiceError(
                "pass either an explicit service or shards/attach, not both"
            )
        if shards and attach:
            raise ServiceError(
                "pass either shards=N (local workers) or attach (remote "
                "workers), not both"
            )
        self._owns = service is None
        if service is None:
            if attach:
                from .sharding import ShardedPartitionService

                service = ShardedPartitionService(
                    attach=list(attach), **kwargs
                )
            elif shards:
                from .sharding import ShardedPartitionService

                service = ShardedPartitionService(n_shards=shards, **kwargs)
            else:
                service = PartitionService(**kwargs)
        self.service = service

    # -- verbs ---------------------------------------------------------
    def _submit_idempotent(self, request) -> JobResult:
        """Submit a stateless request, retrying **once** if the owning
        shard died mid-call.  Safe only because ``partition``/``refine``
        are pure functions of the request (same seed → same answer): a
        replay against the restarted or re-ringed shard returns the
        bit-identical result.  Session updates are never retried here —
        a replayed update would advance the session's RNG stream twice
        and break bit-identity."""
        try:
            return self.service.submit(request)
        except ShardDiedError:
            return self.service.submit(request)

    def partition(self, graph: CSRGraph, n_parts: int, **kwargs) -> JobResult:
        return self._submit_idempotent(
            PartitionRequest(graph, n_parts, **kwargs)
        )

    def refine(
        self, graph: CSRGraph, n_parts: int, assignment: np.ndarray, **kwargs
    ) -> JobResult:
        return self._submit_idempotent(
            RefineRequest(graph, n_parts, assignment, **kwargs)
        )

    def submit_many(self, requests: Sequence) -> list[JobResult]:
        return self.service.submit_many(requests)

    def open_session(self, graph: CSRGraph, n_parts: int, **kwargs) -> JobResult:
        return self.service.open_session(graph, n_parts, **kwargs)

    def update_session(self, session_id: str, graph: CSRGraph) -> JobResult:
        return self.service.update_session(UpdateRequest(session_id, graph))

    def close_session(self, session_id: str) -> dict:
        return self.service.close_session(session_id)

    def stats(self) -> dict:
        return self.service.stats()

    def metrics(self) -> dict:
        """The unified :mod:`repro.obs` metrics snapshot (merged across
        shards when the service is a sharded front)."""
        return self.service.metrics()

    def ring_admin(self, action: str, **kwargs) -> dict:
        """Ring admin passthrough (``status``/``resize``/``add_shard``/
        ``remove_shard``/``eject``/``readmit``) — sharded fronts only."""
        if not hasattr(self.service, "ring_admin"):
            raise ServiceError(
                "ring administration needs a sharded service "
                "(shards=N or attach=[...])"
            )
        return self.service.ring_admin(action, **kwargs)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._owns:
            self.service.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class HTTPServiceClient:
    """JSON-over-HTTP client for a running ``repro-partition serve``.

    The transport is lean HTTP/1.1 on a persistent keep-alive
    connection: each thread using the client owns one ``TCP_NODELAY``
    socket, reused across requests and reopened transparently when the
    server closes it (idle timeout, restart).  A request goes out in
    one ``sendall`` (head and body), and its response is read by a
    strict Content-Length reader (:func:`_read_response`).  A request
    is retried once, on a fresh connection, only when it failed on a
    *reused* connection before any response byte arrived and not by a
    timeout: that is the inherent keep-alive race (the server closed
    the idle connection just as the request departed).  A timeout, a
    failure after any response byte, or a failure on a fresh
    connection is never retried: the service may have seen the
    request, and replaying e.g. a session update must be the caller's
    explicit decision.  :meth:`close` (or leaving a ``with`` block)
    closes every connection the client opened, from any thread, and a
    thread's connection also closes when that thread exits.

    ``partition`` is digest-first: the client remembers (in a bounded
    :class:`~repro.service.cache.ShippedLRU` shared by its threads) the
    graphs it has shipped to this server, and sends a shipped graph's
    ``graph_digest`` in place of the graph.  A ``409`` with
    ``needs_graph`` surfaces as :class:`~repro.errors.NeedsGraph` and
    ``partition`` resends once with the graph; a ``503`` surfaces as
    :class:`~repro.errors.ShardDiedError`, and a session verb's ``404``
    as :class:`~repro.errors.UnknownSession`.
    """

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", ""):
            raise ServiceError(
                f"HTTPServiceClient speaks plain http, got {base_url!r}"
            )
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port or 80
        self._netloc = parts.netloc or f"{self._host}:{self._port}"
        self._prefix = parts.path.rstrip("/")
        self._local = threading.local()  # per-thread :class:`_Slot`
        self._slots = itertools.count()
        #: every socket the client holds open, by its thread's slot key;
        #: one dict operation is atomic, so :meth:`close` needs no lock
        #: to take them all
        self._open: dict[int, socket.socket] = {}
        self._shipped = ShippedLRU(SHIPPED_DIGESTS)

    # -- transport -----------------------------------------------------
    def _slot(self) -> "_Slot":
        """This thread's slot: only the thread's ``threading.local``
        holds it, so it dies with the thread, and its finalizer then
        closes the thread's socket."""
        slot = getattr(self._local, "slot", None)
        if slot is None:
            slot = self._local.slot = _Slot(next(self._slots))
            weakref.finalize(slot, _close_socket, self._open, slot.key)
        return slot

    def _connection(self) -> tuple[socket.socket, bool]:
        """This thread's socket and whether it is being *reused*."""
        key = self._slot().key
        sock = self._open.get(key)
        if sock is not None:
            return sock, True
        sock = socket.create_connection(
            (self._host, self._port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._open[key] = sock
        return sock, False

    def _drop_connection(self) -> None:
        _close_socket(self._open, self._slot().key)

    def close(self) -> None:
        """Close every connection this client opened, on every thread
        (idempotent; the next request on any thread reconnects).  Call
        it once no other thread has a request in flight.  A thread's
        connection also closes when the thread exits."""
        while True:
            try:
                _, sock = self._open.popitem()
            except KeyError:
                return
            sock.close()

    def __enter__(self) -> "HTTPServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(
        self, method: str, path: str, body: Optional[bytes], headers: dict
    ) -> tuple[int, bytes]:
        url = f"{self.base_url}{path}"
        head = [f"{method} {self._prefix}{path} HTTP/1.1",
                f"Host: {self._netloc}"]
        head += [f"{name}: {value}" for name, value in headers.items()]
        if body is not None:
            head.append(f"Content-Length: {len(body)}")
        message = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
        message += body or b""
        for attempt in (0, 1):
            received = bytearray()
            reused = False
            try:
                sock, reused = self._connection()
                sock.sendall(message)
                status, data, keep_alive = _read_response(sock, received)
            except TimeoutError as exc:
                self._drop_connection()
                raise ServiceError(
                    f"{url} did not answer within {self.timeout:g} s"
                ) from exc
            except OSError as exc:
                self._drop_connection()
                if reused and attempt == 0 and not received:
                    # stale keep-alive: the server closed the idle
                    # connection under us before answering; one retry on
                    # a fresh connection is safe
                    continue
                raise ServiceError(
                    f"cannot reach service at {url}: {exc}"
                ) from exc
            except ValueError as exc:
                self._drop_connection()
                raise ServiceError(
                    f"{url} answered malformed HTTP: {exc}"
                ) from exc
            if not keep_alive:
                self._drop_connection()
            return status, data
        raise ServiceError(f"cannot reach service at {url}: retries exhausted")

    def _call(self, path: str, payload: Optional[dict] = None) -> dict:
        if payload is None:
            status, data = self._request("GET", path, None, {})
        else:
            status, data = self._request(
                "POST", path, json.dumps(payload).encode(),
                {"Content-Type": "application/json"},
            )
        if status >= 400:
            try:
                body = json.loads(data.decode())
            except (ValueError, UnicodeDecodeError):
                body = None
            if not isinstance(body, dict):
                body = {}
            message = (
                f"{path} failed with HTTP {status}: "
                f"{body.get('error', f'HTTP {status}')}"
            )
            if status == 409 and body.get("needs_graph") is True:
                raise NeedsGraph(message)
            if status == 404 and path.startswith("/v1/session/"):
                raise UnknownSession(message)
            if status == 503:
                raise ShardDiedError(message)
            raise ServiceError(message)
        try:
            return json.loads(data.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceError(
                f"{path} answered malformed JSON: {exc}"
            ) from exc

    def _call_idempotent(self, path: str, payload: dict) -> dict:
        """POST a stateless request, retrying **once** on
        :class:`ShardDiedError` (HTTP 503: the front answering "the
        owning shard died mid-call").  Safe only for
        ``partition``/``refine``: they are pure functions of the
        request, so the replay — now routed by the post-ejection ring —
        returns the bit-identical result.  Session updates never take
        this path: replaying one would advance the session's RNG stream
        twice and break bit-identity."""
        try:
            return self._call(path, payload)
        except ShardDiedError:
            return self._call(path, payload)

    # -- verbs ---------------------------------------------------------
    def partition(self, graph: CSRGraph, n_parts: int, **kwargs) -> JobResult:
        """Partition ``graph``; a graph this client already shipped to
        the server travels as its digest (see the class docstring)."""
        digest = graph_digest(graph)
        if self._shipped.seen(digest):
            request = PartitionRequest(
                None, n_parts, graph_digest=digest, **kwargs
            )
            try:
                return JobResult.from_payload(
                    self._call_idempotent("/v1/partition", request.to_payload())
                )
            except NeedsGraph:
                pass  # the server no longer holds the graph: ship it
        payload = PartitionRequest(graph, n_parts, **kwargs).to_payload()
        out = self._call_idempotent("/v1/partition", payload)
        self._shipped.mark(digest)
        return JobResult.from_payload(out)

    def refine(
        self, graph: CSRGraph, n_parts: int, assignment: np.ndarray, **kwargs
    ) -> JobResult:
        payload = RefineRequest(graph, n_parts, assignment, **kwargs).to_payload()
        return JobResult.from_payload(
            self._call_idempotent("/v1/refine", payload)
        )

    def open_session(self, graph: CSRGraph, n_parts: int, **kwargs) -> JobResult:
        payload = {
            "graph": graph_to_wire(graph),
            "n_parts": int(n_parts),
            **kwargs,
        }
        return JobResult.from_payload(self._call("/v1/session/open", payload))

    def update_session(self, session_id: str, graph: CSRGraph) -> JobResult:
        payload = UpdateRequest(session_id, graph).to_payload()
        return JobResult.from_payload(self._call("/v1/session/update", payload))

    def close_session(self, session_id: str) -> dict:
        return self._call("/v1/session/close", {"session_id": session_id})

    def stats(self) -> dict:
        return self._call("/v1/stats")

    def metrics(self) -> dict:
        """``/v1/metrics`` as JSON (the unified snapshot schema)."""
        return self._call("/v1/metrics")

    def metrics_text(self) -> str:
        """``/v1/metrics`` in Prometheus text exposition format."""
        path = "/v1/metrics?format=prometheus"
        status, data = self._request("GET", path, None, {})
        if status >= 400:
            raise ServiceError(f"{path} failed with HTTP {status}")
        return data.decode()

    def healthy(self) -> bool:
        try:
            return bool(self._call("/v1/healthz").get("ok"))
        except ServiceError:
            return False

    # -- ring administration (sharded fronts only) ---------------------
    def ring_status(self) -> dict:
        """``GET /v1/admin/ring`` — ring description + per-shard health."""
        return self._call("/v1/admin/ring")

    def ring_resize(self, n_shards: int) -> dict:
        """Grow or shrink the fleet to ``n_shards`` workers."""
        return self._call(
            "/v1/admin/ring", {"action": "resize", "n_shards": int(n_shards)}
        )

    def ring_eject(self, shard: int) -> dict:
        """Take ``shard`` out of the ring (reversible; no state moves)."""
        return self._call("/v1/admin/ring", {"action": "eject", "shard": int(shard)})

    def ring_readmit(self, shard: int) -> dict:
        """Put a recovered ``shard`` back into the ring (warm-seeds it)."""
        return self._call(
            "/v1/admin/ring", {"action": "readmit", "shard": int(shard)}
        )


class _Slot:
    """One thread's claim on an :class:`HTTPServiceClient` connection:
    the key of the thread's socket in the client's open-socket table."""

    __slots__ = ("key", "__weakref__")

    def __init__(self, key: int) -> None:
        self.key = key


def _close_socket(open_sockets: dict, key: int) -> None:
    """Close and forget the socket held under ``key``, if any."""
    sock = open_sockets.pop(key, None)
    if sock is not None:
        sock.close()


def _read_response(
    sock: socket.socket, buf: bytearray
) -> tuple[int, bytes, bool]:
    """Read one HTTP/1.1 response off ``sock``: ``(status, body,
    keep_alive)``.

    Every byte read lands in ``buf``, so a caller can tell whether any
    of the response arrived.  The reader is strict: the head must carry
    one Content-Length (:func:`~repro.service.http.parse_headers`' rule)
    and no Transfer-Encoding, and nothing may follow the body, since a
    keep-alive peer sends no response it was not asked for.  A
    malformed response raises :class:`ValueError`, the peer closing
    before the response ends :class:`ConnectionError`."""
    head_end = buf.find(b"\r\n\r\n")
    while head_end < 0:
        if len(buf) > MAX_RESPONSE_HEAD:
            raise ValueError(f"response head over {MAX_RESPONSE_HEAD} bytes")
        chunk = sock.recv(_RECV_CHUNK)
        if not chunk:
            raise ConnectionError(
                "server closed the connection"
                + (" mid-response" if buf else "")
            )
        buf += chunk
        head_end = buf.find(b"\r\n\r\n", max(0, len(buf) - len(chunk) - 3))
    lines = buf[:head_end].decode("latin-1").split("\r\n")
    version, _, rest = lines[0].partition(" ")
    code = rest[:3]
    if (
        not version.startswith("HTTP/1.")
        or not (code.isascii() and code.isdigit())
        or rest[3:4] not in ("", " ")
    ):
        raise ValueError(f"malformed status line: {lines[0]!r}")
    headers = parse_headers(lines[1:])
    if "transfer-encoding" in headers:
        raise ValueError("a Transfer-Encoding response is not supported")
    if "content-length" not in headers:
        raise ValueError("response without Content-Length")
    start = head_end + 4
    end = start + int(headers["content-length"])
    if len(buf) > end:
        raise ValueError("bytes after the response body")
    got = len(buf)
    if got < end:
        buf += bytes(end - got)
        with memoryview(buf) as view:
            while got < end:
                n = sock.recv_into(view[got:end])
                if not n:
                    raise ConnectionError(
                        "server closed the connection mid-response"
                    )
                got += n
    return int(code), bytes(buf[start:end]), keeps_alive(version, headers)
