"""Stdlib HTTP frontend for the partition service.

A thin JSON layer over :class:`~repro.service.core.PartitionService`.
:func:`dispatch_request` is the route table; the connection front that
feeds it is :class:`~repro.service.eventloop.EventLoopHTTPServer`, a
single-threaded :mod:`selectors` loop multiplexing thousands of
keep-alive connections with pipelined in-flight requests (see
:mod:`repro.service.eventloop`).  :func:`held_response` is the one
route the front serves on its loop thread: the same ``/v1/partition``
response, for a digest-only request whose answer is already held.  The
endpoint schema:

====================  ======  =========================================
path                  method  body / response
====================  ======  =========================================
``/v1/partition``     POST    :class:`PartitionRequest` payload → result;
                              the payload carries ``graph`` or, for a
                              graph this server already received,
                              ``graph_digest`` (32 lowercase hex) —
                              ``409 {"needs_graph": true}`` when the
                              server holds neither the answer nor the
                              graph: resend with ``graph``
``/v1/refine``        POST    :class:`RefineRequest` payload → result
``/v1/session/open``  POST    ``{graph, n_parts, fitness_kind, seed,
                              ga}`` → result with ``session_id``
``/v1/session/update``  POST  :class:`UpdateRequest` payload → result
``/v1/session/close`` POST    ``{session_id}`` → session summary
``/v1/stats``         GET     a view of the ``/v1/metrics`` snapshot:
                              cache, scheduler, sessions and latency
                              sections (a sharded front adds its ring
                              and per-shard health)
``/v1/metrics``       GET     unified :mod:`repro.obs` snapshot — JSON
                              by default; Prometheus text exposition
                              with ``?format=prometheus`` (or an
                              ``Accept: text/plain`` header)
``/v1/healthz``       GET     ``{"ok": true}``
``/v1/admin/ring``    GET     ring descriptor + per-shard health (the
                              probe verdicts); sharded services only
``/v1/admin/ring``    POST    ``{action, n_shards?, shard?}`` — actions
                              ``status`` / ``resize`` / ``add_shard`` /
                              ``remove_shard`` / ``eject`` / ``readmit``
                              (see :meth:`~repro.service.sharding.
                              ShardedPartitionService.ring_admin`)
====================  ======  =========================================

Malformed payloads (bad JSON, bad graph bytes, invalid parameters)
answer ``400`` with ``{"error": ...}``; unknown paths ``404``; unknown
sessions ``404``; oversized bodies ``413``; a digest-only partition
whose graph is not held ``409``; a shard that died mid-call ``503``.
Library errors never leak tracebacks to the wire.  Any other error
answers ``500`` from one process; behind shards, local or attached, it
crosses the shard wire as a :class:`ServiceError` naming its type and
answers ``400``.  ``/v1/admin/ring`` against an unsharded service
answers ``404`` — a bare :class:`PartitionService` has no ring.

Admin example — grow a local fleet from 2 to 4 shards, live::

    curl -s -X POST localhost:8080/v1/admin/ring \\
         -d '{"action": "resize", "n_shards": 4}'
"""

from __future__ import annotations

import json
import threading
from typing import Optional, Sequence

from ..errors import (
    NeedsGraph,
    ReproError,
    ServiceError,
    ShardDiedError,
    UnknownSession,
)
from .core import PartitionService
from .models import (
    PartitionRequest,
    RefineRequest,
    UpdateRequest,
    graph_from_wire,
)

__all__ = [
    "dispatch_request",
    "held_response",
    "keeps_alive",
    "make_server",
    "parse_headers",
    "serve",
]

#: request-body ceiling — paper-scale graphs are ~KBs; 64 MiB leaves
#: ample slack for large meshes while bounding a hostile payload
MAX_BODY_BYTES = 64 << 20


def parse_headers(lines: Sequence[str]) -> dict[str, str]:
    """The header lines of one HTTP/1.1 head → ``{lowercased name:
    value}``, the front's request heads and the client's response heads
    alike.  A repeated field's values join with ``", "``, except
    Content-Length, which must be ASCII digits only with every copy
    agreeing (RFC 9112 §6.3).  :class:`ValueError` on a bad
    Content-Length or a line without a colon."""
    headers: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line: {line!r}")
        name = name.strip().lower()
        value = value.strip()
        if name == "content-length":
            if not (value.isascii() and value.isdigit()):
                raise ValueError(f"bad Content-Length header: {value!r}")
            if int(headers.get(name, value)) != int(value):
                raise ValueError(
                    f"conflicting Content-Length headers: "
                    f"{headers[name]!r} and {value!r}"
                )
        elif name in headers:
            value = f"{headers[name]}, {value}"
        headers[name] = value
    return headers


def keeps_alive(version: str, headers: dict[str, str]) -> bool:
    """Whether a message leaves its connection open: on HTTP/1.1 unless
    its Connection header lists ``close``, on HTTP/1.0 only when it
    lists ``keep-alive``."""
    tokens = {
        token.strip()
        for token in headers.get("connection", "").lower().split(",")
    }
    if version == "HTTP/1.1":
        return "close" not in tokens
    return "keep-alive" in tokens


def _json_response(status: int, payload: dict) -> tuple[int, str, bytes]:
    return status, "application/json", json.dumps(payload).encode()


def _parse_json_body(raw: bytes) -> dict:
    try:
        payload = json.loads(raw.decode() or "{}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _HTTPError(400, f"bad JSON body: {exc}") from exc
    if not isinstance(payload, dict):
        raise _HTTPError(400, "request body must be a JSON object")
    return payload


def held_response(
    service, method: str, target: str, body: bytes
) -> Optional[tuple[int, str, bytes]]:
    """:func:`dispatch_request`'s response to a digest-only ``POST
    /v1/partition`` whose answer ``service`` already holds, served by
    the service's ``held_answer`` (which counts the hit); ``None`` for
    any other request, for a miss and for any error, all of which
    :func:`dispatch_request` then answers.  It takes only the service's
    leaf locks, so the event-loop front calls it on its loop thread."""
    held_answer = getattr(service, "held_answer", None)
    if (
        held_answer is None
        or method != "POST"
        or target != "/v1/partition"
        or b'"graph_digest"' not in body
    ):
        return None
    try:
        payload = _parse_json_body(body)
        if "graph" in payload:
            return None
        result = held_answer(PartitionRequest.from_payload(payload))
        if result is None:
            return None
        return _json_response(200, result.to_payload())
    # repro: allow[BROAD-EXCEPT] — not an answer, a hand-off: the caller
    # sends the request to dispatch_request, which parses it again and
    # maps the same error to its response (a raise here would end the
    # event loop's thread and with it every connection)
    except Exception:
        return None


def dispatch_request(
    service, method: str, target: str, body: bytes = b"", accept: str = ""
) -> tuple[int, str, bytes]:
    """Route one HTTP request → ``(status, content type, body bytes)``.

    ``target`` is the raw request target (path plus optional query),
    ``body`` the already-read request body, ``accept`` the Accept
    header (the ``/v1/metrics`` content negotiation).  Every error —
    malformed payload, library error, handler bug — is mapped to a JSON
    error response here, so callers never see an exception.
    """
    from urllib.parse import parse_qs, urlsplit

    parts = urlsplit(target)
    path = parts.path
    try:
        if method == "GET":
            if path == "/v1/healthz":
                return _json_response(200, {"ok": True})
            if path == "/v1/stats":
                return _json_response(200, service.stats())
            if path == "/v1/metrics":
                from ..obs.metrics import render_prometheus

                want_text = (
                    parse_qs(parts.query).get("format", [""])[0]
                    == "prometheus"
                    or (
                        "text/plain" in accept
                        and "application/json" not in accept
                    )
                )
                snapshot = service.metrics()
                if not want_text:
                    return _json_response(200, snapshot)
                return (
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    render_prometheus(snapshot).encode(),
                )
            if path == "/v1/admin/ring":
                if not hasattr(service, "ring_admin"):
                    return _json_response(
                        404,
                        {"error": "ring admin needs a sharded service "
                                  "(serve --shards/--attach-shard)"},
                    )
                return _json_response(200, service.ring_admin("status"))
            return _json_response(404, {"error": f"unknown path {target}"})
        if method != "POST":
            return _json_response(
                501, {"error": f"unsupported method {method!r}"}
            )
        payload = _parse_json_body(body)
        if path == "/v1/partition":
            result = service.submit(PartitionRequest.from_payload(payload))
            return _json_response(200, result.to_payload())
        if path == "/v1/refine":
            result = service.submit(RefineRequest.from_payload(payload))
            return _json_response(200, result.to_payload())
        if path == "/v1/session/open":
            # parameter validation (types, ranges, ga overrides)
            # lives in SessionManager.open and answers 400
            result = service.open_session(
                graph_from_wire(_field(payload, "graph")),
                n_parts=_field(payload, "n_parts"),
                fitness_kind=payload.get("fitness_kind", "fitness1"),
                seed=payload.get("seed", 0),
                ga=payload.get("ga"),
            )
            return _json_response(200, result.to_payload())
        if path == "/v1/session/update":
            result = service.update_session(UpdateRequest.from_payload(payload))
            return _json_response(200, result.to_payload())
        if path == "/v1/session/close":
            summary = service.close_session(_field(payload, "session_id"))
            return _json_response(200, summary)
        if path == "/v1/admin/ring":
            # elastic-fleet admin (PR 10): body {"action": ..., "n_shards":
            # ..., "shard": ...} — see ShardedPartitionService.ring_admin.
            # Validation (unknown action, missing operand, attach-mode
            # resize) lives there and answers 400.
            if not hasattr(service, "ring_admin"):
                return _json_response(
                    404,
                    {"error": "ring admin needs a sharded service "
                              "(serve --shards/--attach-shard)"},
                )
            out = service.ring_admin(
                _field(payload, "action"),
                n_shards=payload.get("n_shards"),
                shard=payload.get("shard"),
            )
            return _json_response(200, out)
        return _json_response(404, {"error": f"unknown path {target}"})
    except _HTTPError as exc:
        return _json_response(exc.status, {"error": exc.message})
    except NeedsGraph as exc:
        # nothing was computed: the client resends with the graph
        return _json_response(409, {"error": str(exc), "needs_graph": True})
    except ShardDiedError as exc:
        # a shard crash is the service's fault, not the request's:
        # answer 503 (retryable) so HTTP clients can distinguish
        # "retry me once the shard restarts" from a bad request
        return _json_response(503, {"error": str(exc)})
    except UnknownSession as exc:
        return _json_response(404, {"error": str(exc)})
    except ServiceError as exc:
        return _json_response(400, {"error": str(exc)})
    except ReproError as exc:
        return _json_response(400, {"error": str(exc)})
    # repro: allow[BROAD-EXCEPT] — the 500 boundary: a handler bug must
    # answer JSON, not kill the client's connection
    except Exception as exc:  # pragma: no cover - defensive boundary
        return _json_response(500, {"error": f"internal error: {exc}"})


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _field(payload: dict, key: str):
    try:
        return payload[key]
    except KeyError:
        raise _HTTPError(400, f"request payload missing field {key!r}") from None


def make_server(
    host: str = "127.0.0.1",
    port: int = 8157,
    service: Optional[PartitionService] = None,
    shards: int = 0,
    attach_shards: Optional[Sequence[str]] = None,
    **service_kwargs,
):
    """Build (but do not start) the event-loop HTTP server; ``port=0``
    picks a free port.

    ``shards=N`` (N ≥ 1) serves through a digest-sharded
    :class:`~repro.service.sharding.ShardedPartitionService` of N
    worker processes instead of one in-process service;
    ``attach_shards=["host:port", ...]`` builds the same front over
    *remote* socket shards (running ``serve --shard-listen``) instead
    of spawning local workers.  Responses are bit-identical either way.
    These and the ``service_kwargs`` (:class:`~repro.service.config.
    ServiceConfig` overrides) only apply when the server builds its own
    service — combining them with an explicit ``service`` is rejected
    rather than silently ignored.
    """
    if service is not None and (shards or attach_shards):
        raise ServiceError(
            "pass either an explicit service or shards/attach_shards, not "
            "both (wrap the service yourself for a custom sharded front)"
        )
    if service is not None and service_kwargs:
        raise ServiceError(
            f"service options {sorted(service_kwargs)} only apply when "
            "make_server builds the service; configure the explicit "
            "service instead"
        )
    if shards and attach_shards:
        raise ServiceError(
            "pass either shards=N (local workers) or attach_shards "
            "(remote workers), not both"
        )
    if service is None:
        if attach_shards:
            from .sharding import ShardedPartitionService

            service = ShardedPartitionService(
                attach=list(attach_shards), **service_kwargs
            )
        elif shards:
            from .sharding import ShardedPartitionService

            service = ShardedPartitionService(n_shards=shards, **service_kwargs)
        else:
            service = PartitionService(**service_kwargs)
    from .eventloop import EventLoopHTTPServer

    return EventLoopHTTPServer((host, port), service)


def serve(
    host: str = "127.0.0.1",
    port: int = 8157,
    service: Optional[PartitionService] = None,
    background: bool = False,
    shards: int = 0,
    attach_shards: Optional[Sequence[str]] = None,
    **service_kwargs,
):
    """Start serving; ``background=True`` serves from a daemon thread
    and returns immediately (used by tests and the smoke benchmark).
    ``shards=N`` enables digest-sharded multi-process serving;
    ``attach_shards`` fronts remote socket shards instead (see
    :func:`make_server`)."""
    server = make_server(
        host, port, service, shards=shards, attach_shards=attach_shards,
        **service_kwargs,
    )
    if background:
        thread = threading.Thread(
            target=server.serve_forever, name="repro-service", daemon=True
        )
        thread.start()
    else:  # pragma: no cover - exercised by the CLI, not the test suite
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.service.close()
            server.server_close()
    return server
