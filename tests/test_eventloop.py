"""Tests for the selectors event-loop HTTP front (PR 9).

Covers: HTTP/1.1 keep-alive and pipelined in-flight requests over a
raw socket, malformed/oversized-input rejection, held answers served on
the loop thread (and everything else on the pool), the persistent
keep-alive :class:`HTTPServiceClient` against the front (connection
reuse, automatic reconnect, ``close()`` from any thread), and the
acceptance stress: ≥256 simultaneous clients with mixed
traffic, every response matched to its request with zero cross-talk,
under a :class:`LockWitness` asserting the connection-state lock graph
is cycle-free and the loop mutex is never held across a socket send.
"""

import gc
import json
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import LockWitness, extract_lock_graph
from repro.errors import ServiceError
from repro.graphs import mesh_graph
from repro.service import (
    HTTPServiceClient,
    PartitionService,
    make_server,
    serve,
)
from repro.service.eventloop import (
    MAX_HEADER_BYTES,
    MAX_INLINE_BODY,
    EventLoopHTTPServer,
)
from repro.service.models import graph_to_wire

#: tiny GA budget — these tests exercise the front, not search
GA = dict(population_size=12, max_generations=6, patience=3)


@pytest.fixture
def graph():
    return mesh_graph(48, seed=3)


@pytest.fixture(scope="module")
def lock_graph():
    import repro

    src = Path(repro.__file__).resolve().parent
    return extract_lock_graph([str(src)])


def _start(**kwargs):
    return serve(port=0, background=True, n_workers=2, **kwargs)


def _stop(server):
    server.shutdown()
    server.service.close()
    server.server_close()


def _http_get(sock_file, sock, path, keep_alive=True):
    conn = "keep-alive" if keep_alive else "close"
    sock.sendall(
        f"GET {path} HTTP/1.1\r\nHost: x\r\nConnection: {conn}\r\n\r\n".encode()
    )
    return _read_response(sock_file)


def _read_response(f):
    """One HTTP response off a buffered socket file: (status, body)."""
    status_line = f.readline()
    if not status_line:
        return None, b""
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = f.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, f.read(length)


def _open_connections(server) -> float:
    """The front's ``repro_http_connections_open`` gauge, read in
    process (an HTTP read would open a connection of its own)."""
    (value,) = [
        row["value"] for row in server.service.registry.snapshot()["gauges"]
        if row["name"] == "repro_http_connections_open"
    ]
    return value


class TestEventLoopFront:
    def test_pipelined_requests_answered_in_order(self, graph):
        """N requests written back-to-back before reading anything come
        back in request order on the same connection."""
        server = _start()
        try:
            host, port = server.server_address[:2]
            payload = json.dumps(
                {"graph": graph_to_wire(graph), "n_parts": 4, "seed": 0,
                 "ga": GA}
            ).encode()
            req = (
                b"POST /v1/partition HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(payload)).encode() +
                b"\r\n\r\n" + payload
            )
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(req * 4)  # pipelined: no read between writes
                f = sock.makefile("rb")
                bodies = []
                for _ in range(4):
                    status, body = _read_response(f)
                    assert status == 200
                    bodies.append(json.loads(body))
                # identical request → identical answer, and the
                # connection stays usable afterwards
                assert all(b["assignment"] == bodies[0]["assignment"]
                           for b in bodies)
                status, body = _http_get(f, sock, "/v1/healthz")
                assert status == 200 and json.loads(body)["ok"]
        finally:
            _stop(server)

    def test_malformed_request_line_answers_400_and_closes(self):
        server = _start()
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"NOT A REQUEST\r\n\r\n")
                f = sock.makefile("rb")
                status, _ = _read_response(f)
                assert status == 400
                assert f.read() == b""  # server closed cleanly
        finally:
            _stop(server)

    def test_oversized_head_answers_431(self):
        server = _start()
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nX-Pad: ")
                sock.sendall(b"a" * (MAX_HEADER_BYTES + 1024))
                f = sock.makefile("rb")
                status, _ = _read_response(f)
                assert status == 431
        finally:
            _stop(server)

    def test_chunked_upload_answers_501(self):
        server = _start()
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    b"POST /v1/partition HTTP/1.1\r\nHost: x\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n"
                )
                f = sock.makefile("rb")
                status, _ = _read_response(f)
                assert status == 501
        finally:
            _stop(server)

    def test_removed_front_option_is_rejected(self):
        """The thread-per-connection front is gone: asking for it by
        name fails loudly instead of quietly serving the event loop."""
        from repro.service import PartitionService

        with pytest.raises(TypeError, match="front"):
            make_server(port=0, front="thread")
        with PartitionService(n_workers=1) as svc:
            with pytest.raises(ServiceError, match="front"):
                make_server(port=0, service=svc, front="thread")

    def test_front_metrics_exported(self, graph):
        server = _start()
        try:
            host, port = server.server_address[:2]
            with HTTPServiceClient(f"http://{host}:{port}") as client:
                client.partition(graph, 4, seed=0, ga=GA)
                snap = client.metrics()
            counters = {
                (m["name"]): m for m in snap["counters"]
            }
            assert "repro_http_connections_total" in counters
            gauges = {m["name"]: m["value"] for m in snap["gauges"]}
            # the request reading the snapshot is the one in flight
            assert gauges["repro_http_inflight_requests"] == 1.0
        finally:
            _stop(server)

    @pytest.mark.parametrize("head", [
        b"Content-Length: +0\r\n",
        b"Content-Length: 0_0\r\n",
        b"Content-Length: 0\r\nContent-Length: 2\r\n",
    ], ids=["plus-sign", "underscore", "conflicting-duplicates"])
    def test_malformed_content_length_answers_400_and_closes(self, head):
        """RFC 9112 §6.3: a Content-Length of anything but ASCII digits,
        or duplicates that disagree, is a 400 and the connection
        closes."""
        server = _start()
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n" + head
                    + b"\r\n{}"
                )
                f = sock.makefile("rb")
                status, body = _read_response(f)
                assert status == 400
                assert "Content-Length" in json.loads(body)["error"]
                assert f.read() == b""  # server closed cleanly
        finally:
            _stop(server)


class TestKeepAliveClient:
    def test_connection_reused_across_requests(self, graph):
        server = _start()
        try:
            host, port = server.server_address[:2]
            with HTTPServiceClient(f"http://{host}:{port}") as client:
                client.partition(graph, 4, seed=0, ga=GA)
                (first,) = client._open.values()
                for _ in range(5):
                    client.stats()
                    client.metrics()
                (again,) = client._open.values()
                assert again is first  # one socket, many verbs
        finally:
            _stop(server)

    def test_reconnects_after_server_restart(self, graph):
        """The keep-alive race: a request on a connection the server
        already closed is retried once on a fresh connection; the
        caller never sees the stale socket."""
        server = _start()
        host, port = server.server_address[:2]
        client = HTTPServiceClient(f"http://{host}:{port}")
        ref = client.partition(graph, 4, seed=0, ga=GA)
        _stop(server)
        server = serve(port=port, background=True, n_workers=2)
        try:
            got = client.partition(graph, 4, seed=0, ga=GA)
            assert np.array_equal(got.assignment, ref.assignment)
        finally:
            client.close()
            _stop(server)

    def test_fresh_connection_failure_is_not_retried(self):
        """A request failing on a *fresh* connection surfaces
        immediately (the service may have seen it — replay must be the
        caller's decision)."""
        client = HTTPServiceClient("http://127.0.0.1:1", timeout=2.0)
        with pytest.raises(ServiceError, match="cannot reach service"):
            client.stats()

    def test_close_is_idempotent_and_recoverable(self, graph):
        server = _start()
        try:
            host, port = server.server_address[:2]
            client = HTTPServiceClient(f"http://{host}:{port}")
            assert client.healthy()
            client.close()
            client.close()
            assert client.healthy()  # next request reconnects
            client.close()
        finally:
            _stop(server)

    def test_close_closes_every_threads_connection(self):
        """``close()`` from one thread closes the connections every
        other thread opened, so the front's open-connection gauge falls
        to 0 while those threads are still alive."""
        server = _start()
        try:
            host, port = server.server_address[:2]
            client = HTTPServiceClient(f"http://{host}:{port}")
            answered = threading.Barrier(5, timeout=30)
            closed = threading.Event()

            def worker():
                assert client.healthy()
                answered.wait()
                closed.wait(30)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            answered.wait()
            assert _open_connections(server) == 4
            client.close()
            deadline = time.monotonic() + 10
            while _open_connections(server) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _open_connections(server) == 0
            closed.set()
            for t in threads:
                t.join(timeout=30)
        finally:
            _stop(server)

    def test_exited_threads_free_their_connections(self):
        """A thread that exits takes its connection with it: threads
        that each make one request and end leave the front no open
        connection, without ``close()``."""
        server = _start()
        try:
            host, port = server.server_address[:2]
            client = HTTPServiceClient(f"http://{host}:{port}")
            for _ in range(3):
                threads = [
                    threading.Thread(target=client.healthy) for _ in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
            gc.collect()
            assert not client._open
            deadline = time.monotonic() + 10
            while _open_connections(server) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _open_connections(server) == 0
            assert client.healthy()  # this thread still connects
            client.close()
        finally:
            _stop(server)

    def test_client_is_a_context_manager(self):
        server = _start()
        try:
            host, port = server.server_address[:2]
            with HTTPServiceClient(f"http://{host}:{port}") as client:
                assert client.healthy()
                assert _open_connections(server) == 1
            deadline = time.monotonic() + 10
            while _open_connections(server) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _open_connections(server) == 0
        finally:
            _stop(server)


def _post(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: x\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _digest_only(graph, **kwargs) -> dict:
    from repro.service.cache import graph_digest

    return {"graph_digest": graph_digest(graph), "n_parts": 4, "ga": GA,
            **kwargs}


class _SlowMisses(PartitionService):
    """A service whose ``seed=99`` requests block in ``submit`` until
    released: a miss that keeps its pool worker busy."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.entered = threading.Event()
        self.release = threading.Event()
        self.held_calls = 0

    def held_answer(self, request):
        self.held_calls += 1
        return super().held_answer(request)

    def submit(self, request, trace=None):
        if request.seed == 99:
            self.entered.set()
            self.release.wait(30)
        return super().submit(request, trace)


@pytest.fixture
def slow_front():
    """An event-loop front with ONE pool worker over :class:`_SlowMisses`."""
    service = _SlowMisses(n_workers=1)
    server = EventLoopHTTPServer(("127.0.0.1", 0), service, workers=1)
    loop = threading.Thread(target=server.serve_forever, daemon=True)
    loop.start()
    try:
        yield server
    finally:
        service.release.set()
        server.shutdown()
        loop.join(timeout=10)
        service.close()
        server.server_close()


class TestInlineHits:
    """The loop thread answers a digest-only ``POST /v1/partition``
    whose answer the service holds; everything else takes the pool."""

    def test_held_answer_served_while_every_worker_is_busy(
        self, graph, slow_front
    ):
        host, port = slow_front.server_address[:2]
        url = f"http://{host}:{port}"
        service = slow_front.service
        with HTTPServiceClient(url, timeout=10) as client:
            ref = client.partition(graph, 4, seed=0, ga=GA)  # held now
            busy = threading.Thread(
                target=client.partition, args=(graph, 4),
                kwargs=dict(seed=99, ga=GA),
            )
            busy.start()
            assert service.entered.wait(10)  # the one worker is taken
            # this thread's own connection; the client shipped the
            # graph, so the repeat is digest-only
            hit = client.partition(graph, 4, seed=0, ga=GA)
            assert hit.cache_hit and service.held_calls >= 1
            assert np.array_equal(hit.assignment, ref.assignment)
            assert busy.is_alive()  # the miss is still running
            service.release.set()
            busy.join(timeout=30)

    def test_pipelined_miss_then_hit_answer_in_order(self, graph):
        server = _start()
        try:
            host, port = server.server_address[:2]
            hit = _digest_only(graph, seed=0)
            with socket.create_connection((host, port), timeout=30) as sock:
                f = sock.makefile("rb")
                sock.sendall(_post(
                    "/v1/partition",
                    {"graph": graph_to_wire(graph), "n_parts": 4,
                     "seed": 0, "ga": GA},
                ))
                assert _read_response(f)[0] == 200  # hit is held now
                # a miss, then a hit the loop answers at once: the hit
                # waits in the reorder window behind the miss
                sock.sendall(
                    _post("/v1/partition", _digest_only(graph, seed=7))
                    + _post("/v1/partition", hit)
                )
                first = json.loads(_read_response(f)[1])
                second = json.loads(_read_response(f)[1])
            assert not first["cache_hit"] and ":s=7:" in first["request_key"]
            assert second["cache_hit"] and ":s=0:" in second["request_key"]
        finally:
            _stop(server)

    @pytest.mark.parametrize("shards", [0, 2])
    def test_hit_and_miss_are_counted_once(self, graph, shards):
        server = serve(port=0, background=True, shards=shards, n_workers=1)
        try:
            host, port = server.server_address[:2]
            with HTTPServiceClient(f"http://{host}:{port}") as client:
                client.partition(graph, 4, seed=0, ga=GA)  # ships, misses
                before = client.metrics()
                assert client.partition(graph, 4, seed=0, ga=GA).cache_hit
                assert not client.partition(graph, 4, seed=1, ga=GA).cache_hit
                after = client.metrics()
        finally:
            _stop(server)

        def delta(name):
            def total(snap):
                return sum(
                    row["value"] for row in snap["counters"]
                    if row["name"] == name
                    and row["labels"].get("cache", "results") == "results"
                    and row["labels"].get("endpoint", "partition")
                    == "partition"
                )
            return total(after) - total(before)

        assert delta("repro_cache_hits_total") == 1
        assert delta("repro_cache_misses_total") == 1
        assert delta("repro_requests_total") == 2

    def test_digest_only_body_above_the_bound_goes_to_the_pool(
        self, graph, slow_front
    ):
        host, port = slow_front.server_address[:2]
        service = slow_front.service
        with HTTPServiceClient(f"http://{host}:{port}") as client:
            client.partition(graph, 4, seed=0, ga=GA)
        body = json.dumps(_digest_only(graph, seed=0)).encode()
        padded = body[:-1] + b" " * (MAX_INLINE_BODY + 1 - len(body)) + b"}"
        with socket.create_connection((host, port), timeout=30) as sock:
            f = sock.makefile("rb")
            for payload in (padded, body):
                sock.sendall(
                    b"POST /v1/partition HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: " + str(len(payload)).encode()
                    + b"\r\n\r\n" + payload
                )
                status, answer = _read_response(f)
                assert status == 200 and json.loads(answer)["cache_hit"]
                if payload is padded:
                    # answered by the pool's submit: the loop never asked
                    assert service.held_calls == 0
        assert service.held_calls == 1

    def test_body_the_pool_refuses_is_not_answered_inline(self, graph):
        """A held answer's digest-only body behind a UTF-8 BOM: the
        pool's JSON decode refuses it (400), so the loop must too."""
        server = _start()
        try:
            host, port = server.server_address[:2]
            with HTTPServiceClient(f"http://{host}:{port}") as client:
                client.partition(graph, 4, seed=0, ga=GA)
            body = b"\xef\xbb\xbf" + json.dumps(
                _digest_only(graph, seed=0)
            ).encode()
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(
                    b"POST /v1/partition HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: " + str(len(body)).encode()
                    + b"\r\n\r\n" + body
                )
                status, answer = _read_response(sock.makefile("rb"))
            assert status == 400 and "bad JSON body" in answer.decode()
        finally:
            _stop(server)

    def test_request_that_fails_to_parse_leaves_the_loop_running(self):
        """A digest-only body whose parse raises something other than a
        library error (here ``OverflowError`` from a 400-digit
        ``time_budget``) is answered by the pool's 500 boundary, and the
        loop goes on serving new connections."""
        server = _start()
        try:
            host, port = server.server_address[:2]
            body = (
                b'{"graph_digest": "' + b"0" * 32 + b'", "n_parts": 2, '
                b'"time_budget": ' + b"9" * 400 + b"}"
            )
            assert len(body) < MAX_INLINE_BODY
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(
                    b"POST /v1/partition HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: " + str(len(body)).encode()
                    + b"\r\n\r\n" + body
                )
                status, answer = _read_response(sock.makefile("rb"))
            assert status == 500 and "internal error" in answer.decode()
            with socket.create_connection((host, port), timeout=30) as sock:
                status, answer = _http_get(
                    sock.makefile("rb"), sock, "/v1/healthz"
                )
            assert status == 200 and json.loads(answer) == {"ok": True}
        finally:
            _stop(server)

    @pytest.mark.parametrize("shards", [0, 2])
    def test_tracer_writing_a_file_sends_hits_to_the_pool(
        self, graph, shards, tmp_path
    ):
        """A span file is written under a lock pool threads share, so
        the loop thread leaves a traced service's hits to the pool."""
        from repro.service.cache import graph_digest
        from repro.service.models import PartitionRequest

        server = serve(
            port=0, background=True, shards=shards, n_workers=1,
            trace_jsonl=str(tmp_path / "spans.jsonl"),
        )
        try:
            host, port = server.server_address[:2]
            with HTTPServiceClient(f"http://{host}:{port}") as client:
                client.partition(graph, 4, seed=0, ga=GA)
                assert client.partition(graph, 4, seed=0, ga=GA).cache_hit
            request = PartitionRequest(
                None, 4, graph_digest=graph_digest(graph), seed=0, ga=GA
            )
            assert server.service.held_answer(request) is None
            assert server.service.submit(request).cache_hit
        finally:
            _stop(server)

    @pytest.mark.parametrize("shards", [0, 2])
    def test_inline_payload_equals_dispatch_request(self, graph, shards):
        from repro.service.http import dispatch_request

        server = serve(port=0, background=True, shards=shards, n_workers=1)
        try:
            host, port = server.server_address[:2]
            with HTTPServiceClient(f"http://{host}:{port}") as client:
                client.partition(graph, 4, seed=0, ga=GA)
            request = _post("/v1/partition", _digest_only(graph, seed=0))
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(request)
                status, inline = _read_response(sock.makefile("rb"))
            body = request.split(b"\r\n\r\n", 1)[1]
            pooled = dispatch_request(
                server.service, "POST", "/v1/partition", body
            )
        finally:
            _stop(server)
        assert status == pooled[0] == 200
        inline, pooled = json.loads(inline), json.loads(pooled[2])
        assert inline.pop("latency_s") > 0 and pooled.pop("latency_s") > 0
        assert inline == pooled and inline["cache_hit"]


class TestConcurrencyStress:
    N_CLIENTS = 256

    def test_256_simultaneous_clients_no_crosstalk(self, graph, lock_graph):
        """The acceptance stress: ≥256 simultaneous keep-alive
        connections with mixed traffic (healthz, stats, partition,
        session open/update/close), every response matched to its
        request, zero cross-talk — under the runtime lock witness.

        The witness wraps every ``repro`` lock created while active, so
        the server is built inside it: the loop's ``_mutex`` (the only
        lock shared with worker threads) must stay a leaf of the static
        lock graph — cycle-free — and must never be held while
        ``_on_writable`` runs a socket send.
        """
        assert "EventLoopHTTPServer._mutex" in lock_graph.nodes
        # statically a leaf: no lock is ever taken under the loop mutex
        assert not [
            e for e in lock_graph.edges
            if "EventLoopHTTPServer._mutex" in e
        ]
        assert lock_graph.find_cycles() == []

        with LockWitness() as witness:
            witness.probe(EventLoopHTTPServer, "_on_writable")
            server = make_server("127.0.0.1", 0, n_workers=2)
            loop = threading.Thread(target=server.serve_forever, daemon=True)
            loop.start()
            try:
                self._hammer(server, graph)
            finally:
                _stop(server)
                loop.join(timeout=10)
        witness.assert_subgraph_of(lock_graph)
        sends = witness.assert_never_held_during(
            lock_graph, "EventLoopHTTPServer._mutex", "_on_writable"
        )
        assert sends >= self.N_CLIENTS  # every client's replies probed

    def _hammer(self, server, graph):
        host, port = server.server_address[:2]
        wire = graph_to_wire(graph)
        failures: list = []
        barrier = threading.Barrier(self.N_CLIENTS, timeout=120)

        def worker(idx: int) -> None:
            try:
                with socket.create_connection(
                    (host, port), timeout=90
                ) as sock:
                    f = sock.makefile("rb")
                    barrier.wait()  # all clients connected before traffic
                    for step in range(3):
                        status, body = _http_get(f, sock, "/v1/healthz")
                        assert status == 200, (idx, step, status)
                        assert json.loads(body)["ok"] is True
                    # a request whose answer must echo *this* client's
                    # input: cross-talk would mismatch n_parts/seed
                    n_parts = 2 + (idx % 3)
                    payload = json.dumps(
                        {"graph": wire, "n_parts": n_parts,
                         "seed": idx % 5, "method": "greedy"}
                    ).encode()
                    sock.sendall(
                        b"POST /v1/partition HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: " + str(len(payload)).encode()
                        + b"\r\n\r\n" + payload
                    )
                    status, body = _read_response(f)
                    assert status == 200, (idx, status, body[:120])
                    answer = json.loads(body)
                    got_parts = len(set(answer["assignment"]))
                    assert got_parts == n_parts, (idx, got_parts, n_parts)
                    status, body = _http_get(
                        f, sock, "/v1/stats", keep_alive=False
                    )
                    assert status == 200
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                failures.append((idx, repr(exc)))

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(self.N_CLIENTS)
        ]
        for t in threads:
            t.start()
        deadline = time.time() + 180
        for t in threads:
            t.join(timeout=max(0.1, deadline - time.time()))
        alive = [t for t in threads if t.is_alive()]
        assert not alive, f"{len(alive)} clients hung"
        assert not failures, failures[:10]
