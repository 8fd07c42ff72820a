"""Tests for the selectors event-loop HTTP front (PR 9).

Covers: HTTP/1.1 keep-alive and pipelined in-flight requests over a
raw socket, malformed/oversized-input rejection, the persistent keep-alive
:class:`HTTPServiceClient` (connection reuse and automatic reconnect),
and the acceptance stress: ≥256 simultaneous clients with mixed
traffic, every response matched to its request with zero cross-talk,
under a :class:`LockWitness` asserting the connection-state lock graph
is cycle-free and the loop mutex is never held across a socket send.
"""

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
from repro.service import HTTPServiceClient, make_server, serve
from repro.service.eventloop import (
    MAX_HEADER_BYTES,
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
            client = HTTPServiceClient(f"http://{host}:{port}")
            client.partition(graph, 4, seed=0, ga=GA)
            snap = client.metrics()
            counters = {
                (m["name"]): m for m in snap["counters"]
            }
            assert "repro_http_connections_total" in counters
        finally:
            _stop(server)


class TestKeepAliveClient:
    def test_connection_reused_across_requests(self, graph):
        server = _start()
        try:
            host, port = server.server_address[:2]
            client = HTTPServiceClient(f"http://{host}:{port}")
            client.partition(graph, 4, seed=0, ga=GA)
            first = client._local.conn
            for _ in range(5):
                client.stats()
                client.metrics()
            assert client._local.conn is first  # one socket, many verbs
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
        finally:
            _stop(server)


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
