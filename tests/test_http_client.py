"""Tests for :class:`HTTPServiceClient`'s lean HTTP/1.1 transport.

The client sends each request in one ``sendall`` and reads each
response with a strict Content-Length reader.  These tests drive it
against scripted raw-socket peers (a stalling server, one that writes a
byte at a time, one that closes after answering, malformed
Content-Length heads) and against a stdlib :mod:`http.server` peer.
"""

import http.server
import json
import socket
import threading

import pytest

from repro.errors import ServiceError
from repro.service import HTTPServiceClient


def _response(body: bytes, extra: bytes = b"") -> bytes:
    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n"
        + extra + b"\r\n" + body
    )


OK = _response(b'{"ok": true}')


class _Peer:
    """A scripted HTTP peer: it reads each request (head plus
    Content-Length body), records it, and calls ``respond(sock, n)``
    with the request's 1-based number; ``respond`` writes what it likes
    and returns whether to keep the connection open."""

    def __init__(self, respond) -> None:
        self.respond = respond
        self.requests: list = []
        self.connections = 0
        self.release = threading.Event()  # ends a stalling respond
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._live: list = []
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            self.connections += 1
            self._live.append(sock)
            thread = threading.Thread(
                target=self._serve, args=(sock,), daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def _serve(self, sock) -> None:
        buf = b""
        with sock:
            try:
                while True:
                    while b"\r\n\r\n" not in buf:
                        chunk = sock.recv(65536)
                        if not chunk:
                            return
                        buf += chunk
                    head, _, buf = buf.partition(b"\r\n\r\n")
                    lines = head.decode("latin-1").split("\r\n")
                    length = sum(
                        int(line.split(":", 1)[1]) for line in lines[1:]
                        if line.lower().startswith("content-length:")
                    )
                    while len(buf) < length:
                        chunk = sock.recv(65536)
                        if not chunk:
                            return
                        buf += chunk
                    body, buf = buf[:length], buf[length:]
                    self.requests.append((lines[0], body))
                    if not self.respond(sock, len(self.requests)):
                        return
            except OSError:
                return

    def close(self) -> None:
        self.release.set()
        for sock in [self._listener, *self._live]:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its thread
        for thread in self._threads:
            thread.join(timeout=10)
        self._listener.close()


@pytest.fixture
def peer():
    made = []

    def make(respond):
        made.append(_Peer(respond))
        return made[-1]

    yield make
    for p in made:
        p.close()


class TestRetryRule:
    def test_stalled_request_is_not_replayed(self, peer):
        """A request the server received but never answered is not
        sent again: a timeout is never retried, so a session close (or
        update) that outlives the client's timeout reaches the server
        once."""

        def respond(sock, n):
            if n == 1:
                sock.sendall(_response(b'{"closed": true}'))
                return True
            server.release.wait(30)  # stall on the second request
            return False

        server = peer(respond)
        with HTTPServiceClient(server.url, timeout=0.5) as client:
            assert client._call("/v1/session/close", {"session_id": "a"})
            with pytest.raises(ServiceError):
                client._call("/v1/session/close", {"session_id": "b"})
        assert [line for line, _ in server.requests] == [
            "POST /v1/session/close HTTP/1.1"
        ] * 2

    def test_reply_cut_after_its_first_byte_is_not_replayed(self, peer):
        def respond(sock, n):
            if n == 1:
                sock.sendall(OK)
                return True
            sock.sendall(OK[:5])  # "HTTP/", then the connection drops
            return False

        server = peer(respond)
        with HTTPServiceClient(server.url, timeout=5) as client:
            assert client.healthy()
            with pytest.raises(ServiceError, match="mid-response"):
                client._call("/v1/stats")
        assert len(server.requests) == 2

    def test_idle_close_before_any_byte_is_retried_once(self, peer):
        """The keep-alive race: the server closes a reused connection
        without answering; the request goes out again, once, on a fresh
        connection."""

        def respond(sock, n):
            if n == 2:
                return False  # close without a byte
            sock.sendall(OK)
            return True

        server = peer(respond)
        with HTTPServiceClient(server.url, timeout=5) as client:
            assert client.healthy()
            assert client.healthy()
        assert len(server.requests) == 3 and server.connections == 2


class TestResponseReader:
    def test_one_byte_at_a_time(self, peer):
        body = json.dumps({"ok": True, "pad": "x" * 300}).encode()

        def respond(sock, n):
            for byte in _response(body):
                sock.sendall(bytes([byte]))
            return True

        server = peer(respond)
        with HTTPServiceClient(server.url, timeout=5) as client:
            assert client._call("/v1/healthz")["pad"] == "x" * 300
            assert client.healthy()  # the connection is still good
        assert server.connections == 1

    def test_body_larger_than_one_recv(self, peer):
        from repro.service.client import _RECV_CHUNK

        body = json.dumps({"pad": "y" * (8 * _RECV_CHUNK)}).encode()

        def respond(sock, n):
            sock.sendall(_response(body))
            return True

        server = peer(respond)
        with HTTPServiceClient(server.url, timeout=5) as client:
            for _ in range(2):
                assert len(client._call("/v1/stats")["pad"]) == 8 * _RECV_CHUNK
        assert server.connections == 1

    def test_connection_close_reconnects(self, peer):
        def respond(sock, n):
            sock.sendall(_response(b'{"ok": true}', b"Connection: close\r\n"))
            return False

        server = peer(respond)
        with HTTPServiceClient(server.url, timeout=5) as client:
            assert client.healthy()
            assert not client._open  # dropped, as told
            assert client.healthy()
        assert server.connections == 2 and len(server.requests) == 2

    def test_one_sendall_per_request(self, peer, monkeypatch):
        server = peer(lambda sock, n: sock.sendall(OK) or True)
        sent = []
        with HTTPServiceClient(server.url, timeout=5) as client:
            connection = client._connection

            def recording():
                sock, reused = connection()

                class Recorder:
                    def sendall(self, data):
                        sent.append(bytes(data))
                        sock.sendall(data)

                    def __getattr__(self, name):
                        return getattr(sock, name)

                return Recorder(), reused

            monkeypatch.setattr(client, "_connection", recording)
            client._call("/v1/session/close", {"session_id": "s"})
        (message,) = sent  # head and body in one write
        assert message.startswith(b"POST /v1/session/close HTTP/1.1\r\n")
        assert message.endswith(b'\r\n\r\n{"session_id": "s"}')

    @pytest.mark.parametrize("head", [
        b"Content-Length: +12\r\n",
        b"Content-Length: 1_2\r\n",
        b"Content-Length: 12\r\nContent-Length: 13\r\n",
        b"",
    ], ids=["plus-sign", "underscore", "conflicting-duplicates", "missing"])
    def test_malformed_content_length_is_refused(self, peer, head):
        def respond(sock, n):
            sock.sendall(b"HTTP/1.1 200 OK\r\n" + head + b"\r\n{\"ok\": true}")
            return True

        server = peer(respond)
        with HTTPServiceClient(server.url, timeout=5) as client:
            with pytest.raises(ServiceError, match="malformed HTTP"):
                client._call("/v1/healthz")


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 - the stdlib's handler naming
        self._answer({"ok": True, "path": self.path})

    def do_POST(self):  # noqa: N802
        length = int(self.headers["Content-Length"])
        self._answer({"echo": json.loads(self.rfile.read(length))})

    def _answer(self, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


class TestStdlibPeer:
    @pytest.mark.parametrize("protocol", ["HTTP/1.1", "HTTP/1.0"])
    def test_client_speaks_to_http_server(self, protocol):
        handler = type("Handler", (_Handler,), {"protocol_version": protocol})
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with HTTPServiceClient(f"http://{host}:{port}") as client:
                assert client.healthy()
                assert client._call("/v1/stats")["path"] == "/v1/stats"
                echo = client._call("/v1/session/close", {"session_id": "s"})
                assert echo == {"echo": {"session_id": "s"}}
                # HTTP/1.0 closes after each answer; 1.1 keeps the socket
                assert (not client._open) == (protocol == "HTTP/1.0")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
