"""The shard transport: binary frames over a stream socket.

The sharded front (:mod:`repro.service.sharding`) multiplexes request
messages ``(req_id, verb, args)`` — with an optional fourth element
carrying a trace context when the front propagates one (see
:mod:`repro.obs.trace`) — and replies ``(req_id, ok, payload)`` over
one duplex channel per shard.  Every channel is a
:class:`SocketTransport`: a :func:`socket.socketpair` to a local shard's
child process, or a TCP connection to a shard server anywhere
(:func:`connect_shard`, :class:`ShardListener`).  Both carry the same
length-prefixed **binary frames**, and errors cross as ``{type,
message}`` data (:func:`~repro.service.models.error_to_wire`), never as
pickled objects: attaching a remote shard must not give it
arbitrary-code-execution over the front, and a local shard speaks the
same wire, so the two lanes answer and fail alike.

A frame is a 4-byte big-endian unsigned length followed by the frame
body, capped at :data:`MAX_FRAME_BYTES`.  The body is the
:data:`BINARY_MAGIC` byte, a 4-byte header length, a compact JSON
header, then the array buffers back to back as raw little-endian
C-order bytes.  The header holds every value in the lossless payload
forms the HTTP endpoint speaks (:mod:`repro.service.models`
``to_payload``/``from_payload``, :func:`~repro.service.models.
graph_to_wire`), with each ndarray replaced by a ``{"__nd__": [buffer
index, dtype code, shape]}`` reference plus a top-level ``"bufs"``
byte-count table.  CSR edge arrays, weights, and assignments cross as
one ``memoryview`` gather-write, and a socket-attached shard answers
bit-identically to a local one.

A peer that disappears surfaces as
:class:`EOFError`/:class:`OSError` from :meth:`SocketTransport.recv`,
which is exactly what the front's per-shard reader thread treats as
shard death; a malformed or oversized frame, or a body without the
magic byte, surfaces as :class:`ServiceError` *after* the full frame is
consumed, so the stream stays in sync and the connection usable.
:class:`ShardListener` is the accept side used by the standalone shard
server (``repro-partition serve --shard-listen``).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Optional, Union

import numpy as np

from ..errors import ServiceError
from ..graphs.csr import CSRGraph
from .models import (
    JobResult,
    PartitionRequest,
    RefineRequest,
    UpdateRequest,
    error_from_wire,
    error_to_wire,
    graph_from_wire,
    graph_to_wire,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "BINARY_MAGIC",
    "SHUTDOWN",
    "SocketTransport",
    "ShardListener",
    "connect_shard",
    "parse_address",
    "encode_frame_binary",
    "decode_frame_binary",
]

#: one frame = one message; 256 MiB bounds a hostile or corrupt length
#: prefix while leaving ample room for the largest mesh payloads
MAX_FRAME_BYTES = 256 << 20

#: first body byte of every frame: a body that does not start with it
#: is rejected whole instead of being misparsed
BINARY_MAGIC = 0x00

#: dtype whitelist of the binary frame: everything that crosses the
#: shard boundary is int64 labels/indices or float64 weights/coords
_ND_DTYPES = {"i8": "<i8", "f8": "<f8"}

#: control message ending a shard's serving loop (local shards only —
#: a front never shuts a remote shard server down by disconnecting)
SHUTDOWN = "__shutdown__"

_REQUEST_KINDS = {
    PartitionRequest.kind: PartitionRequest,
    RefineRequest.kind: RefineRequest,
    UpdateRequest.kind: UpdateRequest,
}


def parse_address(address: str) -> tuple[str, int]:
    """``"HOST:PORT"`` → ``(host, port)`` with a precise error."""
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ServiceError(
            f"shard address must be HOST:PORT, got {address!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ServiceError(
            f"shard address port must be an integer, got {address!r}"
        ) from None


# ----------------------------------------------------------------------
# binary frames
# ----------------------------------------------------------------------

def _encode_value(value, arrays) -> dict:
    """One message value → its tagged header form; ``arrays`` is the
    ndarray hook of :func:`encode_frame_binary`."""
    if isinstance(value, (PartitionRequest, RefineRequest, UpdateRequest)):
        return {"t": "req", "v": value.to_payload(arrays=arrays)}
    if isinstance(value, CSRGraph):
        return {"t": "graph", "v": graph_to_wire(value, arrays=arrays)}
    if isinstance(value, JobResult):
        return {"t": "result", "v": value.to_payload(arrays=arrays)}
    if isinstance(value, BaseException):
        return {"t": "error", "v": error_to_wire(value)}
    if isinstance(value, (list, tuple)):
        return {
            "t": "list",
            "v": [_encode_value(item, arrays) for item in value],
        }
    return {"t": "val", "v": value}


def _decode_value(obj):
    try:
        tag, value = obj["t"], obj["v"]
    except (TypeError, KeyError):
        raise ServiceError(f"malformed shard wire value: {obj!r}") from None
    if tag == "req":
        cls = _REQUEST_KINDS.get(value.get("kind") if isinstance(value, dict) else None)
        if cls is None:
            raise ServiceError(
                f"unknown request kind in shard message: {value!r}"
            )
        return cls.from_payload(value)
    if tag == "graph":
        return graph_from_wire(value)
    if tag == "result":
        return JobResult.from_payload(value)
    if tag == "error":
        return error_from_wire(value)
    if tag == "list":
        return [_decode_value(item) for item in value]
    if tag == "val":
        return value
    raise ServiceError(f"unknown shard wire tag {tag!r}")


def _message_to_obj(message, arrays) -> dict:
    """One multiplexer message → its JSON-able frame header object.

    Accepts the shapes the shard protocol uses: the :data:`SHUTDOWN`
    control string, request tuples ``(req_id, verb, args)`` — optionally
    ``(req_id, verb, args, trace_ctx)`` when the front propagates a
    trace context — and reply tuples ``(req_id, ok, payload)``.  A
    traceless request carries no ``"tc"`` key at all, so tracing adds
    no bytes to the wire when it is off.
    """
    if message == SHUTDOWN:
        return {"ctl": "shutdown"}
    if isinstance(message, tuple) and len(message) in (3, 4):
        req_id, second, third = message[0], message[1], message[2]
        if isinstance(second, str):  # request: (req_id, verb, args[, tc])
            obj = {
                "id": int(req_id),
                "verb": second,
                "args": [_encode_value(arg, arrays) for arg in third],
            }
            if len(message) == 4 and message[3]:
                obj["tc"] = dict(message[3])
            return obj
        if len(message) == 3:  # reply: (req_id, ok, payload)
            return {
                "id": int(req_id),
                "ok": bool(second),
                "payload": _encode_value(third, arrays),
            }
    raise ServiceError(f"cannot encode shard message: {message!r}")


def _obj_to_message(obj: dict):
    """A decoded frame object → the multiplexer message it carries."""
    if obj.get("ctl") == "shutdown":
        return SHUTDOWN
    try:
        if "verb" in obj:
            request = (
                int(obj["id"]),
                str(obj["verb"]),
                tuple(_decode_value(arg) for arg in obj.get("args", [])),
            )
            tc = obj.get("tc")
            if isinstance(tc, dict) and tc:
                return request + (tc,)
            return request
        if "ok" in obj:
            return (
                int(obj["id"]),
                bool(obj["ok"]),
                _decode_value(obj["payload"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        # the contract above: malformed frames surface as ServiceError,
        # never as a bare exception that kills the reader thread
        raise ServiceError(f"malformed shard frame: {exc!r}") from exc
    raise ServiceError(f"unrecognized shard frame: keys={sorted(obj)[:6]!r}")


def encode_frame_binary(message) -> list:
    """One message → binary frame body segments ``[head, buffer, ...]``
    ready for a gather-write.

    ``head`` carries the magic byte, the header length, and the JSON
    header: the :func:`_message_to_obj` object with every ndarray
    replaced by a ``{"__nd__": [index, dtype code, shape]}`` reference
    and a top-level ``"bufs"`` byte-count table appended.  Each buffer
    is a flat ``memoryview`` of a contiguous little-endian array, in
    reference order.
    """
    bufs: list = []

    def arrays(arr, dtype) -> dict:
        a = np.ascontiguousarray(np.asarray(arr, dtype=dtype))
        code = "i8" if a.dtype.kind == "i" else "f8"
        if a.dtype.byteorder == ">":  # pragma: no cover - big-endian host
            a = a.astype(a.dtype.newbyteorder("<"))
        bufs.append(a)
        return {"__nd__": [len(bufs) - 1, code, list(a.shape)]}

    obj = _message_to_obj(message, arrays)
    obj["bufs"] = [int(a.nbytes) for a in bufs]
    header = json.dumps(obj, separators=(",", ":")).encode()
    head = struct.pack(">BI", BINARY_MAGIC, len(header)) + header
    return [head] + [memoryview(a).cast("B") for a in bufs]


def _resolve_nd(value, materialize):
    """Replace ``{"__nd__": ref}`` dicts in a decoded header value tree
    with the ndarrays they reference."""
    if isinstance(value, dict):
        if len(value) == 1 and "__nd__" in value:
            return materialize(value["__nd__"])
        return {k: _resolve_nd(v, materialize) for k, v in value.items()}
    if isinstance(value, list):
        return [_resolve_nd(v, materialize) for v in value]
    return value


def decode_frame_binary(body):
    """Inverse of :func:`encode_frame_binary` for a whole frame body
    *after* the magic byte: ``u32 BE header length | header | buffers``.

    Decoded arrays are zero-copy views into ``body``, whose buffer
    section must match the declared table byte for byte (the peer is
    untrusted).  Every validation failure raises :class:`ServiceError`
    — the caller has already consumed the whole frame, so the transport
    stream stays in sync.
    """
    view = memoryview(body).cast("B")
    if len(view) < 4:
        raise ServiceError(
            "binary shard frame truncated before its header length"
        )
    (hlen,) = struct.unpack_from(">I", view, 0)
    if hlen > len(view) - 4:
        raise ServiceError(
            f"binary shard header of {hlen} bytes overruns the "
            f"{len(view)}-byte frame"
        )
    try:
        obj = json.loads(bytes(view[4:4 + hlen]).decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ServiceError(f"malformed binary shard header: {exc}") from exc
    if not isinstance(obj, dict):
        raise ServiceError("binary shard header must be a JSON object")
    table = obj.pop("bufs", [])
    if not isinstance(table, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 0
        for n in table
    ):
        raise ServiceError("binary shard header buffer table is malformed")
    data = view[4 + hlen:]
    total = sum(table)
    if total != len(data):
        raise ServiceError(
            f"binary shard frame declares {total} buffer bytes but "
            f"carries {len(data)}"
        )
    offsets, off = [], 0
    for n in table:
        offsets.append(off)
        off += n

    def materialize(ref) -> np.ndarray:
        try:
            idx, code, shape = ref
            idx = int(idx)
            nbytes = table[idx] if idx >= 0 else None
            dtype = np.dtype(_ND_DTYPES[code])
            shape = tuple(int(s) for s in shape)
        except (TypeError, ValueError, KeyError, IndexError):
            raise ServiceError(
                f"malformed ndarray reference in binary shard frame: {ref!r}"
            ) from None
        count = 1
        for s in shape:
            count *= s
        if nbytes is None or any(s < 0 for s in shape) or (
            count * dtype.itemsize != nbytes
        ):
            raise ServiceError(
                f"ndarray reference {ref!r} disagrees with its buffer "
                f"({nbytes} bytes)"
            )
        arr = np.frombuffer(
            data, dtype=dtype, count=count, offset=offsets[idx]
        )
        return arr.reshape(shape)

    return _obj_to_message(
        {k: _resolve_nd(v, materialize) for k, v in obj.items()}
    )


# ----------------------------------------------------------------------
# transport
# ----------------------------------------------------------------------

class SocketTransport:
    """One duplex message channel between the front and a shard:
    length-prefixed binary frames over a stream socket (a local
    shard's socketpair or a TCP connection), raw array buffers
    gather-written after a compact header.

    ``send`` is serialized internally — the shard worker replies from
    multiple handler threads, and whole frames must not interleave.
    :meth:`recv` raises :class:`EOFError` or :class:`OSError` when the
    peer is gone (the reader thread's shard-death signal), and
    :meth:`close` is safe to call from another thread: it shuts the
    socket down, which wakes a parked :meth:`recv`.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._send_lock = threading.Lock()
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, message) -> None:
        segments = encode_frame_binary(message)
        length = sum(len(s) for s in segments)
        if length > MAX_FRAME_BYTES:
            raise ServiceError(
                f"shard frame of {length} bytes exceeds "
                f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
            )
        segments.insert(0, struct.pack(">I", length))
        with self._send_lock:
            # repro: allow[LOCK-HELD-BLOCKING] — holding the send lock
            # across the gather-write IS the serialization: whole frames
            # must hit the socket atomically, the lock guards nothing else
            self._send_segments(segments)

    def _send_segments(self, segments: list) -> None:
        """Gather-write without concatenating the array buffers (the
        zero-copy half of the binary lane)."""
        if not hasattr(self.sock, "sendmsg"):  # pragma: no cover - exotic
            self.sock.sendall(b"".join(segments))
            return
        views = [memoryview(s).cast("B") for s in segments]
        while views:
            # cap the iovec count well under any platform's IOV_MAX
            sent = self.sock.sendmsg(views[:512])
            while sent:
                if sent >= len(views[0]):
                    sent -= len(views[0])
                    views.pop(0)
                else:
                    views[0] = views[0][sent:]
                    sent = 0

    def recv(self):
        header = self._recv_exact(4)
        (length,) = struct.unpack(">I", header)
        if length > MAX_FRAME_BYTES:
            raise ServiceError(
                f"incoming shard frame of {length} bytes exceeds "
                f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
            )
        body = self._recv_exact(length)
        if not body or body[0] != BINARY_MAGIC:
            raise ServiceError(
                f"shard frame of {length} bytes does not start with the "
                f"binary magic byte {BINARY_MAGIC:#04x}"
            )
        return decode_frame_binary(memoryview(body)[1:])

    def _recv_exact(self, n: int) -> bytearray:
        """Read exactly ``n`` bytes into one buffer (decoded arrays stay
        views into a frame body — no reassembly copy)."""
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            read = self.sock.recv_into(view[got:], n - got)
            if not read:
                raise EOFError("shard socket closed")
            got += read
        return buf

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - double close
            pass

    def __repr__(self) -> str:
        try:
            peer = self.sock.getpeername()
        except OSError:
            peer = "closed"
        return f"SocketTransport(peer={peer})"


def connect_shard(
    address: Union[str, tuple[str, int]], timeout: Optional[float] = 10.0
) -> SocketTransport:
    """Connect to a listening shard server; returns a ready transport.

    ``address`` is ``"HOST:PORT"`` or a ``(host, port)`` pair.  The
    connect honors ``timeout``; the established socket then blocks
    indefinitely (request latency is the service's business, not the
    transport's).
    """
    host, port = (
        parse_address(address) if isinstance(address, str) else address
    )
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return SocketTransport(sock)


class ShardListener:
    """Accept side of the socket transport (the shard server's door)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind((host, port))
        self.sock.listen()
        self.host, self.port = self.sock.getsockname()[:2]
        self.address = f"{self.host}:{self.port}"

    def accept(self) -> SocketTransport:
        """Block for one front connection (OSError once closed)."""
        conn, _ = self.sock.accept()
        return SocketTransport(conn)

    def close(self) -> None:
        # closing the fd alone does not wake a thread blocked in
        # accept() on Linux; shutting the socket down does (accept then
        # raises OSError), so a server's accept loop ends at once
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - double close
            pass

    def __repr__(self) -> str:
        return f"ShardListener(address={self.address!r})"
