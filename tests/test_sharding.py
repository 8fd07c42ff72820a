"""Tests for the sharded serving tier: shards are the service's one
way to use more cores.

Covers: digest→shard routing stability, sharded vs single-process
bit-identity on a replayed mixed trace, the sharded front's
lifecycle/error behavior (including removed config options failing
loudly), the fault-tolerant fleet: socket-vs-pipe transport
equivalence, shard-death fail-fast, supervised restart with session
failover bit-identity, the exception round-trip hardening, the elastic
fleet: live resize with session/warm-result handoff, dead shards
serving degraded out of the ring with zero lost answers, probe-driven
eject/readmit, and the ``/v1/admin/ring`` endpoint, digest-first
partition requests recovering from a lost graph with one 409 and a
resend, the front's answer cache (repeats answered with no shard
call, counted once), bounded-load placement of cache misses, and typed
unknown-session errors on both lanes.
"""

import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import LockWitness, extract_lock_graph
from repro.errors import (
    NeedsGraph,
    ServiceError,
    ShardDiedError,
    UnknownSession,
)
from repro.incremental.partitioner import IncrementalGAPartitioner
from repro.experiments import replay_trace, service_trace
from repro.experiments.workloads import workload
from repro.graphs import mesh_graph
from repro.incremental.updates import insert_local_nodes
from repro.service import (
    PartitionRequest,
    PartitionService,
    ServiceClient,
    ServiceConfig,
    ShardServer,
    ShardedPartitionService,
    UpdateRequest,
    graph_digest,
)

from shard_reference import shard_for_digest

#: tiny GA budget — these tests exercise the serving layer, not search
GA = dict(population_size=12, max_generations=6, patience=3)


@pytest.fixture
def graph():
    return mesh_graph(48, seed=3)


@pytest.fixture(scope="module")
def lock_graph():
    """Statically extracted lock graph (``repro.analysis``) — the claim
    the runtime witness checks the failover suite against."""
    import repro

    src = Path(repro.__file__).resolve().parent
    return extract_lock_graph([str(src)])


# ----------------------------------------------------------------------
# shard routing
# ----------------------------------------------------------------------

class TestShardRouting:
    def test_routing_is_stable_across_calls_and_runs(self, graph):
        """shard_for_digest is a pure function of content: same digest,
        same shard, in every process, forever (the frozen literal guards
        against silent changes to the hash construction)."""
        d = graph_digest(graph)
        assert shard_for_digest(d, 4) == shard_for_digest(d, 4)
        twin = graph_digest(mesh_graph(48, seed=3))
        assert shard_for_digest(twin, 4) == shard_for_digest(d, 4)
        # frozen expectation for a literal digest string
        assert shard_for_digest("deadbeef", 4) == 1
        assert shard_for_digest("deadbeef", 2) == 1

    def test_routing_covers_shards(self):
        """The canonical workload digests spread over shards (no
        degenerate all-on-one mapping)."""
        from repro.experiments.workloads import BASE_SIZES, workload

        shards = {
            shard_for_digest(graph_digest(workload(s)), 2) for s in BASE_SIZES
        }
        assert shards == {0, 1}

    def test_single_shard_accepts_everything(self, graph):
        assert shard_for_digest(graph_digest(graph), 1) == 0
        with pytest.raises(ServiceError):
            shard_for_digest("x", 0)


# ----------------------------------------------------------------------
# sharded vs single-process bit-identity
# ----------------------------------------------------------------------

class TestShardedService:
    def test_trace_replay_bit_identical_to_single_process(self):
        """The acceptance contract: a replayed mixed trace (one-shot +
        repeated + incremental sessions) answers with bit-identical
        assignments whether served by one process or by digest-sharded
        worker processes."""
        trace = service_trace(n_requests=10, seed=2, n_parts=4, ga=GA)
        with ServiceClient(n_workers=2) as single:
            single_results = replay_trace(single, trace)
        with ServiceClient(shards=2, n_workers=2) as sharded:
            sharded_results = replay_trace(sharded, trace)
        assert len(single_results) == len(sharded_results)
        for (op_a, res_a), (op_b, res_b) in zip(
            single_results, sharded_results
        ):
            assert op_a == op_b
            if op_a["op"] in ("partition", "open", "update"):
                assert np.array_equal(res_a.assignment, res_b.assignment)
                assert res_a.cut_size == res_b.cut_size
                assert res_a.fitness == res_b.fitness

    def test_same_graph_sticks_to_one_shard(self, graph):
        with ShardedPartitionService(n_shards=3, n_workers=1) as svc:
            expected = svc.shard_of(graph)
            r1 = svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            r2 = svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            assert r1.shard == r2.shard == expected
            assert r2.cache_hit  # the front's answer cache fired

    def test_submit_many_reassembles_in_order(self, graph):
        other = mesh_graph(56, seed=9)
        requests = [
            PartitionRequest(graph, 4, method="greedy"),
            PartitionRequest(other, 4, method="greedy"),
            PartitionRequest(graph, 4, method="random", seed=1),
            # routed by its digest to the shard the batch ships other to
            PartitionRequest(None, 4, method="random", seed=2,
                             graph_digest=graph_digest(other)),
        ]
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            out = svc.submit_many(requests)
            assert [r.method for r in out] == [
                "greedy", "greedy", "random", "random"]
            assert out[0].shard == svc.shard_of(graph)
            assert out[1].shard == out[3].shard == svc.shard_of(other)
        with PartitionService(n_workers=1) as single:
            ref = [single.submit(r) for r in requests[:3]]
            ref.append(single.submit(
                PartitionRequest(other, 4, method="random", seed=2)
            ))
        for a, b in zip(out, ref):
            assert np.array_equal(a.assignment, b.assignment)

    def test_sessions_route_by_id(self, graph):
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            opened = svc.open_session(graph, 4, seed=0, ga=GA)
            update = insert_local_nodes(graph, 5, seed=7)
            result = svc.update_session(
                UpdateRequest(opened.session_id, update.graph)
            )
            assert result.session_id == opened.session_id
            assert result.shard == opened.shard == svc.shard_of(graph)
            summary = svc.close_session(opened.session_id)
            assert summary["n_updates"] == 1
            with pytest.raises(ServiceError, match="unknown session"):
                svc.update_session(UpdateRequest(opened.session_id, graph))

    def test_shard_errors_propagate(self, graph):
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            with pytest.raises(ServiceError):
                svc.submit(PartitionRequest(graph, 4, ga={"bogus": 1}))
            # the shard survives a failed request
            ok = svc.submit(PartitionRequest(graph, 4, method="greedy"))
            assert ok.assignment.shape == (graph.n_nodes,)

    def test_closed_front_rejects_requests(self, graph):
        svc = ShardedPartitionService(n_shards=1, n_workers=1)
        svc.close()
        with pytest.raises(ServiceError, match="closed"):
            svc.submit(PartitionRequest(graph, 2, method="random"))
        svc.close()  # idempotent

    def test_serve_rejects_service_plus_shards(self, graph):
        from repro.service import make_server

        with PartitionService(n_workers=1) as svc:
            with pytest.raises(ServiceError, match="not both"):
                make_server(port=0, service=svc, shards=2)
            with pytest.raises(ServiceError, match="not both"):
                ServiceClient(service=svc, shards=2)

    def test_stats_aggregates_shards(self, graph):
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            svc.submit(PartitionRequest(graph, 4, method="greedy"))
            stats = svc.stats()
            assert stats["n_shards"] == 2
            assert stats["shards_reporting"] == 2
            assert stats["scheduler"]["jobs_executed"] == 1

    def test_http_serve_with_shards(self, graph):
        """End-to-end: the HTTP frontend drives a sharded service."""
        from repro.service import HTTPServiceClient, serve

        server = serve(port=0, background=True, shards=2, n_workers=1)
        host, port = server.server_address
        client = HTTPServiceClient(f"http://{host}:{port}", timeout=120.0)
        try:
            assert client.healthy()
            r1 = client.partition(graph, 4, seed=0, ga=GA)
            r2 = client.partition(graph, 4, seed=0, ga=GA)
            assert np.array_equal(r1.assignment, r2.assignment)
            assert r2.cache_hit
            assert r1.shard is not None
            stats = client.stats()
            assert stats["n_shards"] == 2
        finally:
            server.service.close()
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# socket transport (PR 5)
# ----------------------------------------------------------------------

def _roundtrip(message):
    """One message through the socket lane's binary frame codec."""
    from repro.service.transport import decode_frame_binary

    return decode_frame_binary(_frame(message))


def _frame(message) -> bytes:
    """Whole binary frame body after the magic byte, as one buffer
    (what :meth:`SocketTransport.recv` hands the decoder)."""
    from repro.service.transport import encode_frame_binary

    segments = encode_frame_binary(message)
    return b"".join(bytes(memoryview(s)) for s in segments)[1:]


def _digest_ops(trace):
    """``(op, request fields)`` for each partition op of ``trace``, at
    a seed no op of the trace uses."""
    return [
        (op, dict(n_parts=op["n_parts"], seed=op["seed"] + 1000,
                  ga=op.get("ga")))
        for op in trace
        if op["op"] == "partition"
    ]


def _digest_pass(service, trace) -> list:
    """Submit each of ``_digest_ops(trace)`` naming its graph by digest
    (the replay already shipped every graph).  A digest the fleet never
    received must come back as NeedsGraph across the shard lane."""
    with pytest.raises(NeedsGraph):
        service.submit(PartitionRequest(None, 2, graph_digest="0" * 32))
    return [
        service.submit(PartitionRequest(
            None, graph_digest=graph_digest(workload(op["size"])), **kw
        ))
        for op, kw in _digest_ops(trace)
    ]


class TestSocketTransport:
    def test_message_codec_roundtrip(self, graph):
        """The binary frame codec round-trips the multiplexer message
        shapes losslessly (requests, results, errors)."""
        req = PartitionRequest(graph, 4, seed=3, ga=GA)
        msg = _roundtrip((7, "submit", (req,)))
        assert msg[0] == 7 and msg[1] == "submit"
        back = msg[2][0]
        assert back.graph == graph
        assert (back.n_parts, back.seed, back.ga) == (4, 3, GA)

        with PartitionService(n_workers=1) as svc:
            result = svc.submit(PartitionRequest(graph, 4, method="greedy"))
        rid, ok, payload = _roundtrip((9, True, result))
        assert (rid, ok) == (9, True)
        assert np.array_equal(payload.assignment, result.assignment)
        assert payload.cut_size == result.cut_size
        assert payload.fitness == result.fitness

        rid, ok, payload = _roundtrip((1, False, ShardDiedError("gone")))
        assert not ok
        assert isinstance(payload, ShardDiedError)
        assert "gone" in str(payload)

        digest = graph_digest(graph)
        msg = _roundtrip((8, "submit", (
            PartitionRequest(None, 4, seed=3, ga=GA, graph_digest=digest),
        )))
        back = msg[2][0]
        assert back.graph is None and back.graph_digest == digest
        _, _, payload = _roundtrip((2, False, NeedsGraph("lost")))
        assert type(payload) is NeedsGraph and "lost" in str(payload)

    def test_unknown_error_type_degrades_to_service_error(self):
        from repro.service.models import error_from_wire

        exc = error_from_wire({"type": "WeirdVendorError", "message": "x"})
        assert type(exc) is ServiceError
        assert "WeirdVendorError" in str(exc)

    def test_parse_address(self):
        from repro.service import parse_address

        assert parse_address("10.0.0.5:4001") == ("10.0.0.5", 4001)
        with pytest.raises(ServiceError):
            parse_address("no-port")
        with pytest.raises(ServiceError):
            parse_address("host:abc")

    def test_socket_vs_pipe_trace_bit_identical(self):
        """Transport equivalence: the same mixed trace answers with
        bit-identical assignments over socket-attached shard servers
        and over local pipe shards; then a digest-only pass over the
        trace's partitions answers identically on both, and equal to
        graph-bearing requests to one process."""
        trace = service_trace(n_requests=8, seed=5, n_parts=4, ga=GA)
        servers = [ShardServer(n_workers=2).start() for _ in range(2)]
        try:
            front = ShardedPartitionService(
                attach=[s.address for s in servers]
            )
            with ServiceClient(service=front) as client:
                socket_results = replay_trace(client, trace)
                socket_digest = _digest_pass(front, trace)
            front.close()
            with ServiceClient(shards=2, n_workers=2) as client:
                pipe_results = replay_trace(client, trace)
                pipe_digest = _digest_pass(client.service, trace)
        finally:
            for server in servers:
                server.close()
        assert len(socket_results) == len(pipe_results)
        for (op_a, res_a), (op_b, res_b) in zip(socket_results, pipe_results):
            assert op_a == op_b
            if op_a["op"] in ("partition", "open", "update"):
                assert np.array_equal(res_a.assignment, res_b.assignment)
                assert res_a.cut_size == res_b.cut_size
                assert res_a.fitness == res_b.fitness
        with PartitionService(n_workers=1) as single:
            reference = [
                single.submit(PartitionRequest(workload(op["size"]), **kw))
                for op, kw in _digest_ops(trace)
            ]
        assert socket_digest and len(socket_digest) == len(reference)
        for a, b, ref in zip(socket_digest, pipe_digest, reference):
            for got in (a, b):
                assert np.array_equal(got.assignment, ref.assignment)
                assert (got.cut_size, got.fitness) == (
                    ref.cut_size, ref.fitness)

    def test_shard_server_outlives_front(self, graph):
        """Detaching a front is not a shard death: the server keeps its
        caches and sessions, and a re-attached front sees the caches
        warm and rebuilds its session routing (list_sessions) so the
        old front's sessions remain addressable."""
        with ShardServer(n_workers=1) as server:
            server.start()
            front = ShardedPartitionService(attach=[server.address])
            r1 = front.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            opened = front.open_session(graph, 4, seed=0, ga=GA)
            front.close()
            front = ShardedPartitionService(attach=[server.address])
            r2 = front.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            assert r2.cache_hit  # the server-side cache survived
            assert np.array_equal(r1.assignment, r2.assignment)
            # the session opened through the previous front still routes
            update = insert_local_nodes(graph, 5, seed=7).graph
            got = front.update_session(
                UpdateRequest(opened.session_id, update)
            )
            assert got.session_id == opened.session_id
            summary = front.close_session(opened.session_id)
            assert summary["n_updates"] == 1
            front.close()

    def test_attach_rejects_unreachable_address(self):
        with pytest.raises(ShardDiedError, match="cannot attach"):
            ShardedPartitionService(attach=["127.0.0.1:1"])

    def test_attach_validation(self):
        """An empty attach list must not silently fall back to local
        shards, and an n_shards that disagrees with the attach list is
        an error, not a guess."""
        with pytest.raises(ServiceError, match="at least one"):
            ShardedPartitionService(attach=[])
        with pytest.raises(ServiceError, match="conflicts"):
            ShardedPartitionService(
                n_shards=3, attach=["127.0.0.1:1", "127.0.0.1:2"]
            )
        # config overrides cannot reach remote workers — reject rather
        # than let the caller believe they took effect
        with pytest.raises(ServiceError, match="no service config"):
            ShardedPartitionService(attach=["127.0.0.1:1"], n_workers=4)

    def test_client_rejects_shards_plus_attach(self):
        with pytest.raises(ServiceError, match="not both"):
            ServiceClient(shards=2, attach=["127.0.0.1:4001"])

    def test_started_shard_server_closes_promptly(self):
        """Regression: close() used to wait out the 5 s join on the
        thread blocked in accept(), which closing the fd never woke."""
        server = ShardServer(n_workers=1).start()
        accept_thread = server._accept_thread
        t0 = time.perf_counter()
        server.close()
        assert time.perf_counter() - t0 < 1.0
        assert not accept_thread.is_alive()


# ----------------------------------------------------------------------
# binary data plane (PR 9)
# ----------------------------------------------------------------------

class TestBinaryFrames:
    def test_roundtrip_reencodes_byte_identically(self, graph):
        """The codec is lossless: a decoded message re-encodes to the
        byte-identical frame it was decoded from."""
        req = PartitionRequest(graph, 4, seed=3, ga=GA)
        with PartitionService(n_workers=1) as svc:
            result = svc.submit(PartitionRequest(graph, 4, method="greedy"))
        digest_only = PartitionRequest(
            None, 4, seed=3, ga=GA, graph_digest=graph_digest(graph)
        )
        for message in (
            (7, "submit", (req,)),
            (8, "submit", (digest_only,)),
            (9, True, result),
            (1, False, ShardDiedError("gone")),
            (3, False, NeedsGraph("lost")),
            (2, "stats", ()),
        ):
            assert _frame(_roundtrip(message)) == _frame(message)

    def test_decoded_arrays_are_zero_copy_views(self, graph):
        """Result assignments decode as views into the frame buffer —
        no per-array copy on the reply path (requests still canonicalize
        through the CSRGraph constructor)."""
        from repro.service.transport import decode_frame_binary

        with PartitionService(n_workers=1) as svc:
            result = svc.submit(PartitionRequest(graph, 4, method="greedy"))
        decoded = decode_frame_binary(_frame((9, True, result)))
        back = decoded[2].assignment
        assert not back.flags.owndata  # view into the frame
        assert np.array_equal(back, result.assignment)

    def test_decoded_graph_owns_its_arrays(self, graph):
        """A request graph decodes into arrays of its own: a shard
        interns it, and a view would pin the whole received frame."""
        back = _roundtrip((7, "submit", (PartitionRequest(graph, 4),)))[2][0]
        arrays = [back.graph.edges_u, back.graph.edges_v,
                  back.graph.edge_weights, back.graph.node_weights]
        if back.graph.coords is not None:
            arrays.append(back.graph.coords)
        assert all(arr.flags.owndata for arr in arrays)

    def test_truncated_header_raises_service_error(self, graph):
        from repro.service.transport import decode_frame_binary

        body = _frame((2, "stats", ()))
        with pytest.raises(ServiceError, match="truncated"):
            decode_frame_binary(body[:3])  # shorter than the length word
        with pytest.raises(ServiceError, match="overruns"):
            decode_frame_binary(body[:6])  # length word, header cut off

    def test_truncated_buffer_raises_service_error(self, graph):
        from repro.service.transport import decode_frame_binary

        body = _frame((7, "submit", (PartitionRequest(graph, 4),)))
        with pytest.raises(ServiceError, match="declares"):
            decode_frame_binary(body[:-8])  # last array buffer cut short

    def test_length_bomb_rejected_without_allocation(self):
        """A header declaring buffers far beyond the bytes on the wire
        must fail validation — never allocate or hang waiting."""
        import json as _json
        import struct as _struct

        from repro.service.transport import decode_frame_binary

        header = _json.dumps({
            "kind": "request", "id": 1, "verb": "submit",
            "args": [{"__nd__": [0, "i8", [1 << 40]]}],
            "bufs": [8 << 40],
        }).encode()
        body = _struct.pack(">I", len(header)) + header + b"\x00" * 16
        with pytest.raises(ServiceError, match="declares"):
            decode_frame_binary(body)
        # a reference whose shape disagrees with its (plausible) buffer
        header = _json.dumps({
            "kind": "request", "id": 1, "verb": "submit",
            "args": [{"__nd__": [0, "i8", [3]]}],
            "bufs": [16],
        }).encode()
        body = _struct.pack(">I", len(header)) + header + b"\x00" * 16
        with pytest.raises(ServiceError, match="disagrees"):
            decode_frame_binary(body)
        # malformed buffer table (negative / non-int entries)
        for bufs in ([-8], ["8"], [True]):
            header = _json.dumps({"kind": "x", "bufs": bufs}).encode()
            body = _struct.pack(">I", len(header)) + header
            with pytest.raises(ServiceError):
                decode_frame_binary(body)

    def test_socket_transport_mixed_stream_stays_in_sync(self, graph):
        """A frame without the magic byte (an empty one, or a JSON body)
        raises ServiceError only after it is consumed whole, so the
        next frame on the connection still decodes."""
        import socket as _socket
        import struct as _struct

        from repro.service.transport import SocketTransport

        a, b = _socket.socketpair()
        ta, tb = SocketTransport(a), SocketTransport(b)
        try:
            req = PartitionRequest(graph, 4, seed=3, ga=GA)
            for body in (b"", b'{"id":1,"verb":"stats","args":[]}'):
                a.sendall(_struct.pack(">I", len(body)) + body)
                ta.send((2, "submit", (req,)))
                with pytest.raises(ServiceError, match="magic byte"):
                    tb.recv()
                message = tb.recv()
                assert message[0] == 2
                assert message[2][0].graph == graph
        finally:
            ta.close()
            tb.close()

    def test_attach_refuses_other_ring_protocol(self):
        """A shard whose ``ping`` reports another ring protocol is
        refused at connect, with an error naming both versions."""
        from repro.service import RING_PROTOCOL_VERSION, ShardListener

        other = RING_PROTOCOL_VERSION + 1
        listener = ShardListener()

        def fake_shard():
            conn = listener.accept()
            try:
                req_id, verb, _ = conn.recv()
                assert verb == "ping"
                conn.send((req_id, True, {"ok": True, "ring_protocol": other}))
                conn.recv()  # the front hangs up after refusing
            except (EOFError, OSError):
                pass
            finally:
                conn.close()

        thread = threading.Thread(target=fake_shard, daemon=True)
        thread.start()
        try:
            with pytest.raises(ServiceError) as excinfo:
                ShardedPartitionService(attach=[listener.address])
        finally:
            listener.close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert type(excinfo.value) is ServiceError
        message = str(excinfo.value)
        assert f"ring protocol {other}" in message
        assert f"ring protocol {RING_PROTOCOL_VERSION}" in message

    def test_removed_binary_frames_option_is_rejected(self):
        """Removed config options fail loudly, naming the option, from
        every constructor that takes config overrides."""
        for option, value in (
            ("binary_frames", False),
            ("process_workers", 2),
            ("process_threshold", 0.0),
            ("overlap_updates", False),
            ("racing_portfolio", True),
            ("snapshot_interval_s", 1.0),
            ("trace_ring", 64),
        ):
            for build in (
                ServiceConfig, PartitionService, ShardServer,
                ShardedPartitionService,
            ):
                with pytest.raises(TypeError, match=option):
                    build(**{option: value})

    def test_restarted_shard_renegotiates_binary(self, graph):
        """A supervised replacement shard re-runs the ``ping`` hello
        before it serves, and answers stay bit-identical."""
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            shard = svc.shard_of(graph)
            before = svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            svc._slots[shard].handle.process.kill()
            assert _wait_for(
                lambda: svc.shard_health()[shard]["state"] == "up"
                and svc.shard_health()[shard]["restarts"] == 1
            )
            after = svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            assert np.array_equal(after.assignment, before.assignment)
            assert after.cut_size == before.cut_size


# ----------------------------------------------------------------------
# failover: shard death, restart, session persistence (PR 5)
# ----------------------------------------------------------------------

def _wait_for(predicate, timeout=30.0, interval=0.05) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestFailover:
    def test_shard_death_fails_pending_fast(self, graph):
        """The satellite bugfix: killing a shard mid-request must fail
        the waiting caller promptly with ShardDiedError — not leave it
        blocked forever on a reply that will never come."""
        with ShardedPartitionService(
            n_shards=2, n_workers=1, auto_restart=False
        ) as svc:
            shard = svc.shard_of(graph)
            caught: dict = {}

            def slow_call():
                try:
                    svc.submit(PartitionRequest(
                        graph, 4, seed=0,
                        ga=dict(population_size=64, max_generations=2000,
                                patience=None),
                    ))
                except Exception as exc:  # noqa: BLE001 - recorded for assert
                    caught["exc"] = exc

            thread = threading.Thread(target=slow_call)
            thread.start()
            handle = svc._slots[shard].handle
            assert _wait_for(lambda: bool(handle._pending))
            handle.process.kill()
            thread.join(timeout=15.0)
            assert not thread.is_alive(), "caller still blocked after death"
            assert isinstance(caught["exc"], ShardDiedError)
            # without auto-restart the slot stays down and fails fast
            assert svc.shard_health()[shard]["state"] == "down"
            with pytest.raises(ShardDiedError):
                svc.submit(PartitionRequest(graph, 4, method="greedy"))

    def test_restarted_shard_serves_same_digests(self, graph):
        """Supervised restart: the replacement takes the dead shard's
        slot, so digest routing is unchanged and answers stay
        bit-identical to a single-process service."""
        with PartitionService(n_workers=1) as single:
            ref = single.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            shard = svc.shard_of(graph)
            before = svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            svc._slots[shard].handle.process.kill()
            assert _wait_for(
                lambda: svc.shard_health()[shard]["state"] == "up"
                and svc.shard_health()[shard]["restarts"] == 1
            )
            after = svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            assert after.shard == before.shard == shard
            assert np.array_equal(after.assignment, ref.assignment)
            assert np.array_equal(before.assignment, ref.assignment)
            # the front answered that repeat; the replacement shard
            # computes the same bits when asked directly
            direct = svc._call(shard, "submit",
                               PartitionRequest(graph, 4, seed=0, ga=GA))
            assert np.array_equal(direct.assignment, ref.assignment)
            health = svc.shard_health()[shard]
            assert health["restarts"] == 1 and health["state"] == "up"

    @pytest.mark.skipif(
        not Path("/proc/self/fd").is_dir(), reason="counts /proc/self/fd"
    )
    def test_local_lane_leaks_no_file_descriptors(self, graph):
        """The front keeps no copy of a shard's socketpair end after
        the first spawn, a supervised restart or a resize growth, and
        close() frees every shard's descriptors at once: open → kill
        and restart → grow → close leaves the front's count unchanged."""
        import gc
        import os

        def cycle() -> None:
            with ShardedPartitionService(n_shards=1, n_workers=1) as svc:
                svc._slots[0].handle.process.kill()
                assert _wait_for(
                    lambda: svc.shard_health()[0]["state"] == "up"
                    and svc.shard_health()[0]["restarts"] == 1
                )
                svc.resize(2)
                svc.submit(PartitionRequest(graph, 4, method="greedy"))

        # warm-up: the first spawn-context start launches
        # multiprocessing's resource tracker, whose descriptor stays
        # open for the life of the process
        cycle()
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        cycle()
        assert len(os.listdir("/proc/self/fd")) == before

    def test_session_failover_bit_identical_to_uninterrupted(
        self, graph, lock_graph
    ):
        """The acceptance contract: a session restored from its
        snapshot after shard death continues with assignments
        bit-identical to an uninterrupted run at the same epochs.

        The whole run executes under the lock-order witness: the
        in-process reference service exercises the session locks, the
        sharded front its fleet/pending locks (the shard *children* are
        separate processes, invisible by design).  Every observed
        acquisition order must be in the static lock graph, the
        compute-lock → state-lock edge must actually be observed, and
        the state lock must never be held across a GA run."""
        updates = []
        g = graph
        for step in range(3):
            g = insert_local_nodes(g, 5, seed=100 + step).graph
            updates.append(g)

        with LockWitness() as witness:
            witness.probe(IncrementalGAPartitioner, "run_pending")

            with PartitionService(n_workers=1) as ref_svc:
                opened = ref_svc.open_session(graph, 4, seed=0, ga=GA)
                ref = [
                    ref_svc.update_session(UpdateRequest(opened.session_id, g))
                    for g in updates
                ]

            with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
                shard = svc.shard_of(graph)
                opened = svc.open_session(graph, 4, seed=0, ga=GA)
                assert opened.shard == shard
                first = svc.update_session(
                    UpdateRequest(opened.session_id, updates[0])
                )
                assert np.array_equal(first.assignment, ref[0].assignment)
                # crash the session's shard between epochs
                svc._slots[shard].handle.process.kill()
                assert _wait_for(
                    lambda: svc.shard_health()[shard]["state"] == "up"
                    and svc.shard_health()[shard]["restarts"] == 1
                )
                # the restored session resumes at the committed epoch —
                # same session id, bit-identical continuation
                for g, expected in zip(updates[1:], ref[1:]):
                    got = svc.update_session(
                        UpdateRequest(opened.session_id, g)
                    )
                    assert got.session_id == opened.session_id
                    assert np.array_equal(got.assignment, expected.assignment)
                    assert got.cut_size == expected.cut_size
                    assert got.fitness == expected.fitness
                summary = svc.close_session(opened.session_id)
                assert summary["n_updates"] == 3

        # witness: observed order ⊆ static graph, and the edge the
        # static analyzer claims between the session's locks was really
        # exercised (the in-process ref run's initial partition + every
        # overlapped ingestion acquire state under compute)
        mapped = witness.assert_subgraph_of(lock_graph)
        assert ("Session.compute_lock", "Session.lock") in mapped
        # the state lock is never observed held across a GA run (ref
        # service defaults to the overlapped path)
        runs = witness.assert_never_held_during(
            lock_graph, "Session.lock", "run_pending"
        )
        assert runs >= len(updates)

    def test_restart_limit_bounds_crash_loop(self, graph):
        """The supervisor restarts at most restart_limit times; beyond
        that the slot goes down and callers fail fast instead of the
        fleet thrashing forever."""
        with ShardedPartitionService(
            n_shards=1, n_workers=1, restart_limit=2
        ) as svc:
            for expected in (1, 2):
                svc._slots[0].handle.process.kill()
                assert _wait_for(
                    lambda: svc.shard_health()[0]["state"] == "up"
                    and svc.shard_health()[0]["restarts"] == expected
                ), f"restart {expected} did not happen"
            svc._slots[0].handle.process.kill()
            assert _wait_for(
                lambda: svc.shard_health()[0]["state"] == "down"
            )
            with pytest.raises(ShardDiedError):
                svc.submit(PartitionRequest(graph, 4, method="greedy"))

    def test_http_shard_death_answers_503(self, graph):
        """At the HTTP boundary a dead shard is the *service's* fault:
        503 (retryable), never 400 — clients must be able to tell
        'retry once the shard is back' from 'fix your request'."""
        from repro.service import HTTPServiceClient, serve

        svc = ShardedPartitionService(
            n_shards=2, n_workers=1, auto_restart=False
        )
        server = serve(port=0, background=True, service=svc)
        host, port = server.server_address
        client = HTTPServiceClient(f"http://{host}:{port}", timeout=60.0)
        try:
            shard = svc.shard_of(graph)
            svc._slots[shard].handle.process.kill()
            assert _wait_for(
                lambda: svc.shard_health()[shard]["state"] == "down"
            )
            with pytest.raises(ShardDiedError, match="HTTP 503"):
                client.partition(graph, 4, method="greedy")
        finally:
            svc.close()
            server.shutdown()
            server.server_close()

    def test_snapshot_restore_preserves_session_state(self, graph):
        """Unit-level: a PartitionService built over the same snapshot
        dir restores open sessions (same id, same epoch) and a restored
        session's next update is bit-identical."""
        import tempfile

        update = insert_local_nodes(graph, 5, seed=9).graph
        with tempfile.TemporaryDirectory() as tmp:
            with PartitionService(n_workers=1, snapshot_dir=tmp) as svc:
                opened = svc.open_session(graph, 4, seed=0, ga=GA)
                sid = opened.session_id
                assert svc.persistence.stats()["snapshots_written"] == 1
            # "crash": the service is gone, the store survives
            with PartitionService(n_workers=1, snapshot_dir=tmp) as revived:
                assert revived.sessions.stats()["restored"] == 1
                got = revived.update_session(UpdateRequest(sid, update))
            with PartitionService(n_workers=1) as ref_svc:
                ref_open = ref_svc.open_session(graph, 4, seed=0, ga=GA)
                ref = ref_svc.update_session(
                    UpdateRequest(ref_open.session_id, update)
                )
            assert np.array_equal(opened.assignment, ref_open.assignment)
            assert np.array_equal(got.assignment, ref.assignment)

    def test_closed_session_snapshot_is_forgotten(self, graph):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            with PartitionService(n_workers=1, snapshot_dir=tmp) as svc:
                opened = svc.open_session(graph, 4, seed=0, ga=GA)
                assert svc.persistence.store.list_ids() == [opened.session_id]
                svc.close_session(opened.session_id)
                assert svc.persistence.store.list_ids() == []
            with PartitionService(n_workers=1, snapshot_dir=tmp) as revived:
                assert revived.sessions.stats()["restored"] == 0

    def test_corrupt_snapshot_is_skipped(self, graph):
        import tempfile
        from pathlib import Path

        from repro.service.persistence import SNAPSHOT_SUFFIX

        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, f"s9-bad{SNAPSHOT_SUFFIX}").write_bytes(b"not pickle")
            with PartitionService(n_workers=1, snapshot_dir=tmp) as svc:
                assert svc.persistence.stats()["restore_failures"] == 1
                assert svc.sessions.stats()["restored"] == 0
                # the service still works
                r = svc.submit(PartitionRequest(graph, 4, method="greedy"))
                assert r.assignment.shape == (graph.n_nodes,)

    def test_failed_snapshot_write_is_rewritten_by_next_commit(
        self, graph, monkeypatch
    ):
        """A failed on-commit write degrades durability, never the
        answer: the update still answers, the failure is counted, the
        session's next commit stores its epoch, and a new service over
        the same directory resumes the session bit-identically to an
        uninterrupted run."""
        import tempfile

        from repro.service.persistence import SnapshotStore, restore_session

        updates = []
        g = graph
        for step in range(3):
            g = insert_local_nodes(g, 5, seed=200 + step).graph
            updates.append(g)
        with PartitionService(n_workers=1) as ref_svc:
            ref_open = ref_svc.open_session(graph, 4, seed=0, ga=GA)
            ref = [
                ref_svc.update_session(UpdateRequest(ref_open.session_id, u))
                for u in updates
            ]

        save = SnapshotStore.save
        failed = []

        def save_failing_once(store, session_id, data):
            if not failed:
                failed.append(session_id)
                raise OSError("No space left on device")
            save(store, session_id, data)

        with tempfile.TemporaryDirectory() as tmp:
            with PartitionService(n_workers=1, snapshot_dir=tmp) as svc:
                sid = svc.open_session(graph, 4, seed=0, ga=GA).session_id
                persistence = svc.persistence
                monkeypatch.setattr(SnapshotStore, "save", save_failing_once)
                first = svc.update_session(UpdateRequest(sid, updates[0]))
                assert failed == [sid]
                assert np.array_equal(first.assignment, ref[0].assignment)
                assert persistence.stats()["write_failures"] == 1
                assert persistence.stats()["snapshots_written"] == 1
                svc.update_session(UpdateRequest(sid, updates[1]))
                assert persistence.stats()["snapshots_written"] == 2
                stored = restore_session(persistence.store.load(sid))
                assert stored.partitioner.epoch == (
                    svc.sessions.get(sid).partitioner.epoch
                )
            with PartitionService(n_workers=1, snapshot_dir=tmp) as revived:
                assert revived.sessions.stats()["restored"] == 1
                got = revived.update_session(UpdateRequest(sid, updates[2]))
            assert np.array_equal(got.assignment, ref[2].assignment)
            assert got.cut_size == ref[2].cut_size
            assert got.fitness == ref[2].fitness


# ----------------------------------------------------------------------
# elastic fleet: ring resize, handoff, probes (PR 10)
# ----------------------------------------------------------------------

class TestElasticFleet:
    def test_grow_and_shrink_bit_identical_with_warm_handoff(self, graph):
        """The PR-10 acceptance contract at unit scale: a live 2→4 grow
        (and the 4→2 shrink back) under session traffic answers
        bit-identically to an uninterrupted single-process run, moves
        open sessions to their new ring owners, and re-seeds warm
        results so a re-submitted request stays a cache hit.  The front
        answers repeats on its own, so the re-warm is checked at the
        owner shards, on a graph whose owner the grow moves."""
        from repro.service import HashRing

        other = mesh_graph(56, seed=9)
        moved = next(
            g for g in (mesh_graph(40, seed=s) for s in range(100))
            if HashRing(2).owner(graph_digest(g))
            != HashRing(4).owner(graph_digest(g))
        )
        update = insert_local_nodes(graph, 5, seed=7).graph
        update2 = insert_local_nodes(update, 5, seed=8).graph
        with PartitionService(n_workers=1) as ref_svc:
            ref_open = ref_svc.open_session(graph, 4, seed=0, ga=GA)
            ref_part = ref_svc.submit(PartitionRequest(other, 4, seed=0, ga=GA))
            ref_moved = [
                ref_svc.submit(PartitionRequest(moved, 4, seed=s, ga=GA))
                for s in (0, 1)
            ]
            ref_upd = ref_svc.update_session(
                UpdateRequest(ref_open.session_id, update)
            )
            ref_upd2 = ref_svc.update_session(
                UpdateRequest(ref_open.session_id, update2)
            )
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            opened = svc.open_session(graph, 4, seed=0, ga=GA)
            assert np.array_equal(opened.assignment, ref_open.assignment)
            before = svc.submit(PartitionRequest(other, 4, seed=0, ga=GA))
            assert np.array_equal(before.assignment, ref_part.assignment)
            svc.submit(PartitionRequest(moved, 4, seed=0, ga=GA))

            summary = svc.resize(4)
            assert summary["changed"] and summary["spawned"] == [2, 3]
            assert svc.n_shards == 4 and svc.ring.epoch >= 1
            assert sorted(svc.ring.members) == [0, 1, 2, 3]

            # the session continues bit-identically wherever it now lives
            got = svc.update_session(UpdateRequest(opened.session_id, update))
            assert got.session_id == opened.session_id
            assert np.array_equal(got.assignment, ref_upd.assignment)
            # warm handoff: the re-submitted one-shot is still a hit,
            # whether or not its digest moved to a new owner
            again = svc.submit(PartitionRequest(other, 4, seed=0, ga=GA))
            assert again.cache_hit
            assert np.array_equal(again.assignment, ref_part.assignment)
            # the new owner of a moved digest holds its answer only if
            # the grow re-warmed it from the old owner's journal
            owned = svc._call(svc.shard_of(moved), "submit",
                              PartitionRequest(moved, 4, seed=0, ga=GA))
            assert owned.cache_hit
            assert np.array_equal(owned.assignment, ref_moved[0].assignment)
            # computed at width 4 by that owner: the shrink re-warms it
            # back onto the width-2 owner
            svc.submit(PartitionRequest(moved, 4, seed=1, ga=GA))

            shrink = svc.resize(2)
            assert shrink["changed"] and svc.n_shards == 2
            assert sorted(svc.ring.members) == [0, 1]
            got2 = svc.update_session(UpdateRequest(opened.session_id, update2))
            assert np.array_equal(got2.assignment, ref_upd2.assignment)
            final = svc.submit(PartitionRequest(other, 4, seed=0, ga=GA))
            assert final.cache_hit
            owned = svc._call(svc.shard_of(moved), "submit",
                              PartitionRequest(moved, 4, seed=1, ga=GA))
            assert owned.cache_hit
            assert np.array_equal(owned.assignment, ref_moved[1].assignment)
            summary = svc.close_session(opened.session_id)
            assert summary["n_updates"] == 2

    def test_resize_noop_and_validation(self, graph):
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            noop = svc.resize(2)
            assert not noop["changed"] and svc.ring.epoch == 0
            with pytest.raises(ServiceError):
                svc.resize(0)
            with pytest.raises(ServiceError):
                svc.ring_admin("bogus")
            with pytest.raises(ServiceError):
                svc.ring_admin("eject", shard=99)

    def test_dead_shard_serves_degraded_with_zero_lost_answers(self, graph):
        """Satellite: kill a shard that owns live keys and sessions;
        after a probe pass ejects it, every key answers from the
        surviving shard — retried one-shots and the adopted session are
        bit-identical to an uninterrupted run (zero lost answers)."""
        update = insert_local_nodes(graph, 5, seed=7).graph
        with PartitionService(n_workers=1) as ref_svc:
            ref_open = ref_svc.open_session(graph, 4, seed=0, ga=GA)
            ref_upd = ref_svc.update_session(
                UpdateRequest(ref_open.session_id, update)
            )
            ref_shot = ref_svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
        with ShardedPartitionService(
            n_shards=2, n_workers=1, auto_restart=False
        ) as svc:
            victim = svc.shard_of(graph)
            opened = svc.open_session(graph, 4, seed=0, ga=GA)
            assert opened.shard == victim
            assert np.array_equal(opened.assignment, ref_open.assignment)
            svc._slots[victim].handle.process.kill()
            assert _wait_for(
                lambda: svc.shard_health()[victim]["state"] == "down"
            )
            # the probe pass (normally the probe_interval_s loop)
            # ejects the dead shard: new epoch, keyspace rerouted,
            # sessions adopted from their on-commit snapshots
            svc.probe_shards()
            health = svc.stats()["health"][victim]
            assert health["in_ring"] is False
            assert health["probe_ok"] is False
            assert health["last_probe"] is not None
            assert health["probe_failures"] >= 1
            assert svc.ring.members == (1 - victim,)
            assert svc.ring.epoch == 1
            # retried keys answer bit-identically from the survivor
            retried = svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            assert retried.shard == 1 - victim
            assert np.array_equal(retried.assignment, ref_shot.assignment)
            got = svc.update_session(UpdateRequest(opened.session_id, update))
            assert got.session_id == opened.session_id
            assert np.array_equal(got.assignment, ref_upd.assignment)
            # the probe-failure counter is on the metrics surface
            snapshot = svc.metrics()
            failures = [
                series
                for series in snapshot["counters"]
                if series["name"] == "repro_shard_probe_failures_total"
            ]
            assert failures and sum(s["value"] for s in failures) >= 1

    def test_probe_ejects_and_readmits_remote_shard(self, graph):
        """Front-driven probes on an attached fleet: a killed remote
        shard is ejected (degraded N−1, new epoch) and re-admitted once
        a probe finds it answering again at the same address — no
        operator intervention beyond restarting the worker."""
        s0 = ShardServer(n_workers=1).start()
        s1 = ShardServer(n_workers=1).start()
        addr1 = s1.address
        svc = ShardedPartitionService(attach=[s0.address, s1.address])
        restarted = None
        try:
            assert svc.probe_shards()[1]["probe_ok"] is True
            s1.close()
            assert _wait_for(
                lambda: not svc.probe_shards()[1]["in_ring"]
            ), "dead remote shard was not ejected"
            assert svc.ring.members == (0,)
            # the fleet serves degraded meanwhile
            r = svc.submit(PartitionRequest(graph, 4, method="greedy"))
            assert r.shard == 0
            # recovery at the same address
            host, port = addr1.rsplit(":", 1)
            restarted = ShardServer(host=host, port=int(port), n_workers=1).start()
            assert _wait_for(
                lambda: svc.probe_shards()[1]["in_ring"]
            ), "recovered remote shard was not readmitted"
            assert svc.ring.members == (0, 1)
            assert svc.shard_health()[1]["probe_ok"] is True
        finally:
            svc.close()
            s0.close()
            if restarted is not None:
                restarted.close()

    def test_probe_ejects_shard_whose_ping_dies(self, monkeypatch):
        """A live slot whose ``ping`` raises ShardDiedError fails its
        probe: ejected from the ring with one probe failure counted
        (the death error must not pass for an answer)."""
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            handle = svc._slots[1].handle
            call = handle.call

            def dying_ping(verb, *args, **kwargs):
                if verb == "ping":
                    raise ShardDiedError("shard 1 died with the ping in flight")
                return call(verb, *args, **kwargs)

            monkeypatch.setattr(handle, "call", dying_ping)
            rows = svc.probe_shards()
            assert rows[1]["probe_ok"] is False
            assert rows[1]["probe_failures"] == 1
            assert rows[1]["in_ring"] is False
            assert svc.ring.members == (0,)
            assert rows[0]["probe_ok"] is True and rows[0]["in_ring"]

    def test_remove_shard_is_permanent(self, graph):
        with ShardedPartitionService(n_shards=3, n_workers=1) as svc:
            summary = svc.remove_shard(2)
            assert summary["ring"]["members"] == [0, 1]
            assert svc.shard_health()[2]["state"] == "removed"
            # removed slots stay out: probes skip them, readmit refuses
            svc.probe_shards()
            assert svc.shard_health()[2]["state"] == "removed"
            with pytest.raises(ServiceError):
                svc.ring_admin("readmit", shard=2)
            r = svc.submit(PartitionRequest(graph, 4, method="greedy"))
            assert r.shard in (0, 1)
            with pytest.raises(ServiceError):
                svc.remove_shard(0) and svc.remove_shard(1)

    def test_ring_admin_http_endpoint(self, graph):
        """The ``/v1/admin/ring`` endpoint through the shared routing
        table: status, resize, eject/readmit — and 404 on a service
        without a ring."""
        import json

        from repro.service import dispatch_request

        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            status, _, body = dispatch_request(svc, "GET", "/v1/admin/ring")
            assert status == 200
            answer = json.loads(body)
            assert answer["ring"]["members"] == [0, 1]
            assert len(answer["health"]) == 2

            status, _, body = dispatch_request(
                svc, "POST", "/v1/admin/ring",
                json.dumps({"action": "eject", "shard": 1}).encode(),
            )
            assert status == 200
            assert json.loads(body)["ring"]["members"] == [0]
            status, _, body = dispatch_request(
                svc, "POST", "/v1/admin/ring",
                json.dumps({"action": "readmit", "shard": 1}).encode(),
            )
            assert status == 200
            assert json.loads(body)["ring"]["members"] == [0, 1]

            status, _, body = dispatch_request(
                svc, "POST", "/v1/admin/ring",
                json.dumps({"action": "resize", "n_shards": 3}).encode(),
            )
            assert status == 200
            assert json.loads(body)["ring"]["n_slots"] == 3

            # bad action → 400, not a crash
            status, _, _ = dispatch_request(
                svc, "POST", "/v1/admin/ring",
                json.dumps({"action": "bogus"}).encode(),
            )
            assert status == 400
        with PartitionService(n_workers=1) as single:
            status, _, _ = dispatch_request(single, "GET", "/v1/admin/ring")
            assert status == 404


# ----------------------------------------------------------------------
# digest-first requests: a lost graph costs one 409 and a resend
# ----------------------------------------------------------------------

def _record_sends(client) -> list:
    """Wrap ``client``'s transport; each request it sends appends
    ``(HTTP status, whether the body carried a graph)``."""
    sends = []
    send = client._request

    def recording(method, path, body, headers):
        status, data = send(method, path, body, headers)
        sends.append((status, "graph" in json.loads(body)))
        return status, data

    client._request = recording
    return sends


class _ShardDiesOnDigest(ShardedPartitionService):
    """Fault injection: the first digest-only request kills its holder
    shard and, once the front has seen the death, fails as a call in
    flight on that shard does."""

    died = False

    def submit(self, request):
        if request.graph is None and not self.died:
            self.died = True
            shard, _ = self._route(request)
            handle = self._slots[shard].handle
            handle.process.kill()
            handle._reader.join(timeout=30.0)  # the death path has run
            raise ShardDiedError(
                f"shard {shard} died with the request in flight"
            )
        return super().submit(request)


class TestDigestFirst:
    def _serve(self, service=None, **kwargs):
        from repro.service import HTTPServiceClient, serve

        server = serve(port=0, background=True, service=service, **kwargs)
        host, port = server.server_address
        return server, HTTPServiceClient(
            f"http://{host}:{port}", timeout=120.0
        )

    @staticmethod
    def _stop(server, client) -> None:
        client.close()
        server.service.close()
        server.shutdown()
        server.server_close()

    @staticmethod
    def _reference(graph, **kwargs):
        with PartitionService(n_workers=1) as single:
            return single.submit(PartitionRequest(graph, 4, **kwargs))

    def _assert_same(self, got, graph, **kwargs) -> None:
        want = self._reference(graph, **kwargs)
        assert np.array_equal(got.assignment, want.assignment)
        assert (got.cut_size, got.fitness) == (want.cut_size, want.fitness)

    def test_restarted_holder_shard(self, graph):
        server, client = self._serve(shards=2, n_workers=1)
        try:
            svc = server.service
            client.partition(graph, 4, seed=0, ga=GA)  # ships the graph
            shard = svc.shard_of(graph)
            svc._slots[shard].handle.process.kill()
            assert _wait_for(
                lambda: svc.shard_health()[shard]["state"] == "up"
                and svc.shard_health()[shard]["restarts"] == 1
            )
            sends = _record_sends(client)
            got = client.partition(graph, 4, seed=1, ga=GA)
            assert sends == [(409, False), (200, True)]
            assert got.shard == shard
            self._assert_same(got, graph, seed=1, ga=GA)
        finally:
            self._stop(server, client)

    def test_ring_grow_moved_digest(self):
        """After a 2 → 4 grow moves a digest to a new owner, its
        journal-warmed answer is still a digest-only hit — at the front
        and at the new owner shard — and a new request for it costs one
        409."""
        from repro.service import HashRing

        graph = next(
            g for g in (mesh_graph(40, seed=s) for s in range(100))
            if HashRing(2).owner(graph_digest(g))
            != HashRing(4).owner(graph_digest(g))
        )
        server, client = self._serve(shards=2, n_workers=1)
        try:
            svc = server.service
            first = client.partition(graph, 4, seed=0, ga=GA)
            client.ring_resize(4)
            assert svc.shard_of(graph) != first.shard
            sends = _record_sends(client)
            hit = client.partition(graph, 4, seed=0, ga=GA)
            assert hit.cache_hit and hit.shard == svc.shard_of(graph)
            assert np.array_equal(hit.assignment, first.assignment)
            assert sends == [(200, False)]
            owned = svc._call(svc.shard_of(graph), "submit", PartitionRequest(
                None, 4, seed=0, ga=GA, graph_digest=graph_digest(graph)))
            assert owned.cache_hit
            assert np.array_equal(owned.assignment, first.assignment)
            got = client.partition(graph, 4, seed=1, ga=GA)
            assert sends[1:] == [(409, False), (200, True)]
            self._assert_same(got, graph, seed=1, ga=GA)
        finally:
            self._stop(server, client)

    def test_graph_and_result_evicted(self, graph):
        """A cache too small for two graphs: traffic on another graph
        evicts the first graph and its answer, and the digest-only
        repeat recomputes the identical answer after one 409."""
        from repro.service.cache import _graph_nbytes, _result_nbytes

        other = mesh_graph(48, seed=4)
        graph_budget = _graph_nbytes(graph) * 3 // 2
        server, client = self._serve(n_workers=1, cache_bytes=2 * graph_budget)
        try:
            store = server.service.store
            first = client.partition(graph, 4, seed=0, ga=GA)
            result_bytes = _result_nbytes(first)
            for seed in range(store.results.max_bytes // result_bytes + 1):
                client.partition(other, 4, seed=seed, method="greedy")
            digest = graph_digest(graph)
            assert store.graphs.lookup(digest) is None
            assert store.results.get(first.request_key) is None
            sends = _record_sends(client)
            got = client.partition(graph, 4, seed=0, ga=GA)
            assert sends == [(409, False), (200, True)]
            assert not got.cache_hit
            assert np.array_equal(got.assignment, first.assignment)
            self._assert_same(got, graph, seed=0, ga=GA)
        finally:
            self._stop(server, client)

    def test_shard_death_then_lost_graph(self, graph):
        """A 503 (the holder died mid-call) is retried digest-only; the
        restarted holder lacks the graph, so one 409 and a resend
        follow."""
        svc = _ShardDiesOnDigest(n_shards=2, n_workers=1)
        server, client = self._serve(service=svc)
        try:
            client.partition(graph, 4, seed=0, ga=GA)  # ships the graph
            sends = _record_sends(client)
            got = client.partition(graph, 4, seed=1, ga=GA)
            assert svc.died
            assert sends == [(503, False), (409, False), (200, True)]
            self._assert_same(got, graph, seed=1, ga=GA)
        finally:
            self._stop(server, client)


# ----------------------------------------------------------------------
# the front's answer cache: repeats never cross a shard transport
# ----------------------------------------------------------------------

def _record_shard_calls(svc) -> list:
    """Wrap ``svc``'s shard RPC; each data call appends ``(shard, verb,
    number of requests)``."""
    calls = []
    call = svc._traced_call

    def recording(parent, shard, verb, *args):
        n = len(args[0]) if verb == "submit_many" else 1
        calls.append((shard, verb, n))
        return call(parent, shard, verb, *args)

    svc._traced_call = recording
    return calls


def _counter(snapshot: dict, name: str, **labels) -> float:
    return sum(
        c["value"] for c in snapshot["counters"]
        if c["name"] == name and c["labels"] == labels
    )


class TestFrontCache:
    def test_repeat_answers_with_owner_dead(self, graph):
        """A repeat through ServiceClient(shards=2) is answered by the
        front: the owner shard is dead and never restarted, yet the
        same bits come back, marked with the owner, with no shard call."""
        request = dict(seed=0, ga=GA)
        with ServiceClient(
            shards=2, n_workers=1, auto_restart=False
        ) as client:
            svc = client.service
            first = client.partition(graph, 4, **request)
            owner = svc.shard_of(graph)
            svc._slots[owner].handle.process.kill()
            assert _wait_for(
                lambda: svc.shard_health()[owner]["state"] == "down"
            )
            calls = _record_shard_calls(svc)
            again = client.partition(graph, 4, **request)
            assert calls == []
            assert again.cache_hit and not first.cache_hit
            assert again.shard == first.shard == owner
            assert np.array_equal(again.assignment, first.assignment)
            assert (again.cut_size, again.fitness) == (
                first.cut_size, first.fitness)
            with pytest.raises(ShardDiedError):  # a miss still needs it
                client.partition(graph, 4, seed=1, ga=GA)

    def test_http_repeat_answers_with_owner_dead(self, graph):
        from repro.service import HTTPServiceClient, serve

        server = serve(
            port=0, background=True, shards=2, n_workers=1,
            auto_restart=False,
        )
        host, port = server.server_address
        client = HTTPServiceClient(f"http://{host}:{port}", timeout=120.0)
        try:
            svc = server.service
            first = client.partition(graph, 4, seed=0, ga=GA)
            owner = svc.shard_of(graph)
            svc._slots[owner].handle.process.kill()
            assert _wait_for(
                lambda: svc.shard_health()[owner]["state"] == "down"
            )
            calls = _record_shard_calls(svc)
            sends = _record_sends(client)
            again = client.partition(graph, 4, seed=0, ga=GA)
            assert calls == [] and sends == [(200, False)]
            assert again.cache_hit and again.shard == owner
            assert np.array_equal(again.assignment, first.assignment)
            assert again.cut_size == first.cut_size
        finally:
            client.close()
            server.service.close()
            server.shutdown()
            server.server_close()

    def test_one_hit_one_miss_counted_once(self, graph):
        """Over HTTP, a miss then its repeat: /v1/metrics and the
        stats() view of it each show exactly one result-cache hit, one
        miss and two requests, across the front and both shards."""
        from repro.service import HTTPServiceClient, serve

        server = serve(port=0, background=True, shards=2, n_workers=1)
        host, port = server.server_address
        client = HTTPServiceClient(f"http://{host}:{port}", timeout=120.0)
        try:
            client.partition(graph, 4, seed=0, ga=GA)
            client.partition(graph, 4, seed=0, ga=GA)
            snap = client.metrics()
            stats = client.stats()
            front = server.service._answers.stats()
        finally:
            client.close()
            server.service.close()
            server.shutdown()
            server.server_close()
        assert _counter(snap, "repro_cache_hits_total", cache="results") == 1
        assert _counter(
            snap, "repro_cache_misses_total", cache="results") == 1
        assert _counter(
            snap, "repro_requests_total", endpoint="partition") == 2
        assert snap["latency_ms"]["partition"]["count"] == 2
        assert stats["cache"]["results"]["hits"] == 1
        assert stats["cache"]["results"]["misses"] == 1
        assert stats["latency"]["count"] == 2
        assert front["entries"] == 1 and front["hits"] == 1
        # the one hit is the front LRU's: no shard answered from cache
        assert stats["cache"]["results"]["hits"] == front["hits"]

    def test_front_hit_is_one_traced_span(self, graph):
        ctx = {"trace_id": "ef" * 8, "span_id": "01" * 4}
        with ShardedPartitionService(
            n_shards=2, n_workers=1, trace_enabled=True
        ) as svc:
            svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA, trace=ctx))
            records = svc.tracer.records(ctx["trace_id"])
        (front,) = records
        assert front["name"] == "front.submit"
        assert front["attrs"]["cache_hit"] is True
        assert front["parent_id"] == ctx["span_id"]

    def test_budget_too_small_falls_through_to_the_shard(self, graph):
        """A cache_bytes that holds one answer per cache: the second
        request evicts the first, so its repeat is sent to the shard
        again and comes back with the same bits."""
        from repro.service.cache import _result_nbytes

        with PartitionService(n_workers=1) as single:
            ref = single.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
        one = _result_nbytes(ref)
        with ShardedPartitionService(
            n_shards=2, n_workers=1, cache_bytes=2 * (one * 3 // 2)
        ) as svc:
            first = svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            svc.submit(PartitionRequest(graph, 4, seed=1, ga=GA))
            # one eviction in the front LRU, one in the owner's cache
            assert svc._answers.stats()["evictions"] == 1
            assert svc.stats()["cache"]["results"]["evictions"] == 2
            calls = _record_shard_calls(svc)
            again = svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            assert calls == [(svc.shard_of(graph), "submit", 1)]
        for got in (first, again):
            assert not got.cache_hit
            assert np.array_equal(got.assignment, ref.assignment)
            assert (got.cut_size, got.fitness) == (ref.cut_size, ref.fitness)

    def test_submit_many_mixes_front_hits_and_misses(self, graph):
        other = mesh_graph(56, seed=9)
        requests = [
            PartitionRequest(graph, 4, seed=0, ga=GA),
            PartitionRequest(other, 4, method="greedy"),
            PartitionRequest(other, 4, seed=0, ga=GA),
            PartitionRequest(graph, 4, method="random", seed=2),
            PartitionRequest(None, 4, method="random", seed=5,
                             graph_digest=graph_digest(other)),
        ]
        with PartitionService(n_workers=1) as single:
            ref = [single.submit(r) for r in requests[:4]]
            ref.append(single.submit(
                PartitionRequest(other, 4, method="random", seed=5)))
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            svc.submit(requests[0])
            svc.submit(requests[2])
            calls = _record_shard_calls(svc)
            out = svc.submit_many(requests)
            assert [r.cache_hit for r in out] == [
                True, False, True, False, False]
            assert sum(n for _, verb, n in calls) == 3
            assert all(verb == "submit_many" for _, verb, _ in calls)
            assert [r.shard for r in out] == [
                svc.shard_of(g) for g in (graph, other, other, graph, other)
            ]
            # the batch stored its misses: the same batch again is all
            # front hits and makes no shard call
            calls.clear()
            repeat = svc.submit_many(requests)
            assert calls == [] and all(r.cache_hit for r in repeat)
        for got in (out, repeat):
            assert [r.method for r in got] == [r.method for r in ref]
            for a, b in zip(got, ref):
                assert np.array_equal(a.assignment, b.assignment)
                assert (a.cut_size, a.fitness) == (b.cut_size, b.fitness)


# ----------------------------------------------------------------------
# miss placement: bounded load on the ring's preference order
# ----------------------------------------------------------------------

def _graphs_sharing_an_owner(n_shards: int = 2) -> tuple:
    """Two distinct meshes whose digests have the same ring owner."""
    from repro.service import HashRing

    ring, seen = HashRing(n_shards), {}
    for seed in range(100):
        g = mesh_graph(48, seed=seed)
        owner = ring.owner(graph_digest(g))
        if owner in seen:
            return seen[owner], g
        seen[owner] = g
    raise AssertionError("no two meshes share an owner")


def _before_calls(svc, hook) -> None:
    """Run ``hook(shard, verb, args)`` before each of ``svc``'s shard
    data calls, after placement has counted the call in flight."""
    call = svc._traced_call

    def hooked(parent, shard, verb, *args):
        hook(shard, verb, args)
        return call(parent, shard, verb, *args)

    svc._traced_call = hooked


class _Hold:
    """Keeps one shard call in flight at the front until released: the
    call ``start()`` makes waits, once placement has counted it, if
    ``match(verb, args)``."""

    def __init__(self, svc, start, match) -> None:
        self.held = threading.Event()
        self.release = threading.Event()
        self.result = None

        def hook(shard, verb, args):
            if match(verb, args):
                self.held.set()
                assert self.release.wait(timeout=60)

        _before_calls(svc, hook)
        self.thread = threading.Thread(
            target=lambda: setattr(self, "result", start())
        )

    def __enter__(self) -> "_Hold":
        self.thread.start()
        assert self.held.wait(timeout=60)
        return self

    def __exit__(self, *exc) -> None:
        self.release.set()
        self.thread.join(timeout=60)


def _hold_submit(svc, graph) -> _Hold:
    """Holds a miss on ``graph`` (GA seed 99) at its owner."""
    return _Hold(
        svc,
        lambda: svc.submit(PartitionRequest(graph, 4, seed=99, ga=GA)),
        lambda verb, args: verb == "submit" and args[0].seed == 99,
    )


def _inflight(svc) -> dict:
    return {
        g["labels"]["shard"]: g["value"]
        for g in svc.metrics()["gauges"]
        if g["name"] == "repro_shard_inflight"
    }


class TestPlacement:
    def test_concurrent_misses_on_one_owner_run_on_both_shards(self):
        """Two distinct misses in flight at once on one owner: the second
        spills to the other shard, and both answers match one process."""
        from concurrent.futures import ThreadPoolExecutor

        a, b = _graphs_sharing_an_owner()
        requests = [PartitionRequest(g, 4, seed=0, ga=GA) for g in (a, b)]
        with PartitionService(n_workers=1) as single:
            ref = [single.submit(r) for r in requests]
        with ShardedPartitionService(
            n_shards=2, n_workers=1, trace_enabled=True
        ) as svc:
            owner = svc.shard_of(a)
            assert svc.shard_of(b) == owner
            both_placed = threading.Barrier(2, timeout=60)
            _before_calls(svc, lambda *_: both_placed.wait())
            with ThreadPoolExecutor(max_workers=2) as pool:
                out = list(pool.map(svc.submit, requests))
            assert sorted(r.shard for r in out) == [0, 1]
            spans = [
                r["attrs"] for r in svc.tracer.records()
                if r["name"] == "front.submit"
            ]
            assert sorted(
                (attrs["owner"], attrs["shard"]) for attrs in spans
            ) == sorted((owner, r.shard) for r in out)
            snap = svc.metrics()
            assert _counter(
                snap, "repro_placements_total", placement="owner") == 1
            assert _counter(
                snap, "repro_placements_total", placement="spill") == 1
            assert _inflight(svc) == {"0": 0.0, "1": 0.0}
            # a repeat is a front hit, marked with the owner
            again = svc.submit(requests[1])
            assert again.cache_hit and again.shard == owner
        for got, want in zip(out, ref):
            assert not got.cache_hit
            assert np.array_equal(got.assignment, want.assignment)
            assert (got.cut_size, got.fitness) == (want.cut_size, want.fitness)

    def test_concurrent_identical_misses_execute_once(self, graph):
        """The second of two identical misses goes where the first runs
        (the owner is busy, so bounded load alone would spill it), and
        that shard's scheduler joins them."""
        from concurrent.futures import ThreadPoolExecutor

        # a budget long enough that both calls reach the shard while
        # the first one runs
        request = PartitionRequest(
            graph, 4, seed=0,
            ga=dict(population_size=64, max_generations=30, patience=None),
        )
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            both_placed = threading.Barrier(2, timeout=60)
            _before_calls(svc, lambda *_: both_placed.wait())
            with ThreadPoolExecutor(max_workers=2) as pool:
                out = list(pool.map(svc.submit, [request, request]))
            scheduler = svc.stats()["scheduler"]
            spills = _counter(
                svc.metrics(), "repro_placements_total", placement="spill")
        assert scheduler["jobs_executed"] == 1
        assert scheduler["jobs_joined"] == 1
        assert spills == 0
        assert out[0].shard == out[1].shard
        assert np.array_equal(out[0].assignment, out[1].assignment)

    def test_pinned_calls_stay_on_a_busy_owner(self, graph):
        """With the owner holding a call, a plain miss spills, but a
        ``warm_start`` miss with no seed elsewhere, a session's open and
        update, and a ``submit_many`` batch all run on the owner."""
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            owner = svc.shard_of(graph)
            with _hold_submit(svc, graph) as hold:
                warm = svc.submit(PartitionRequest(
                    graph, 4, seed=2, ga=GA, warm_start=True))
                spilled = svc.submit(PartitionRequest(graph, 4, seed=1, ga=GA))
                assert spilled.shard != owner
                opened = svc.open_session(graph, 4, seed=0, ga=GA)
                update = insert_local_nodes(graph, 5, seed=7)
                updated = svc.update_session(
                    UpdateRequest(opened.session_id, update.graph))
                batch = svc.submit_many([
                    PartitionRequest(graph, 4, seed=s, ga=GA) for s in (3, 4)
                ])
                assert _inflight(svc)[str(owner)] == 1.0
            assert hold.result.shard == owner
            assert warm.shard == opened.shard == updated.shard == owner
            assert [r.shard for r in batch] == [owner, owner]
            snap = svc.metrics()
            assert _counter(
                snap, "repro_placements_total", placement="spill") == 1
            assert _inflight(svc) == {"0": 0.0, "1": 0.0}

    @pytest.mark.parametrize("verb", ["open_session", "submit_many"])
    def test_pinned_calls_count_as_load(self, graph, verb):
        """A session verb or a batch in flight on the owner is load: a
        miss on the same owner spills while it runs."""
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            owner = svc.shard_of(graph)
            start = {
                "open_session": lambda: svc.open_session(
                    graph, 4, seed=0, ga=GA),
                "submit_many": lambda: svc.submit_many(
                    [PartitionRequest(graph, 4, seed=5, ga=GA)]),
            }[verb]
            with _Hold(svc, start, lambda v, _: v == verb) as hold:
                assert _inflight(svc)[str(owner)] == 1.0
                spilled = svc.submit(PartitionRequest(graph, 4, seed=1, ga=GA))
            assert spilled.shard != owner
            pinned = hold.result if verb == "open_session" else hold.result[0]
            assert pinned.shard == owner

    def test_never_spills_to_a_down_shard(self, graph):
        """A dead non-owner is no spill target: with the owner busy, a
        second miss runs on the owner and returns one process's bits
        instead of failing on the dead shard."""
        request = PartitionRequest(graph, 4, seed=1, ga=GA)
        with PartitionService(n_workers=1) as single:
            want = single.submit(request)
        with ShardedPartitionService(
            n_shards=2, n_workers=1, auto_restart=False
        ) as svc:
            owner = svc.shard_of(graph)
            svc._slots[1 - owner].handle.process.kill()
            assert _wait_for(
                lambda: svc.shard_health()[1 - owner]["state"] == "down"
            )
            with _hold_submit(svc, graph) as hold:
                got = svc.submit(request)
            snap = svc.metrics()
        assert hold.result.shard == got.shard == owner
        assert np.array_equal(got.assignment, want.assignment)
        assert (got.cut_size, got.fitness) == (want.cut_size, want.fitness)
        assert _counter(snap, "repro_placements_total", placement="spill") == 0

    def test_evicted_answers_repeat_on_the_shard_that_ran_them(self, graph):
        """With room for one answer per cache, the front evicts answers
        the shards still hold: each repeat goes back to the shard that
        answered it, the busy owner included, and hits its cache."""
        from repro.service.cache import _result_nbytes

        requests = [PartitionRequest(graph, 4, seed=s, ga=GA) for s in (0, 1)]
        with PartitionService(n_workers=1) as single:
            want = [single.submit(r) for r in requests]
        one = _result_nbytes(want[0])
        with ShardedPartitionService(
            n_shards=2, n_workers=1, cache_bytes=2 * (one * 3 // 2)
        ) as svc:
            owner = svc.shard_of(graph)
            first = [svc.submit(requests[0])]
            with _hold_submit(svc, graph):
                first.append(svc.submit(requests[1]))  # spills
                calls = _record_shard_calls(svc)
                again = [svc.submit(requests[0])]
            again.append(svc.submit(requests[1]))
        assert [r.shard for r in first] == [owner, 1 - owner]
        assert calls == [(owner, "submit", 1), (1 - owner, "submit", 1)]
        assert [r.shard for r in again] == [owner, 1 - owner]
        for got, ran, ref in zip(again, first, want):
            assert got.cache_hit and not ran.cache_hit
            for result in (got, ran):
                assert np.array_equal(result.assignment, ref.assignment)
                assert (result.cut_size, result.fitness) == (
                    ref.cut_size, ref.fitness)

    def test_warm_start_runs_where_the_best_seed_is(self, graph):
        """A spilled miss leaves its warm seed on the shard that ran it:
        a ``warm_start`` miss goes there and matches one process that
        ran the same two requests.  Once that shard is down, the next
        one runs on the owner."""
        first = PartitionRequest(graph, 4, seed=1, ga=GA)
        warm = PartitionRequest(graph, 4, seed=2, ga=GA, warm_start=True)
        with PartitionService(n_workers=1) as single:
            single.submit(first)
            want = single.submit(warm)
        with ShardedPartitionService(
            n_shards=2, n_workers=1, auto_restart=False
        ) as svc:
            owner = svc.shard_of(graph)
            with _hold_submit(svc, graph):
                spilled = svc.submit(first)
                got = svc.submit(warm)
            svc._slots[spilled.shard].handle.process.kill()
            assert _wait_for(
                lambda: svc.shard_health()[spilled.shard]["state"] == "down"
            )
            later = svc.submit(PartitionRequest(
                graph, 4, seed=3, ga=GA, warm_start=True))
        assert later.shard == owner
        assert spilled.shard != owner
        assert got.shard == spilled.shard
        assert np.array_equal(got.assignment, want.assignment)
        assert (got.cut_size, got.fitness) == (want.cut_size, want.fitness)

    def test_http_spill_without_the_graph_costs_one_409(self, graph):
        """A digest-only miss placed on a shard that never saw its graph
        costs one 409 and one resend and returns the same bits; the
        next one placed there needs no resend."""
        from repro.service import HTTPServiceClient, serve

        server = serve(port=0, background=True, shards=2, n_workers=1)
        host, port = server.server_address
        client = HTTPServiceClient(f"http://{host}:{port}", timeout=120.0)
        try:
            svc = server.service
            owner = svc.shard_of(graph)
            client.partition(graph, 4, seed=0, ga=GA)  # ships to the owner
            with _hold_submit(svc, graph):
                sends = _record_sends(client)
                got = client.partition(graph, 4, seed=1, ga=GA)
                assert sends == [(409, False), (200, True)]
                assert got.shard != owner
                again = client.partition(graph, 4, seed=2, ga=GA)
                assert sends[2:] == [(200, False)]
                assert again.shard == got.shard
        finally:
            client.close()
            server.service.close()
            server.shutdown()
            server.server_close()
        with PartitionService(n_workers=1) as single:
            for seed, result in ((1, got), (2, again)):
                want = single.submit(PartitionRequest(graph, 4, seed=seed, ga=GA))
                assert np.array_equal(result.assignment, want.assignment)
                assert (result.cut_size, result.fitness) == (
                    want.cut_size, want.fitness)

    def test_inflight_returns_to_zero_after_failed_calls(self, graph):
        with ShardedPartitionService(
            n_shards=2, n_workers=1, auto_restart=False
        ) as svc:
            with pytest.raises(NeedsGraph):
                svc.submit(PartitionRequest(
                    None, 4, seed=0, ga=GA, graph_digest="0" * 32))
            with pytest.raises(ServiceError) as bad:
                svc.submit(PartitionRequest(graph, 4, ga={"bogus": 1}))
            assert not isinstance(bad.value, ShardDiedError)
            owner = svc.shard_of(graph)
            svc._slots[owner].handle.process.kill()
            assert _wait_for(
                lambda: svc.shard_health()[owner]["state"] == "down"
            )
            with pytest.raises(ShardDiedError):
                svc.submit(PartitionRequest(graph, 4, seed=1, ga=GA))
            with pytest.raises(ShardDiedError):
                svc.open_session(graph, 4, seed=0, ga=GA)
            assert _inflight(svc) == {"0": 0.0, "1": 0.0}
            assert svc._inflight_keys == {}

    def test_load_counts_survive_contention(self):
        """8 threads claim and release placed misses (some with one
        shared key, some ``warm_start``) and pinned calls under a 1 µs
        switch interval: every count returns to 0.  Then, three times, 8
        threads note answers of rising fitness for one graph: its best
        seed is the best noted.  A lost update would break either."""
        import sys
        from types import SimpleNamespace

        digests = ["%032x" % (7919 * s) for s in range(4)]
        request = PartitionRequest(mesh_graph(48, seed=3), 4)

        def run(worker) -> None:
            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(8)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)

        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:

            def place(t: int) -> None:
                for i in range(5000):
                    digest = digests[(t + i) % len(digests)]
                    owner = svc.ring.owner(digest)
                    key = None if i % 3 == 0 else f"key-{i % 5}"
                    if key is None:
                        shard = svc._claim(owner)
                    else:
                        seed_key = (
                            (digest, 4, "fitness1") if i % 3 == 2 else None
                        )
                        shard = svc._claim(owner, digest, key, seed_key)
                    svc._release(shard, key)

            run(place)
            assert _inflight(svc) == {"0": 0.0, "1": 0.0}
            assert svc._inflight_keys == {}

            for digest in digests[1:]:

                def note(t: int, digest=digest) -> None:
                    for i in range(5000):
                        svc._note_answer(
                            request, digest, f"key-{i % 5}", t % 2,
                            SimpleNamespace(fitness=8.0 * i + t),
                        )

                run(note)
                best = svc._best_seed[(digest, 4, "fitness1")]
                assert best[0] == 8.0 * 4999 + 7

    def test_serial_stream_never_spills(self):
        """One request at a time never finds its owner at the cap: every
        miss runs on its owner (the property ``mixed`` relies on)."""
        a, b = _graphs_sharing_an_owner()
        other = mesh_graph(56, seed=9)
        requests = [
            PartitionRequest(g, 4, seed=s, ga=GA)
            for s in range(2) for g in (a, b, other)
        ]
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            out = [svc.submit(r) for r in requests]
            opened = svc.open_session(a, 4, seed=0, ga=GA)
            svc.close_session(opened.session_id)
            snap = svc.metrics()
            owners = [svc.shard_of(r.graph) for r in requests]
        assert [r.shard for r in out] == owners
        assert _counter(snap, "repro_placements_total", placement="spill") == 0
        assert _counter(
            snap, "repro_placements_total", placement="owner") == len(requests)


# ----------------------------------------------------------------------
# unknown sessions: a typed error, 404 over HTTP, on every lane
# ----------------------------------------------------------------------

class TestUnknownSession:
    @staticmethod
    def _update_status(svc, session_id, graph) -> int:
        from repro.service import dispatch_request

        body = json.dumps(UpdateRequest(session_id, graph).to_payload())
        status, _, _ = dispatch_request(
            svc, "POST", "/v1/session/update", body.encode()
        )
        return status

    def _check_lane(self, svc, graph) -> None:
        """The front still routes a session its shard has forgotten, so
        the shard's UnknownSession crosses the lane to the front."""
        opened = svc.open_session(graph, 4, seed=0, ga=GA)
        svc._call(opened.shard, "close_session", opened.session_id)
        with pytest.raises(UnknownSession, match="unknown session"):
            svc.update_session(UpdateRequest(opened.session_id, graph))
        assert self._update_status(svc, opened.session_id, graph) == 404
        # an id the front never routed fails at the front, same type
        with pytest.raises(UnknownSession):
            svc.close_session("never-opened")
        assert self._update_status(svc, "never-opened", graph) == 404

    def test_pipe_lane(self, graph):
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            self._check_lane(svc, graph)

    def test_socket_lane(self, graph):
        with ShardServer(n_workers=1) as server:
            server.start()
            front = ShardedPartitionService(attach=[server.address])
            try:
                self._check_lane(front, graph)
            finally:
                front.close()


# ----------------------------------------------------------------------
# exception round-trip hardening (PR 5 satellite)
# ----------------------------------------------------------------------

class _PicklesButWontUnpickle(Exception):
    """Dumps fine; loads raises TypeError (two required init args)."""

    def __init__(self, a, b):
        super().__init__(f"{a}:{b}")


class _WontPickle(Exception):
    def __reduce__(self):
        raise RuntimeError("nope")


class TestSafeException:
    """Shard-side exceptions cross the wire as ``{type, message}`` data:
    a library error comes back as itself, anything else as a
    ServiceError naming its type — whether or not it would pickle."""

    def test_round_trippable_exception_passes_through(self):
        _, ok, out = _roundtrip((1, False, ServiceError("boom")))
        assert not ok
        assert type(out) is ServiceError
        assert str(out) == "boom"

    def test_unpicklable_exception_falls_back(self):
        _, ok, out = _roundtrip((1, False, _WontPickle("x")))
        assert not ok
        assert type(out) is ServiceError
        assert str(out) == "_WontPickle: x"

    def test_pickles_but_wont_unpickle_falls_back(self):
        """An exception that dumps but cannot be rebuilt from its
        pickle crosses as data like any other."""
        _, ok, out = _roundtrip((1, False, _PicklesButWontUnpickle("a", "b")))
        assert not ok
        assert type(out) is ServiceError
        assert str(out) == "_PicklesButWontUnpickle: a:b"

    def test_non_library_error_answers_alike_on_both_lanes(
        self, graph, monkeypatch
    ):
        """A shard-side ValueError reaches the caller as the same
        ServiceError, and HTTP as the same 400, through local shards
        and through an attached shard server."""
        from repro.service import dispatch_request

        def broken_submit(self, request, trace=None):
            raise ValueError("shard-side bug")

        # local shards fork after the patch and inherit it; the shard
        # server runs in this process
        monkeypatch.setattr(PartitionService, "submit", broken_submit)
        request = PartitionRequest(graph, 4, method="greedy")
        body = json.dumps(request.to_payload()).encode()
        seen = []
        with ShardServer(n_workers=1) as server:
            server.start()
            for build in (
                lambda: ShardedPartitionService(n_shards=1, n_workers=1),
                lambda: ShardedPartitionService(attach=[server.address]),
            ):
                with build() as svc:
                    with pytest.raises(Exception) as excinfo:
                        svc.submit(request)
                    status, _, data = dispatch_request(
                        svc, "POST", "/v1/partition", body
                    )
                seen.append((
                    type(excinfo.value), str(excinfo.value), status,
                    json.loads(data),
                ))
        local, attached = seen
        assert local == attached
        assert local[:3] == (ServiceError, "ValueError: shard-side bug", 400)
