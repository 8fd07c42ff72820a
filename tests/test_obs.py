"""Tests for the observability layer (``repro.obs``, PR 6).

Covers: the explicit-context tracer (ring, JSONL sink, sampling,
null-span fast path, span trees), the unified metrics registry
(snapshot schema, cross-shard merge, percentiles, Prometheus
rendering), structured JSON logs, the GA progress hooks, and — the
tentpole contracts — trace propagation across every execution lane
(thread, process pool, pipe shards, socket shards), bit-identical
answers with tracing on vs off, byte-identical wire frames and
payloads for untraced traffic, ``/v1/metrics`` over HTTP, and the
lock-discipline claims (obs locks are leaves; never held across GA
work).
"""

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from repro import partition_graph
from repro.analysis import LockWitness, extract_lock_graph
from repro.errors import ServiceError, ShardDiedError
from repro.ga import Fitness1, GAConfig, GAEngine, UniformCrossover
from repro.graphs import mesh_graph
from repro.incremental.updates import insert_local_nodes
from repro.obs import (
    NULL_SPAN,
    ExecRecorder,
    JsonLogFormatter,
    MetricsRegistry,
    Tracer,
    histogram_percentile,
    merge_snapshots,
    recording,
    render_prometheus,
    span_tree,
)
from repro.service import (
    HTTPServiceClient,
    PartitionRequest,
    PartitionService,
    RefineRequest,
    ShardServer,
    ShardedPartitionService,
    UpdateRequest,
    serve,
)
from repro.service.transport import decode_frame_binary, encode_frame_binary

#: tiny GA budget — these tests exercise instrumentation, not search
GA = dict(population_size=12, max_generations=6, patience=3)

#: a fixed remote-style wire context (what an upstream would send)
CTX = {"trace_id": "ab" * 8, "span_id": "cd" * 4}


@pytest.fixture
def graph():
    return mesh_graph(48, seed=3)


@pytest.fixture(scope="module")
def lock_graph():
    import repro

    src = Path(repro.__file__).resolve().parent
    return extract_lock_graph([str(src)])


def _metric(snapshot: dict, kind: str, name: str, **labels):
    """The value of one series in a registry snapshot, or None."""
    for entry in snapshot.get(kind, []):
        if entry["name"] == name and entry.get("labels", {}) == labels:
            return entry["value"]
    return None


def _names(records) -> list:
    return [r["name"] for r in records]


# ----------------------------------------------------------------------
# tracer units
# ----------------------------------------------------------------------

class TestTracer:
    def test_span_record_shape_and_ring(self):
        tracer = Tracer(enabled=True, ring_size=8)
        with tracer.start("outer", attrs={"endpoint": "partition"}) as outer:
            with outer.child("inner"):
                pass
        records = tracer.records()
        assert _names(records) == ["inner", "outer"]  # close order
        inner, outer_rec = records
        assert inner["trace_id"] == outer_rec["trace_id"]
        assert inner["parent_id"] == outer_rec["span_id"]
        assert outer_rec["parent_id"] is None
        assert outer_rec["attrs"]["endpoint"] == "partition"
        assert inner["duration_s"] >= 0.0
        roots = span_tree(records)
        assert len(roots) == 1 and roots[0]["name"] == "outer"
        assert _names(roots[0]["children"]) == ["inner"]

    def test_ring_is_bounded(self):
        tracer = Tracer(enabled=True, ring_size=4)
        for i in range(10):
            tracer.start(f"s{i}").close()
        assert len(tracer.records()) == 4
        assert tracer.counters()["spans_recorded"] == 10

    def test_disabled_tracer_originates_nothing(self):
        tracer = Tracer(enabled=False)
        span = tracer.start("root")
        assert span is NULL_SPAN and not span
        # every null-span verb is a cheap no-op
        span.set(a=1).fail("x").close()
        assert span.child("c") is NULL_SPAN
        assert span.collected() == [] and span.context() is None
        assert tracer.records() == []

    def test_remote_context_always_recorded_and_collected(self):
        """Continuation of a wire context ignores `enabled`: the origin
        already made the sampling decision; the subtree is collected so
        it can ride back in the reply."""
        tracer = Tracer(enabled=False)
        span = tracer.start("worker", parent=CTX)
        child = span.child("step")
        child.close()
        span.close()
        collected = span.collected()
        assert _names(collected) == ["step", "worker"]
        assert all(r["trace_id"] == CTX["trace_id"] for r in collected)
        assert collected[1]["parent_id"] == CTX["span_id"]

    def test_sampling_is_deterministic_by_trace_id(self):
        always = Tracer(enabled=True, sample_rate=1.0)
        never = Tracer(enabled=True, sample_rate=0.0)
        assert isinstance(always.start("s").span_id, str)
        assert never.start("s") is NULL_SPAN
        # no RNG draw: the decision is a pure function of the id
        half = Tracer(enabled=True, sample_rate=0.5)
        assert half._sampled("00" * 8) and not half._sampled("ff" * 8)

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(enabled=True, jsonl_path=str(path))
        with tracer.start("a", attrs={"k": 1}):
            pass
        tracer.ingest([{"trace_id": "x", "span_id": "y", "name": "far"}])
        tracer.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert _names(lines) == ["a", "far"]
        assert set(lines[0]) >= {
            "name", "trace_id", "span_id", "parent_id",
            "wall_s", "duration_s", "attrs",
        }

    def test_ingest_and_adopt_filter_junk(self):
        tracer = Tracer(enabled=True)
        kept = tracer.ingest(
            [{"trace_id": "t", "span_id": "s"}, {"no": "id"}, "junk", None]
        )
        assert kept == 1
        assert tracer.counters()["spans_ingested"] == 1

    def test_exception_marks_span_failed(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.start("boom"):
                raise ValueError("nope")
        (record,) = tracer.records()
        assert record["attrs"]["error"] == "ValueError: nope"


# ----------------------------------------------------------------------
# metrics registry units
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_snapshot_schema(self):
        reg = MetricsRegistry()
        reg.inc("repro_requests_total", endpoint="partition")
        reg.inc("repro_requests_total", 2, endpoint="partition")
        reg.set_gauge("repro_shard_up", 1.0, shard="0")
        reg.observe("repro_request_latency_ms", 3.0, endpoint="partition")
        reg.counter_fn(
            "repro_cache_hits_total", lambda: [({"cache": "results"}, 7)]
        )
        snap = reg.snapshot()
        assert snap["schema"] == "repro.obs/v1"
        assert _metric(snap, "counters", "repro_requests_total",
                       endpoint="partition") == 3
        assert _metric(snap, "counters", "repro_cache_hits_total",
                       cache="results") == 7
        assert _metric(snap, "gauges", "repro_shard_up", shard="0") == 1.0
        (hist,) = snap["histograms"]
        assert hist["name"] == "repro_request_latency_ms"
        assert hist["count"] == 1 and hist["sum"] == 3.0
        assert len(hist["counts"]) == len(hist["le"]) + 1  # +Inf bucket

    def test_snapshot_order_and_content_with_mixed_label_sets(self):
        """Series are keyed by name and sorted label pairs, yet a
        snapshot still lists them by name, then by the labels' sorted
        JSON form (which puts ``{}`` after any labelled series), and a
        provider still replaces a live series of the same labels."""
        reg = MetricsRegistry()
        reg.inc("c_total")
        reg.inc("c_total", 2, b="1", a="2")
        reg.inc("c_total", a="2", b="1")
        reg.inc("c_total", 5, a="10")
        reg.inc("b_total", endpoint="partition")
        reg.inc("b_total", endpoint="partition")
        reg.inc("b_total", shard="0")
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 2.0, shard="1")
        reg.set_gauge("g", 3.0, shard="0")
        reg.set_gauge("g", 4.0, shard="0")
        reg.gauge_fn("g", lambda: [({"shard": "1"}, 9), ({"z": "x"}, 8)])
        reg.observe("h", 0.5, buckets=(1.0,))
        reg.observe("h", 2.0, buckets=(1.0,), endpoint="refine")
        reg.observe("h", 0.5, buckets=(1.0,), endpoint="partition")
        snap = reg.snapshot()
        assert snap == {
            "schema": "repro.obs/v1",
            "counters": [
                {"name": "b_total", "labels": {"endpoint": "partition"},
                 "value": 2.0},
                {"name": "b_total", "labels": {"shard": "0"}, "value": 1.0},
                {"name": "c_total", "labels": {"a": "10"}, "value": 5.0},
                {"name": "c_total", "labels": {"b": "1", "a": "2"},
                 "value": 3.0},
                {"name": "c_total", "labels": {}, "value": 1.0},
            ],
            "gauges": [
                {"name": "g", "labels": {"shard": "0"}, "value": 4.0},
                {"name": "g", "labels": {"shard": "1"}, "value": 9.0},
                {"name": "g", "labels": {"z": "x"}, "value": 8.0},
                {"name": "g", "labels": {}, "value": 1.0},
            ],
            "histograms": [
                {"name": "h", "labels": {"endpoint": "partition"},
                 "le": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1},
                {"name": "h", "labels": {"endpoint": "refine"},
                 "le": [1.0], "counts": [0, 1], "sum": 2.0, "count": 1},
                {"name": "h", "labels": {}, "le": [1.0], "counts": [1, 0],
                 "sum": 0.5, "count": 1},
            ],
        }
        assert [list(row["labels"]) for row in snap["counters"]][3] == [
            "b", "a"]  # a series keeps the labels it was first given

    def test_merge_and_percentiles(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 3), (b, 5)):
            reg.inc("repro_requests_total", n, endpoint="partition")
            reg.set_gauge("repro_sessions_open", n)
            reg.set_gauge("repro_session_epoch_max", n)
            for _ in range(n):
                reg.observe(
                    "repro_request_latency_ms", 10.0, endpoint="partition"
                )
        merged = merge_snapshots([a.snapshot(), b.snapshot(), {"extra": 1}])
        assert _metric(merged, "counters", "repro_requests_total",
                       endpoint="partition") == 8
        # gauges add, except a _max gauge, which takes the largest
        assert _metric(merged, "gauges", "repro_sessions_open") == 8
        assert _metric(merged, "gauges", "repro_session_epoch_max") == 5
        (hist,) = merged["histograms"]
        assert hist["count"] == 8
        p50 = histogram_percentile(hist, 0.5)
        assert p50 is not None and 0 < p50 <= 20.0
        empty = MetricsRegistry()
        empty.observe("h", 1.0)
        empty_hist = [
            dict(h, counts=[0] * len(h["counts"]), count=0, sum=0.0)
            for h in empty.snapshot()["histograms"]
        ][0]
        assert histogram_percentile(empty_hist, 0.5) is None

    def test_provider_errors_do_not_poison_snapshot(self):
        reg = MetricsRegistry()

        def broken():
            raise RuntimeError("backend gone")

        reg.counter_fn("repro_cache_hits_total", broken)
        reg.inc("live_total")
        snap = reg.snapshot()
        assert _metric(snap, "counters", "live_total") == 1
        assert _metric(snap, "counters", "repro_cache_hits_total") is None

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.inc("repro_requests_total", 4, endpoint="partition")
        reg.set_gauge("repro_shard_up", 1.0, shard="0")
        reg.observe("repro_request_latency_ms", 3.0, endpoint="partition")
        text = render_prometheus(reg.snapshot())
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{endpoint="partition"} 4' in text
        assert "# TYPE repro_shard_up gauge" in text
        assert "# TYPE repro_request_latency_ms histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_request_latency_ms_sum" in text
        assert "repro_request_latency_ms_count" in text
        # cumulative buckets: the +Inf bucket equals _count
        inf_line = next(
            line for line in text.splitlines() if 'le="+Inf"' in line
        )
        assert inf_line.endswith(" 1")


# ----------------------------------------------------------------------
# structured logs
# ----------------------------------------------------------------------

class TestStructuredLogs:
    def test_formatter_renders_extras_as_fields(self):
        record = logging.LogRecord(
            "repro.service.sharding", logging.WARNING, __file__, 1,
            "shard died", None, None,
        )
        record.shard = 1
        record.trace_id = "abc"
        payload = json.loads(JsonLogFormatter().format(record))
        assert payload["event"] == "shard died"
        assert payload["level"] == "WARNING"
        assert payload["logger"] == "repro.service.sharding"
        assert payload["shard"] == 1 and payload["trace_id"] == "abc"
        assert isinstance(payload["ts"], float)

    def test_snapshot_restore_failure_emits_event(self, tmp_path, caplog):
        from repro.service import SessionManager, SessionPersistence
        from repro.service.persistence import SNAPSHOT_SUFFIX, SnapshotStore

        store = SnapshotStore(tmp_path)
        (tmp_path / f"corrupt{SNAPSHOT_SUFFIX}").write_bytes(b"not a pickle")
        with caplog.at_level(logging.WARNING, logger="repro"):
            persistence = SessionPersistence(store, SessionManager())
            assert persistence.restore_all() == 0
        assert persistence.restore_failures == 1
        (record,) = [
            r for r in caplog.records
            if r.getMessage() == "snapshot restore failed"
        ]
        assert record.event == "snapshot_restore_failed"
        assert record.session_id == "corrupt"

    def test_shard_death_emits_event(self, graph, caplog):
        with caplog.at_level(logging.WARNING, logger="repro"):
            with ShardedPartitionService(
                n_shards=2, n_workers=1, auto_restart=False
            ) as svc:
                target = svc.shard_of(graph)
                handle = svc._slots[target].handle
                handle.process.kill()
                with pytest.raises(ShardDiedError):
                    svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
                # the reader fails the caller before it runs the death
                # path; let it finish, or close() can pre-empt the event
                handle._reader.join(timeout=30)
                assert not handle._reader.is_alive()
                assert svc.shard_health()[target]["state"] != "up"
        events = [getattr(r, "event", None) for r in caplog.records]
        assert "shard_died" in events


# ----------------------------------------------------------------------
# GA progress hooks
# ----------------------------------------------------------------------

class TestGAHooks:
    def test_engine_on_generation_callback(self, graph):
        seen = []
        cfg = GAConfig(**GA)
        result = GAEngine(
            graph, Fitness1(graph, 4), UniformCrossover(), cfg, seed=1
        ).run(on_generation=lambda **kw: seen.append(kw))
        # generation 0 (initial evaluation) + one per recorded generation
        assert len(seen) == result.history.n_generations
        assert seen[0]["generation"] == 0
        assert [e["generation"] for e in seen] == list(range(len(seen)))
        assert all(
            set(e) == {"generation", "best_cut", "best_worst_cut",
                       "evaluations"}
            for e in seen
        )
        # observational-only: history already carries the same values
        assert seen[-1]["best_cut"] == result.history.best_cut[-1]

    def test_recording_captures_generations_and_kernels(self, graph):
        tracer = Tracer(enabled=True)
        registry = MetricsRegistry()
        parent = tracer.start("execute")
        with recording(ExecRecorder(tracer, parent, registry)):
            partition_graph(graph, 4, config=GAConfig(**GA), seed=0)
        parent.close()
        generations = [
            r for r in tracer.records() if r["name"] == "ga.generation"
        ]
        assert generations
        assert generations[0]["parent_id"] == parent.span_id
        assert {"generation", "best_cut", "evaluations"} <= set(
            generations[0]["attrs"]
        )
        snap = registry.snapshot()
        assert _metric(snap, "counters", "repro_ga_generations_total") == len(
            generations
        )
        kernels = {
            h["labels"]["kernel"]
            for h in snap["histograms"]
            if h["name"] == "repro_kernel_ms"
        }
        assert "climb_batch" in kernels or "batch_cut_size" in kernels

    def test_no_recorder_means_no_effect(self, graph):
        from repro.obs.hooks import active_recorder, emit_generation

        assert active_recorder() is None
        emit_generation(0, 1.0, 1.0, 1)  # must be a silent no-op
        a = partition_graph(graph, 4, config=GAConfig(**GA), seed=0)
        tracer = Tracer(enabled=True)
        with recording(ExecRecorder(tracer, tracer.start("x"))):
            b = partition_graph(graph, 4, config=GAConfig(**GA), seed=0)
        assert np.array_equal(a.assignment, b.assignment)


# ----------------------------------------------------------------------
# service-level tracing
# ----------------------------------------------------------------------

class TestServiceTracing:
    def test_propagated_context_returns_stitched_spans(self, graph):
        """A request carrying a wire context gets its worker-side
        subtree back in ``result.spans`` even with origination off."""
        with PartitionService(n_workers=1) as svc:
            result = svc.submit(
                PartitionRequest(graph, 4, seed=0, ga=GA, trace=CTX)
            )
        assert result.spans
        assert all(r["trace_id"] == CTX["trace_id"] for r in result.spans)
        names = _names(result.spans)
        assert "service.submit" in names
        assert "service.execute" in names
        assert "ga.generation" in names
        (root,) = span_tree(result.spans)
        assert root["name"] == "service.submit"
        assert root["parent_id"] == CTX["span_id"]
        assert root["attrs"]["endpoint"] == "partition"
        (execute,) = [
            c for c in root["children"] if c["name"] == "service.execute"
        ]
        assert execute["attrs"]["lane"] == "thread"
        assert any(
            c["name"] == "ga.generation" for c in execute["children"]
        )

    def test_untraced_request_returns_no_spans(self, graph):
        with PartitionService(n_workers=1) as svc:
            result = svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            repeat = svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
        assert result.spans is None and repeat.spans is None

    def test_answers_bit_identical_with_tracing_on(self, graph):
        results = {}
        for key, kwargs in (
            ("off", {}),
            ("on", dict(trace_enabled=True)),
        ):
            with PartitionService(n_workers=1, **kwargs) as svc:
                results[key] = svc.submit(
                    PartitionRequest(graph, 4, seed=0, ga=GA, trace=CTX)
                )
        assert np.array_equal(
            results["off"].assignment, results["on"].assignment
        )
        assert results["off"].cut_size == results["on"].cut_size

    def test_session_verbs_are_traced(self, graph):
        with PartitionService(n_workers=1) as svc:
            opened = svc.open_session(graph, 4, seed=0, ga=GA, trace=CTX)
            assert "session.initial" in _names(opened.spans)
            update = insert_local_nodes(graph, 5, seed=9).graph
            result = svc.update_session(
                UpdateRequest(opened.session_id, update, trace=CTX)
            )
            names = _names(result.spans)
            assert "service.update_session" in names
            assert "session.update" in names
            (step,) = [
                r for r in result.spans if r["name"] == "session.update"
            ]
            assert step["attrs"]["epoch"] == 1
            snap = svc.metrics()
            assert _metric(
                snap, "gauges", "repro_session_epoch_max"
            ) == 1
            svc.close_session(opened.session_id)

    def test_metrics_snapshot_and_latency_digest(self, graph):
        with PartitionService(n_workers=1) as svc:
            svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
            snap = svc.metrics()
        assert snap["schema"] == "repro.obs/v1"
        assert _metric(snap, "counters", "repro_requests_total",
                       endpoint="partition") == 2
        assert _metric(snap, "counters", "repro_cache_hits_total",
                       cache="results") == 1
        digest = snap["latency_ms"]["partition"]
        assert digest["count"] == 2
        assert digest["p50_ms"] is not None
        assert digest["p50_ms"] <= digest["p99_ms"]


# ----------------------------------------------------------------------
# wire neutrality: tracing off leaves payloads and frames byte-identical
# ----------------------------------------------------------------------

class TestWireNeutrality:
    def test_request_payload_key_only_when_traced(self, graph):
        plain = PartitionRequest(graph, 4, seed=0, ga=GA).to_payload()
        traced = PartitionRequest(
            graph, 4, seed=0, ga=GA, trace=CTX
        ).to_payload()
        assert "trace" not in plain
        assert traced.pop("trace") == CTX
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            traced, sort_keys=True
        )

    def test_result_payload_key_only_when_spans(self, graph):
        with PartitionService(n_workers=1) as svc:
            plain = svc.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
        payload = plain.to_payload()
        assert "spans" not in payload

    def test_frames_byte_identical_without_context(self):
        def frame(message) -> bytes:
            return b"".join(bytes(s) for s in encode_frame_binary(message))

        message = (7, "submit", ({"n_parts": 4},))
        data = frame(message)
        assert decode_frame_binary(data[1:]) == message  # still a 3-tuple
        assert b'"tc"' not in data
        traced = message + (CTX,)
        round_tripped = decode_frame_binary(frame(traced)[1:])
        assert round_tripped == traced
        # an empty context dict costs nothing on the wire either
        assert frame(message + ({},)) == data


# ----------------------------------------------------------------------
# sharded fleet: cross-process stitching
# ----------------------------------------------------------------------

class TestShardedTracing:
    def _assert_stitched(self, records, n_shards=None):
        names = _names(records)
        for needed in ("front.submit", "shard.call", "service.submit",
                       "service.execute", "ga.generation"):
            assert needed in names, f"missing {needed} in {sorted(set(names))}"
        (root,) = span_tree(records)
        assert root["name"] == "front.submit"
        (hop,) = [c for c in root["children"] if c["name"] == "shard.call"]
        (submit,) = [
            c for c in hop["children"] if c["name"] == "service.submit"
        ]
        (execute,) = [
            c for c in submit["children"] if c["name"] == "service.execute"
        ]
        assert any(c["name"] == "ga.generation" for c in execute["children"])
        return root

    def test_pipe_shards_stitch_one_tree(self, graph):
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            result = svc.submit(
                PartitionRequest(graph, 4, seed=0, ga=GA, trace=CTX)
            )
            records = svc.tracer.records(CTX["trace_id"])
        assert result.cut_size >= 0
        root = self._assert_stitched(records)
        assert root["parent_id"] == CTX["span_id"]

    def test_front_spans_a_refine_as_refine(self, graph):
        """A refine's ``front.submit`` span names its endpoint like the
        shard's ``service.submit`` span and ``repro_requests_total`` do,
        on the miss and on the front hit that follows."""
        assignment = np.arange(graph.n_nodes) % 4
        request = RefineRequest(graph, 4, assignment, trace=CTX)
        with ShardedPartitionService(n_shards=1, n_workers=1) as svc:
            miss = svc.submit(request)
            hit = svc.submit(request)
            records = svc.tracer.records(CTX["trace_id"])
        assert not miss.cache_hit and hit.cache_hit
        fronts = [r for r in records if r["name"] == "front.submit"]
        assert [r["attrs"].get("cache_hit") for r in fronts] == [False, True]
        assert [r["attrs"]["endpoint"] for r in fronts] == ["refine"] * 2
        (submit,) = [r for r in records if r["name"] == "service.submit"]
        assert submit["attrs"]["endpoint"] == "refine"

    def test_socket_fleet_http_partition_yields_one_tree(self, graph):
        """The acceptance scenario: one /v1/partition against a 2-shard
        front over socket-attached workers produces a single stitched
        span tree — front dispatch, transport hop, worker execute, GA
        generations — and /v1/metrics serves both formats."""
        servers = [ShardServer(n_workers=1).start() for _ in range(2)]
        server = None
        try:
            front = ShardedPartitionService(
                attach=[s.address for s in servers], trace_enabled=True
            )
            server = serve(port=0, background=True, service=front)
            host, port = server.server_address[:2]
            client = HTTPServiceClient(f"http://{host}:{port}")
            result = client.partition(graph, 4, seed=0, ga=GA)
            assert result.cut_size >= 0
            (trace_id,) = front.tracer.trace_ids()
            self._assert_stitched(front.tracer.records(trace_id))
            snap = client.metrics()
            assert snap["n_shards"] == 2
            assert snap["shards_reporting"] == 2
            assert _metric(snap, "counters", "repro_requests_total",
                           endpoint="partition") == 1
            assert "# TYPE repro_requests_total counter" in (
                client.metrics_text()
            )
        finally:
            if server is not None:
                server.service.close()
                server.shutdown()
                server.server_close()
            for s in servers:
                s.close()

    def test_trace_survives_shard_death_and_restart(self, graph):
        """A request caught by a shard death records a failed hop span;
        the retry (same trace context) lands as a sibling under the
        same trace after the same-slot restart."""
        import time

        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            target = svc.shard_of(graph)
            svc._slots[target].handle.process.kill()
            request = PartitionRequest(graph, 4, seed=0, ga=GA, trace=CTX)
            result = None
            failures = 0
            for _ in range(50):
                try:
                    result = svc.submit(request)
                    break
                except ShardDiedError:
                    failures += 1
                    time.sleep(0.2)
            assert result is not None, "request lost after restart"
            assert svc.shard_health()[target]["restarts"] >= 1
            records = svc.tracer.records(CTX["trace_id"])
            hops = [r for r in records if r["name"] == "shard.call"]
            # the successful attempt is stitched end-to-end...
            assert any("error" not in h["attrs"] for h in hops)
            assert "service.execute" in _names(records)
            # ...and any fail-fast attempt left an error-marked hop in
            # the same trace (the kill can race the first submit, so a
            # clean first try is legal — but failures must match spans)
            failed = [h for h in hops if "error" in h["attrs"]]
            assert len(failed) == failures

    def test_fleet_metrics_merge_and_stats_totals(self, graph):
        other = mesh_graph(60, seed=5)
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            for g in (graph, other):
                svc.submit(PartitionRequest(g, 4, seed=0, ga=GA))
            snap = svc.metrics()
            stats = svc.stats()
            health = svc.shard_health()
        assert snap["schema"] == "repro.obs/v1"
        assert snap["n_shards"] == 2 and snap["shards_reporting"] == 2
        assert _metric(snap, "counters", "repro_requests_total",
                       endpoint="partition") == 2
        for index in range(2):
            assert _metric(snap, "gauges", "repro_shard_up",
                           shard=str(index)) == 1.0
        assert "partition" in snap["latency_ms"]
        # stats() is the view of the merged snapshot
        assert stats["shards_reporting"] == 2
        assert stats["scheduler"]["jobs_executed"] == 2
        assert stats["sessions"]["open"] == 0
        assert health[0]["state"] == "up"

    def test_deaths_and_restarts_are_counted(self, graph):
        import time

        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            target = svc.shard_of(graph)
            svc._slots[target].handle.process.kill()
            deadline = time.time() + 60.0
            while time.time() < deadline:
                health = svc.shard_health()[target]
                if health["state"] == "up" and health["restarts"] >= 1:
                    break
                time.sleep(0.05)
            snap = svc.metrics()
        assert _metric(snap, "counters", "repro_shard_deaths_total",
                       shard=str(target)) == 1
        assert _metric(snap, "counters", "repro_shard_restarts_total",
                       shard=str(target)) == 1


# ----------------------------------------------------------------------
# HTTP endpoint
# ----------------------------------------------------------------------

class TestMetricsEndpoint:
    def test_json_and_prometheus_formats(self, graph):
        server = serve(port=0, background=True, n_workers=1)
        try:
            host, port = server.server_address[:2]
            client = HTTPServiceClient(f"http://{host}:{port}")
            client.partition(graph, 4, seed=0, ga=GA)
            snap = client.metrics()
            assert snap["schema"] == "repro.obs/v1"
            assert _metric(snap, "counters", "repro_requests_total",
                           endpoint="partition") == 1
            assert snap["latency_ms"]["partition"]["count"] == 1
            text = client.metrics_text()
            assert text.startswith("# ") and "repro_requests_total" in text
        finally:
            server.service.close()
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# /v1/stats: a view of the metrics registry
# ----------------------------------------------------------------------

def _service(shards: int):
    if shards:
        return ShardedPartitionService(n_shards=shards, n_workers=1)
    return PartitionService(n_workers=1)


class TestStatsView:
    @pytest.mark.parametrize("shards", [0, 2])
    def test_stats_agrees_with_metrics(self, graph, shards):
        """After a few misses and many hits (front hits behind the
        2-shard front, which no shard sees), ``stats()`` reads the same
        latency digest and result-cache hits as ``metrics()``."""
        requests = [
            PartitionRequest(graph, 4, seed=seed, ga=GA) for seed in range(3)
        ]
        with _service(shards) as svc:
            for request in requests:
                svc.submit(request)
            for _ in range(100):
                for request in requests:
                    assert svc.submit(request).cache_hit
            snap = svc.metrics()
            stats = svc.stats()
        digest = snap["latency_ms"]["partition"]
        assert digest["count"] == 303
        assert stats["latency"]["count"] == digest["count"]
        assert stats["latency"]["p50_ms"] == digest["p50_ms"]
        hits = _metric(
            snap, "counters", "repro_cache_hits_total", cache="results"
        )
        assert stats["cache"]["results"]["hits"] == hits == 300

    @pytest.mark.parametrize("shards", [0, 2])
    def test_http_stats_sections_and_integer_counts(self, graph, shards):
        server = serve(port=0, background=True, shards=shards, n_workers=1)
        host, port = server.server_address[:2]
        client = HTTPServiceClient(f"http://{host}:{port}")
        try:
            client.partition(graph, 4, seed=0, ga=GA)
            client.partition(graph, 4, seed=0, ga=GA)
            stats = client.stats()
        finally:
            client.close()
            server.service.close()
            server.shutdown()
            server.server_close()
        counted = ["scheduler", "sessions"]
        expected = set(counted) | {"cache", "latency", "session_latency"}
        if shards:
            # local shards keep snapshots and a result journal
            counted += ["persistence", "write_behind"]
            expected |= {"persistence", "write_behind", "n_shards",
                         "shards_reporting", "ring", "health"}
            assert stats["n_shards"] == stats["shards_reporting"] == 2
        assert set(stats) == expected
        rows = [stats[name] for name in counted]
        rows += [stats["cache"]["results"], stats["cache"]["graphs"]]
        assert all(type(v) is int for row in rows for v in row.values())
        assert stats["cache"]["results"]["hits"] == 1
        assert stats["latency"]["count"] == 2
        assert set(stats["latency"]) == {"count", "p50_ms", "p95_ms", "p99_ms"}
        assert stats["session_latency"] == {"count": 0}

    def test_fleet_epoch_max_is_a_max(self):
        """Two shards that each hold a session at epoch 3 report 3."""
        with ShardedPartitionService(n_shards=2, n_workers=1) as svc:
            owned = {}
            for seed in range(1, 50):
                mesh = mesh_graph(48, seed=seed)
                owned.setdefault(svc.shard_of(mesh), mesh)
                if len(owned) == 2:
                    break
            for mesh in owned.values():
                opened = svc.open_session(mesh, 4, seed=0, ga=GA)
                for step in range(3):
                    mesh = insert_local_nodes(mesh, 3, seed=step).graph
                    svc.update_session(UpdateRequest(opened.session_id, mesh))
            snap = svc.metrics()
        assert len(owned) == 2
        assert _metric(snap, "gauges", "repro_session_epoch_max") == 3

    def test_stats_shard_verb_is_unknown(self):
        """The front reads shard ``metrics``; a ``stats`` call from an
        older front gets the unknown-verb error."""
        with ShardedPartitionService(n_shards=1, n_workers=1) as svc:
            with pytest.raises(ServiceError, match="unknown shard verb"):
                svc._call(0, "stats")


class TestMetricFamilyTable:
    """The family table in ``repro.obs`` is the metrics contract: it
    names exactly the ``"repro_…"`` literals ``src/repro`` registers."""

    @staticmethod
    def _table() -> dict:
        import repro.obs

        rows = {}
        for line in repro.obs.__doc__.splitlines():
            parts = line.split()
            if parts and parts[0].startswith("repro_"):
                rows[parts[0]] = parts[1]
        return rows

    def test_table_matches_registered_literals(self):
        import ast
        import re

        import repro

        family = re.compile(r"repro_[a-z0-9_]+")
        literals = set()
        root = Path(repro.__file__).resolve().parent
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and family.fullmatch(node.value)
                ):
                    literals.add(node.value)
        assert set(self._table()) == literals

    def test_counters_and_only_counters_end_in_total(self):
        """``MetricsRegistry.provide`` picks the kind by this suffix."""
        for name, kind in self._table().items():
            assert name.endswith("_total") == (kind == "counter"), name


# ----------------------------------------------------------------------
# lock discipline
# ----------------------------------------------------------------------

class TestObsLockDiscipline:
    def test_obs_locks_are_leaves_in_static_graph(self, lock_graph):
        """No lock is ever acquired while an obs lock is held — the
        registry/tracer locks cannot participate in an order cycle."""
        obs_locks = {
            "MetricsRegistry._lock", "Tracer._lock", "Tracer._sink_lock",
            "hooks:_ACTIVE_LOCK",
        }
        assert obs_locks <= set(lock_graph.nodes)
        for (outer, _inner) in lock_graph.edges:
            assert outer not in obs_locks
        assert lock_graph.find_cycles() == []

    def test_witness_obs_locks_never_held_across_ga_work(
        self, graph, lock_graph
    ):
        """Runtime cross-check of the static claim: during a traced
        request, neither the registry lock nor the tracer lock is held
        while a GA generation is being recorded."""
        with LockWitness() as witness:
            witness.probe(ExecRecorder, "generation")
            with PartitionService(n_workers=1, trace_enabled=True) as svc:
                svc.submit(
                    PartitionRequest(graph, 4, seed=0, ga=GA, trace=CTX)
                )
                svc.metrics()
        witness.assert_subgraph_of(lock_graph)
        for lock_name in ("MetricsRegistry._lock", "Tracer._lock",
                          "Tracer._sink_lock"):
            checked = witness.assert_never_held_during(
                lock_graph, lock_name, "generation"
            )
            assert checked > 0
