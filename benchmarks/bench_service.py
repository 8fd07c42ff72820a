#!/usr/bin/env python
"""Smoke + load test of the partition service (``repro.service``).

Four phases, all deterministic:

1. **Warm vs cold** — the acceptance measurement of the serving layer.
   Repeated one-shot traffic and incremental-session traffic are served
   by a live :class:`PartitionService` (content cache, warm
   partitioners) and timed against *cold per-request runs*: the same
   work performed the way the one-shot CLI does it, a fresh
   ``partition_graph`` per request with the identical effective
   GAConfig.  The guard requires the warm aggregate throughput to beat
   cold by ``--min-warm-speedup`` (default 5x) **and** repeated-request
   answers to be bit-identical to the cold run at the same seed.
2. **HTTP replay** — a ~20-request mixed trace from
   :func:`repro.experiments.service_trace` (one-shot + repeated +
   incremental sessions) replayed over the real HTTP endpoint (the
   event-loop front, PR 9) through the keep-alive
   :class:`HTTPServiceClient`; p50 latency and cache-hit counters come
   from the service's own stats endpoint.
3. **Process-parallel scaling** (PR 4) — a CPU-bound trace of distinct
   dknux requests is driven concurrently against (a) one
   single-process service with ``--scaling-shards`` worker threads and
   (b) a digest-sharded :class:`ShardedPartitionService` of the same
   width — shards are the service's one way to use more cores.  Every
   sharded answer must be bit-identical to the single-process one, and
   the sharded front must have placed at least one miss off its ring
   owner (``sharded_spills``), so the identity covers placement;
   aggregate sharded throughput must beat single-process by
   ``--min-shard-speedup`` (default 2x) **when the machine has ≥ 4
   cores** — on fewer cores the number is recorded and the gate
   reported as skipped, since a process can't out-parallel a thread
   without cores to run on.
4. **Failover smoke** (PR 5) — a 2-shard fleet serves a replayed
   mixed trace while one shard is killed mid-traffic.  The driver
   retries :class:`ShardDiedError` (the fail-fast answer for requests
   caught in flight), so the gate is *no lost answers*: every request
   eventually answers, bit-identical to an uninterrupted
   single-process replay; the crashed shard's session resumes from its
   snapshot bit-identically; and the warm-cache speedup is retained
   after restart (a repeated request hits the cache again, both at
   the front and when sent to the restarted shard directly).
5. **Connection concurrency** (PR 9) — ``--concurrency-clients``
   (default 256) simultaneous keep-alive connections hammer the
   event-loop front with mixed traffic (healthz, stats, greedy
   partitions whose shape is client-specific); every answer must match
   its request's reference exactly — zero cross-talk — and p50/p95
   client-side latency, aggregate rps, and per-core rps land in the
   report.  The p95 ceiling (``--max-concurrency-p95-ms``) is enforced
   only on machines with ≥ 4 cores; below that the numbers are
   recorded and the gate reported as skipped (identity is always
   enforced).
6. **Observability overhead** (PR 6) — the cache-hit replay is run
   twice, tracing off and on (ring + JSONL sink); answers must stay
   bit-identical and per-request overhead must clear the
   ``--max-trace-overhead-pct`` gate; p50/p95/p99 come from the
   unified metrics registry and a span sample is kept as
   ``SERVICE_trace_sample.jsonl``.
7. **Elastic grow** (PR 10) — a 2-shard fleet grows to 4 while the
   requests of a trace it has not answered yet are replayed against it
   (the front answers repeats itself, so they would never cross the
   topology swap).  Gates: zero lost answers (requests caught by the
   swap fail fast and answer on retry), every answer bit-identical to
   the uninterrupted single-process replay, the open session crosses
   the resize to its new ring owner bit-identically, and the warm-hit
   rate is preserved — every width-2 answer repeats as a cache hit at
   width 4, at the front and when sent to its owner shard directly,
   because the grow re-seeds the new owners from the write-behind
   journals.
8. **Report** — everything lands in ``SERVICE_metrics.json`` next to
   ``BENCH_metrics.json`` (with flat ``serving`` + ``failover`` +
   ``elastic`` + ``concurrency`` + ``observability`` sections that
   ``bench_trajectory.py`` renders across commits) so CI archives the
   serving trajectory alongside the kernel trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py \
        [--requests 20] [--repeats 10] [--updates 3] \
        [--min-warm-speedup 5.0] \
        [--scaling-shards 4] [--scaling-requests 12] \
        [--min-shard-speedup 2.0] \
        [--out benchmarks/SERVICE_metrics.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import os
from concurrent.futures import ThreadPoolExecutor

from repro import partition_graph
from repro.errors import ShardDiedError
from repro.experiments import TRACE_GA_DEFAULTS, replay_trace, service_trace
from repro.experiments.workloads import BASE_SIZES, incremental_case, workload
from repro.ga.config import GAConfig
from repro.graphs import paper_mesh
from repro.incremental.updates import insert_local_nodes
from repro.service import (
    DEFAULT_GA_OVERRIDES,
    HTTPServiceClient,
    PartitionRequest,
    PartitionService,
    ShardedPartitionService,
    UpdateRequest,
    serve,
)

#: the canonical incremental case the session phase replays
SESSION_BASE = 78
SESSION_STEP_NODES = 10
N_PARTS = 4


def effective_config(ga: dict) -> GAConfig:
    """The GAConfig the service resolves for a dknux request with
    overrides ``ga`` — cold runs must use exactly this to be a fair
    (and bit-identical) baseline."""
    return GAConfig(**{**DEFAULT_GA_OVERRIDES, **ga})


def phase_warm_vs_cold(repeats: int, updates: int) -> dict:
    """Serve repeated + session traffic warm; time the cold equivalent."""
    ga = dict(TRACE_GA_DEFAULTS)
    config = effective_config(ga)
    base = paper_mesh(SESSION_BASE)

    with PartitionService(n_workers=2) as service:
        # -- repeated one-shot traffic --------------------------------
        request = PartitionRequest(base, N_PARTS, seed=0, ga=ga)
        first = service.submit(request)  # populates the cache
        t0 = time.perf_counter()
        warm_results = [
            service.submit(PartitionRequest(base, N_PARTS, seed=0, ga=ga))
            for _ in range(repeats)
        ]
        warm_repeat_s = time.perf_counter() - t0
        hits = sum(r.cache_hit for r in warm_results)

        # cold equivalent: fresh engine + graph state per request, the
        # way `repro-partition partition` pays for it. The cold path is
        # deterministic, so per-run variance is scheduler noise — use
        # the median of 3 timed runs, scaled to the request count.
        n_cold = min(3, repeats)
        cold_parts = []
        cold_times = []
        for _ in range(n_cold):
            t0 = time.perf_counter()
            cold_parts.append(
                partition_graph(
                    paper_mesh(SESSION_BASE), N_PARTS, config=config, seed=0
                )
            )
            cold_times.append(time.perf_counter() - t0)
        cold_repeat_s = float(np.median(cold_times)) * repeats

        identical = all(
            np.array_equal(r.assignment, cold_parts[0].assignment)
            for r in warm_results
        ) and np.array_equal(first.assignment, cold_parts[0].assignment)

        # -- incremental session traffic ------------------------------
        opened = service.open_session(base, N_PARTS, seed=0, ga=ga)
        graphs = []
        graph = base
        for step in range(updates):
            graph = insert_local_nodes(
                graph, SESSION_STEP_NODES, seed=1000 + step
            ).graph
            graphs.append(graph)
        t0 = time.perf_counter()
        session_cuts = []
        for graph in graphs:
            result = service.update_session(
                UpdateRequest(opened.session_id, graph)
            )
            session_cuts.append(result.cut_size)
        warm_session_s = time.perf_counter() - t0
        service.close_session(opened.session_id)

        # cold equivalent: partition each updated graph from scratch
        t0 = time.perf_counter()
        cold_session_cuts = [
            partition_graph(graph, N_PARTS, config=config, seed=0).cut_size
            for graph in graphs
        ]
        cold_session_s = time.perf_counter() - t0

        stats = service.stats()

    warm_total = warm_repeat_s + warm_session_s
    cold_total = cold_repeat_s + cold_session_s
    return {
        "repeats": repeats,
        "updates": updates,
        "cache_hits": int(hits),
        "repeat_identical_to_cold": bool(identical),
        "warm_repeat_s": round(warm_repeat_s, 4),
        "cold_repeat_s": round(cold_repeat_s, 4),
        "repeat_speedup": round(cold_repeat_s / max(warm_repeat_s, 1e-9), 1),
        "warm_session_s": round(warm_session_s, 4),
        "cold_session_s": round(cold_session_s, 4),
        "session_speedup": round(cold_session_s / max(warm_session_s, 1e-9), 2),
        "session_cuts": session_cuts,
        "cold_session_cuts": cold_session_cuts,
        "warm_total_s": round(warm_total, 4),
        "cold_total_s": round(cold_total, 4),
        "aggregate_speedup": round(cold_total / max(warm_total, 1e-9), 2),
        "service_stats": stats,
    }


def phase_http_replay(n_requests: int) -> dict:
    """Replay a mixed trace over a real HTTP server; report p50 + hits."""
    server = serve(port=0, background=True, n_workers=2)
    host, port = server.server_address
    client = HTTPServiceClient(f"http://{host}:{port}", timeout=300.0)
    try:
        assert client.healthy(), "service /v1/healthz failed"
        trace = service_trace(n_requests=n_requests, seed=0, n_parts=N_PARTS)
        t0 = time.perf_counter()
        results = replay_trace(client, trace)
        wall_s = time.perf_counter() - t0
        stats = client.stats()
    finally:
        client.close()
        server.service.close()
        server.shutdown()
        server.server_close()
    op_counts: dict[str, int] = {}
    for op, _ in results:
        op_counts[op["op"]] = op_counts.get(op["op"], 0) + 1
    return {
        "requests": len(trace),
        "op_counts": op_counts,
        "wall_s": round(wall_s, 4),
        "p50_ms": stats["latency"].get("p50_ms"),
        "p95_ms": stats["latency"].get("p95_ms"),
        "session_p50_ms": stats["session_latency"].get("p50_ms"),
        "cache_hits": stats["cache"]["results"]["hits"],
        "cache_misses": stats["cache"]["results"]["misses"],
        "graphs_interned": stats["cache"]["graphs"]["hits"],
        "sessions": stats["sessions"],
    }


def _scaling_trace(n_requests: int) -> list[PartitionRequest]:
    """Distinct CPU-bound dknux requests over the canonical workloads
    (deterministic; no repeats, so nothing hides behind the cache)."""
    ga = dict(TRACE_GA_DEFAULTS, patience=None)  # fixed work per request
    requests = []
    seed = 0
    while len(requests) < n_requests:
        for size in BASE_SIZES:
            if len(requests) >= n_requests:
                break
            requests.append(
                PartitionRequest(workload(size), N_PARTS, seed=seed, ga=ga)
            )
        seed += 1
    return requests


def _drive(service, requests, width: int) -> tuple[float, list]:
    """Fan the request list at ``width`` concurrency; returns
    (wall seconds, results in request order)."""
    with ThreadPoolExecutor(max_workers=width) as fan:
        t0 = time.perf_counter()
        futures = [fan.submit(service.submit, r) for r in requests]
        results = [f.result() for f in futures]
        wall = time.perf_counter() - t0
    return wall, results


def phase_scaling(
    shards: int, n_requests: int
) -> dict:
    """Sharded throughput vs one single-process service.

    The comparison holds the parallelism budget fixed: the
    single-process baseline gets ``shards`` worker threads, the sharded
    service gets ``shards`` worker processes — ``_drive`` fans requests
    at the same concurrency against each.
    """
    cores = os.cpu_count() or 1
    requests = _scaling_trace(n_requests)

    with PartitionService(n_workers=shards) as single:
        single_s, single_results = _drive(single, requests, shards)

    with ShardedPartitionService(n_shards=shards, n_workers=2) as sharded:
        sharded_s, sharded_results = _drive(sharded, requests, shards)
        # misses the front placed off their ring owner: the answers
        # below are only proven placement-independent if some were
        spills = sum(
            c["value"] for c in sharded.metrics()["counters"]
            if c["name"] == "repro_placements_total"
            and c["labels"] == {"placement": "spill"}
        )

    identical = all(
        np.array_equal(a.assignment, b.assignment)
        and a.cut_size == b.cut_size
        for a, b in zip(single_results, sharded_results)
    )
    n = len(requests)
    return {
        "cores": cores,
        "shards": shards,
        "requests": n,
        "single_s": round(single_s, 4),
        "sharded_s": round(sharded_s, 4),
        "single_rps": round(n / max(single_s, 1e-9), 3),
        "sharded_rps": round(n / max(sharded_s, 1e-9), 3),
        "sharded_per_core_rps": round(n / max(sharded_s, 1e-9) / cores, 3),
        "sharded_speedup": round(single_s / max(sharded_s, 1e-9), 2),
        "sharded_identical_to_single": bool(identical),
        "sharded_spills": int(spills),
    }


def phase_concurrency(n_clients: int) -> dict:
    """``n_clients`` simultaneous keep-alive connections, mixed traffic.

    Every client opens its own persistent connection to the event-loop
    front (one :class:`HTTPServiceClient` — its connections are
    per-thread), waits on a barrier so all connections are open before
    any traffic, then issues healthz, a greedy partition whose
    ``n_parts``/``seed`` are client-specific, and stats.  Cross-talk
    between connections would surface as a partition answer that does
    not match that client's reference, computed up front against a
    plain in-process service.
    """
    import threading

    cores = os.cpu_count() or 1
    base = paper_mesh(SESSION_BASE)
    shapes = [(2 + i % 3, i % 5) for i in range(n_clients)]
    with PartitionService(n_workers=2) as ref_svc:
        refs = {
            shape: ref_svc.submit(
                PartitionRequest(
                    base, shape[0], seed=shape[1], method="greedy"
                )
            )
            for shape in set(shapes)
        }

    server = serve(port=0, background=True, n_workers=2)
    host, port = server.server_address[:2]
    client = HTTPServiceClient(f"http://{host}:{port}", timeout=300.0)
    latencies: list[float] = []
    failures: list[str] = []
    record = threading.Lock()
    barrier = threading.Barrier(n_clients + 1, timeout=300)

    def worker(idx: int) -> None:
        n_parts, seed = shapes[idx]
        try:
            client.healthy()  # opens this thread's connection
            barrier.wait()
            times = []
            t0 = time.perf_counter()
            assert client.healthy()
            times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            answer = client.partition(
                base, n_parts, seed=seed, method="greedy"
            )
            times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            client.stats()
            times.append(time.perf_counter() - t0)
            ref = refs[(n_parts, seed)]
            ok = (
                np.array_equal(answer.assignment, ref.assignment)
                and answer.cut_size == ref.cut_size
            )
        except Exception as exc:  # noqa: BLE001 - recorded for the gate
            with record:
                failures.append(f"client {idx}: {exc!r}")
            return
        with record:
            latencies.extend(times)
            if not ok:
                failures.append(f"client {idx}: answer mismatch")

    try:
        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join(timeout=300)
        wall_s = time.perf_counter() - t0
        hung = sum(t.is_alive() for t in threads)
    finally:
        client.close()  # every worker thread's connection
        server.service.close()
        server.shutdown()
        server.server_close()

    n_requests = len(latencies)
    lat_ms = np.sort(np.asarray(latencies)) * 1e3 if latencies else np.zeros(1)
    return {
        "clients": n_clients,
        "cores": cores,
        "requests": n_requests,
        "hung_clients": int(hung),
        "errors": failures[:10],
        "all_matched": not failures and not hung,
        "wall_s": round(wall_s, 4),
        "p50_ms": round(float(np.percentile(lat_ms, 50)), 3),
        "p95_ms": round(float(np.percentile(lat_ms, 95)), 3),
        "rps": round(n_requests / max(wall_s, 1e-9), 3),
        "per_core_rps": round(n_requests / max(wall_s, 1e-9) / cores, 3),
    }


def phase_observability(
    repeats: int, trace_path: Path, max_overhead_pct: float
) -> dict:
    """Tracing + metrics overhead on cache-hit traffic (PR 6).

    Replays ``repeats`` identical requests against a warmed service
    twice — tracing off, then tracing on (ring + JSONL sink) — and
    gates the per-request overhead.  Cache hits are the worst case for
    instrumentation: the request does almost no work, so the span
    bookkeeping is the largest relative cost it will ever be.  The gate
    passes when overhead is within ``max_overhead_pct`` *or* under an
    absolute 50 µs/request floor (relative noise on a ~100 µs path is
    scheduler jitter, not instrumentation).  Answers must be
    bit-identical with tracing on; p50/p95/p99 come from the unified
    metrics registry (``/v1/metrics`` percentiles, not wall-clock
    re-derivation); a sample of the JSONL trace is kept as an artifact.
    """
    ga = dict(TRACE_GA_DEFAULTS)
    base = paper_mesh(SESSION_BASE)

    def replay(**service_kwargs):
        with PartitionService(n_workers=2, **service_kwargs) as service:
            first = service.submit(
                PartitionRequest(base, N_PARTS, seed=0, ga=ga)
            )
            rounds = []
            for _ in range(3):
                t0 = time.perf_counter()
                results = [
                    service.submit(
                        PartitionRequest(base, N_PARTS, seed=0, ga=ga)
                    )
                    for _ in range(repeats)
                ]
                rounds.append(time.perf_counter() - t0)
            metrics = service.metrics()
        per_request = float(np.median(rounds)) / repeats
        return first, results, per_request, metrics

    plain_first, plain, plain_s, _ = replay()
    trace_first, traced, traced_s, metrics = replay(
        trace_enabled=True, trace_jsonl=str(trace_path)
    )

    identical = np.array_equal(
        plain_first.assignment, trace_first.assignment
    ) and all(
        np.array_equal(a.assignment, b.assignment)
        and a.cut_size == b.cut_size
        for a, b in zip(plain, traced)
    )
    overhead_s = traced_s - plain_s
    overhead_pct = overhead_s / max(plain_s, 1e-9) * 100.0
    within = overhead_pct <= max_overhead_pct or overhead_s <= 50e-6
    latency = metrics.get("latency_ms", {}).get("partition", {})
    trace_lines = 0
    if trace_path.exists():
        with open(trace_path) as fh:
            trace_lines = sum(1 for _ in fh)
    return {
        "repeats": repeats,
        "identical_with_tracing": bool(identical),
        "plain_us_per_request": round(plain_s * 1e6, 2),
        "traced_us_per_request": round(traced_s * 1e6, 2),
        "overhead_us_per_request": round(overhead_s * 1e6, 2),
        "overhead_pct": round(overhead_pct, 2),
        "overhead_within_gate": bool(within),
        "max_overhead_pct": max_overhead_pct,
        "registry_p50_ms": latency.get("p50_ms"),
        "registry_p95_ms": latency.get("p95_ms"),
        "registry_p99_ms": latency.get("p99_ms"),
        "trace_sample_lines": int(trace_lines),
        "trace_sample": str(trace_path),
    }


def _wait_for(predicate, timeout: float = 60.0) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def _submit_with_retry(service, request, tries: int = 5):
    """Requests caught in flight by a shard death fail fast with
    ShardDiedError (never hang); the replay driver retries them, so the
    no-lost-answers gate measures the fleet, not the driver."""
    retries = 0
    for _ in range(tries):
        try:
            return service.submit(request), retries
        except ShardDiedError:
            retries += 1
            time.sleep(0.2)
    raise SystemExit("failover phase: request lost after retries")


def phase_failover() -> dict:
    """Kill + restart one of 2 shards under replayed traffic.

    Gates: (a) no lost answers — every concurrent request answers,
    bit-identical to an uninterrupted single-process run; (b) the
    killed shard's open session resumes from its snapshot with
    bit-identical assignments; (c) warm-cache speedup is retained
    after restart (a repeated request hits the restarted shard's
    cache, asked directly: the front's answer cache would hit on its
    own).
    """
    ga = dict(TRACE_GA_DEFAULTS)
    base = paper_mesh(SESSION_BASE)
    session_updates = []
    graph = base
    for step in range(2):
        graph = insert_local_nodes(
            graph, SESSION_STEP_NODES, seed=2000 + step
        ).graph
        session_updates.append(graph)
    requests = [
        PartitionRequest(workload(size), N_PARTS, seed=s, ga=ga)
        for s in range(2)
        for size in BASE_SIZES
    ]

    # uninterrupted single-process reference (the bit-identity oracle)
    with PartitionService(n_workers=2) as ref_svc:
        ref_results = [ref_svc.submit(r) for r in requests]
        ref_open = ref_svc.open_session(base, N_PARTS, seed=0, ga=ga)
        ref_updates = [
            ref_svc.update_session(UpdateRequest(ref_open.session_id, g))
            for g in session_updates
        ]

    lost = 0
    retried = 0
    with ShardedPartitionService(n_shards=2, n_workers=2) as svc:
        target = svc.shard_of(base)
        opened = svc.open_session(base, N_PARTS, seed=0, ga=ga)
        u1 = svc.update_session(
            UpdateRequest(opened.session_id, session_updates[0])
        )

        # fan the trace while the session's shard is killed mid-flight;
        # a watcher thread times the actual kill→up supervisor latency
        # (timing it after the trace drains would fold GA/retry time —
        # trace-size noise — into the restart_s trajectory metric)
        import threading

        restart_seen: dict = {}

        def watch_restart(t_kill: float) -> None:
            if _wait_for(
                lambda: svc.shard_health()[target]["state"] == "up"
                and svc.shard_health()[target]["restarts"] >= 1
            ):
                restart_seen["s"] = time.perf_counter() - t_kill

        with ThreadPoolExecutor(max_workers=4) as fan:
            futures = [
                fan.submit(_submit_with_retry, svc, r) for r in requests
            ]
            time.sleep(0.05)  # let requests reach the shards
            t_kill = time.perf_counter()
            svc._slots[target].handle.process.kill()
            watcher = threading.Thread(target=watch_restart, args=(t_kill,))
            watcher.start()
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result())
                except SystemExit:
                    lost += 1
                    outcomes.append(None)
        watcher.join()
        restarted = "s" in restart_seen
        restart_s = restart_seen.get("s", -1.0)
        retried = sum(o[1] for o in outcomes if o is not None)
        identical = restarted and all(
            o is not None
            and np.array_equal(o[0].assignment, ref.assignment)
            and o[0].cut_size == ref.cut_size
            for o, ref in zip(outcomes, ref_results)
        )

        # (b) the session crossed the crash: resumes bit-identically
        u2 = svc.update_session(
            UpdateRequest(opened.session_id, session_updates[1])
        )
        session_resumed = (
            np.array_equal(u1.assignment, ref_updates[0].assignment)
            and np.array_equal(u2.assignment, ref_updates[1].assignment)
            and u2.session_id == opened.session_id
        )

        # (c) warm-cache speedup retained: repeat a request routed to
        # the restarted shard — recomputed once cold, then a cache hit
        # at the front and at the restarted shard itself.  Seed 2: the
        # trace above already answered seeds 0 and 1 on this graph.
        probe = PartitionRequest(base, N_PARTS, seed=2, ga=ga)
        cold = svc.submit(probe)
        warm = svc.submit(probe)
        at_shard = svc._call(target, "submit", probe)
        cache_retained = bool(warm.cache_hit and at_shard.cache_hit)
        repeat_speedup = cold.latency_s / max(at_shard.latency_s, 1e-9)
        restarts = svc.shard_health()[target]["restarts"]

    return {
        "requests": len(requests),
        "lost_answers": int(lost),
        "retried_after_death": int(retried),
        "restarted": bool(restarted),
        "restarts": int(restarts),
        "restart_s": round(restart_s, 4),
        "answers_identical_to_single": bool(identical),
        "session_resumed_identical": bool(session_resumed),
        "post_restart_cache_hit": bool(cache_retained),
        "post_restart_repeat_speedup": round(repeat_speedup, 1),
    }


def phase_elastic() -> dict:
    """Grow a 2-shard fleet to 4 under replayed traffic (PR 10).

    Gates: (a) zero lost answers — every request issued across the
    resize answers, bit-identical to an uninterrupted single-process
    run; (b) the open session crosses the resize (handed to its new
    ring owner over the snapshot store) with bit-identical updates;
    (c) the warm-hit rate is preserved — every answer served at width
    2 repeats as a cache hit at width 4, because the grow re-seeds the
    new owners from the per-shard write-behind journals.  The front
    answers those repeats itself, so (a) replays requests the fleet
    has not answered yet, and (c) also asks each owner shard directly.
    """
    ga = dict(TRACE_GA_DEFAULTS)
    base = paper_mesh(SESSION_BASE)
    session_updates = []
    graph = base
    for step in range(2):
        graph = insert_local_nodes(
            graph, SESSION_STEP_NODES, seed=3000 + step
        ).graph
        session_updates.append(graph)
    requests = [
        PartitionRequest(workload(size), N_PARTS, seed=s, ga=ga)
        for s in range(2)
        for size in BASE_SIZES
    ]
    during = [
        PartitionRequest(workload(size), N_PARTS, seed=s, ga=ga)
        for s in range(2, 4)
        for size in BASE_SIZES
    ]

    # uninterrupted single-process reference (the bit-identity oracle)
    with PartitionService(n_workers=2) as ref_svc:
        ref_results = [ref_svc.submit(r) for r in requests]
        ref_during = [ref_svc.submit(r) for r in during]
        ref_open = ref_svc.open_session(base, N_PARTS, seed=0, ga=ga)
        ref_updates = [
            ref_svc.update_session(UpdateRequest(ref_open.session_id, g))
            for g in session_updates
        ]

    lost = 0
    with ShardedPartitionService(n_shards=2, n_workers=2) as svc:
        opened = svc.open_session(base, N_PARTS, seed=0, ga=ga)
        u1 = svc.update_session(
            UpdateRequest(opened.session_id, session_updates[0])
        )
        # serve everything once at width 2: warms the shards' caches
        # and fills the write-behind journals the grow re-seeds from
        pre = [svc.submit(r) for r in requests]
        pre_identical = all(
            np.array_equal(a.assignment, ref.assignment)
            for a, ref in zip(pre, ref_results)
        )

        # grow 2→4 while new requests are replayed concurrently; any
        # request caught by the topology swap fails fast and retries
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=4) as fan:
            futures = [
                fan.submit(_submit_with_retry, svc, r) for r in during
            ]
            summary = svc.resize(4)
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result())
                except SystemExit:
                    lost += 1
                    outcomes.append(None)
        resize_s = time.perf_counter() - t0
        retried = sum(o[1] for o in outcomes if o is not None)
        identical = pre_identical and all(
            o is not None
            and np.array_equal(o[0].assignment, ref.assignment)
            and o[0].cut_size == ref.cut_size
            for o, ref in zip(outcomes, ref_during)
        )
        grown = (
            bool(summary["changed"])
            and svc.n_shards == 4
            and sorted(svc.ring.members) == [0, 1, 2, 3]
        )

        # (b) the session crossed the resize: resumes bit-identically
        u2 = svc.update_session(
            UpdateRequest(opened.session_id, session_updates[1])
        )
        session_crossed = (
            np.array_equal(u1.assignment, ref_updates[0].assignment)
            and np.array_equal(u2.assignment, ref_updates[1].assignment)
            and u2.session_id == opened.session_id
        )

        # (c) warm-hit rate preserved: width-2 answers repeat as hits
        # at width 4, wherever the ring routes them now — at the front,
        # and at each owner shard, which holds an answer it did not
        # compute only if the grow re-warmed it from the journals
        post = [svc.submit(r) for r in requests]
        owned = [svc._call(svc._route(r)[0], "submit", r) for r in requests]
        warm_hits = sum(1 for r in post if r.cache_hit)
        owner_hits = sum(1 for r in owned if r.cache_hit)
        post_identical = all(
            np.array_equal(a.assignment, ref.assignment)
            and np.array_equal(b.assignment, ref.assignment)
            for a, b, ref in zip(post, owned, ref_results)
        )
        ring_epoch = svc.ring.epoch

    return {
        "requests": len(requests),
        "lost_answers": int(lost),
        "retried_during_resize": int(retried),
        "grown_to": 4,
        "grown": bool(grown),
        "ring_epoch": int(ring_epoch),
        "resize_s": round(resize_s, 4),
        "sessions_moved": len(summary["sessions_moved"]),
        "results_warmed": int(summary["results_warmed"]),
        "answers_identical_to_single": bool(identical and post_identical),
        "session_crossed_resize_identical": bool(session_crossed),
        "warm_hits_after_grow": int(warm_hits),
        "owner_hits_after_grow": int(owner_hits),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=20,
                        help="mixed requests in the HTTP replay phase")
    parser.add_argument("--repeats", type=int, default=10,
                        help="repeated identical requests in the warm phase")
    parser.add_argument("--updates", type=int, default=3,
                        help="incremental session updates in the warm phase")
    parser.add_argument("--min-warm-speedup", type=float, default=5.0,
                        help="floor for warm/cold aggregate throughput")
    parser.add_argument("--scaling-shards", type=int, default=4,
                        help="shards / workers in the scaling phase")
    parser.add_argument("--scaling-requests", type=int, default=12,
                        help="distinct CPU-bound requests per scaling run")
    parser.add_argument("--min-shard-speedup", type=float, default=2.0,
                        help="sharded vs single-process throughput floor "
                             "(enforced only on machines with >= 4 cores)")
    parser.add_argument("--concurrency-clients", type=int, default=256,
                        help="simultaneous keep-alive connections in the "
                             "concurrency phase")
    parser.add_argument("--max-concurrency-p95-ms", type=float, default=2000.0,
                        help="client-side p95 latency ceiling in the "
                             "concurrency phase (enforced only on machines "
                             "with >= 4 cores)")
    parser.add_argument("--obs-repeats", type=int, default=200,
                        help="cache-hit requests per round in the "
                             "observability overhead phase")
    parser.add_argument("--max-trace-overhead-pct", type=float, default=5.0,
                        help="ceiling for tracing overhead on cache-hit "
                             "traffic (an absolute 50 µs/request floor "
                             "absorbs sub-noise paths)")
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).parent / "SERVICE_metrics.json",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []

    warm = phase_warm_vs_cold(args.repeats, args.updates)
    if not warm["repeat_identical_to_cold"]:
        failures.append(
            "repeated service answers are not bit-identical to cold runs"
        )
    if warm["cache_hits"] < args.repeats:
        failures.append(
            f"expected {args.repeats} cache hits, saw {warm['cache_hits']}"
        )
    if warm["aggregate_speedup"] < args.min_warm_speedup:
        failures.append(
            f"warm/cold aggregate speedup {warm['aggregate_speedup']}x "
            f"below floor {args.min_warm_speedup}x"
        )

    http = phase_http_replay(args.requests)
    if http["p50_ms"] is None:
        failures.append("HTTP replay recorded no latency samples")
    if http["cache_hits"] < 1:
        failures.append("HTTP replay produced no cache hits")
    if http["sessions"]["updates"] < 1:
        failures.append("HTTP replay exercised no incremental updates")

    failover = phase_failover()
    if failover["lost_answers"]:
        failures.append(
            f"failover lost {failover['lost_answers']} answer(s) — "
            "requests must fail fast and succeed on retry"
        )
    if not failover["restarted"]:
        failures.append("killed shard was not restarted by the supervisor")
    if not failover["answers_identical_to_single"]:
        failures.append(
            "post-failover answers are not bit-identical to single-process"
        )
    if not failover["session_resumed_identical"]:
        failures.append(
            "session did not resume bit-identically from its snapshot"
        )
    if not failover["post_restart_cache_hit"]:
        failures.append(
            "restarted shard did not retain warm-cache behavior "
            "(repeat was not a cache hit)"
        )

    elastic = phase_elastic()
    if elastic["lost_answers"]:
        failures.append(
            f"elastic grow lost {elastic['lost_answers']} answer(s) — "
            "requests must fail fast and succeed on retry across a resize"
        )
    if not elastic["grown"]:
        failures.append("fleet did not grow to 4 ring members")
    if not elastic["answers_identical_to_single"]:
        failures.append(
            "answers across the grow are not bit-identical to single-process"
        )
    if not elastic["session_crossed_resize_identical"]:
        failures.append(
            "session did not cross the resize bit-identically"
        )
    for where in ("warm", "owner"):
        hits = elastic[f"{where}_hits_after_grow"]
        if hits < elastic["requests"]:
            failures.append(
                f"warm-hit rate not preserved across the grow: "
                f"{hits}/{elastic['requests']} repeats hit the "
                f"{'front' if where == 'warm' else 'owner shard'} cache"
            )

    concurrency = phase_concurrency(args.concurrency_clients)
    if not concurrency["all_matched"]:
        failures.append(
            f"concurrency phase: {concurrency['hung_clients']} hung "
            f"client(s), errors: {concurrency['errors'][:3]}"
        )
    if concurrency["cores"] >= 4:
        if concurrency["p95_ms"] > args.max_concurrency_p95_ms:
            failures.append(
                f"concurrency p95 {concurrency['p95_ms']} ms over the "
                f"{args.max_concurrency_p95_ms} ms ceiling on "
                f"{concurrency['cores']} cores"
            )
        concurrency["gate"] = f"enforced <= {args.max_concurrency_p95_ms} ms"
    else:
        # one core serializes 256 Python client threads — latency is
        # the clients contending, not the front; identity (zero
        # cross-talk, zero hangs) is still fully gated above
        concurrency["gate"] = (
            f"skipped: {concurrency['cores']} core(s) < 4 (p95 recorded, "
            "identity still enforced)"
        )

    obs = phase_observability(
        args.obs_repeats,
        args.out.parent / "SERVICE_trace_sample.jsonl",
        args.max_trace_overhead_pct,
    )
    if not obs["identical_with_tracing"]:
        failures.append("answers changed with tracing enabled")
    if not obs["overhead_within_gate"]:
        failures.append(
            f"tracing overhead {obs['overhead_pct']}% "
            f"({obs['overhead_us_per_request']} µs/request) over the "
            f"{args.max_trace_overhead_pct}% gate"
        )
    if obs["registry_p50_ms"] is None:
        failures.append("metrics registry recorded no latency histogram")
    if obs["trace_sample_lines"] < 1:
        failures.append("tracing wrote no JSONL span records")

    scaling = phase_scaling(args.scaling_shards, args.scaling_requests)
    if not scaling["sharded_identical_to_single"]:
        failures.append(
            "sharded responses are not bit-identical to single-process"
        )
    if scaling["sharded_spills"] <= 0:
        failures.append(
            "no sharded miss was placed off its ring owner, so the "
            "identity check did not cover placement"
        )
    if scaling["cores"] >= 4:
        if scaling["sharded_speedup"] < args.min_shard_speedup:
            failures.append(
                f"sharded throughput {scaling['sharded_speedup']}x single-"
                f"process, below floor {args.min_shard_speedup}x on "
                f"{scaling['cores']} cores"
            )
        scaling["gate"] = f"enforced >= {args.min_shard_speedup}x"
    else:
        # a process can't out-parallel a thread without cores to run
        # on; correctness (bit-identity) is still fully gated above
        scaling["gate"] = (
            f"skipped: {scaling['cores']} core(s) < 4 (throughput "
            "recorded, identity still enforced)"
        )

    report = {
        "scale": {
            "session_base": SESSION_BASE,
            "session_step_nodes": SESSION_STEP_NODES,
            "n_parts": N_PARTS,
            "trace_ga": TRACE_GA_DEFAULTS,
        },
        "min_warm_speedup": args.min_warm_speedup,
        "warm_vs_cold": warm,
        "http_replay": http,
        "scaling": scaling,
        "failover_detail": failover,
        "elastic_detail": elastic,
        "concurrency_detail": concurrency,
        "observability_detail": obs,
        # flat sections bench_trajectory.py renders across commits
        "serving": {
            "warm_cold_speedup_x": warm["aggregate_speedup"],
            "http_p50_ms": http["p50_ms"],
            "sharded_speedup_x": scaling["sharded_speedup"],
            "sharded_per_core_rps": scaling["sharded_per_core_rps"],
        },
        "failover": {
            "lost_answers": failover["lost_answers"],
            "restart_s": failover["restart_s"],
            "resumed_identical": int(failover["session_resumed_identical"]),
            "post_restart_cache_hit": int(failover["post_restart_cache_hit"]),
            "post_restart_repeat_speedup_x": failover[
                "post_restart_repeat_speedup"
            ],
        },
        "elastic": {
            "lost_answers": elastic["lost_answers"],
            "resize_s": elastic["resize_s"],
            "ring_epoch": elastic["ring_epoch"],
            "sessions_moved": elastic["sessions_moved"],
            "results_warmed": elastic["results_warmed"],
            "answers_identical": int(elastic["answers_identical_to_single"]),
            "warm_hits_after_grow": elastic["warm_hits_after_grow"],
        },
        "concurrency": {
            "clients": concurrency["clients"],
            "p50_ms": concurrency["p50_ms"],
            "p95_ms": concurrency["p95_ms"],
            "rps": concurrency["rps"],
            "per_core_rps": concurrency["per_core_rps"],
        },
        "observability": {
            "trace_overhead_pct": obs["overhead_pct"],
            "trace_overhead_us": obs["overhead_us_per_request"],
            "traced_identical": int(obs["identical_with_tracing"]),
            "registry_p50_ms": obs["registry_p50_ms"],
            "registry_p99_ms": obs["registry_p99_ms"],
        },
        "ok": not failures,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
