"""`repro.service` core — partition-as-a-service over the GA kernels.

:class:`PartitionService` is the long-lived object the CLI ``serve``
command, the HTTP frontend, and the programmatic
:class:`~repro.service.client.ServiceClient` all drive.  One request
flows::

    request → content-addressed result cache ──hit──→ answer
            └─miss→ in-flight join (identical request already running?)
            └─lead→ pinned worker slot (by graph digest / session id)
                     → GA / baseline / portfolio / batched refine
                     → result stored + warm seed updated → answer

Everything the PR-1/2 kernels made fast stays hot across requests: the
graph store interns CSR builds (strength tables, unit-weight flags),
refinement groups share one lockstep :func:`climb_batch` sweep, session
partitioners keep their population near the previous optimum, and the
engine evaluator's row-hash memo (PR 3) never re-evaluates a row the
service has already paid for.

Execution: every job runs on a pinned worker thread of this process.
The batch kernels release the GIL, so threads overlap; Python-level
generation bookkeeping does not, and the way to put more cores to work
is more shards — whole services like this one behind the hash ring
(:mod:`repro.service.sharding`).

Digest-first requests: a :class:`PartitionRequest` may name its graph
by digest alone.  Its answer is looked up by digest first, so a cache
hit needs no graph; a miss resolves the digest against the graph
store, and a graph that is not resident raises
:class:`~repro.errors.NeedsGraph` before anything is scheduled.

Determinism contract: cached, joined, and group-coalesced answers are
bit-identical to what a cold serial run of the same request (same
seed) would return.  The only opt-out is ``warm_start=True``, which
explicitly trades that property for convergence speed.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional, Sequence, Union

import numpy as np

from ..errors import ConfigError, NeedsGraph, ReproError, ServiceError
from ..ga.batch_climb import climb_batch
from ..ga.config import GAConfig
from ..ga.fitness import make_fitness
from ..graphs.csr import CSRGraph
from ..obs.hooks import ExecRecorder, recording
from ..obs.metrics import (
    STATS_SECTIONS,
    MetricsRegistry,
    latency_digest,
    stats_view,
)
from ..obs.trace import NULL_SPAN, Tracer
from ..partition.partition import Partition
from .cache import ContentStore, request_key
from .config import ServiceConfig
from .models import (
    JobResult,
    PartitionRequest,
    RefineRequest,
    UpdateRequest,
    result_from_partition,
)
from .portfolio import run_portfolio
from .scheduler import CoalescingScheduler
from .sessions import SessionManager

__all__ = ["PartitionService", "DEFAULT_GA_OVERRIDES"]

Request = Union[PartitionRequest, RefineRequest]

#: serving default for one-shot dknux requests — the library front
#: door's compact budget (requests override any field via ``ga``)
DEFAULT_GA_OVERRIDES = dict(
    population_size=64,
    max_generations=100,
    patience=20,
    hill_climb="all",
    hill_climb_passes=2,
    mutation="boundary",
    mutation_rate=0.02,
)


class PartitionService:
    """The partition-as-a-service engine room (see module docstring).

    Built from a :class:`~repro.service.config.ServiceConfig`; keyword
    arguments are config field overrides, so ``PartitionService(
    n_workers=4, cache_bytes=1 << 20)`` and ``PartitionService(
    config=ServiceConfig(...))`` are the same thing.
    """

    def __init__(
        self, config: Optional[ServiceConfig] = None, **overrides
    ) -> None:
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            config = config.with_updates(**overrides)
        self.config = config
        self.store = ContentStore(config.cache_bytes)
        self.scheduler = CoalescingScheduler(config.n_workers)
        self.sessions = SessionManager(config.max_sessions)
        # observability plane (repro.obs): spans + the unified metrics
        # registry.  Strictly observational — nothing recorded here may
        # flow into results, seeds, or routing.
        self.tracer = Tracer(
            enabled=config.trace_enabled,
            ring_size=config.trace_ring,
            jsonl_path=config.trace_jsonl,
            sample_rate=config.trace_sample,
        )
        self.registry = MetricsRegistry()
        # session failover persistence (see repro.service.persistence):
        # snapshot on every session commit, restore what the store holds
        # before taking traffic — a restarted shard resumes its sessions
        # at the last committed epoch instead of answering "unknown"
        self.persistence = None
        self.write_behind = None
        self._results_warmed = 0
        if config.snapshot_dir:
            from .persistence import (
                ResultWriteBehind,
                SessionPersistence,
                SnapshotStore,
            )

            self.persistence = SessionPersistence(
                SnapshotStore(config.snapshot_dir),
                self.sessions,
                interval_s=config.snapshot_interval_s,
            )
            self.persistence.restore_all()
            # result write-behind (PR 10): replay the journal into the
            # content cache before taking traffic, so a restarted shard
            # re-warms its *results* the way restore_all re-warms its
            # sessions — the hottest keys answer as cache hits instead
            # of being recomputed
            self.write_behind = ResultWriteBehind(config.snapshot_dir)
            self._replay_write_behind()
        self._register_metrics()
        self._closed = False

    def _register_metrics(self) -> None:
        """Register snapshot-time providers mapping the subsystem
        ``stats()`` dicts onto the metric families documented in
        :mod:`repro.obs`: each field feeds the family
        :data:`~repro.obs.metrics.STATS_SECTIONS` names for it."""
        reg = self.registry

        def cache_series(field):
            def provide():
                stats = self.store.stats()
                return [
                    ({"cache": name}, float(stats[name][field]))
                    for name in ("results", "graphs")
                ]

            return provide

        for field, metric in STATS_SECTIONS["cache"]:
            reg.provide(metric, cache_series(field))
        reg.gauge_fn(
            "repro_warm_seeds",
            lambda: [({}, float(self.store.stats()["graphs"]["warm_seeds"]))],
        )

        def scalar(stats_fn, field):
            return lambda: [({}, float(stats_fn()[field]))]

        sources = {
            "scheduler": self.scheduler.stats,
            "sessions": self.sessions.stats,
        }
        if self.persistence is not None:
            sources["persistence"] = self.persistence.stats
        if self.write_behind is not None:
            sources["write_behind"] = lambda: dict(
                self.write_behind.stats(), results_warmed=self._results_warmed
            )
        for section, stats_fn in sources.items():
            for field, metric in STATS_SECTIONS[section]:
                reg.provide(metric, scalar(stats_fn, field))
        reg.gauge_fn(
            "repro_inflight_jobs",
            lambda: [({}, float(self.scheduler.queue_depth()))],
        )
        reg.gauge_fn(
            "repro_session_epoch_max",
            lambda: [({}, float(self.sessions.epoch_summary()["max_epoch"]))],
        )
        for field, metric in (
            ("spans_recorded", "repro_trace_spans_total"),
            ("spans_ingested", "repro_trace_spans_ingested_total"),
            ("sink_errors", "repro_trace_sink_errors_total"),
        ):
            reg.counter_fn(metric, scalar(self.tracer.counters, field))

    # ------------------------------------------------------------------
    # one-shot + refine
    # ------------------------------------------------------------------
    def submit(
        self, request: Request, trace: Optional[dict] = None
    ) -> JobResult:
        """Answer one request (cache → join → execute).

        ``trace`` is an optional wire span context (``{"trace_id",
        "span_id"}``) from a shard front; it overrides the request's
        own ``trace`` field and is strictly observational — the cache
        key, routing, and the answer bits never depend on it.
        """
        self._check_open()
        t0 = time.perf_counter()
        ctx = trace if trace is not None else request.trace
        request, digest, key, held = self._lookup(request, t0, ctx)
        if held is not None:
            return held
        endpoint = _endpoint(request)
        span = self.tracer.start(
            "service.submit", parent=ctx, attrs={"endpoint": endpoint}
        )
        try:
            request = self._resident(request, digest)
            # the leader's job publishes (cache + warm seed) *before*
            # the scheduler drops its in-flight entry, so a same-key
            # request arriving at any moment finds either the flight or
            # the cache — identical work truly runs at most once
            result = self.scheduler.run(
                key,
                digest,
                lambda: self._execute_and_publish(
                    request, digest, key, parent=span
                ),
            )
        except BaseException as exc:
            span.fail(exc)
            span.close()
            raise
        latency = time.perf_counter() - t0
        result.latency_s = latency
        result.request_key = key
        span.set(cache_hit=result.cache_hit, coalesced=result.coalesced)
        span.close()
        self._observe_request(endpoint, latency)
        # remote-rooted spans collect their subtree; ship it back in the
        # reply so the front can stitch one tree.  A coalesced follower
        # may have copied the leader's result (leader's spans) — always
        # overwrite with *this* request's own collection.
        collected = span.collected()
        result.spans = collected if collected else None
        return result

    def submit_many(
        self, requests: Sequence[Request], trace: Optional[dict] = None
    ) -> list[JobResult]:
        """Answer a batch, coalescing what can be coalesced.

        Cache hits are answered immediately; remaining
        :class:`RefineRequest`\\ s sharing (graph, k, fitness, passes)
        run as *one* lockstep ``climb_batch`` sweep per group (their
        rows stacked), and everything else goes through :meth:`submit`.
        Per-request results are returned in submission order and are
        bit-identical to submitting each request serially.

        ``trace`` (a wire span context) parents the spans of items that
        fall through to :meth:`submit`; cache hits and group members
        are counted in the metrics registry but not spanned.
        """
        self._check_open()
        results: list[Optional[JobResult]] = [None] * len(requests)
        groups: dict[tuple, list[int]] = {}
        prepared: list[Optional[tuple[Request, str, str]]] = [None] * len(requests)
        for i, request in enumerate(requests):
            request, digest, key, cached = self._lookup(
                request, time.perf_counter(), NULL_SPAN
            )
            if cached is not None:
                results[i] = cached
                continue
            prepared[i] = (self._resident(request, digest), digest, key)
            if isinstance(request, RefineRequest):
                group_id = (
                    digest,
                    request.n_parts,
                    request.fitness_kind,
                    request.passes,
                )
                groups.setdefault(group_id, []).append(i)

        grouped = {i for members in groups.values() for i in members}
        for group_id, members in groups.items():
            digest = group_id[0]
            keys = [prepared[i][2] for i in members]
            batch = [prepared[i][0] for i in members]
            group_t0 = time.perf_counter()

            def run_and_publish(b=batch, ks=keys, d=digest):
                group = self._execute_refine_group(b)
                for req, k, res in zip(b, ks, group):
                    self.store.store_result(k, res)
                    self._store_warm_seed(req, d, res)
                    self._record_result(k, res)
                return group

            group_results = self.scheduler.run_group(
                keys, digest, run_and_publish
            )
            # every member's latency is its group's service time — the
            # same per-request semantics submit() reports, so the p50/
            # p95 stats mix batch and single traffic consistently
            group_s = time.perf_counter() - group_t0
            for i, key, result in zip(members, keys, group_results):
                result.latency_s = group_s
                result.request_key = key
                self._observe_request("refine", group_s)
                results[i] = result

        # remaining misses are independent jobs; fan them out so the
        # pinned worker pool overlaps their execution instead of the
        # batch degenerating into a serial loop
        leftovers = [
            i
            for i in range(len(requests))
            if results[i] is None and i not in grouped
        ]
        if len(leftovers) == 1:
            i = leftovers[0]
            results[i] = self.submit(prepared[i][0], trace)
        elif leftovers:
            from concurrent.futures import ThreadPoolExecutor

            fan_out = min(len(leftovers), self.scheduler.pool.n_slots)
            with ThreadPoolExecutor(max_workers=fan_out) as fan:
                futures = {
                    i: fan.submit(self.submit, prepared[i][0], trace)
                    for i in leftovers
                }
                for i, future in futures.items():
                    results[i] = future.result()
        return results  # type: ignore[return-value]

    def held_answer(self, request: Request) -> Optional[JobResult]:
        """The answer this service already holds for ``request``, served
        as :meth:`submit` serves a hit; ``None``, counting nothing, when
        it holds none.

        Only leaf locks are taken (the result LRU, the registry, the
        span ring) and no I/O is done, so the event-loop front calls
        this on its loop thread for a digest-only request, and sends the
        request to its worker pool, where :meth:`submit` counts the
        miss, only when this returns ``None``.  A tracer that writes a
        JSONL file would write it here, so with one configured this
        returns ``None`` and :meth:`submit` serves the hit instead."""
        self._check_open()
        if self.tracer.jsonl_path is not None:
            return None
        t0 = time.perf_counter()
        key = request_key(request, digest=request.graph_digest)
        return self._held(request, key, t0, request.trace, count_miss=False)

    def _held(
        self, request: Request, key: str, t0: float, trace,
        count_miss: bool = True,
    ) -> Optional[JobResult]:
        """Serve ``key``'s cached answer: a ``cache_hit`` copy counted
        as one request (result-cache hit, ``repro_requests_total``,
        latency) and spanned as ``service.submit`` under ``trace``
        (:data:`NULL_SPAN`: not spanned); ``None`` on a miss, which
        counts only with ``count_miss``."""
        cached = self.store.lookup_result(key, count_miss)
        if cached is None:
            return None
        endpoint = _endpoint(request)
        cached.latency_s = time.perf_counter() - t0
        cached.request_key = key
        self._observe_request(endpoint, cached.latency_s)
        span = self.tracer.emit(
            "service.submit", parent=trace, duration_s=cached.latency_s,
            attrs={"endpoint": endpoint, "cache_hit": True,
                   "coalesced": False},
        )
        # a remote-rooted span ships back in the reply, as in submit()
        cached.spans = span.collected() or None
        return cached

    def _lookup(
        self, request: Request, t0: float, trace
    ) -> tuple[Request, str, str, Optional[JobResult]]:
        """``(request, digest, key, held answer or None)``: a
        graph-bearing request interns its graph first, and a digest-only
        request looks its answer up by digest alone.  A held answer is
        served by :meth:`_held` (spanned under ``trace``)."""
        if request.graph is None:
            digest = request.graph_digest
        else:
            digest, graph = self.store.graphs.intern(request.graph)
            request = _with_graph(request, graph)
        key = request_key(request, digest=digest)
        return request, digest, key, self._held(request, key, t0, trace)

    def _resident(self, request: Request, digest: str) -> Request:
        """A missed digest-only request with the resident graph it
        names; a graph that is not resident raises
        :class:`NeedsGraph`."""
        if request.graph is not None:
            return request
        graph = self.store.graphs.lookup(digest)
        if graph is None:
            raise NeedsGraph(
                f"graph {digest} is not held here; resend the request "
                "with its graph"
            )
        return dataclasses.replace(request, graph=graph, graph_digest=None)

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def open_session(
        self,
        graph: CSRGraph,
        n_parts: int,
        fitness_kind: str = "fitness1",
        seed: int = 0,
        ga: Optional[dict] = None,
        trace: Optional[dict] = None,
    ) -> JobResult:
        """Open a streaming session; the result carries ``session_id``."""
        self._check_open()
        t0 = time.perf_counter()
        span = self.tracer.start(
            "service.open_session", parent=trace,
            attrs={"endpoint": "open_session"},
        )
        _, graph = self.store.graphs.intern(graph)
        session = self.sessions.open(
            graph, n_parts, fitness_kind=fitness_kind, seed=seed, ga=ga
        )
        # the initial GA runs on the session's pinned worker slot, like
        # every later update — never on the calling (HTTP) thread, so
        # `n_workers` bounds service CPU even under open bursts

        def initial() -> Partition:
            init_span = self.tracer.start(
                "session.initial", parent=span,
                attrs={"session_id": session.id},
            )
            with init_span:
                partition = self._recorded(
                    init_span, session.partition_initial
                )
            # snapshot on the pinned slot, before this session's first
            # update can run — the stored RNG state is the committed one
            if self.persistence is not None:
                self.persistence.commit(session)
            return partition

        try:
            future = self.scheduler.pool.submit(session.id, initial)
            partition = future.result()
        except BaseException as exc:
            self.sessions.close(session.id)  # do not leak a broken session
            span.fail(exc)
            span.close()
            raise
        latency = time.perf_counter() - t0
        span.set(session_id=session.id)
        span.close()
        self._observe_request("open_session", latency)
        result = result_from_partition(
            partition,
            "dknux-incremental",
            fitness=_fitness_of(partition, fitness_kind),
            session_id=session.id,
            latency_s=latency,
        )
        collected = span.collected()
        result.spans = collected if collected else None
        return result

    def update_session(
        self, request: UpdateRequest, trace: Optional[dict] = None
    ) -> JobResult:
        """One incremental step, pinned to the session's worker slot.

        The session's state lock is held only for ingestion and commit
        (:meth:`~repro.service.sessions.SessionManager.
        update_overlapped`), so ``close_session``/stats never block
        behind a GA run.
        """
        self._check_open()
        t0 = time.perf_counter()
        ctx = trace if trace is not None else request.trace
        span = self.tracer.start(
            "service.update_session", parent=ctx,
            attrs={"endpoint": "update_session",
                   "session_id": request.session_id},
        )
        # intern the update graph too: replayed updates (and the sharded
        # bit-identity benchmark) then reuse one CSR build + strengths
        _, graph = self.store.graphs.intern(request.graph)

        def step() -> JobResult:
            step_span = self.tracer.start(
                "session.update", parent=span,
                attrs={"session_id": request.session_id},
            )
            with step_span:
                session, partition = self._recorded(
                    step_span,
                    lambda: self.sessions.update_overlapped(
                        request.session_id, graph
                    ),
                )
                step_span.set(epoch=session.n_updates)
            # on-commit snapshot: still on the session's pinned slot, so
            # the session's next update cannot have consumed RNG yet
            if self.persistence is not None:
                self.persistence.commit(session)
            return result_from_partition(
                partition,
                "dknux-incremental",
                fitness=_fitness_of(
                    partition, session.partitioner.fitness_kind
                ),
                session_id=session.id,
            )

        try:
            future = self.scheduler.pool.submit(request.session_id, step)
            result = future.result()
        except BaseException as exc:
            span.fail(exc)
            span.close()
            raise
        latency = time.perf_counter() - t0
        result.latency_s = latency
        span.close()
        self._observe_request("update_session", latency)
        collected = span.collected()
        result.spans = collected if collected else None
        return result

    def close_session(self, session_id: str) -> dict:
        self._check_open()
        summary = self.sessions.close(session_id)
        if self.persistence is not None:
            self.persistence.forget(session_id)
        return summary

    # ------------------------------------------------------------------
    # ring ownership handoff (PR 10 — the shard side of the elastic
    # fleet; see repro.service.ring and repro.service.sharding)
    # ------------------------------------------------------------------
    def prepare_handoff(self, session_ids=None) -> dict:
        """Flush durable state so another shard can adopt from this
        shard's store directory, and drain the result write-behind.

        With no ``session_ids`` this snapshots every *quiescent* open
        session (a fleet-wide flush before a remap).  With specific ids
        it **drains** those sessions instead — waiting out their
        in-flight update so the stored epoch is the latest committed one
        (see :meth:`~repro.service.persistence.SessionPersistence.
        snapshot_sessions`); the front only asks this after it has
        stopped routing new updates to them.  Returns the open session
        ids and the store directory (``None`` without persistence)."""
        self._check_open()
        if self.persistence is not None:
            if session_ids:
                self.persistence.snapshot_sessions(list(session_ids))
            else:
                self.persistence.snapshot_open_sessions()
        if self.write_behind is not None:
            self.write_behind.flush()
        return {
            "sessions": self.sessions.ids(),
            "snapshot_dir": self.config.snapshot_dir,
        }

    def adopt_sessions(self, src_dir: str, session_ids: Sequence[str]) -> list[str]:
        """Restore ``session_ids`` from a previous owner's snapshot
        directory (after its ``prepare_handoff``) and serve them here;
        the restored sessions resume bit-identically at their last
        committed epoch."""
        self._check_open()
        if self.persistence is None:
            raise ServiceError(
                "session adoption needs a snapshot store (snapshot_dir unset)"
            )
        return self.persistence.adopt_from(src_dir, session_ids)

    def release_sessions(self, session_ids: Sequence[str]) -> list[str]:
        """Stop serving sessions another shard has adopted (drops the
        in-memory session and this shard's snapshot; the new owner holds
        its own committed copy)."""
        self._check_open()
        released = []
        for session_id in session_ids:
            if self.sessions.release(session_id):
                released.append(session_id)
            if self.persistence is not None:
                self.persistence.forget(session_id)
        return released

    def warm_results_from(
        self,
        dirs: Sequence[str],
        ring: Optional[dict] = None,
        slot: Optional[int] = None,
    ) -> int:
        """Replay other shards' result journals into this content cache.

        ``ring`` (a :meth:`repro.service.ring.RingVersion.describe`
        dict) with ``slot`` filters to the keys this shard owns under
        the front's topology — after a remap, each shard warms exactly
        its newly owned keyspace.  Returns the number of results
        loaded; unreadable entries are skipped."""
        self._check_open()
        from .persistence import iter_result_entries

        version = None
        if ring is not None:
            from .ring import RingVersion

            version = RingVersion.from_description(ring)
        warmed = 0
        for root in dirs:
            for key, payload in iter_result_entries(root):
                if version is not None and slot is not None:
                    parts = key.split(":", 2)
                    if len(parts) < 3 or version.owner(parts[1]) != slot:
                        continue
                try:
                    result = JobResult.from_payload(payload)
                except (ReproError, KeyError, ValueError, TypeError):
                    continue  # corrupt entry: skip, never fatal
                self.store.store_result(key, result)
                self._seed_from_key(key, result)
                warmed += 1
        self._results_warmed += warmed
        return warmed

    def _replay_write_behind(self) -> None:
        """Service start: load this shard's own journal (no ownership
        filter — everything in it was recorded here)."""
        assert self.write_behind is not None
        warmed = 0
        for key, payload in self.write_behind.load():
            try:
                result = JobResult.from_payload(payload)
            except (ReproError, KeyError, ValueError, TypeError):
                continue
            self.store.store_result(key, result)
            self._seed_from_key(key, result)
            warmed += 1
        self._results_warmed += warmed

    def _record_result(self, key: str, result: JobResult) -> None:
        """Queue a freshly computed result for the write-behind journal
        (same neutral form the cache stores)."""
        if self.write_behind is None:
            return
        neutral = result.replace(
            cache_hit=False, coalesced=False, latency_s=0.0, spans=None
        )
        self.write_behind.record(key, neutral.to_payload())

    def _seed_from_key(self, key: str, result: JobResult) -> None:
        """Re-seed the warm-start store from a replayed journal entry.
        Keys are ``{kind}:{digest}:k={n}:f={fitness}:...`` by
        construction (:func:`repro.service.cache.request_key`)."""
        if result.assignment is None or result.fitness is None:
            return
        parts = key.split(":")
        if len(parts) < 4:
            return
        try:
            n_parts = int(parts[2].split("=", 1)[1])
            fitness_kind = parts[3].split("=", 1)[1]
        except (IndexError, ValueError):
            return
        self.store.graphs.store_seed_if_better(
            parts[1], n_parts, fitness_kind, result.assignment, result.fitness
        )

    # ------------------------------------------------------------------
    # stats / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``/v1/stats`` sections: a view of the registry snapshot
        (:func:`~repro.obs.metrics.stats_view`)."""
        return stats_view(self.registry.snapshot())

    def metrics(self) -> dict:
        """The unified observability snapshot (see :mod:`repro.obs`):
        the metrics-registry series plus the per-endpoint ``latency_ms``
        digest (:func:`~repro.obs.metrics.latency_digest`)."""
        snap = self.registry.snapshot()
        snap["latency_ms"] = latency_digest(snap)
        return snap

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self.persistence is not None:
                self.persistence.close()
            if self.write_behind is not None:
                self.write_behind.close()
            self.scheduler.shutdown()
            self.tracer.close()

    def __enter__(self) -> "PartitionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")

    # ------------------------------------------------------------------
    # execution (runs on scheduler workers)
    # ------------------------------------------------------------------
    def _resolved_ga_config(self, request: PartitionRequest) -> GAConfig:
        """The effective GAConfig of a dknux request (serving defaults
        plus the request's overrides); raises :class:`ServiceError` on
        bad overrides."""
        overrides = dict(DEFAULT_GA_OVERRIDES)
        if request.ga:
            overrides.update(request.ga)
        try:
            return GAConfig(**overrides)
        except (ConfigError, TypeError) as exc:
            raise ServiceError(f"bad ga overrides: {exc}") from exc

    def _observe_request(self, endpoint: str, latency_s: float) -> None:
        self.registry.inc("repro_requests_total", endpoint=endpoint)
        self.registry.observe(
            "repro_request_latency_ms", latency_s * 1e3, endpoint=endpoint
        )

    def _recorded(self, span, fn):
        """Run ``fn``; when ``span`` is live, install the GA progress
        recorder so generation and kernel hooks land under it.  The
        caller owns the span's lifecycle."""
        if not span:
            return fn()
        with recording(ExecRecorder(self.tracer, span, self.registry)):
            return fn()

    def _execute_and_publish(
        self, request: Request, digest: str, key: str, parent=NULL_SPAN
    ) -> JobResult:
        exec_span = self.tracer.start(
            "service.execute", parent=parent, attrs={"lane": "thread"}
        )
        with exec_span:
            result = self._recorded(
                exec_span, lambda: self._execute(request, digest)
            )
        self.store.store_result(key, result)
        self._store_warm_seed(request, digest, result)
        self._record_result(key, result)
        return result

    def _execute(self, request: Request, digest: str) -> JobResult:
        if isinstance(request, RefineRequest):
            return self._execute_refine_group([request])[0]
        return self._execute_partition(request, digest)

    def _execute_partition(
        self, request: PartitionRequest, digest: str
    ) -> JobResult:
        from .. import partition_graph
        from ..baselines import (
            greedy_partition,
            random_partition,
            recursive_kl_partition,
            rgb_partition,
            rsb_partition,
        )

        graph, k = request.graph, request.n_parts
        if request.method == "portfolio":
            partition, method, fitness, table = run_portfolio(
                graph,
                k,
                fitness_kind=request.fitness_kind,
                seed=request.seed,
                time_budget=request.time_budget,
                ga=request.ga,
                racing=self.config.racing_portfolio,
            )
            return result_from_partition(
                partition, f"portfolio:{method}", fitness=fitness,
                portfolio=table,
            )
        if request.method == "dknux":
            config = self._resolved_ga_config(request)
            seed_assignment = None
            if request.warm_start:
                seed_assignment = self.store.graphs.warm_seed(
                    digest, k, request.fitness_kind
                )
            partition = partition_graph(
                graph,
                k,
                fitness_kind=request.fitness_kind,
                config=config,
                seed=request.seed,
                seed_assignment=seed_assignment,
            )
        elif request.method == "greedy":
            partition = greedy_partition(graph, k, seed=request.seed)
        elif request.method == "rgb":
            partition = rgb_partition(graph, k)
        elif request.method == "kl":
            partition = recursive_kl_partition(graph, k, seed=request.seed)
        elif request.method == "rsb":
            partition = rsb_partition(graph, k)
        else:  # "random" — SERVICE_METHODS is validated at request build
            partition = random_partition(graph, k, seed=request.seed)
        return result_from_partition(
            partition,
            request.method,
            fitness=_fitness_of(partition, request.fitness_kind),
        )

    def _execute_refine_group(
        self, batch: list[RefineRequest]
    ) -> list[JobResult]:
        """One lockstep climb over every queued refinement of the same
        (graph, k, fitness, passes).

        ``climb_batch`` treats rows independently (per-row move masks
        over a shared scan), so the stacked sweep is bit-identical to
        climbing each request alone — coalescing changes cost, not
        answers."""
        head = batch[0]
        graph, k = head.graph, head.n_parts
        fitness = make_fitness(head.fitness_kind, graph, k)
        rows = np.vstack([r.assignment for r in batch])
        climbed = climb_batch(graph, fitness, rows, max_passes=head.passes)
        values = fitness.evaluate_batch(climbed)
        out = []
        for i in range(len(batch)):
            partition = Partition(graph, climbed[i], k)
            out.append(
                result_from_partition(
                    partition, "refine", fitness=float(values[i])
                )
            )
        return out

    def _store_warm_seed(
        self, request: Request, digest: str, result: JobResult
    ) -> None:
        """Remember the best assignment per (graph, k, fitness) for
        ``warm_start`` traffic (one atomic compare-and-store — no
        re-evaluation, no lost-update race between workers)."""
        if not isinstance(request, (PartitionRequest, RefineRequest)):
            return
        self.store.graphs.store_seed_if_better(
            digest,
            request.n_parts,
            request.fitness_kind,
            result.assignment,
            result.fitness,
        )


def _endpoint(request: Request) -> str:
    return "refine" if isinstance(request, RefineRequest) else "partition"


def _with_graph(request: Request, graph: CSRGraph) -> Request:
    """Copy of the request carrying the interned graph instance (same
    content by digest); the caller's request object is left untouched."""
    if request.graph is graph:
        return request
    return dataclasses.replace(request, graph=graph)


def _fitness_of(partition: Partition, fitness_kind: str) -> float:
    fitness = make_fitness(fitness_kind, partition.graph, partition.n_parts)
    return float(fitness.evaluate(partition.assignment))
