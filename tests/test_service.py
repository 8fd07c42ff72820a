"""Tests for the partition service subsystem (``repro.service``).

Covers the tentpole's contracts: the JSON request/response model,
content-addressed caching (hit/miss/eviction, graph interning, warm
seeds), request coalescing (in-flight join and batched refine, both
bit-identical to serial submission), streaming incremental sessions
(including concurrent ones), the method portfolio, digest-first
partition requests, and an end-to-end HTTP smoke test replaying a
workloads-derived mixed trace.
"""

import functools
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import partition_graph
from repro.analysis import LockWitness, WitnessViolation, extract_lock_graph
from repro.errors import (
    GraphFormatError,
    NeedsGraph,
    ServiceError,
    UnknownSession,
)
from repro.ga.config import GAConfig
from repro.graphs import mesh_graph
from repro.incremental.partitioner import IncrementalGAPartitioner
from repro.incremental.updates import insert_local_nodes
from repro.service import (
    DEFAULT_GA_OVERRIDES,
    HTTPServiceClient,
    JobResult,
    LRUBytesCache,
    PartitionRequest,
    PartitionService,
    RefineRequest,
    ServiceClient,
    UpdateRequest,
    dispatch_request,
    graph_digest,
    graph_from_wire,
    graph_to_wire,
    request_key,
    serve,
)

#: tiny GA budget — these tests exercise the serving layer, not search
#: quality
GA = dict(population_size=12, max_generations=6, patience=3)


@pytest.fixture
def graph():
    return mesh_graph(48, seed=3)


@pytest.fixture(scope="module")
def lock_graph():
    """The statically extracted lock graph for the repro package — the
    claim the runtime witness checks observed behavior against."""
    import repro

    src = Path(repro.__file__).resolve().parent
    return extract_lock_graph([str(src)])


@pytest.fixture
def service():
    with PartitionService(n_workers=2) as svc:
        yield svc


def serial_lock_update(manager, session_id, graph):
    """The serial-lock session update, the oracle of the service's
    overlapped one: both locks held for the whole GA run."""
    session = manager.get(session_id)
    with session.compute_lock, session.lock:
        partition = session.partitioner.update(graph)
        session.n_updates += 1
    return session, partition


# ----------------------------------------------------------------------
# models: JSON roundtrips and validation
# ----------------------------------------------------------------------

class TestModels:
    def test_partition_request_roundtrip(self, graph):
        req = PartitionRequest(graph, 4, fitness_kind="fitness2", seed=7,
                               method="greedy", ga=GA)
        back = PartitionRequest.from_payload(
            json.loads(json.dumps(req.to_payload()))
        )
        assert back.graph == graph
        assert (back.n_parts, back.fitness_kind, back.method, back.seed) == (
            4, "fitness2", "greedy", 7)
        assert back.ga == GA

    def test_digest_only_request_roundtrip(self, graph):
        """A digest-only request puts ``graph_digest`` where a
        graph-bearing one puts ``graph``; the graph-bearing payload
        keeps its key order and gains no key."""
        digest = graph_digest(graph)
        req = PartitionRequest(None, 4, seed=7, ga=GA, graph_digest=digest)
        payload = req.to_payload()
        assert "graph" not in payload and payload["graph_digest"] == digest
        back = PartitionRequest.from_payload(json.loads(json.dumps(payload)))
        assert back.graph is None and back.graph_digest == digest
        assert (back.n_parts, back.seed, back.ga) == (4, 7, GA)
        assert list(PartitionRequest(graph, 4).to_payload()) == [
            "kind", "graph", "n_parts", "fitness_kind", "method", "seed",
            "warm_start", "time_budget", "ga",
        ]
        with pytest.raises(ServiceError, match="exactly one"):
            PartitionRequest(graph, 4, graph_digest=digest)
        with pytest.raises(ServiceError, match="exactly one"):
            PartitionRequest(None, 4)

    def test_refine_request_roundtrip(self, graph, rng):
        a = rng.integers(0, 3, graph.n_nodes)
        req = RefineRequest(graph, 3, a, passes=4)
        back = RefineRequest.from_payload(
            json.loads(json.dumps(req.to_payload()))
        )
        assert np.array_equal(back.assignment, a)
        assert back.passes == 4

    def test_update_request_roundtrip(self, graph):
        req = UpdateRequest("s1-abc", graph)
        back = UpdateRequest.from_payload(
            json.loads(json.dumps(req.to_payload()))
        )
        assert back.session_id == "s1-abc"
        assert back.graph == graph

    def test_job_result_roundtrip(self, graph, rng):
        a = rng.integers(0, 4, graph.n_nodes)
        res = JobResult(
            assignment=a, n_parts=4, cut_size=10.0, max_part_cut=6.0,
            balance_ratio=1.1, part_sizes=[12, 12, 12, 12], method="dknux",
            fitness=-12.5, cache_hit=True, latency_s=0.01,
        )
        back = JobResult.from_payload(json.loads(json.dumps(res.to_payload())))
        assert np.array_equal(back.assignment, a)
        assert back.cache_hit and back.method == "dknux"

    def test_metis_text_accepted_on_the_wire(self, graph):
        from repro.graphs.io import write_metis

        # a graph can travel as METIS text instead of the JSON payload
        import io as _io
        from pathlib import Path
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.graph"
            write_metis(graph, path)
            back = graph_from_wire(path.read_text())
        assert back.n_nodes == graph.n_nodes
        assert back.n_edges == graph.n_edges

    def test_bad_requests_rejected(self, graph, rng):
        with pytest.raises(ServiceError):
            PartitionRequest(graph, 0)
        with pytest.raises(ServiceError):
            PartitionRequest(graph, 2, fitness_kind="fitness9")
        with pytest.raises(ServiceError):
            PartitionRequest(graph, 2, method="metis")
        with pytest.raises(ServiceError):
            PartitionRequest(graph, 2, time_budget=-1.0)
        with pytest.raises(ServiceError):
            PartitionRequest(graph, 2, time_budget="fast")
        with pytest.raises(ServiceError):
            PartitionRequest(graph, 2, seed="two")
        with pytest.raises(ServiceError):
            PartitionRequest(graph, 2, seed=-1)  # numpy rngs reject these
        with pytest.raises(GraphFormatError, match="finite"):
            graph_from_wire({
                "n_nodes": 2, "edges_u": [0], "edges_v": [1],
                "edge_weights": [float("nan")], "node_weights": [1, 1],
                "coords": None,
            })

    def test_job_result_copies_are_independent(self, rng):
        base = JobResult(
            assignment=rng.integers(0, 2, 6), n_parts=2, cut_size=1.0,
            max_part_cut=1.0, balance_ratio=1.0, part_sizes=[3, 3],
            method="x", portfolio=[{"method": "kl", "cut_size": 1.0}],
        )
        copy = base.replace(cache_hit=True)
        copy.part_sizes.append(99)
        copy.portfolio[0]["method"] = "tampered"
        copy.assignment[0] = 99
        assert base.part_sizes == [3, 3]
        assert base.portfolio[0]["method"] == "kl"
        assert base.assignment[0] != 99

    def test_bad_refine_and_update_requests_rejected(self, graph, rng):
        with pytest.raises(ServiceError):
            RefineRequest(graph, 2, rng.integers(0, 2, 5))  # wrong length
        with pytest.raises(ServiceError):
            RefineRequest(graph, 2, np.full(graph.n_nodes, 9))  # bad labels
        with pytest.raises(ServiceError):
            UpdateRequest("", graph)
        with pytest.raises(GraphFormatError):
            graph_from_wire({"n_nodes": 3})  # missing keys


# ----------------------------------------------------------------------
# content-addressed caching
# ----------------------------------------------------------------------

class TestCache:
    def test_lru_hit_miss_eviction(self):
        cache = LRUBytesCache(100)
        assert cache.get("a") is None
        cache.put("a", "A", 40)
        cache.put("b", "B", 40)
        assert cache.get("a") == "A"  # refreshes a
        cache.put("c", "C", 40)  # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == "A"
        assert cache.get("c") == "C"
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 3 and stats["misses"] == 2
        assert stats["bytes"] <= 100

    def test_lru_oversized_entry_not_stored(self):
        cache = LRUBytesCache(10)
        cache.put("big", "X", 1000)
        assert cache.get("big") is None

    def test_cli_method_list_matches_service(self):
        """The CLI submit choices mirror what the endpoint validates
        (cli.py keeps its own tuple to avoid importing the service at
        parser-build time)."""
        from repro.cli import SERVICE_CLI_METHODS
        from repro.service.models import SERVICE_METHODS

        assert set(SERVICE_CLI_METHODS) == set(SERVICE_METHODS)

    def test_store_seed_if_better_is_monotonic(self, graph, rng):
        from repro.service import GraphStore

        store = GraphStore(1 << 20)
        a = rng.integers(0, 2, graph.n_nodes)
        b = rng.integers(0, 2, graph.n_nodes)
        assert store.store_seed_if_better("d", 2, "fitness1", a, -10.0)
        # a worse publish must not replace the stored seed
        assert not store.store_seed_if_better("d", 2, "fitness1", b, -20.0)
        assert np.array_equal(store.warm_seed("d", 2, "fitness1"), a)
        assert store.seed_fitness("d", 2, "fitness1") == -10.0
        assert store.store_seed_if_better("d", 2, "fitness1", b, -5.0)
        assert np.array_equal(store.warm_seed("d", 2, "fitness1"), b)

    def test_shipped_lru_stays_bounded_under_contention(self):
        """Threads marking and probing one ShippedLRU never push it
        past its capacity, and afterwards exactly ``capacity`` of the
        marked digests are found."""
        import sys

        from repro.service.cache import ShippedLRU

        shipped = ShippedLRU(16)
        errors = []

        def churn(t: int) -> None:
            try:
                for i in range(20000):
                    shipped.mark(f"{t}-{i % 40}")
                    shipped.seen(f"{(t + 1) % 8}-{i % 40}")
                    if len(shipped) > 16:
                        errors.append(len(shipped))
                shipped.mark(f"{t}-last")
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=churn, args=(t,)) for t in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(shipped) == 16
        marked = [f"{t}-{i}" for t in range(8) for i in range(40)]
        marked += [f"{t}-last" for t in range(8)]
        assert sum(shipped.seen(d) for d in marked) == 16

    def test_graph_digest_is_content_identity(self, graph):
        twin = mesh_graph(48, seed=3)
        other = mesh_graph(48, seed=4)
        assert graph_digest(graph) == graph_digest(twin)
        assert graph_digest(graph) != graph_digest(other)

    def test_request_key_distinguishes_parameters(self, graph):
        k0 = request_key(PartitionRequest(graph, 4, seed=0))
        k1 = request_key(PartitionRequest(graph, 4, seed=1))
        k2 = request_key(PartitionRequest(graph, 8, seed=0))
        assert len({k0, k1, k2}) == 3

    def test_graph_interning_reuses_instance(self, service, graph):
        twin = mesh_graph(48, seed=3)
        d1, g1 = service.store.graphs.intern(graph)
        d2, g2 = service.store.graphs.intern(twin)
        assert d1 == d2
        assert g2 is g1  # the resident CSR build is shared

    def test_repeat_request_hits_cache(self, service, graph):
        r1 = service.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
        r2 = service.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
        assert not r1.cache_hit and r2.cache_hit
        assert np.array_equal(r1.assignment, r2.assignment)
        assert service.scheduler.jobs_executed == 1
        assert service.store.results.hits == 1

    def test_cache_eviction_under_tiny_budget(self, graph):
        with PartitionService(n_workers=1, cache_bytes=2048) as svc:
            for seed in range(4):
                svc.submit(PartitionRequest(graph, 4, seed=seed,
                                            method="greedy"))
            # budget (1024 bytes of results) holds ~2 of the 4 results
            assert svc.store.results.stats()["evictions"] >= 1

    def test_cold_bit_identity(self, service, graph):
        """The service's dknux answer equals a cold library run with the
        same seed and the same effective config."""
        result = service.submit(PartitionRequest(graph, 4, seed=5, ga=GA))
        config = GAConfig(**{**DEFAULT_GA_OVERRIDES, **GA})
        cold = partition_graph(graph, 4, config=config, seed=5)
        assert np.array_equal(result.assignment, cold.assignment)


# ----------------------------------------------------------------------
# digest-first requests
# ----------------------------------------------------------------------

class TestDigestFirst:
    def test_hit_needs_no_graph(self, service, graph):
        """A digest-only repeat is answered from the result cache
        without touching the graph store."""
        first = service.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
        graphs = service.store.graphs.stats()
        again = service.submit(PartitionRequest(
            None, 4, seed=0, ga=GA, graph_digest=graph_digest(graph)
        ))
        assert again.cache_hit
        assert again.request_key == first.request_key
        assert np.array_equal(again.assignment, first.assignment)
        assert service.store.graphs.stats() == graphs

    def test_miss_computes_on_the_resident_graph(self, service, graph):
        """A digest-only miss computes on the interned graph, and the
        answer equals the graph-bearing one — through submit and
        through submit_many."""
        service.submit(PartitionRequest(graph, 4, method="greedy"))
        digest = graph_digest(graph)
        got = service.submit(
            PartitionRequest(None, 4, seed=5, ga=GA, graph_digest=digest)
        )
        batch = service.submit_many([
            PartitionRequest(None, 4, seed=6, ga=GA, graph_digest=digest),
            PartitionRequest(None, 4, seed=5, ga=GA, graph_digest=digest),
        ])
        assert not got.cache_hit and batch[1].cache_hit
        with PartitionService(n_workers=1) as ref:
            want = [
                ref.submit(PartitionRequest(graph, 4, seed=s, ga=GA))
                for s in (5, 6)
            ]
        for a, b in zip([got, batch[0]], want):
            assert np.array_equal(a.assignment, b.assignment)
            assert (a.cut_size, a.fitness) == (b.cut_size, b.fitness)

    def test_unknown_graph_raises_before_any_work(self, service, graph):
        request = PartitionRequest(
            None, 4, seed=0, ga=GA, graph_digest=graph_digest(graph)
        )
        with pytest.raises(NeedsGraph, match="resend"):
            service.submit(request)
        with pytest.raises(NeedsGraph):
            service.submit_many([request])
        assert service.scheduler.stats()["jobs_executed"] == 0
        assert service.store.graphs.stats()["entries"] == 0


# ----------------------------------------------------------------------
# coalescing
# ----------------------------------------------------------------------

class TestCoalescing:
    def test_batched_refine_bit_identical_to_serial(self, graph, rng):
        rows = [rng.integers(0, 4, graph.n_nodes) for _ in range(5)]
        serial = []
        with PartitionService(n_workers=1) as svc:
            for row in rows:
                serial.append(svc.submit(RefineRequest(graph, 4, row)))
        with PartitionService(n_workers=1) as svc:
            batch = svc.submit_many(
                [RefineRequest(graph, 4, row) for row in rows]
            )
            assert svc.scheduler.groups_executed == 1
            assert svc.scheduler.group_members == 5
        for one, many in zip(serial, batch):
            assert np.array_equal(one.assignment, many.assignment)
            assert one.cut_size == many.cut_size
        assert sum(r.coalesced for r in batch) == 4  # all but the leader

    def test_submit_many_mixed_kinds_and_cache(self, graph, rng):
        row = rng.integers(0, 4, graph.n_nodes)
        with PartitionService(n_workers=2) as svc:
            first = svc.submit(PartitionRequest(graph, 4, method="greedy"))
            out = svc.submit_many([
                PartitionRequest(graph, 4, method="greedy"),  # cache hit
                RefineRequest(graph, 4, row),
                PartitionRequest(graph, 4, method="random", seed=1),
            ])
        assert out[0].cache_hit
        assert np.array_equal(out[0].assignment, first.assignment)
        assert out[1].method == "refine"
        assert out[2].method == "random"

    def test_inflight_join_deterministic(self):
        """Followers submitting while a key is in flight join the
        leader's execution instead of re-running it (scheduler-level,
        with the leader held open so joining is guaranteed)."""
        from repro.service import CoalescingScheduler

        scheduler = CoalescingScheduler(n_workers=2)
        release = threading.Event()
        template = JobResult(
            assignment=np.zeros(4, dtype=np.int64), n_parts=2, cut_size=1.0,
            max_part_cut=1.0, balance_ratio=1.0, part_sizes=[4, 0],
            method="test",
        )

        def slow_job():
            release.wait(timeout=30)
            return template

        results = []

        def leader():
            results.append(scheduler.run("K", "pin", slow_job))

        def follower():
            results.append(scheduler.run("K", "pin", slow_job))

        lead = threading.Thread(target=leader)
        lead.start()
        while "K" not in scheduler._inflight:  # leader definitely running
            pass
        followers = [threading.Thread(target=follower) for _ in range(3)]
        for t in followers:
            t.start()
        # followers only need to take a lock and check a dict to reach
        # the join wait; the leader stays held open far longer than that
        import time as _time

        _time.sleep(0.2)
        release.set()
        lead.join()
        for t in followers:
            t.join()
        scheduler.shutdown()
        assert scheduler.jobs_executed == 1
        assert scheduler.jobs_joined == 3
        assert len(results) == 4
        assert sum(r.coalesced for r in results) == 3

    def test_concurrent_identical_requests_identical_answers(self, graph):
        """Racing identical requests never duplicates much work and
        always answers identically (join or cache, by arrival time)."""
        with PartitionService(n_workers=2) as svc:
            results = [None] * 4
            barrier = threading.Barrier(4)

            def hit(i):
                barrier.wait()
                results[i] = svc.submit(
                    PartitionRequest(graph, 4, seed=0, ga=GA)
                )

            threads = [
                threading.Thread(target=hit, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            joined = svc.scheduler.jobs_joined
            hits = svc.store.results.hits
            executed = svc.scheduler.jobs_executed
            assert executed + joined + hits == 4
            assert executed <= 2  # the join/cache window race, at worst
        base = results[0].assignment
        for r in results[1:]:
            assert np.array_equal(r.assignment, base)

    def test_refine_single_matches_hillclimber(self, graph, rng):
        """The refine path is the deterministic lockstep climb."""
        from repro.ga import Fitness1, HillClimber

        row = rng.integers(0, 4, graph.n_nodes)
        with PartitionService(n_workers=1) as svc:
            result = svc.submit(RefineRequest(graph, 4, row, passes=2))
        climber = HillClimber(graph, Fitness1(graph, 4))
        expected, fit = climber.improve(row, max_passes=2, rng=None)
        assert np.array_equal(result.assignment, expected)
        assert result.fitness == pytest.approx(fit)


# ----------------------------------------------------------------------
# sessions
# ----------------------------------------------------------------------

class TestSessions:
    def test_session_lifecycle(self, service, graph):
        opened = service.open_session(graph, 4, seed=0, ga=GA)
        assert opened.session_id
        update = insert_local_nodes(graph, 6, seed=11)
        result = service.update_session(
            UpdateRequest(opened.session_id, update.graph)
        )
        assert result.session_id == opened.session_id
        assert result.assignment.shape == (update.graph.n_nodes,)
        summary = service.close_session(opened.session_id)
        assert summary["n_updates"] == 1
        with pytest.raises(ServiceError):
            service.close_session(opened.session_id)

    def test_update_unknown_session(self, service, graph):
        with pytest.raises(ServiceError, match="unknown session"):
            service.update_session(UpdateRequest("nope", graph))

    def test_open_session_validates_parameters(self, service, graph):
        """Malformed open parameters raise ServiceError (the HTTP layer
        maps that to 400, never a 500 with a leaked traceback)."""
        with pytest.raises(ServiceError):
            service.open_session(graph, "two")
        with pytest.raises(ServiceError):
            service.open_session(graph, 4, seed="x")
        with pytest.raises(ServiceError):
            service.open_session(graph, 4, fitness_kind="fitness9")
        with pytest.raises(ServiceError, match="ga overrides"):
            service.open_session(graph, 4, ga={"bogus_field": 1})
        with pytest.raises(ServiceError):
            service.open_session(graph, 0)
        # a failed open never leaks a registered session
        assert service.sessions.stats()["open"] == 0

    def test_update_seeds_from_previous_assignment(self, service, graph):
        """Old nodes mostly keep their parts across an update — the
        population was seeded from the previous partition."""
        opened = service.open_session(graph, 4, seed=0, ga=GA)
        update = insert_local_nodes(graph, 5, seed=2)
        result = service.update_session(
            UpdateRequest(opened.session_id, update.graph)
        )
        old = opened.assignment
        new = result.assignment[: old.shape[0]]
        agreement = float(np.mean(old == new))
        assert agreement > 0.5

    def test_overlapped_updates_match_serial_lock_path(self, graph, lock_graph):
        """The acceptance contract: the service's overlapped update
        path (short state lock, GA outside it) produces bit-identical
        assignments to the serial-lock oracle (``serial_lock_update``,
        patched in as the service's update) on the same update trace.

        Both drives run under the lock-order witness: every observed
        acquisition order must appear in the static lock graph, the
        overlapped path must never hold the session state lock across a
        GA run, and the serial path must (the positive control that the
        witness actually sees through ``run_pending``)."""
        updates = []
        current = graph
        for step in range(3):
            current = insert_local_nodes(current, 5, seed=50 + step).graph
            updates.append(current)

        def drive(overlap: bool):
            outs = []
            with LockWitness() as witness:
                witness.probe(IncrementalGAPartitioner, "run_pending")
                with PartitionService(n_workers=1) as svc:
                    if not overlap:
                        svc.sessions.update_overlapped = functools.partial(
                            serial_lock_update, svc.sessions
                        )
                    opened = svc.open_session(graph, 4, seed=0, ga=GA)
                    outs.append(opened.assignment)
                    for g in updates:
                        result = svc.update_session(
                            UpdateRequest(opened.session_id, g)
                        )
                        outs.append(result.assignment)
                    svc.close_session(opened.session_id)
            return outs, witness

        serial, w_serial = drive(overlap=False)
        overlapped, w_over = drive(overlap=True)
        for a, b in zip(serial, overlapped):
            assert np.array_equal(a, b)

        # observed acquisition order ⊆ statically extracted lock graph
        w_serial.assert_subgraph_of(lock_graph)
        w_over.assert_subgraph_of(lock_graph)
        # overlapped: the state lock is never held across a GA run
        checked = w_over.assert_never_held_during(
            lock_graph, "Session.lock", "run_pending"
        )
        assert checked == len(updates)
        # serial positive control: the same probe *does* see the state
        # lock held there, so a silent witness is a broken witness
        with pytest.raises(WitnessViolation):
            w_serial.assert_never_held_during(
                lock_graph, "Session.lock", "run_pending"
            )

    def test_overlapped_manager_paths_are_equivalent(self, graph, lock_graph):
        """The serial-lock oracle vs update_overlapped, driven directly
        on a SessionManager, each under the lock-order witness: the
        overlapped path runs the GA with the state lock free, the
        serial oracle with it held."""
        from repro.service import SessionManager

        update = insert_local_nodes(graph, 6, seed=9)
        results = {}
        for name in ("serial", "overlapped"):
            with LockWitness() as witness:
                witness.probe(IncrementalGAPartitioner, "run_pending")
                manager = SessionManager()
                session = manager.open(graph, 4, seed=3, ga=GA)
                session.partition_initial()
                if name == "serial":
                    _, part = serial_lock_update(
                        manager, session.id, update.graph
                    )
                else:
                    _, part = manager.update_overlapped(
                        session.id, update.graph
                    )
            results[name] = part.assignment
            assert session.n_updates == 1
            witness.assert_subgraph_of(lock_graph)
            if name == "serial":
                with pytest.raises(WitnessViolation):
                    witness.assert_never_held_during(
                        lock_graph, "Session.lock", "run_pending"
                    )
            else:
                assert witness.assert_never_held_during(
                    lock_graph, "Session.lock", "run_pending"
                ) == 1
        assert np.array_equal(results["serial"], results["overlapped"])

    def test_close_wins_over_inflight_overlapped_update(self, graph):
        """A close racing an overlapped update's GA run returns
        immediately; the update then fails its commit instead of
        committing to a closed session."""
        from repro.service import SessionManager

        manager = SessionManager()
        session = manager.open(graph, 4, seed=0, ga=GA)
        session.partition_initial()
        update = insert_local_nodes(graph, 6, seed=9)
        started = threading.Event()
        outcome = {}

        original_run = session.partitioner.run_pending

        def slow_run(pending):
            started.set()
            result = original_run(pending)
            release.wait(timeout=30)
            return result

        release = threading.Event()
        session.partitioner.run_pending = slow_run

        def updater():
            try:
                manager.update_overlapped(session.id, update.graph)
                outcome["update"] = "committed"
            except ServiceError:
                outcome["update"] = "rejected"

        thread = threading.Thread(target=updater)
        thread.start()
        assert started.wait(timeout=30)
        summary = manager.close(session.id)  # must not block on the GA
        assert summary["session_id"] == session.id
        release.set()
        thread.join(timeout=30)
        assert outcome["update"] == "rejected"
        assert manager.stats()["open"] == 0

    def test_concurrent_sessions_are_isolated(self, graph):
        other = mesh_graph(56, seed=9)
        with PartitionService(n_workers=2) as svc:
            outcomes = {}
            errors = []

            def drive(name, g, seed):
                try:
                    opened = svc.open_session(g, 4, seed=seed, ga=GA)
                    current = g
                    for step in range(2):
                        current = insert_local_nodes(
                            current, 4, seed=100 * seed + step
                        ).graph
                        result = svc.update_session(
                            UpdateRequest(opened.session_id, current)
                        )
                        assert result.session_id == opened.session_id
                    outcomes[name] = svc.close_session(opened.session_id)
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append((name, exc))

            threads = [
                threading.Thread(target=drive, args=("a", graph, 1)),
                threading.Thread(target=drive, args=("b", other, 2)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert outcomes["a"]["n_updates"] == 2
            assert outcomes["b"]["n_updates"] == 2
            assert outcomes["a"]["session_id"] != outcomes["b"]["session_id"]
            assert svc.sessions.stats() == {
                "open": 0, "opened": 2, "closed": 2, "restored": 0,
                "released": 0, "updates": 4,
            }


# ----------------------------------------------------------------------
# portfolio
# ----------------------------------------------------------------------

class TestPortfolio:
    def test_portfolio_returns_best_leg(self, service, graph):
        result = service.submit(
            PartitionRequest(graph, 4, method="portfolio", ga=GA)
        )
        assert result.method.startswith("portfolio:")
        assert result.portfolio
        ran = [leg for leg in result.portfolio if "fitness" in leg]
        assert ran, "no portfolio leg ran"
        assert result.fitness == pytest.approx(
            max(leg["fitness"] for leg in ran)
        )
        methods = [leg["method"] for leg in result.portfolio]
        assert "dknux" in methods

    def test_engine_deadline_stops_between_generations(self, graph):
        import time

        from repro.ga import Fitness1, GAEngine, UniformCrossover

        fit = Fitness1(graph, 3)
        engine = GAEngine(
            graph, fit, UniformCrossover(),
            config=GAConfig(population_size=10, max_generations=500),
            seed=0,
        )
        expired = engine.run(deadline=time.perf_counter())  # already past
        assert expired.stopped_by == "deadline"
        assert expired.generations == 0
        # a non-binding deadline changes nothing vs no deadline
        engine2 = GAEngine(
            graph, fit, UniformCrossover(),
            config=GAConfig(population_size=10, max_generations=10),
            seed=0,
        )
        free = engine2.run(deadline=time.perf_counter() + 1e6)
        engine3 = GAEngine(
            graph, fit, UniformCrossover(),
            config=GAConfig(population_size=10, max_generations=10),
            seed=0,
        )
        plain = engine3.run()
        assert free.best_fitness == plain.best_fitness
        assert np.array_equal(free.best.assignment, plain.best.assignment)

    def test_budget_bounds_dknux_generations(self, graph):
        """A binding budget stops the GA leg early instead of running
        the full generation schedule past the client's cap."""
        from repro.service import run_portfolio

        _, _, _, table = run_portfolio(
            graph, 4, time_budget=1e6, ga=dict(GA, max_generations=50)
        )
        unbudgeted = [l for l in table if l["method"] == "dknux"][0]
        # patience (3) binds long before 50 generations
        assert 0 < unbudgeted["generations"] < 50

    def test_racing_matches_serial_winner(self, graph):
        """With a non-binding budget, the racing portfolio returns the
        identical winner, partition, and fitness as the serial one (the
        acceptance contract for PR 4's racing mode)."""
        from repro.service import run_portfolio

        for budget in (None, 1e6):
            serial = run_portfolio(
                graph, 4, seed=0, time_budget=budget, ga=GA, racing=False
            )
            raced = run_portfolio(
                graph, 4, seed=0, time_budget=budget, ga=GA, racing=True
            )
            assert raced[1] == serial[1]  # same winning method
            assert np.array_equal(raced[0].assignment, serial[0].assignment)
            assert raced[2] == serial[2]  # same fitness
            # leg tables line up row-for-row in the fixed leg order
            assert [r["method"] for r in raced[3]] == [
                r["method"] for r in serial[3]
            ]

    def test_racing_service_answers_match_serial_service(self, graph):
        req = dict(method="portfolio", seed=0, ga=GA)
        with PartitionService(n_workers=1) as svc:
            serial = svc.submit(PartitionRequest(graph, 4, **req))
        with PartitionService(n_workers=1, racing_portfolio=True) as svc:
            raced = svc.submit(PartitionRequest(graph, 4, **req))
        assert raced.method == serial.method
        assert np.array_equal(raced.assignment, serial.assignment)
        assert raced.fitness == serial.fitness

    def test_racing_with_binding_budget_still_answers(self, graph):
        from repro.service import run_portfolio

        best, method, fitness, table = run_portfolio(
            graph, 4, seed=0, time_budget=1e-9, ga=GA, racing=True
        )
        assert best.assignment.shape == (graph.n_nodes,)
        assert method  # some leg (or the fallback) won

    def test_binding_budget_cancels_iterative_legs_midrun(self, graph):
        """PR 5 satellite: a tight budget no longer lets the monolithic
        KL/RSB legs overshoot — their per-sweep deadline checks cut
        them, so the whole serial portfolio lands near the budget."""
        import time

        from repro.service import run_portfolio

        t0 = time.perf_counter()
        best, method, _, table = run_portfolio(
            graph, 8, seed=0, time_budget=0.05, ga=GA, racing=False
        )
        elapsed = time.perf_counter() - t0
        assert best.assignment.shape == (graph.n_nodes,)
        # generous cap: without mid-leg cancellation a single KL/RSB
        # leg at k=8 can run far past a 50 ms budget on its own
        assert elapsed < 5.0
        assert [row["method"] for row in table]  # the table still reports

    def test_engine_abort_callback(self, graph):
        """abort=True stops the run immediately with stopped_by="aborted";
        an abort that never fires changes nothing."""
        from repro.ga import Fitness1, GAEngine, UniformCrossover

        fit = Fitness1(graph, 3)
        cfg = GAConfig(population_size=10, max_generations=10)
        seen = []

        def never(best):
            seen.append(best)
            return False

        aborted = GAEngine(
            graph, fit, UniformCrossover(), config=cfg, seed=0
        ).run(abort=lambda best: True)
        assert aborted.stopped_by == "aborted"
        assert aborted.generations == 0
        free = GAEngine(
            graph, fit, UniformCrossover(), config=cfg, seed=0
        ).run(abort=never)
        plain = GAEngine(
            graph, fit, UniformCrossover(), config=cfg, seed=0
        ).run()
        assert len(seen) == 10  # called once per generation
        assert free.best_fitness == plain.best_fitness
        assert np.array_equal(free.best.assignment, plain.best.assignment)

    def test_tiny_budget_skips_expensive_legs(self, service, graph):
        result = service.submit(
            PartitionRequest(
                graph, 4, method="portfolio", time_budget=1e-9, ga=GA
            )
        )
        # the budget was exhausted before dknux; the answer still exists
        dknux = [
            leg for leg in result.portfolio if leg["method"] == "dknux"
        ][0]
        assert "skipped" in dknux
        assert result.assignment.shape == (graph.n_nodes,)


# ----------------------------------------------------------------------
# warm start + lifecycle
# ----------------------------------------------------------------------

class TestServiceLifecycle:
    def test_warm_start_uses_cached_seed(self, service, graph):
        cold = service.submit(PartitionRequest(graph, 4, seed=0, ga=GA))
        warm = service.submit(
            PartitionRequest(graph, 4, seed=1, warm_start=True, ga=GA)
        )
        assert not warm.cache_hit  # different key: it is a new answer
        # warm start can only improve on the seed partition's fitness
        assert warm.fitness >= cold.fitness - 1e-9

    def test_closed_service_rejects_requests(self, graph):
        svc = PartitionService(n_workers=1)
        svc.close()
        with pytest.raises(ServiceError, match="closed"):
            svc.submit(PartitionRequest(graph, 2, method="random"))

    def test_submit_does_not_mutate_caller_request(self, service, graph):
        """Interning swaps the graph on a *copy* of the request; the
        caller's frozen dataclass keeps its own instance."""
        twin = mesh_graph(48, seed=3)  # same content, different object
        service.submit(PartitionRequest(graph, 4, method="greedy"))
        request = PartitionRequest(twin, 4, method="greedy")
        service.submit(request)
        assert request.graph is twin

    def test_stats_shape(self, service, graph):
        service.submit(PartitionRequest(graph, 4, method="greedy"))
        stats = service.stats()
        assert {"cache", "scheduler", "sessions", "latency",
                "session_latency"} <= set(stats)
        assert stats["latency"]["count"] == 1
        assert "p50_ms" in stats["latency"]


# ----------------------------------------------------------------------
# HTTP end-to-end
# ----------------------------------------------------------------------

#: JSON numbers a partition request must refuse with 400: GA overrides
#: that are not integers or not finite, and non-finite time budgets
BAD_NUMBERS = {
    "max_generations=2.5": {"ga": {"max_generations": 2.5}},
    "max_generations=NaN": {"ga": {"max_generations": float("nan")}},
    "tournament_size=NaN": {"ga": {"tournament_size": float("nan")}},
    "hill_climb_passes=NaN": {"ga": {"hill_climb_passes": float("nan")}},
    "eval_memo=NaN": {"ga": {"eval_memo": float("nan")}},
    "patience=NaN": {"ga": {"patience": float("nan")}},
    "hill_climb_passes=true": {"ga": {"hill_climb_passes": True}},
    "time_budget=NaN": {"method": "portfolio", "time_budget": float("nan")},
    "time_budget=Infinity": {
        "method": "portfolio", "time_budget": float("inf"),
    },
}

#: malformed ways to name a graph by digest
BAD_DIGESTS = {
    "wrong-length": {"graph_digest": "ab" * 15},
    "uppercase": {"graph_digest": "AB" * 16},
    "non-hex": {"graph_digest": "zz" * 16},
    "non-string": {"graph_digest": int("ab" * 16, 16)},
    "both": {"graph_digest": "ab" * 16, "graph": "<graph>"},
    "neither": {},
}


def _post_partition(service, payload: dict) -> tuple[int, dict]:
    status, _, body = dispatch_request(
        service, "POST", "/v1/partition", json.dumps(payload).encode()
    )
    return status, json.loads(body)


class TestDispatchValidation:
    @pytest.mark.parametrize("case", list(BAD_NUMBERS))
    def test_bad_numbers_answer_400(self, service, graph, case):
        status, body = _post_partition(
            service,
            {"graph": graph_to_wire(graph), "n_parts": 4, **BAD_NUMBERS[case]},
        )
        assert status == 400, body

    @pytest.mark.parametrize("field", [
        {"fitness_kind": "unknown session"},
        {"ga": {"unknown session": 1}},
    ])
    def test_unknown_session_in_a_bad_field_answers_400(
        self, service, graph, field
    ):
        """A bad request whose message happens to quote "unknown
        session" is still a bad request: only the typed error is 404."""
        status, body = _post_partition(
            service, {"graph": graph_to_wire(graph), "n_parts": 4, **field}
        )
        assert status == 400, body
        assert "unknown session" in body["error"]

    @pytest.mark.parametrize("case", list(BAD_DIGESTS))
    def test_malformed_digest_answers_400(self, service, graph, case):
        fields = dict(BAD_DIGESTS[case])
        if "graph" in fields:
            fields["graph"] = graph_to_wire(graph)
        status, body = _post_partition(service, {"n_parts": 4, **fields})
        assert status == 400, body
        assert "needs_graph" not in body


@pytest.fixture(scope="module")
def http_client():
    server = serve(port=0, background=True, n_workers=2)
    host, port = server.server_address
    yield HTTPServiceClient(f"http://{host}:{port}", timeout=120.0)
    server.service.close()
    server.shutdown()
    server.server_close()


class TestHTTP:
    def test_healthz(self, http_client):
        assert http_client.healthy()

    def test_partition_roundtrip_and_cache(self, http_client, graph):
        r1 = http_client.partition(graph, 4, seed=0, ga=GA)
        r2 = http_client.partition(graph, 4, seed=0, ga=GA)
        assert np.array_equal(r1.assignment, r2.assignment)
        assert r2.cache_hit and not r1.cache_hit
        assert r1.latency_s > 0

    def test_error_codes(self, http_client, graph):
        with pytest.raises(ServiceError, match="HTTP 404"):
            http_client.update_session("missing", graph)
        with pytest.raises(ServiceError, match="HTTP 400"):
            http_client._call("/v1/partition", {"n_parts": 2})  # no graph
        with pytest.raises(ServiceError, match="HTTP 404"):
            http_client._call("/v1/nope", {})

    def test_unknown_session_is_typed(self, http_client, graph):
        with pytest.raises(UnknownSession, match="HTTP 404"):
            http_client.update_session("missing", graph)
        with pytest.raises(UnknownSession, match="HTTP 404"):
            http_client.close_session("missing")

    def test_unknown_digest_answers_409(self, http_client):
        """A digest the server never received: 409 "Conflict" with
        ``needs_graph``, on the raw wire."""
        import http.client

        conn = http.client.HTTPConnection(
            http_client._host, http_client._port, timeout=30
        )
        try:
            conn.request(
                "POST", "/v1/partition",
                json.dumps({"graph_digest": "0" * 32, "n_parts": 2}),
                {"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            body = json.loads(resp.read())
        finally:
            conn.close()
        assert (resp.status, resp.reason) == (409, "Conflict")
        assert body["needs_graph"] is True

    def test_bad_content_length_is_400(self, http_client):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{http_client.base_url}/v1/partition",
            data=b"{}",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        request.add_unredirected_header("Content-Length", "abc")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=30)
        assert exc.value.code == 400

    def test_trace_replay_smoke(self, http_client, monkeypatch):
        """End-to-end: a workloads-derived mixed trace (one-shot,
        repeated, and incremental-session requests) over real HTTP,
        then a digest-only pass over its partitions."""
        from repro.experiments import replay_trace, service_trace
        from repro.experiments.workloads import workload

        trace = service_trace(n_requests=12, seed=1, n_parts=4, ga=GA)
        ops = {op["op"] for op in trace}
        assert "partition" in ops and "open" in ops  # genuinely mixed
        results = replay_trace(http_client, trace)
        assert len(results) == len(trace)
        for op, result in results:
            if op["op"] in ("partition", "open", "update"):
                assert result is not None and result.n_parts == 4
        stats = http_client.stats()
        assert stats["latency"]["count"] >= 1
        assert stats["cache"]["results"]["hits"] >= 1
        assert stats["sessions"]["updates"] >= 1

        # digest-only pass: the replay shipped every graph, so the
        # client now names each by digest.  The trace's own seeds hit
        # the cache; shifted seeds compute on the server's interned
        # graph and must equal a graph-bearing in-process run.
        bodies = []
        send = http_client._request

        def recording(method, path, body, headers):
            bodies.append(json.loads(body))
            return send(method, path, body, headers)

        monkeypatch.setattr(http_client, "_request", recording)
        with PartitionService(n_workers=1) as ref:
            for op, replayed in results:
                if op["op"] != "partition":
                    continue
                graph, k = workload(op["size"]), op["n_parts"]
                hit = http_client.partition(
                    graph, k, seed=op["seed"], ga=op.get("ga")
                )
                assert hit.cache_hit
                assert np.array_equal(hit.assignment, replayed.assignment)
                kwargs = dict(seed=op["seed"] + 1000, ga=op.get("ga"))
                got = http_client.partition(graph, k, **kwargs)
                want = ref.submit(PartitionRequest(graph, k, **kwargs))
                assert np.array_equal(got.assignment, want.assignment)
                assert (got.cut_size, got.fitness) == (
                    want.cut_size, want.fitness)
        assert bodies
        assert all("graph" not in b and "graph_digest" in b for b in bodies)
