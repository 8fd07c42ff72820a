"""Tests for the benchmark's own helpers (run them with
``PYTHONPATH=src python -m pytest perfbench/tests``)."""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from checks import check_answer, check_same  # noqa: E402
from stats import percentile, quartile_spread, samples_beyond  # noqa: E402

from repro.experiments.workloads import workload  # noqa: E402
from repro.partition.metrics import cut_size  # noqa: E402


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------

class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile(values, 100) == 100
        assert percentile([7.0], 90) == 7.0

    def test_samples_beyond(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(99, 90) == 9  # the 90th value is rank 90
        assert samples_beyond(110, 90) == 11
        assert samples_beyond(100, 50) == 50
        assert samples_beyond(0, 90) == 0

    def test_beyond_matches_percentile(self):
        values = list(range(1, 128))
        p90 = percentile(values, 90)
        assert sum(v > p90 for v in values) == samples_beyond(len(values), 90)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)

    def test_quartile_spread(self):
        assert quartile_spread([10.0] * 10) == 0.0
        assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
            (8.25 - 2.75) / 5.5
        )


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------

def _file(pid, role, records):
    return {"pid": pid, "role": role, "records": records}


def _rec(sid, parent, layer, tid, t0, t1, extra=None, name="call"):
    return (sid, parent, layer, name, tid, t0, t1, extra)


def _selfs(files):
    return tracing.self_times(
        [tracing.Span(f["pid"], r) for f in files for r in f["records"]]
    )


class TestSelfTime:
    def test_nested_same_thread(self):
        # one thread: http [0,100] > sharding [10,30] > models [12,18]
        files = [_file(1, "front", [
            _rec(1, 0, "service.http", 7, 0, 100),
            _rec(2, 1, "service.sharding", 7, 10, 30),
            _rec(3, 2, "service.models", 7, 12, 18),
        ])]
        selfs = _selfs(files)
        assert selfs[(1, 1)] == 80
        assert selfs[(1, 2)] == 14
        assert selfs[(1, 3)] == 6

    def test_overlapping_children_count_once(self):
        assert tracing.covered([(10, 30), (20, 50)]) == 40
        assert tracing.covered([(0, 5), (10, 15), (12, 13)]) == 10
        assert tracing.covered([]) == 0

    def test_cross_process_chain(self):
        # client -> front HTTP worker -> shard request thread -> GA worker
        files = [
            _file(1, "client", [_rec(1, 0, "service.client", 1, 0, 100)]),
            _file(2, "front", [
                _rec(1, 0, "service.http", 5, 10, 90),
                _rec(2, 1, "service.sharding", 5, 20, 80),
            ]),
            _file(3, "shard", [
                _rec(1, 0, "service.core", 8, 30, 70),
                _rec(2, 1, "service.scheduler", 8, 35, 65),
                _rec(3, 0, "ga.engine", 9, 40, 60),
            ]),
        ]
        selfs = _selfs(files)
        assert selfs[(1, 1)] == 20  # client: 100 minus http's 80
        assert selfs[(2, 1)] == 20
        assert selfs[(2, 2)] == 20
        assert selfs[(3, 1)] == 10
        assert selfs[(3, 2)] == 10  # scheduler waits 30, GA covers 20
        assert selfs[(3, 3)] == 20
        # the whole tree adds up to the client span
        assert sum(selfs.values()) == 100

    def test_concurrent_requests_one_child_each(self):
        # two overlapping hops; both shard calls start after the second
        # hop began, so "latest container" alone would give the second
        # hop both children and the first none
        files = [
            _file(2, "front", [
                _rec(1, 0, "service.sharding", 5, 0, 100),
                _rec(2, 0, "service.sharding", 6, 10, 110),
            ]),
            _file(3, "shard", [
                _rec(1, 0, "service.core", 8, 20, 60),
                _rec(2, 0, "service.core", 9, 30, 90),
            ]),
        ]
        selfs = _selfs(files)
        hops = selfs[(2, 1)] + selfs[(2, 2)]
        assert hops == (100 + 100) - (40 + 60)
        assert selfs[(2, 1)] >= 0 and selfs[(2, 2)] >= 0

    def test_layer_metrics_per_request(self):
        files = [
            _file(1, "client", [
                _rec(1, 0, "service.client", 1, 0, 100),
                _rec(2, 0, "service.client", 1, 200, 300),
            ]),
            _file(3, "shard", [
                _rec(1, 0, "service.core", 8, 5, 55),
                _rec(2, 1, "service.cache", 8, 10, 20, {"hit": True}),
                _rec(3, 0, "service.core", 8, 205, 255),
                _rec(4, 3, "service.cache", 8, 210, 220, {"hit": False}),
            ]),
            _file(4, "shard", []),
        ]
        out = tracing.layer_metrics(files, (0, 1000), n_requests=2)
        assert out["service.client.calls"] == (2, "count")
        assert out["service.cache.hit_ratio"] == (0.5, "ratio")
        assert out["service.core.self_ms"] == ((40 + 40) / 1e6 / 2, "ms")
        # the idle second shard makes the busy one twice the mean
        assert out["service.sharding.busy_imbalance"] == (2.0, "ratio")
        outside = tracing.layer_metrics(files, (150, 1000), n_requests=1)
        assert outside["service.client.calls"] == (1, "count")

    def test_recorded_spans_nest(self):
        log = tracing.SpanLog("test")
        inner = log.wrap("service.cache", lambda x: x + 1)
        outer = log.wrap("service.core", lambda x: inner(x) * 2)
        assert outer(1) == 4
        (child, parent) = log.records
        assert child[2] == "service.cache" and parent[2] == "service.core"
        assert child[1] == parent[0]  # same-thread parent id
        assert parent[5] <= child[5] <= child[6] <= parent[6]


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------

class _StubClient:
    """Answers like the service, instantly (or after ``delay``)."""

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.sessions: dict = {}
        self.lock = threading.Lock()

    def _answer(self, graph, k, **extra):
        time.sleep(self.delay)
        assignment = np.arange(graph.n_nodes) % k
        return SimpleNamespace(
            assignment=assignment, n_parts=k,
            cut_size=cut_size(graph, assignment), **extra,
        )

    def partition(self, graph, k, seed=0, ga=None):
        return self._answer(graph, k)

    def open_session(self, graph, k, seed=0, ga=None):
        with self.lock:
            sid = f"s{len(self.sessions)}"
            self.sessions[sid] = k
        return self._answer(graph, k, session_id=sid)

    def update_session(self, sid, graph):
        return self._answer(graph, self.sessions[sid])

    def close_session(self, sid):
        return {"session_id": sid}


def _n_ops(jobs):
    return sum(len(job.ops) for job in jobs)


class TestOpenLoop:
    def test_schedule_is_seeded_poisson(self):
        jobs = wl.mixed_schedule(3, 40.0, rate=6.0)
        assert _n_ops(jobs) == 240
        dues = [job.due for job in jobs]
        assert dues == sorted(dues)
        assert 0.0 <= dues[0] and dues[-1] < 40.0
        again = wl.mixed_schedule(3, 40.0, rate=6.0)
        assert [j.due for j in again] == dues
        assert [j.ops for j in again] == [j.ops for j in jobs]
        other = wl.mixed_schedule(4, 40.0, rate=6.0)
        assert [j.due for j in other] != dues
        assert [j.ops for j in other] == [j.ops for j in jobs]  # same trace
        # exponential gaps: mean seconds / jobs, coefficient of variation ~1
        gaps = np.diff(dues)
        assert gaps.mean() == pytest.approx(40.0 / len(jobs), rel=0.3)
        assert 0.6 < gaps.std() / gaps.mean() < 1.4

    def test_a_session_is_one_job_in_order(self):
        jobs = wl.mixed_schedule(1, 30.0, rate=6.0)
        kinds = [[op["op"] for op in job.ops] for job in jobs]
        assert ["open", "update", "close"] in kinds
        assert ["partition"] in kinds
        for job, k in zip(jobs, kinds):
            assert k == ["partition"] or k == ["open", "update", "close"][
                : len(k)
            ]
            assert len({op.get("session") for op in job.ops}) == 1

    def test_latency_runs_from_due_time(self):
        jobs = wl.mixed_schedule(2, 1.0, rate=30.0)
        for job in jobs:
            job.due = 0.0  # everything due at once: later jobs queue
        log, stats = wl.run_mixed(_StubClient(delay=0.01), jobs)
        assert len(log.samples) == _n_ops(jobs)
        assert not [s.error for s in log.samples if s.error]
        assert all(s.due <= s.sent <= s.done for s in log.samples)
        # 30 ops over 2 connections at >= 10 ms each: the last one waited
        assert max(s.latency_s for s in log.samples) >= 0.1
        assert len(stats.lateness_s) == len(jobs)
        assert max(stats.lateness_s) < 0.5

    def test_closed_loop_jobs(self):
        jobs = wl.mixed_closed(1, n_ops=60)
        assert all(job.due is None for job in jobs)
        other = wl.mixed_closed(2, n_ops=60)
        # the same sequence of work, with other GA seeds
        kinds = [[op["op"] for op in job.ops] for job in jobs]
        assert kinds == [[op["op"] for op in job.ops] for job in other]
        seeds = [op["seed"] for job in jobs for op in job.ops if "seed" in op]
        assert seeds == [
            op["seed"] - 3 for job in other for op in job.ops if "seed" in op
        ]
        log, stats = wl.run_mixed(_StubClient(delay=0.005), jobs)
        assert len(log.samples) == _n_ops(jobs)
        assert not stats.lateness_s and not stats.backlog
        # due when a connection takes the job: no queueing counted
        firsts = [s for s in log.samples if s.kind in ("partition", "open")]
        assert max(s.sent - s.due for s in firsts) < 0.05

    def test_closed_loop_runs_whole_passes(self):
        first, second = (wl.mixed_closed(1, pass_no=p) for p in (0, 1))
        assert [j.ops[0]["op"] for j in first] == [
            j.ops[0]["op"] for j in second
        ]
        seeds = {op["seed"] for job in first for op in job.ops if "seed" in op}
        assert not seeds & {
            op["seed"] for job in second for op in job.ops if "seed" in op
        }
        assert all(
            op["ga"] == wl.MIXED_GA for job in first for op in job.ops
            if "ga" in op
        )
        per_pass = _n_ops(first)
        log = wl.run_mixed_closed(_StubClient(), 1, 0.0, min_samples=per_pass)
        # the mandatory passes (closes are not latency samples), no more
        assert len(log.samples) == 2 * per_pass
        assert not [s.error for s in log.samples if s.error]
        counted = [s for s in log.samples if s.counted]
        assert len(counted) == 2 * sum(
            op["op"] != "close" for job in first for op in job.ops
        )

    def test_session_ops_are_due_when_the_previous_answers(self):
        jobs = [j for j in wl.mixed_schedule(1, 30.0) if len(j.ops) == 3][:1]
        jobs[0].due = 0.0
        log, _ = wl.run_mixed(_StubClient(delay=0.02), jobs)
        opened, updated, closed = log.samples
        assert updated.due == opened.done and closed.due == updated.done
        assert updated.latency_s < 0.1  # its own time, not the open's

    def test_lateness_of_an_idle_generator_is_small(self):
        jobs = wl.mixed_schedule(5, 1.0, rate=20.0)
        log, stats = wl.run_mixed(_StubClient(), jobs)
        assert len(log.samples) == _n_ops(jobs)
        assert percentile([x * 1e3 for x in stats.lateness_s], 50) < 20.0

    def test_backlog_growth(self):
        flat = wl.OpenLoopStats(backlog=[(t, 1) for t in range(40)])
        assert flat.backlog_growth() == 0.0
        growing = wl.OpenLoopStats(backlog=[(t, t // 4) for t in range(40)])
        assert growing.backlog_growth() > 2.0


# ----------------------------------------------------------------------
# answer checks
# ----------------------------------------------------------------------

class TestAnswerChecks:
    def setup_method(self):
        self.graph = workload(78)
        self.k = 4
        self.good = _StubClient().partition(self.graph, self.k)

    def test_accepts_a_valid_answer(self):
        assert check_answer(self.graph, self.k, self.good) is None
        assert check_same(self.good, self.good) is None

    def test_rejects_wrong_length(self):
        bad = SimpleNamespace(**vars(self.good))
        bad.assignment = self.good.assignment[:-1]
        assert "shape" in check_answer(self.graph, self.k, bad)

    def test_rejects_labels_out_of_range(self):
        bad = SimpleNamespace(**vars(self.good))
        bad.assignment = self.good.assignment.copy()
        bad.assignment[3] = self.k
        assert "labels" in check_answer(self.graph, self.k, bad)
        bad.assignment[3] = -1
        assert "labels" in check_answer(self.graph, self.k, bad)

    def test_rejects_a_corrupted_assignment(self):
        # a valid-looking assignment whose reported cut no longer matches
        bad = SimpleNamespace(**vars(self.good))
        bad.assignment = self.good.assignment.copy()
        bad.assignment[:10] = (bad.assignment[:10] + 1) % self.k
        assert "cut" in check_answer(self.graph, self.k, bad)
        assert "assignment differs" in check_same(self.good, bad)

    def test_rejects_a_different_cut(self):
        bad = SimpleNamespace(**vars(self.good))
        bad.cut_size = self.good.cut_size + 1
        assert "cut" in check_same(self.good, bad)
