"""The benchmark's workloads: request generation and load generators.

The service sees only the generated requests.  The workload seed draws
what differs between runs -- the GA seeds of ``cold_partition``, the
order ``hot_hits`` visits its working set in, the job order of ``mixed``,
the arrival times of ``mixed_open`` -- and the same seed gives the same
inputs.

* ``cold_partition`` -- closed loop, 2 clients, every request a distinct
  dknux ``/v1/partition`` over the canonical meshes, k in {2, 4, 8};
* ``hot_hits`` -- closed loop, 2 clients, over a working set of the 14
  canonical meshes whose answers are computed during set-up;
* ``mixed`` -- closed loop, 1 client, whole passes over the first
  ``MIXED_OPS`` ``service_trace`` ops (one-shots, repeats, incremental
  sessions) at a fixed GA budget;
* ``mixed_open`` -- the same ops in an open loop with seeded Poisson
  arrivals (a diagnostic run, see README.md).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.experiments.workloads import (
    BASE_SIZES,
    DERIVED_SIZES,
    INCREMENTAL_PAIRS,
    TRACE_GA_DEFAULTS,
    incremental_case,
    service_trace,
    workload,
)

from checks import check_answer, check_same

#: every canonical mesh size of Tables 1-6 (78 ... 309 nodes)
MESH_SIZES = tuple(sorted(BASE_SIZES + tuple(DERIVED_SIZES)))
PART_COUNTS = (2, 4, 8)
#: fixes the order of the cold deck (the workload seed does not)
DECK_ORDER_SEED = 1994

#: the service's default GA with a fixed generation budget: patience off,
#: so every cold request runs exactly this many generations
COLD_GA = {"patience": None, "max_generations": 6}

#: cheap GA for warm-up requests; its keys match no timed request
WARM_GA = {"population_size": 16, "max_generations": 5}
WARM_SIZES = (78, 88, 98, 118)

#: the ``service_trace`` seed both mixed workloads replay
MIXED_TRACE_SEED = 0
#: the trace's GA budget with patience off, so every GA leg of a mixed
#: workload runs exactly this many generations whatever its GA seed
MIXED_GA = dict(TRACE_GA_DEFAULTS, patience=None, max_generations=10)
#: ops of the trace in one pass of ``mixed`` (about 8 s on a 2-core host)
MIXED_OPS = 80
#: GA-seed distance between the passes of one ``mixed`` run, so that no
#: pass finds another's answers in the cache
MIXED_PASS_SEED_STRIDE = 1 << 20
#: offered rate of ``mixed_open``, in ops/s: about half of the 8-11 ops/s
#: two connections complete with every job of the trace due at once
MIXED_RATE_RPS = 4.0

#: connections the load generator opens
CLIENTS = 2
#: a timed closed loop runs until its time is up *and* it has this many
#: samples, so p90 always has at least 10 beyond it
MIN_SAMPLES = 100


@dataclass
class Sample:
    """One timed request."""

    kind: str
    due: float  # when the request was due (closed loop: when sent)
    sent: float
    done: float
    error: Optional[str] = None
    cut: float = 0.0
    counted: bool = False  # part of cut_sum

    @property
    def latency_s(self) -> float:
        return self.done - self.due


@dataclass
class RunLog:
    samples: list = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: the workload's answer-quality sum when it is not the counted
    #: samples' (``hot_hits``: the working set's fixed answers)
    fixed_cut_sum: Optional[float] = None

    def add(self, sample: Sample) -> None:
        with self.lock:
            self.samples.append(sample)

    def cut_sum(self) -> float:
        if self.fixed_cut_sum is not None:
            return self.fixed_cut_sum
        return sum(s.cut for s in self.samples if s.counted)


def build_graphs() -> None:
    """Generate every graph a run sends (the canonical meshes and the
    incremental cases are cached), so no request waits on its input."""
    for size in MESH_SIZES:
        workload(size)
    for base, added in INCREMENTAL_PAIRS:
        incremental_case(base, added)


def warm_up(client) -> None:
    """Touch every shard's request path once before timing."""
    for size in WARM_SIZES:
        client.partition(workload(size), 2, seed=0, ga=WARM_GA)


def _timed(log: RunLog, kind: str, due: float, call: Callable, check) -> Sample:
    """Run one request, then check its answer outside the timed span; a
    raised error or a failed check marks it failed."""
    sent = time.perf_counter()
    result, error = None, None
    # a failing request must count in the error ratio, never end the run
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - the benchmark's boundary
        error = f"{type(exc).__name__}: {exc}"
    done = time.perf_counter()
    if error is None:
        try:
            error = check(result)
        except Exception as exc:  # noqa: BLE001 - a malformed answer
            error = f"answer check raised {type(exc).__name__}: {exc}"
    sample = Sample(kind, due, sent, done, error)
    if error is None and hasattr(result, "cut_size"):
        sample.cut = float(result.cut_size)
    log.add(sample)
    return sample


def _closed_loop(next_request: Callable, keep_going: Callable) -> RunLog:
    """``CLIENTS`` threads send back-to-back while ``keep_going(i)`` says
    request ``i`` is still wanted (the first no ends the loop)."""
    log = RunLog()
    lock = threading.Lock()
    state = {"next": 0, "stopped": False}

    def client_loop():
        while True:
            with lock:
                i = state["next"]
                state["stopped"] = state["stopped"] or not keep_going(i)
                if state["stopped"]:
                    return
                state["next"] = i + 1
            next_request(i, log)

    threads = [
        threading.Thread(target=client_loop, name=f"client-{c}")
        for c in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return log


# ----------------------------------------------------------------------
# cold_partition
# ----------------------------------------------------------------------

def cold_deck() -> list[tuple[int, int]]:
    """Every (mesh size, k) pair once, in one fixed shuffled order: every
    seed times the same sequence of work and only the GA seeds differ."""
    pairs = [(s, k) for s in MESH_SIZES for k in PART_COUNTS]
    order = np.random.default_rng(DECK_ORDER_SEED).permutation(len(pairs))
    return [pairs[i] for i in order]


def run_cold(
    client, seed: int, seconds: float, min_samples: int = MIN_SAMPLES
) -> RunLog:
    """Closed loop of distinct cold requests, in whole passes through
    the deck so every run times the same mix.  Request ``i`` partitions
    deck pair ``i mod 42`` with GA seed ``1000 * seed + i``, so no two
    requests share a cache key.  A new pass starts while it is expected
    to end within ``seconds``, or until ``min_samples`` are reached;
    ``cut_sum`` covers the passes that ``min_samples`` asks for, which
    every run completes."""
    deck = cold_deck()
    min_passes = max(1, -(-min_samples // len(deck)))
    start = time.perf_counter()

    def keep_going(i: int) -> bool:
        passes, into = divmod(i, len(deck))
        if into or passes < min_passes:
            return True
        now = time.perf_counter()
        return now + (now - start) / passes <= start + seconds

    def request(i: int, log: RunLog) -> None:
        size, k = deck[i % len(deck)]
        graph = workload(size)
        sample = _timed(
            log, "partition", time.perf_counter(),
            lambda: client.partition(
                graph, k, seed=1000 * seed + i, ga=COLD_GA
            ),
            lambda r: check_answer(graph, k, r),
        )
        sample.counted = i < min_passes * len(deck)

    return _closed_loop(request, keep_going)


# ----------------------------------------------------------------------
# hot_hits
# ----------------------------------------------------------------------

def hot_working_set() -> list[tuple[int, int, int]]:
    """``(size, k, ga seed)`` for each of the 14 canonical meshes, k
    cycling through 2, 4, 8: a fixed working set (the workload seed
    draws only the order requests visit it in)."""
    return [
        (size, PART_COUNTS[j % len(PART_COUNTS)], j)
        for j, size in enumerate(MESH_SIZES)
    ]


def warm_hot(client) -> dict:
    """Compute (and so cache) the working set's answers over ``CLIENTS``
    connections; returns them."""
    work = hot_working_set()
    answers: dict = {}

    def compute(part):
        for size, k, ga_seed in part:
            answers[(size, k, ga_seed)] = client.partition(
                workload(size), k, seed=ga_seed, ga=TRACE_GA_DEFAULTS
            )

    threads = [
        threading.Thread(target=compute, args=(work[c::CLIENTS],))
        for c in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if len(answers) != len(work):
        raise RuntimeError("hot working set: some answers were not computed")
    return {key: answers[key] for key in work}


def run_hot(
    client, seed: int, seconds: float, answers: dict,
    min_samples: int = MIN_SAMPLES,
) -> RunLog:
    """Closed loop of cache hits: each request is a seeded pick from the
    working set and must equal the answer set-up recorded."""
    keys = list(answers)
    picks = np.random.default_rng([seed, 3]).integers(len(keys), size=1 << 16)

    def request(i: int, log: RunLog) -> None:
        size, k, ga_seed = key = keys[int(picks[i % len(picks)])]
        graph = workload(size)
        _timed(
            log, "partition", time.perf_counter(),
            lambda: client.partition(
                graph, k, seed=ga_seed, ga=TRACE_GA_DEFAULTS
            ),
            lambda r: check_answer(graph, k, r) or check_same(answers[key], r),
        )

    deadline = time.perf_counter() + seconds
    log = _closed_loop(
        request,
        lambda i: i < min_samples or time.perf_counter() < deadline,
    )
    log.fixed_cut_sum = sum(float(a.cut_size) for a in answers.values())
    return log


# ----------------------------------------------------------------------
# mixed (closed loop) and mixed_open (open loop)
# ----------------------------------------------------------------------

@dataclass
class Job:
    """One arrival: a one-shot request, or a whole incremental session
    (open, update, close) whose ops one user sends one after another."""

    due: Optional[float]  # offset from the start, s; None: when taken
    ops: list


def trace_jobs(n_ops: int) -> list[list[dict]]:
    """The first ``n_ops`` ops of the fixed ``service_trace``, grouped
    into jobs (a one-shot, or a session's ops in trace order), each GA
    leg at ``MIXED_GA``."""
    jobs: list = []
    for op in service_trace(
        n_requests=n_ops, seed=MIXED_TRACE_SEED, ga=MIXED_GA
    ):
        if op["op"] in ("update", "close"):
            jobs[-1].append(op)  # service_trace emits a session's ops together
        else:
            jobs.append([op])
    return jobs


def mixed_closed(
    seed: int, n_ops: int = MIXED_OPS, pass_no: int = 0
) -> list[Job]:
    """The trace's jobs in trace order, for a closed loop.  Every GA seed
    of the trace moves by ``3 * (seed + MIXED_PASS_SEED_STRIDE *
    pass_no)``: the same sequence of work (and of cache hits) in every
    run and pass, other answers per seed and pass."""
    shift = 3 * (seed + MIXED_PASS_SEED_STRIDE * pass_no)
    jobs = []
    for ops in trace_jobs(n_ops):
        ops = [
            dict(op, seed=op["seed"] + shift) if "seed" in op else op
            for op in ops
        ]
        jobs.append(Job(None, ops))
    return jobs


def run_mixed_closed(
    client, seed: int, seconds: float, min_samples: int = MIN_SAMPLES
) -> RunLog:
    """``mixed``: whole passes of ``mixed_closed`` on one connection, so
    every run times the same mix.  As in ``run_cold``, passes run until
    the latency samples (every op but a close) reach ``min_samples`` and
    then while the next pass is expected to end within ``seconds``;
    ``cut_sum`` covers the passes that ``min_samples`` asks for."""
    per_pass = sum(
        op["op"] != "close" for ops in trace_jobs(MIXED_OPS) for op in ops
    )
    min_passes = max(1, -(-min_samples // per_pass))
    log = RunLog()
    start = time.perf_counter()
    passes = 0
    while True:
        pass_log, _ = run_mixed(
            client, mixed_closed(seed, pass_no=passes), connections=1
        )
        for sample in pass_log.samples:
            sample.counted = sample.counted and passes < min_passes
        log.samples += pass_log.samples
        passes += 1
        now = time.perf_counter()
        if passes >= min_passes and now + (now - start) / passes > (
            start + seconds
        ):
            return log


def mixed_schedule(seed: int, seconds: float, rate: float = MIXED_RATE_RPS):
    """The first ``rate * seconds`` ops of the trace as jobs arriving in
    a seeded Poisson process: conditioned on the number of jobs in
    ``[0, seconds)``, its arrival times are sorted uniform draws."""
    jobs = trace_jobs(max(1, round(rate * seconds)))
    times = np.sort(
        np.random.default_rng([seed, 4]).uniform(0.0, seconds, len(jobs))
    )
    return [Job(float(t), ops) for t, ops in zip(times, jobs)]


@dataclass
class OpenLoopStats:
    lateness_s: list = field(default_factory=list)
    backlog: list = field(default_factory=list)  # (offset s, queued jobs)

    def backlog_growth(self) -> float:
        """Mean backlog over the schedule's last quarter minus its first."""
        if len(self.backlog) < 8:
            return 0.0
        q = len(self.backlog) // 4
        first = [b for _, b in self.backlog[:q]]
        last = [b for _, b in self.backlog[-q:]]
        return sum(last) / len(last) - sum(first) / len(first)


def run_mixed(
    client, jobs: list, connections: int = CLIENTS, drain_s: float = 60.0
):
    """Release each job at its due time (a job without one at once);
    ``connections`` connections take released jobs in order, and a session's
    ops stay in order on the connection that took it.  A scheduled job's
    first op is due at its arrival, so waiting for a free connection
    counts in its latency; an unscheduled job's is due when a connection
    takes it (a closed loop).  Each later op of a session is due when the
    previous one is answered.  Returns ``(log, open-loop stats)``."""
    log = RunLog()
    stats = OpenLoopStats()
    released: queue.Queue = queue.Queue()
    answers: dict = {}

    def execute(op: dict, due: float, sessions: dict) -> Sample:
        kind = op["op"]
        if kind == "partition":
            graph = workload(op["size"])
            key = (op["size"], op["n_parts"], op["seed"])

            def check(r):
                error = check_answer(graph, op["n_parts"], r)
                first = answers.setdefault(key, r)
                return error or (None if first is r else check_same(first, r))

            return _timed(
                log, kind, due,
                lambda: client.partition(
                    graph, op["n_parts"], seed=op["seed"], ga=op.get("ga")
                ),
                check,
            )
        if kind == "open":
            graph, _ = incremental_case(op["base"], op["added"])

            def call():
                r = client.open_session(
                    graph, op["n_parts"], seed=op["seed"], ga=op.get("ga")
                )
                sessions[op["session"]] = (r.session_id, op["n_parts"])
                return r

            return _timed(
                log, kind, due, call,
                lambda r: check_answer(graph, op["n_parts"], r),
            )
        sid, k = sessions.get(op["session"], (None, 0))
        if kind == "update":
            _, update = incremental_case(op["base"], op["added"])
            return _timed(
                log, kind, due,
                lambda: client.update_session(sid, update.graph),
                lambda r: check_answer(update.graph, k, r),
            )
        return _timed(  # close
            log, kind, due,
            lambda: client.close_session(sid),
            lambda r: None if isinstance(r, dict)
            else f"close answered {type(r).__name__}",
        )

    def connection() -> None:
        while True:
            item = released.get()
            if item is None:
                return
            job, due = item
            if due is None:
                due = time.perf_counter()
            sessions: dict = {}
            for op in job.ops:
                sample = execute(op, due, sessions)
                sample.counted = op["op"] != "close"
                due = sample.done

    workers = [
        threading.Thread(target=connection, name=f"conn-{c}")
        for c in range(connections)
    ]
    for t in workers:
        t.start()
    start = time.perf_counter()
    for job in jobs:
        if job.due is None:
            released.put((job, None))
            continue
        due = start + job.due
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        stats.lateness_s.append(time.perf_counter() - due)
        stats.backlog.append((job.due, released.qsize()))
        released.put((job, due))
    for _ in workers:
        released.put(None)
    for t in workers:
        t.join(timeout=drain_s)
    if any(t.is_alive() for t in workers):
        raise RuntimeError(f"open-loop drain exceeded {drain_s:.0f} s")
    return log, stats
