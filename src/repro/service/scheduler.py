"""Request scheduling: in-flight coalescing over pinned workers.

The scheduler owns a :class:`repro.ga.parallel.PinnedExecutors` bank of
single-thread workers (numpy kernels release the GIL, so thread slots
give real parallelism without shipping graphs across process
boundaries; more cores take more shards, see
:mod:`repro.service.sharding`) and two coalescing mechanisms on top:

* **in-flight join** — while a job for cache key ``K`` is executing,
  any concurrently submitted job with the same key *joins* it instead
  of executing again; followers get the leader's result marked
  ``coalesced``.  Combined with the content-addressed result cache this
  means identical work is performed at most once no matter how it
  arrives: before execution (cache hit), during (join), after (cache
  hit).
* **group execution** — :meth:`run_group` executes one function for a
  whole batch of compatible jobs (the service stacks concurrently
  queued refinements of the same (graph, k, fitness) into a single
  lockstep :func:`~repro.ga.batch_climb.climb_batch` call) and fans the
  per-item results back out.

Pinning matters for the same reason it does in
:class:`~repro.ga.parallel.ParallelDPGA`: jobs are pinned by graph
digest and session updates by session id, so whatever worker-local
state exists for that content (a session's evolving partitioner, a hot
evaluator memo) stays on one worker instead of being rebuilt wherever
a shared pool happens to schedule the job.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

from ..errors import ServiceError
from ..ga.parallel import PinnedExecutors
from .models import JobResult

__all__ = ["CoalescingScheduler"]


class _InFlight:
    """One executing job; followers wait on ``done``."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Optional[JobResult] = None
        self.error: Optional[BaseException] = None


class CoalescingScheduler:
    """Dispatches service jobs with dedup, grouping, and slot pinning."""

    def __init__(self, n_workers: int = 2) -> None:
        if n_workers < 1:
            raise ServiceError(f"n_workers must be >= 1, got {n_workers}")
        self.pool = PinnedExecutors(n_workers, kind="thread")
        self._lock = threading.Lock()
        self._inflight: dict[str, _InFlight] = {}
        # counters (reads are informational; writes hold _lock)
        self.jobs_executed = 0
        self.jobs_joined = 0
        self.groups_executed = 0
        self.group_members = 0

    # ------------------------------------------------------------------
    def run(
        self, key: str, pin_key, fn: Callable[[], JobResult]
    ) -> JobResult:
        """Execute ``fn`` on the slot pinned to ``pin_key``, joining any
        in-flight execution of the same ``key``.

        Returns the leader's result unmarked, or a ``coalesced``-marked
        copy for followers.  The leader's exception propagates to every
        joined caller.
        """
        with self._lock:
            flight = self._inflight.get(key)
            if flight is None:
                flight = _InFlight()
                self._inflight[key] = flight
                leader = True
            else:
                leader = False
        if not leader:
            flight.done.wait()
            with self._lock:
                self.jobs_joined += 1
            if flight.error is not None:
                raise flight.error
            assert flight.result is not None
            return flight.result.replace(coalesced=True)
        try:
            future = self.pool.submit(pin_key, fn)
            flight.result = future.result()
            with self._lock:
                self.jobs_executed += 1
            return flight.result
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            flight.done.set()

    def run_group(
        self,
        keys: Sequence[str],
        pin_key,
        fn: Callable[[], list[JobResult]],
    ) -> list[JobResult]:
        """Execute one function producing a result per key.

        Used for batched refinement: the group runs as a single pinned
        job; every member beyond the first is counted (and marked)
        coalesced.  Members whose key is already in flight are *not*
        deduplicated here — the service's result cache layer handles
        exact repeats before grouping.
        """
        if not keys:
            return []
        future = self.pool.submit(pin_key, fn)
        results = future.result()
        if len(results) != len(keys):
            raise ServiceError(
                f"group produced {len(results)} results for {len(keys)} jobs"
            )
        with self._lock:
            self.groups_executed += 1
            self.group_members += len(keys)
            self.jobs_executed += len(keys)
        if len(results) > 1:
            results = [results[0]] + [
                r.replace(coalesced=True) for r in results[1:]
            ]
        return results

    def queue_depth(self) -> int:
        """Jobs currently executing or being joined (the in-flight
        table's size) — the ``repro_inflight_jobs`` gauge."""
        with self._lock:
            return len(self._inflight)

    def stats(self) -> dict:
        with self._lock:
            return {
                "jobs_executed": self.jobs_executed,
                "jobs_joined": self.jobs_joined,
                "groups_executed": self.groups_executed,
                "group_members": self.group_members,
            }

    def shutdown(self) -> None:
        self.pool.shutdown()
