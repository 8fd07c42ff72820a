"""Streaming incremental sessions (the service face of Tables 3/6).

A session is the paper's incremental experiment turned into a
long-lived server object: the client opens a session on a graph, the
service partitions it once, and every subsequent
``insert_local_nodes``-style update is re-partitioned with the
population *seeded from the previous assignment*
(:mod:`repro.incremental`) instead of a cold start — which is exactly
the workload the paper's Tables 3/6 measure, and where incremental
seeding pays: the GA starts concentrated around the previous optimum
and only has to resolve the refined region.

Each session owns an :class:`IncrementalGAPartitioner` (its state: the
current graph, partition, and RNG stream) plus two locks: ``lock``
guards the session's *published state* (the partitioner's graph and
partition, the update counters — everything ``summary()``/``close()``
read) and ``compute_lock`` serializes the session's GA work.  The
service pins every update of a session to one scheduler slot, so the
partitioner's evolving state lives on a single worker for the
session's lifetime.

Updates are *overlapped* (:meth:`SessionManager.update_overlapped`):
the state lock is held only for *ingestion* (validate the new graph)
and *commit* (install the result); the GA runs between the two holding
only the compute lock.  ``close``/``summary``/stats therefore never
block behind a GA run: a close that races an in-flight update wins
immediately, and the update fails its commit with "unknown session"
instead of committing to a closed session.  If a pipelined caller
commits another update meanwhile, the commit detects the stale epoch
and *rebases*: the pending update re-runs, seeding from the newly
committed partition — exactly what serial execution would have done.

The update composes ``begin_update → run_pending → commit_update``
(:mod:`repro.incremental.partitioner`), the same kernels
``IncrementalGAPartitioner.update`` runs in one call, so serially
issued updates produce bit-identical assignments to running that call
under both locks (the tests keep that serial-lock update as their
oracle).
"""

from __future__ import annotations

import itertools
import secrets
import threading
import time
from typing import Optional

from ..errors import ConfigError, ServiceError, UnknownSession
from ..ga.config import GAConfig
from ..graphs.csr import CSRGraph
from ..incremental.partitioner import IncrementalGAPartitioner
from ..partition.partition import Partition

__all__ = ["Session", "SessionManager", "SESSION_GA_DEFAULTS"]

#: compact per-update GA budget — sessions answer interactive traffic,
#: not offline tables; callers override any of it per session
SESSION_GA_DEFAULTS = dict(
    population_size=48,
    max_generations=60,
    hill_climb="all",
    hill_climb_passes=2,
    patience=12,
)


class Session:
    """One open incremental-partitioning session."""

    def __init__(
        self,
        session_id: str,
        partitioner: IncrementalGAPartitioner,
    ) -> None:
        self.id = session_id
        self.partitioner = partitioner
        #: guards published state (see module docstring) — held only for
        #: an update's ingestion and commit
        self.lock = threading.Lock()
        #: serializes the session's GA work (RNG stream, engine state)
        self.compute_lock = threading.Lock()
        self.created_at = time.time()
        self.n_updates = 0
        self.total_ga_seconds = 0.0

    def partition_initial(self) -> Partition:
        """Run the session's first GA (the service calls this on the
        worker slot pinned to the session, not on the request thread)."""
        t0 = time.perf_counter()
        with self.compute_lock, self.lock:
            # repro: allow[LOCK-HELD-BLOCKING] — the first GA runs under the
            # state lock by design: the session publishes nothing before its
            # initial partition exists, so nobody can contend
            partition = self.partitioner.partition_initial()
        self.total_ga_seconds += time.perf_counter() - t0
        return partition

    def summary(self) -> dict:
        part = self.partitioner.partition
        return {
            "session_id": self.id,
            "n_nodes": self.partitioner.graph.n_nodes,
            "n_parts": self.partitioner.n_parts,
            "n_updates": self.n_updates,
            "cut_size": None if part is None else float(part.cut_size),
            "total_ga_seconds": round(self.total_ga_seconds, 6),
        }


class SessionManager:
    """Open/update/close lifecycle for incremental sessions."""

    def __init__(self, max_sessions: int = 1024) -> None:
        if max_sessions < 1:
            raise ServiceError(f"max_sessions must be >= 1, got {max_sessions}")
        self.max_sessions = int(max_sessions)
        self._lock = threading.Lock()
        self._sessions: dict[str, Session] = {}
        self._counter = itertools.count()
        self.opened = 0
        self.closed = 0
        self.restored = 0
        self.released = 0
        self.total_updates = 0

    # ------------------------------------------------------------------
    def open(
        self,
        graph: CSRGraph,
        n_parts: int,
        fitness_kind: str = "fitness1",
        seed: int = 0,
        ga: Optional[dict] = None,
    ) -> Session:
        """Create and register a session (no GA work yet — the caller
        runs :meth:`Session.partition_initial` on the session's pinned
        worker slot).  Invalid parameters raise :class:`ServiceError`."""
        from .models import FITNESS_KINDS

        if isinstance(n_parts, bool) or not isinstance(n_parts, int):
            raise ServiceError(f"n_parts must be an integer, got {n_parts!r}")
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ServiceError(
                f"seed must be a non-negative integer, got {seed!r}"
            )
        if fitness_kind not in FITNESS_KINDS:
            raise ServiceError(
                f"fitness_kind must be one of {FITNESS_KINDS}, got "
                f"{fitness_kind!r}"
            )
        overrides = dict(SESSION_GA_DEFAULTS)
        if ga:
            if not isinstance(ga, dict):
                raise ServiceError("ga overrides must be a {str: value} object")
            overrides.update(ga)
        try:
            config = GAConfig(**overrides)
        except (ConfigError, TypeError) as exc:
            raise ServiceError(f"bad ga overrides: {exc}") from exc
        try:
            partitioner = IncrementalGAPartitioner(
                graph,
                n_parts,
                fitness_kind=fitness_kind,
                config=config,
                seed=seed,
            )
        except (ConfigError, TypeError, ValueError) as exc:
            raise ServiceError(f"bad session parameters: {exc}") from exc
        session_id = f"s{next(self._counter)}-{secrets.token_hex(4)}"
        session = Session(session_id, partitioner)
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise ServiceError(
                    f"session limit reached ({self.max_sessions} open)"
                )
            self._sessions[session_id] = session
            self.opened += 1
        return session

    def restore(self, session: Session) -> None:
        """Re-register a session restored from a failover snapshot under
        its **original id** (see :mod:`repro.service.persistence`), so
        routing state held outside this process — the sharded front's
        session→shard map, a client's stored session id — stays valid
        across a crash/restart."""
        with self._lock:
            if session.id in self._sessions:
                raise ServiceError(
                    f"session {session.id!r} is already open; refusing to "
                    "overwrite live state with a snapshot"
                )
            if len(self._sessions) >= self.max_sessions:
                raise ServiceError(
                    f"session limit reached ({self.max_sessions} open)"
                )
            self._sessions[session.id] = session
            self.restored += 1

    def release(self, session_id: str) -> bool:
        """Unregister a session *without* closing it — the ring handoff
        path: another shard adopted the session from its snapshot, so
        this shard must stop serving it, but the session itself lives
        on (its updates continue on the new owner, not here)."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is not None:
                self.released += 1
        return session is not None

    def ids(self) -> list[str]:
        """Ids of the currently open sessions (a routing front attaching
        to a running shard uses this to rebuild its session→shard map)."""
        with self._lock:
            return sorted(self._sessions)

    def get(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSession(f"unknown session {session_id!r}")
        return session

    def update_overlapped(
        self, session_id: str, new_graph: CSRGraph
    ) -> tuple[Session, Partition]:
        """Re-partition after a graph update, warm-seeded from the
        session's previous assignment, holding the state lock only for
        ingestion and commit (see the module docstring)."""
        from ..incremental.partitioner import StaleUpdateError

        session = self.get(session_id)
        t0 = time.perf_counter()
        with session.compute_lock:  # serializes this session's GA work
            with session.lock:  # short: ingestion
                self._check_registered(session_id, session)
                if session.partitioner.partition is None:
                    # first contact — an initial partition cannot
                    # overlap with anything; run it in one piece
                    # repro: allow[LOCK-HELD-BLOCKING] — nothing is published
                    # before the first partition, so nobody can contend
                    partition = session.partitioner.update(new_graph)
                    session.n_updates += 1
                    return self._finish_update(session, t0, partition)
                pending = session.partitioner.begin_update(new_graph)
            while True:
                session.partitioner.run_pending(pending)  # GA: no state lock
                with session.lock:  # short: commit
                    # a close that raced the GA has already won — the
                    # update must not commit to a closed session
                    self._check_registered(session_id, session)
                    try:
                        partition = session.partitioner.commit_update(pending)
                    except StaleUpdateError:
                        continue  # rebase onto the newly committed state
                    session.n_updates += 1
                    break
        return self._finish_update(session, t0, partition)

    def _finish_update(
        self, session: Session, t0: float, partition: Partition
    ) -> tuple[Session, Partition]:
        with self._lock:
            self.total_updates += 1
        session.total_ga_seconds += time.perf_counter() - t0
        return session, partition

    def _check_registered(self, session_id: str, session: Session) -> None:
        with self._lock:
            if self._sessions.get(session_id) is not session:
                raise UnknownSession(f"unknown session {session_id!r}")

    def close(self, session_id: str) -> dict:
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is not None:
                self.closed += 1
        if session is None:
            raise UnknownSession(f"unknown session {session_id!r}")
        # updates hold the state lock only briefly, so this returns
        # immediately and a racing update fails its commit against the
        # now-unregistered session
        with session.lock:
            return session.summary()

    def stats(self) -> dict:
        with self._lock:
            return {
                "open": len(self._sessions),
                "opened": self.opened,
                "closed": self.closed,
                "restored": self.restored,
                "released": self.released,
                "updates": self.total_updates,
            }

    def epoch_summary(self) -> dict:
        """Update-epoch digest across open sessions (the
        ``repro_session_epoch_max`` gauge): reads only each session's
        ``n_updates`` counter, never its state lock, so it cannot block
        behind an update's ingestion or commit."""
        with self._lock:
            epochs = [s.n_updates for s in self._sessions.values()]
        return {
            "open": len(epochs),
            "max_epoch": max(epochs) if epochs else 0,
            "total_epochs": sum(epochs),
        }
