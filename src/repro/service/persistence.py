"""Session persistence: snapshot/restore of incremental sessions.

A shard crash used to lose every open session on that shard — the
partitioner's graph, partition, and RNG stream lived only in the dead
process, so the next ``update_session`` answered "unknown session".
This module closes that hole: each session's resumable state
(:meth:`repro.incremental.partitioner.IncrementalGAPartitioner.
snapshot_state` — graph, committed partition, RNG bit-generator state,
GA config, commit counters) is pickled to a per-shard
:class:`SnapshotStore` directory, and a restarting shard (or a
restarted single-process service) restores every snapshot it finds
before taking traffic.

Write discipline is what makes restore *bit-identical* rather than
merely plausible:

* **On-commit snapshots** run on the session's pinned worker slot,
  immediately after ``open_session`` / ``update_session`` commit and
  before the slot accepts the session's next update — so a snapshot
  always captures a quiescent, committed epoch, never a mid-GA RNG
  state.  A failed write is counted and leaves the previous snapshot
  in place; the session's next commit writes it again.
* **Handoff drains** (:meth:`SessionPersistence.snapshot_sessions`)
  re-snapshot specific sessions before another shard adopts them,
  waiting out each one's in-flight update.

Files are written atomically (temp file + ``os.replace``), so a crash
mid-write leaves the previous committed snapshot intact; a snapshot
that fails to unpickle on restore is skipped and counted, never fatal.
Restoring re-registers the session under its **original id**, so the
sharded front's session→shard routing keeps working unchanged across a
shard restart.

Two elastic-fleet additions (PR 10) live here because this is the one
service module whose on-disk formats are allowed to be private:

* **Ownership handoff** (:meth:`SessionPersistence.adopt_from`): when
  the consistent-hash ring moves a session to a different shard, the
  new owner restores the session directly from the *old* owner's
  snapshot directory (local fleets share a filesystem) and commits it
  to its own store — the session resumes bit-identically at the last
  committed epoch, exactly like a crash restore, because it *is* the
  crash-restore path pointed at a foreign store.
* **Result write-behind** (:class:`ResultWriteBehind`): an append-only
  JSONL journal of ``(request key → result payload)`` next to the
  snapshots.  A restarted or newly admitted shard replays the journal
  into its content cache before taking traffic, so the hottest keys
  answer as cache hits instead of being recomputed.  The journal is
  JSON — :meth:`repro.service.models.JobResult.to_payload` round-trips
  losslessly — so the wire-pickle ban never applies to it and a corrupt
  line is skipped, never fatal.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, Sequence

from ..errors import ServiceError
from ..incremental.partitioner import IncrementalGAPartitioner
from ..obs.logs import get_logger
from .sessions import Session, SessionManager

_LOG = get_logger("service.persistence")

__all__ = [
    "SNAPSHOT_SUFFIX",
    "RESULTS_JOURNAL",
    "SnapshotStore",
    "SessionPersistence",
    "ResultWriteBehind",
    "capture_session_state",
    "snapshot_session",
    "restore_session",
    "iter_result_entries",
]

#: snapshot file suffix inside a store directory
SNAPSHOT_SUFFIX = ".session.pkl"

#: filename of the result write-behind journal inside a store directory
RESULTS_JOURNAL = "results.jsonl"


def capture_session_state(session: Session) -> dict:
    """One session's resumable state as a dict (caller holds the
    session's locks or otherwise guarantees quiescence).

    Capture is cheap — references to the immutable graph/partition
    arrays plus a copy of the RNG state — so it can run under the
    session's state lock; the expensive :func:`pickle.dumps` can then
    happen outside it (the partitioner never mutates these objects in
    place: commits install *new* partition/graph objects)."""
    state = session.partitioner.snapshot_state()
    state["session_id"] = session.id
    state["session_n_updates"] = session.n_updates
    state["session_created_at"] = session.created_at
    state["session_total_ga_seconds"] = session.total_ga_seconds
    return state


def snapshot_session(session: Session) -> bytes:
    """Serialize one session's resumable state (see
    :func:`capture_session_state` for the locking contract)."""
    return pickle.dumps(
        capture_session_state(session), protocol=pickle.HIGHEST_PROTOCOL
    )


def restore_session(data: bytes) -> Session:
    """Rebuild a :class:`Session` from :func:`snapshot_session` bytes."""
    state = pickle.loads(data)
    if not isinstance(state, dict) or "session_id" not in state:
        raise ServiceError("snapshot is not a session state dict")
    session = Session(
        str(state["session_id"]), IncrementalGAPartitioner.from_state(state)
    )
    session.n_updates = int(state.get("session_n_updates", 0))
    session.created_at = float(
        state.get("session_created_at", session.created_at)
    )
    session.total_ga_seconds = float(
        state.get("session_total_ga_seconds", 0.0)
    )
    return session


class SnapshotStore:
    """A directory of per-session snapshot files with atomic writes."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, session_id: str) -> Path:
        name = str(session_id)
        if not name or "/" in name or "\\" in name or name.startswith("."):
            raise ServiceError(f"unsafe session id for snapshot: {name!r}")
        return self.root / f"{name}{SNAPSHOT_SUFFIX}"

    def save(self, session_id: str, data: bytes) -> None:
        path = self._path(session_id)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def load(self, session_id: str) -> bytes:
        return self._path(session_id).read_bytes()

    def delete(self, session_id: str) -> None:
        try:
            self._path(session_id).unlink()
        except FileNotFoundError:
            pass

    def list_ids(self) -> list[str]:
        return sorted(
            p.name[: -len(SNAPSHOT_SUFFIX)]
            for p in self.root.glob(f"*{SNAPSHOT_SUFFIX}")
        )

    def __repr__(self) -> str:
        return f"SnapshotStore(root={str(self.root)!r})"


class SessionPersistence:
    """Snapshot pump for one service's :class:`SessionManager`."""

    def __init__(self, store: SnapshotStore, sessions: SessionManager) -> None:
        self.store = store
        self.sessions = sessions
        self._lock = threading.Lock()
        self.snapshots_written = 0
        self.write_failures = 0
        self.restored = 0
        self.restore_failures = 0

    # ------------------------------------------------------------------
    def restore_all(self) -> int:
        """Restore every readable snapshot in the store (service start).

        Corrupt or stale snapshots are skipped and counted — a bad file
        must never keep a restarting shard from serving the rest.
        """
        restored = 0
        for session_id in self.store.list_ids():
            try:
                session = restore_session(self.store.load(session_id))
                self.sessions.restore(session)
            # repro: allow[BROAD-EXCEPT] — a corrupt/stale snapshot must not
            # keep a restarting shard from serving; counted in restore_failures
            except Exception as exc:
                with self._lock:
                    self.restore_failures += 1
                _LOG.warning(
                    "snapshot restore failed",
                    extra={
                        "event": "snapshot_restore_failed",
                        "session_id": session_id,
                        "reason": str(exc),
                    },
                )
                continue
            with self._lock:
                self.restored += 1
            restored += 1
        if restored:
            _LOG.info(
                "sessions restored from snapshots",
                extra={
                    "event": "snapshots_restored",
                    "restored": restored,
                    "dir": str(self.store.root),
                },
            )
        return restored

    def commit(self, session: Session) -> None:
        """On-commit snapshot — runs on the session's pinned worker slot
        right after open/update commit, before the next update of this
        session can start, so the captured RNG state is exactly the
        committed epoch's.

        Never raises: the update has *already committed* in-memory when
        this runs, so a snapshot failure (full disk, unwritable store)
        must degrade durability — counted in ``write_failures`` — not
        fail a request whose answer exists (a caller retrying that
        "failed" update would re-run it on the advanced RNG stream and
        break bit-identity)."""
        try:
            # state lock held only for the cheap reference capture —
            # the pickle and file write must not reintroduce the
            # close/stats blocking the overlapped path exists to avoid
            with session.lock:
                state = capture_session_state(session)
            data = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            self._write(session.id, data)
        # repro: allow[BROAD-EXCEPT] — commit never raises: the update already
        # committed in-memory, so failure degrades durability (write_failures),
        # never the answer (see docstring for the bit-identity argument)
        except Exception as exc:
            with self._lock:
                self.write_failures += 1
            _LOG.warning(
                "snapshot write failed",
                extra={
                    "event": "snapshot_write_failed",
                    "session_id": session.id,
                    "reason": str(exc),
                },
            )
            return
        # a close() racing this commit may have forgotten the session
        # *before* the write landed; re-check after writing so a closed
        # session can never be resurrected from a stale snapshot (any
        # close starting after this point deletes the file itself)
        try:
            self.sessions.get(session.id)
        except ServiceError:
            self.forget(session.id)

    def forget(self, session_id: str) -> None:
        """Drop a closed session's snapshot."""
        self.store.delete(session_id)

    def adopt_from(self, src_root, session_ids: Sequence[str]) -> list[str]:
        """Restore specific sessions from a *foreign* snapshot store
        (ring ownership handoff — see the module docstring) and commit
        them to this shard's own store.

        The source directory belongs to the previous owner, which has
        already flushed its snapshots (or died — same files either way).
        Unreadable snapshots are skipped and counted, like
        :meth:`restore_all`; the returned ids are the sessions this
        shard now serves."""
        src = SnapshotStore(src_root)
        adopted: list[str] = []
        for session_id in session_ids:
            try:
                session = restore_session(src.load(session_id))
                self.sessions.restore(session)
            # repro: allow[BROAD-EXCEPT] — a corrupt/missing snapshot must
            # not abort the rest of the handoff; counted in restore_failures
            except Exception as exc:
                with self._lock:
                    self.restore_failures += 1
                _LOG.warning(
                    "session adoption failed",
                    extra={
                        "event": "session_adopt_failed",
                        "session_id": session_id,
                        "src": str(src.root),
                        "reason": str(exc),
                    },
                )
                continue
            with self._lock:
                self.restored += 1
            # durable on the new owner before the old owner forgets it:
            # a crash between handoff and first update must restore here
            self.commit(session)
            adopted.append(session_id)
        if adopted:
            _LOG.info(
                "sessions adopted from handoff",
                extra={
                    "event": "sessions_adopted",
                    "adopted": len(adopted),
                    "src": str(src.root),
                },
            )
        return adopted

    def _write(self, session_id: str, data: bytes) -> None:
        self.store.save(session_id, data)
        with self._lock:
            self.snapshots_written += 1

    def snapshot_sessions(self, session_ids: Sequence[str]) -> int:
        """Drain-snapshot specific sessions for an ownership handoff.

        This *waits* for each session's compute lock: the sharded front
        calls it after it has stopped routing new updates to the
        session, so the blocking acquire only drains the one in-flight
        update — and the stored epoch is then guaranteed to be the
        latest committed one, which the adopting shard resumes
        bit-identically."""
        written = 0
        for session_id in session_ids:
            try:
                session = self.sessions.get(session_id)
            except ServiceError:
                continue  # closed since the front planned the move
            with session.compute_lock:
                with session.lock:
                    state = capture_session_state(session)
                try:
                    data = pickle.dumps(
                        state, protocol=pickle.HIGHEST_PROTOCOL
                    )
                    self._write(session_id, data)
                # repro: allow[BROAD-EXCEPT] — a failed drain write leaves
                # the on-commit snapshot in place; counted, handoff degrades
                except Exception as exc:
                    with self._lock:
                        self.write_failures += 1
                    _LOG.warning(
                        "handoff snapshot failed",
                        extra={
                            "event": "handoff_snapshot_failed",
                            "session_id": session_id,
                            "reason": str(exc),
                        },
                    )
                    continue
                written += 1
        return written

    def stats(self) -> dict:
        with self._lock:
            return {
                "snapshots_written": self.snapshots_written,
                "write_failures": self.write_failures,
                "restored": self.restored,
                "restore_failures": self.restore_failures,
            }


# ----------------------------------------------------------------------
# result write-behind (elastic fleet, PR 10)
# ----------------------------------------------------------------------

def iter_result_entries(root) -> Iterator[tuple[str, dict]]:
    """Yield ``(request key, result payload)`` from a store directory's
    journal, oldest first; corrupt lines are skipped (a crash mid-append
    truncates the last line, it must not poison the rest).  Duplicate
    keys yield repeatedly — callers keep the last occurrence."""
    path = Path(root) / RESULTS_JOURNAL
    try:
        fh = open(path, encoding="utf-8")
    except OSError:
        return
    with fh:
        for line in fh:
            try:
                entry = json.loads(line)
                key, payload = entry["key"], entry["result"]
            except (ValueError, KeyError, TypeError):
                continue
            if isinstance(key, str) and isinstance(payload, dict):
                yield key, payload


class ResultWriteBehind:
    """Append-only JSONL journal of ``(request key → result payload)``.

    ``record`` enqueues without blocking the request path — a dedicated
    writer thread drains the queue and appends, so journal durability
    costs the hot path one lock hop, like the trace ring.  When the
    journal grows past ``max_bytes`` the writer compacts it in place
    (last occurrence per key, newest keys win, atomic replace), so the
    warm set a restarted shard replays is the *recent* hot set, bounded
    on disk.
    """

    def __init__(self, root, max_bytes: int = 16 << 20) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / RESULTS_JOURNAL
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: "OrderedDict[str, dict]" = OrderedDict()
        self._bytes = self.path.stat().st_size if self.path.exists() else 0
        self._stop = False
        self._draining = 0
        self.records_written = 0
        self.write_failures = 0
        self.compactions = 0
        self._writer = threading.Thread(
            target=self._writer_loop, name="result-writebehind", daemon=True
        )
        self._writer.start()

    # ------------------------------------------------------------------
    def record(self, key: str, payload: dict) -> None:
        """Enqueue one (key → payload) for the writer thread; a re-record
        of a queued key replaces it (identical payload anyway — results
        are content-addressed)."""
        with self._wake:
            if self._stop:
                return
            self._queue[key] = payload
            self._queue.move_to_end(key)
            self._wake.notify()

    def flush(self) -> None:
        """Block until everything recorded so far is on disk (handoff
        preparation: the new owner is about to read this journal)."""
        with self._wake:
            while self._queue or self._draining:
                self._wake.wait(timeout=0.05)
                if self._stop:
                    break

    def load(self) -> list[tuple[str, dict]]:
        """The journal's entries, deduplicated last-wins, oldest first —
        what a restarting shard replays into its content cache."""
        self.flush()
        entries: "OrderedDict[str, dict]" = OrderedDict()
        for key, payload in iter_result_entries(self.root):
            entries[key] = payload
            entries.move_to_end(key)
        return list(entries.items())

    def stats(self) -> dict:
        with self._lock:
            return {
                "records_written": self.records_written,
                "write_failures": self.write_failures,
                "compactions": self.compactions,
            }

    def close(self) -> None:
        with self._wake:
            self._stop = True
            self._wake.notify()
        self._writer.join(timeout=5.0)

    # ------------------------------------------------------------------
    def _writer_loop(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._stop:
                    self._wake.wait()
                if not self._queue and self._stop:
                    return
                batch = list(self._queue.items())
                self._queue.clear()
                self._draining = len(batch)
            try:
                self._append(batch)
            # repro: allow[BROAD-EXCEPT] — journal writes degrade warmth,
            # never answers: count the failure, keep the writer alive
            except Exception as exc:
                with self._lock:
                    self.write_failures += len(batch)
                _LOG.warning(
                    "write-behind append failed",
                    extra={
                        "event": "writebehind_append_failed",
                        "journal": str(self.path),
                        "reason": str(exc),
                    },
                )
            finally:
                with self._wake:
                    self._draining = 0
                    self._wake.notify_all()

    def _append(self, batch: list[tuple[str, dict]]) -> None:
        lines = "".join(
            json.dumps({"key": key, "result": payload}) + "\n"
            for key, payload in batch
        )
        data = lines.encode("utf-8")
        with open(self.path, "ab") as fh:
            fh.write(data)
        with self._lock:
            self._bytes += len(data)
            self.records_written += len(batch)
            over = self._bytes > self.max_bytes
        if over:
            self._compact()

    def _compact(self) -> None:
        """Rewrite the journal keeping the last occurrence per key,
        dropping oldest keys until under half the byte budget."""
        entries: "OrderedDict[str, dict]" = OrderedDict()
        for key, payload in iter_result_entries(self.root):
            entries[key] = payload
            entries.move_to_end(key)
        lines = [
            json.dumps({"key": key, "result": payload}) + "\n"
            for key, payload in entries.items()
        ]
        sizes = [len(line.encode("utf-8")) for line in lines]
        total = sum(sizes)
        start = 0
        while total > self.max_bytes // 2 and start < len(lines) - 1:
            total -= sizes[start]
            start += 1
        tmp = self.path.with_suffix(".jsonl.tmp")
        tmp.write_text("".join(lines[start:]), encoding="utf-8")
        os.replace(tmp, self.path)
        with self._lock:
            self._bytes = total
            self.compactions += 1
