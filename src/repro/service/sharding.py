"""Digest-sharded multi-process serving with supervision and failover.

One Python process can only scale the serving tier so far: worker
threads overlap the GIL-releasing kernels, but every request still
shares one interpreter.  :class:`ShardedPartitionService` is the
shared-nothing answer — ``N`` worker *processes*, each running a full,
independent :class:`~repro.service.core.PartitionService` (its own
caches, pinned executors, and sessions), behind a thin front that
routes every request by **graph digest** through a consistent-hash
ring (:mod:`repro.service.ring`, PR 10)::

    request ──→ front answer cache ──hit──→ answer, marked with the owner
          └─miss─digest──→ placement: the first slot of
                           ring.preference(digest) under the load cap
                                     ──transport──→ shard worker

Routing by content digest is what keeps the per-shard caches as
effective as a single process's: a given graph's sessions stay with
its ring owner, and its cache misses run there unless the owner is
busy (placement, below).  An answer and its warm seed stay on the
shard that computed it, and the front remembers which one that was,
so nothing is diluted across workers.  Sessions are routed by the
digest of their opening graph and then stick to their shard by
session id.

The front answers repeats itself.  It keeps one bounded LRU of answers
(:class:`~repro.service.cache.ResultCache`, ``cache_bytes // 2``,
the size of each shard's result half) keyed by the shards' own
:func:`~repro.service.cache.request_key`.  ``submit`` and
``submit_many`` look a request up there before routing it: a hit is a
``cache_hit`` copy marked with the ring owner's index and touches no
transport, and every shard reply is stored.  ``held_answer`` serves
the same hit, counting nothing on a miss; the event-loop HTTP front
calls it on its loop thread for digest-only requests.  The front
counts each hit once for the fleet (``repro_cache_hits_total``,
``repro_requests_total``, ``repro_request_latency_ms``) and registers
its LRU's size and evictions under ``cache="results"``, so the merged
snapshot and the ``stats()`` view of it cover every result cache;
misses are counted by the shard that looks them up.  The shard caches
still serve what the front cannot: repeats the front LRU has evicted,
a new front attached to shard servers that outlived the old one, the
in-flight join of identical concurrent misses, and the write-behind
journal.  Session verbs never touch the front cache.

A ``submit`` miss is placed by bounded load (Mirrokni, Thorup &
Zadimoghaddam, "Consistent Hashing with Bounded Loads", SODA 2018,
with ε = :data:`PLACEMENT_EPSILON`).  The front counts the GA-bearing
calls it has in flight per slot: ``submit`` misses, ``submit_many``
sub-batches, and session opens and updates.  A miss goes to the first
ring member, in its digest's preference order (the owner, then each
other member clockwise), with fewer than ``ceil(m / n)`` calls in
flight, where ``m`` counts the front's in-flight GA calls including
this one and ``n`` the ring members.  Only the owner and members whose
slot is up qualify, and the owner takes a miss that no member can.  A
serial stream therefore always runs on the owner, and two concurrent
misses on one owner run on two shards.  Every shard computes the same
bits, so placement decides only which core computes a miss.  Some
calls are not placed by load:

* a miss whose key is already in flight goes to the shard computing
  it, whose scheduler joins the two;
* a miss the front answered before (a repeat its LRU has evicted) goes
  back to the shard that answered it, whose cache holds it;
* a ``warm_start`` miss goes to the shard holding the best warm seed
  of its (graph, k, fitness) among the answers the front has seen:
  the owner, unless a spill computed the best one;
* session verbs stay on their session's shard, and ``submit_many``
  sub-batches on their owner, which stacks a refine group into one
  lockstep climb.

A remembered shard that is not up gives way to the owner.  The front
keeps what it remembers for the last :data:`PLACEMENT_MEMORY` answers
and seeds.  What it forgets, and what a new front attached to shard
servers that outlived the old one never knew, falls back to the owner:
a repeat of an answer a spill computed runs the GA again there, and a
``warm_start`` miss sees only the owner's seed.  A ``submit_many``
sub-batch, which always runs on the owner, sees it the same way.

A digest-only miss placed on a shard that does not hold its graph
raises :class:`~repro.errors.NeedsGraph` back through the front (HTTP
409); the client resends once with the graph, which interns it on the
shard the resend runs on.
``repro_placements_total{placement="owner"|"spill"}`` counts where
``submit`` misses ran, and ``repro_shard_inflight{shard}`` is the load
signal itself.  A miss's ``result.shard`` is the shard that ran it.

Elastic fleet (PR 10): because the ring is an explicit, epoch-numbered
topology instead of ``% N``, membership can change at runtime:

* ``resize(n)`` / ``add_shard()`` / ``remove_shard(i)`` (the
  ``/v1/admin/ring`` endpoint and the ``ring`` CLI verb) grow or
  shrink a local fleet under traffic.  A remap moves only ~1/N of the
  keyspace; sessions whose owner changed are **handed off warm** —
  the old shard drain-snapshots them, the new owner adopts from its
  store (:meth:`~repro.service.persistence.SessionPersistence.
  adopt_from`) and resumes bit-identically at the last committed
  epoch — and each shard re-warms its newly owned keys from the other
  shards' result write-behind journals, so the warm-hit rate survives
  the remap.
* With ``probe_interval_s > 0`` the front probes every shard
  periodically: a shard that stops answering is ejected from the ring
  (degraded serving at N−1 under a new epoch — its keyspace reroutes
  to the survivors, which compute identical bits) and re-admitted
  when a probe sees it answer again; an attached remote shard is
  reconnected by the probe instead of lazily on the next call.
* The ring protocol is versioned
  (:data:`~repro.service.ring.RING_PROTOCOL_VERSION`): every new shard
  handle makes one ``ping`` round trip before it serves, and a shard
  whose answer reports another version is refused with a
  :class:`~repro.errors.ServiceError` naming both.

Transport (PR 5) is one duplex :class:`~repro.service.transport.
SocketTransport` per shard with request multiplexing: the front tags
each request with a sequence id, a per-shard reader thread dispatches
replies to waiting callers, and the shard worker executes requests on
a small thread pool over its service.  Every shard speaks the same
length-prefixed binary frames, whether it is a local child process
(a :func:`socket.socketpair`) or a shard server anywhere (TCP, ``serve
--shard-listen`` / ``--attach-shard``), so a fleet can span machines
without changing a caller, and a shard-side error crosses either lane
as the same ``{type, message}`` data.

Fault tolerance (PR 5): every shard lives in a supervised slot with
health tracking.  A shard death (reader-thread EOF, send failure) fails
all in-flight requests for that shard *fast* with
:class:`~repro.errors.ShardDiedError` — nobody blocks on a corpse —
and then:

* **local shards** are restarted automatically (bounded by
  ``restart_limit``) with the *same* slot index, so the digest→shard
  mapping is preserved deterministically; the replacement process
  restores the dead shard's sessions from its snapshot store
  (:mod:`repro.service.persistence`) before taking traffic, so
  ``update_session`` resumes bit-identically from the last committed
  epoch instead of erroring;
* **attached (remote) shards** are reconnected lazily on the next call
  for their slot — the shard server itself outlives the front and kept
  its state all along.

Determinism: every shard executes the identical
:class:`PartitionService` code, so sharded answers are bit-identical
to single-process answers for the same requests — the shard layout,
the transport, and a crash-free restart change which process computes,
never what is computed (enforced by ``tests/test_sharding.py`` and
gated in CI by ``bench_service.py``).

Composition note: shards are the service's one way to use more cores.
A shard *is* a process running one :class:`PartitionService` on worker
threads; a host with more cores runs more of them — ``serve --shards
N`` locally, or more ``serve --shard-listen`` servers attached with
``--attach-shard``.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import socket
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from ..errors import ServiceError, ShardDiedError, UnknownSession
from ..graphs.csr import CSRGraph
from ..obs.logs import get_logger
from ..obs.metrics import (
    STATS_SECTIONS,
    MetricsRegistry,
    latency_digest,
    merge_snapshots,
    stats_view,
)
from ..obs.trace import NULL_SPAN, Tracer
from .cache import ResultCache, graph_digest, request_key
from .config import ServiceConfig
from .models import (
    JobResult,
    PartitionRequest,
    RefineRequest,
    UpdateRequest,
)
from .ring import RING_PROTOCOL_VERSION, HashRing
from .transport import (
    SHUTDOWN,
    ShardListener,
    SocketTransport,
    connect_shard,
)

__all__ = [
    "ShardedPartitionService",
    "ShardServer",
]

_LOG = get_logger("service.sharding")


#: ε of Mirrokni, Thorup & Zadimoghaddam's bounded-load rule: a cache
#: miss runs on the first ring member, in its digest's preference order,
#: with fewer than ``ceil((1 + ε) · m / n)`` GA calls in flight (``m``
#: the front's in-flight GA calls counting this one, ``n`` the ring
#: members).  At 2 shards any ε > 0 lets the owner keep two misses, so
#: nothing would move (benchmarks/NOTES.md).
PLACEMENT_EPSILON = 0.0

#: How many answered miss keys, and how many (graph, k, fitness) warm
#: seeds, the front remembers the shard of (least recently answered
#: forgotten first).  An entry costs the front about 270 bytes, so the
#: two memories stay under 9 MB.
PLACEMENT_MEMORY = 16384


def _remember(memory: OrderedDict, key, value) -> None:
    """Store ``key`` as the most recent entry of a bounded memory."""
    memory.pop(key, None)
    memory[key] = value
    if len(memory) > PLACEMENT_MEMORY:
        memory.popitem(last=False)


# ----------------------------------------------------------------------
# shard worker side
# ----------------------------------------------------------------------

def _serve_shard(transport: SocketTransport, service) -> None:
    """Answer ``(req_id, verb, args)`` messages over one transport until
    EOF or :data:`SHUTDOWN`; requests execute on a small thread pool so
    same-shard traffic overlaps.  Shared by the local shard worker and
    every :class:`ShardServer` connection.  A handler's exception is
    replied as data (:func:`~repro.service.models.error_to_wire`): the
    front rebuilds a library error as itself and anything else as a
    :class:`ServiceError` naming its type.
    """

    def handle(
        req_id: int, verb: str, args: tuple, tc: Optional[dict] = None
    ) -> None:
        try:
            if verb == "submit":
                out = service.submit(args[0], trace=tc)
            elif verb == "submit_many":
                out = service.submit_many(args[0], trace=tc)
            elif verb == "open_session":
                kwargs = dict(args[2])
                payload_tc = kwargs.pop("trace", None)
                out = service.open_session(
                    args[0], args[1],
                    trace=tc if tc is not None else payload_tc,
                    **kwargs,
                )
            elif verb == "update_session":
                out = service.update_session(args[0], trace=tc)
            elif verb == "close_session":
                out = service.close_session(args[0])
            elif verb == "metrics":
                out = service.metrics()
            elif verb == "list_sessions":
                out = service.sessions.ids()
            elif verb == "ping":
                # liveness probe (PR 10): answers on the control lane so
                # a fleet saturated with GA work still proves it is alive
                out = {"ok": True, "ring_protocol": RING_PROTOCOL_VERSION}
            elif verb == "prepare_handoff":
                out = service.prepare_handoff(args[0] if args else None)
            elif verb == "adopt_sessions":
                out = service.adopt_sessions(args[0], args[1])
            elif verb == "release_sessions":
                out = service.release_sessions(args[0])
            elif verb == "warm_from":
                out = service.warm_results_from(
                    args[0],
                    ring=args[1] if len(args) > 1 else None,
                    slot=args[2] if len(args) > 2 else None,
                )
            else:
                raise ServiceError(f"unknown shard verb {verb!r}")
            reply = (req_id, True, out)
        # repro: allow[BROAD-EXCEPT] — the serving loop answers every
        # request: handler errors become error replies, never a dead channel
        except BaseException as exc:
            reply = (req_id, False, exc)
        try:
            transport.send(reply)
        # repro: allow[BROAD-EXCEPT] — a reply that cannot serialize must
        # still be answered, or the front's call would wait forever
        except Exception as exc:
            # a reply that cannot serialize must still be answered, or
            # the front's call would wait forever — fall back to an
            # error reply; if even that fails the channel is dead and
            # the front's reader EOF flushes every waiter
            try:
                transport.send((
                    req_id,
                    False,
                    ServiceError(f"shard reply failed to send: {exc!r}"),
                ))
            # repro: allow[BROAD-EXCEPT] — last resort: if even the error
            # reply fails the channel is dead and the reader's EOF flushes
            # every waiter
            except Exception:
                pass

    # two lanes: data verbs (GA work, may block for seconds) and
    # control verbs (metrics / close_session, expected to answer fast).
    # A shared pool would let a burst of long submits queue a metrics
    # read or close behind GA runs — the very blocking the
    # overlapped-session work removed from the single-process path.
    pool = ThreadPoolExecutor(
        max_workers=service.config.n_workers + 2,
        thread_name_prefix="shard-req",
    )
    control = ThreadPoolExecutor(
        max_workers=2, thread_name_prefix="shard-ctl"
    )
    try:
        while True:
            try:
                msg = transport.recv()
            except (EOFError, OSError):
                break  # peer died or detached
            if msg == SHUTDOWN:
                break
            # requests are (req_id, verb, args) or, when the front ships
            # trace context, (req_id, verb, args, tc) — see transport.py
            req_id, verb, args = msg[0], msg[1], msg[2]
            tc = msg[3] if len(msg) == 4 else None
            lane = (
                control
                if verb in ("metrics", "close_session", "list_sessions",
                            "ping")
                else pool
            )
            lane.submit(handle, req_id, verb, args, tc)
    finally:
        pool.shutdown(wait=True)
        control.shutdown(wait=True)
        transport.close()


def _shard_main(sock, config: ServiceConfig) -> None:  # pragma: no cover
    """Entry point of one local shard worker process, serving the
    front over its end of a socketpair.  (Covered by the
    subprocess-driving tests in ``tests/test_sharding.py``, which
    coverage cannot see.)"""
    from .core import PartitionService

    service = PartitionService(config=config)
    try:
        _serve_shard(SocketTransport(sock), service)
    finally:
        service.close()


class ShardServer:
    """A standalone, socket-reachable shard (``serve --shard-listen``).

    Runs one full :class:`~repro.service.core.PartitionService` and
    answers the shard RPC over :class:`~repro.service.transport.
    SocketTransport` connections — the remote end of
    ``ShardedPartitionService(attach=[...])``.  The server outlives any
    front: a front disconnect merely ends that connection, state (
    caches, sessions, snapshots) stays warm for the next attach, and an
    attaching front rebuilds its session→shard routing from the
    server's open sessions (the ``list_sessions`` verb), so sessions
    opened through a previous front remain addressable.
    Keyword arguments are :class:`ServiceConfig` overrides, exactly as
    for a local shard; to use more of a host's cores, run more shard
    servers on it and attach each one.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServiceConfig] = None,
        **overrides,
    ) -> None:
        from .core import PartitionService

        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            config = config.with_updates(**overrides)
        self.config = config
        self.service = PartitionService(config=config)
        try:
            self.listener = ShardListener(host, port)
        except OSError:
            # bind failure must not leak the started service's workers
            self.service.close()
            raise
        self.address = self.listener.address
        self._lock = threading.Lock()
        self._transports: list[SocketTransport] = []
        self._threads: list[threading.Thread] = []
        self._accept_thread: Optional[threading.Thread] = None
        self._closed = False

    def serve_forever(self) -> None:
        """Accept fronts until :meth:`close`; one thread per connection
        (they share the one service, so two fronts see one cache)."""
        while True:
            try:
                transport = self.listener.accept()
            except OSError:
                break  # listener closed
            with self._lock:
                if self._closed:
                    transport.close()
                    break
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(transport,),
                    name="shard-conn",
                    daemon=True,
                )
                self._transports.append(transport)
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, transport: SocketTransport) -> None:
        """One connection's serving loop, self-pruning on exit — a
        long-lived server fronted by reconnecting fleets must not
        accumulate every dead connection's transport and thread."""
        try:
            _serve_shard(transport, self.service)
        finally:
            with self._lock:
                try:
                    self._transports.remove(transport)
                except ValueError:
                    pass
                try:
                    self._threads.remove(threading.current_thread())
                except ValueError:
                    pass

    def start(self) -> "ShardServer":
        """Serve in a background daemon thread (tests, embedding)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, name="shard-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            transports = list(self._transports)
            threads = list(self._threads)
        self.listener.close()
        for transport in transports:
            transport.close()
        for thread in threads:
            thread.join(timeout=5.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self.service.close()

    def __enter__(self) -> "ShardServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ShardServer(address={self.address!r})"


# ----------------------------------------------------------------------
# front-side shard handle + supervision
# ----------------------------------------------------------------------

class _Reply:
    __slots__ = ("done", "ok", "payload")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.ok = False
        self.payload = None


class _ShardHandle:
    """Front-side endpoint of one shard: multiplexed request/reply over
    a :class:`SocketTransport`; ``process`` is set for local shards."""

    def __init__(
        self,
        index: int,
        transport: SocketTransport,
        process=None,
        on_death=None,
    ) -> None:
        self.index = index
        self.process = process
        self.transport = transport
        self.closing = False  # intentional shutdown: no death handling
        self._on_death = on_death
        self._pending_lock = threading.Lock()
        self._pending: dict[int, _Reply] = {}
        self._counter = itertools.count()
        self._alive = True
        self._reader = threading.Thread(
            target=self._read_loop, name=f"shard-{index}-reader", daemon=True
        )
        self._reader.start()
        self._hello()

    def _hello(self) -> None:
        """One ``ping`` round trip before the handle serves: a slot
        counts as up only once its shard has answered (the supervisor's
        crash-loop check reads :attr:`alive` right after this), and a
        shard speaking another ring protocol is shut down and refused.
        A shard that dies meanwhile is left to the death path."""
        try:
            pong = self.call("ping")
        except ShardDiedError:
            return  # the reader already handed the slot to the supervisor
        except ServiceError:
            pong = None  # answered ping with an error: no ring protocol
        version = pong.get("ring_protocol") if isinstance(pong, dict) else None
        if version != RING_PROTOCOL_VERSION:
            self.shutdown()
            raise ServiceError(
                f"shard {self.index} speaks ring protocol {version}, this "
                f"front speaks ring protocol {RING_PROTOCOL_VERSION}"
            )

    @property
    def alive(self) -> bool:
        with self._pending_lock:
            return self._alive

    def call(self, verb: str, *args, tc: Optional[dict] = None):
        reply = _Reply()
        req_id = next(self._counter)
        message = (
            (req_id, verb, args)
            if tc is None
            else (req_id, verb, args, dict(tc))
        )
        with self._pending_lock:
            if not self._alive:
                raise ShardDiedError(f"shard {self.index} is not running")
            self._pending[req_id] = reply
        try:
            # the transport serializes send internally; no handle lock
            self.transport.send(message)
        except (OSError, ValueError, EOFError) as exc:
            with self._pending_lock:
                self._pending.pop(req_id, None)
            # a failed send means the channel is broken: close it so the
            # reader wakes with EOF and the death path runs exactly once
            self.transport.close()
            raise ShardDiedError(
                f"shard {self.index} unreachable: {exc}"
            ) from exc
        except ServiceError:
            # codec rejection (oversized frame, unencodable message):
            # the channel is intact — the codec fails before writing a
            # byte — so only this request fails; drop its pending entry
            with self._pending_lock:
                self._pending.pop(req_id, None)
            raise
        except Exception as exc:  # e.g. a value JSON cannot encode
            with self._pending_lock:
                self._pending.pop(req_id, None)
            raise ServiceError(
                f"request to shard {self.index} failed to serialize: "
                f"{exc!r}"
            ) from exc
        reply.done.wait()
        if not reply.ok:
            raise reply.payload
        return reply.payload

    def _read_loop(self) -> None:
        try:
            while True:
                req_id, ok, payload = self.transport.recv()
                with self._pending_lock:
                    reply = self._pending.pop(req_id, None)
                if reply is None:
                    continue  # response to an abandoned request
                reply.ok = ok
                reply.payload = payload
                reply.done.set()
        except (EOFError, OSError):
            pass
        except ServiceError:
            pass  # malformed frame from a corrupt peer: treat as death
        finally:
            # whatever ended the loop (EOF, OSError, malformed frame),
            # the channel is done: close it so the peer's connection
            # loop sees EOF too instead of blocking in recv forever
            self.transport.close()
            # shard death: fail every in-flight caller *fast* — a caller
            # must never block forever on a request the dead shard will
            # not answer — then hand the slot to the supervisor
            with self._pending_lock:
                self._alive = False
                pending, self._pending = self._pending, {}
            for reply in pending.values():
                reply.ok = False
                reply.payload = ShardDiedError(
                    f"shard {self.index} died with the request in flight"
                )
                reply.done.set()
            if self._on_death is not None and not self.closing:
                self._on_death(self)

    def shutdown(self, timeout: float = 10.0) -> None:
        self.closing = True
        if self.process is not None:
            try:
                self.transport.send(SHUTDOWN)
            except (OSError, ValueError, EOFError):
                pass
            self.process.join(timeout)
            if self.process.is_alive():  # pragma: no cover - stuck worker
                self.process.terminate()
                self.process.join(timeout)
            if self.process.exitcode is not None:
                # free the process's sentinel pipe now, not whenever the
                # garbage collector reaches this handle
                self.process.close()
        self.transport.close()


class _ShardSlot:
    """Supervised seat of one shard index in the fleet."""

    __slots__ = (
        "index", "handle", "state", "restarts", "address", "restart_thread",
        "last_probe", "probe_ok", "probe_failures",
    )

    def __init__(self, index: int, address: Optional[str] = None) -> None:
        self.index = index
        self.handle: Optional[_ShardHandle] = None
        self.state = "starting"  # "up" | "restarting" | "down" | "removed"
        self.restarts = 0
        self.address = address  # attach address for remote shards
        self.restart_thread: Optional[threading.Thread] = None
        self.last_probe: Optional[float] = None  # wall clock of last probe
        self.probe_ok: Optional[bool] = None  # verdict of the last probe
        self.probe_failures = 0


# ----------------------------------------------------------------------
# the sharded front
# ----------------------------------------------------------------------

class ShardedPartitionService:
    """Digest-sharded, shared-nothing serving front with supervision.

    Implements the same verbs as :class:`PartitionService` (``submit``,
    ``submit_many``, ``open_session``, ``update_session``,
    ``close_session``, ``stats``, ``close``), so the HTTP frontend and
    :class:`~repro.service.client.ServiceClient` drive either
    interchangeably.  Keyword arguments are
    :class:`~repro.service.config.ServiceConfig` overrides applied to
    every shard.

    Parameters
    ----------
    n_shards:
        Local shard worker processes to spawn (ignored when ``attach``
        is given).
    attach:
        Addresses (``"HOST:PORT"``) of running :class:`ShardServer`\\ s
        to attach instead of spawning local workers; the fleet width is
        ``len(attach)`` and digest routing is identical to a local
        fleet of the same width.
    auto_restart:
        Restart a dead *local* shard in place (same slot → same digest
        routing), restoring its sessions from the per-shard snapshot
        store before it takes traffic.  Attached shards are never
        restarted — they are reconnected on the next call instead.
    restart_limit:
        Ceiling on automatic restarts per slot (crash-loop guard).
    restart_wait_s:
        How long a caller waits for an in-progress restart/reconnect
        before failing with :class:`ShardDiedError`.
    """

    def __init__(
        self,
        n_shards: Optional[int] = None,
        config: Optional[ServiceConfig] = None,
        attach: Optional[Sequence[str]] = None,
        auto_restart: bool = True,
        restart_limit: int = 3,
        restart_wait_s: float = 30.0,
        **overrides,
    ) -> None:
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            config = config.with_updates(**overrides)
        self._local = attach is None
        if self._local:
            n_shards = 2 if n_shards is None else int(n_shards)
            if n_shards < 1:
                raise ServiceError(f"n_shards must be >= 1, got {n_shards}")
            self.n_shards = n_shards
        else:
            attach = list(attach)
            if not attach:
                raise ServiceError("attach needs at least one address")
            if n_shards is not None and n_shards != len(attach):
                raise ServiceError(
                    f"n_shards={n_shards} conflicts with {len(attach)} "
                    "attached shard addresses (omit n_shards with attach)"
                )
            if config.without_observability() != ServiceConfig():
                # remote workers run their own configs; silently
                # accepting overrides here would let callers believe
                # settings took effect that never left this process.
                # Observability fields are exempt: they configure the
                # *front's* tracer, which is local by definition.
                raise ServiceError(
                    "attach mode takes no service config overrides — "
                    "configure each shard server (serve --shard-listen) "
                    "instead (tracing flags are front-local and allowed)"
                )
            self.n_shards = len(attach)
        self.config = config
        self._auto_restart = bool(auto_restart)
        self._restart_limit = int(restart_limit)
        self._restart_wait_s = float(restart_wait_s)
        # per-shard snapshot directories: the restart re-warm reads the
        # dead shard's store, so the store must outlive the shard — a
        # private temp dir unless the config names a durable one
        self._tmpdir = None
        self._snapshot_base: Optional[str] = None
        if self._local:
            if config.snapshot_dir:
                self._snapshot_base = config.snapshot_dir
            else:
                # always provisioned since PR 10: besides the restart
                # re-warm, the elastic paths read it on *any* local
                # fleet — resize hands sessions to their new ring
                # owners from here, and a probe-ejected shard's
                # sessions are adopted from its on-commit snapshots
                self._tmpdir = tempfile.TemporaryDirectory(
                    prefix="repro-shard-snapshots-",
                    ignore_cleanup_errors=True,
                )
                self._snapshot_base = self._tmpdir.name
        # front-side observability: the front originates request traces
        # (shards continue them via the frame's trace context) and keeps
        # its own registry of fleet-supervision metrics; metrics() merges
        # it with every reachable shard's snapshot
        self.tracer = Tracer(
            enabled=config.trace_enabled,
            ring_size=config.trace_ring,
            jsonl_path=config.trace_jsonl,
            sample_rate=config.trace_sample,
        )
        self.registry = MetricsRegistry()
        #: the front's answers, keyed like the shards' result caches and
        #: sized like one shard's result half: a repeat is answered here
        #: and never crosses a transport
        self._answers = ResultCache(config.cache_bytes // 2)
        #: the load signal miss placement reads: GA-bearing calls in
        #: flight per slot, and the slot each in-flight miss key runs on
        #: (``[slot, calls]``, so an identical miss meets it in that
        #: shard's scheduler).  A leaf lock.
        self._load_lock = threading.Lock()
        self._inflight: dict[int, int] = {}
        self._inflight_keys: dict[str, list[int]] = {}
        #: where the shards keep what the front answered, under the
        #: same lock and each bounded by :data:`PLACEMENT_MEMORY`: the
        #: slot that answered each miss key, so a repeat the front LRU
        #: has evicted goes back to the shard cache that holds it, and
        #: per (graph, k, fitness) the fitness and slot of the best
        #: answer, so a ``warm_start`` miss runs where the best warm
        #: seed is
        self._homes: OrderedDict[str, int] = OrderedDict()
        self._best_seed: OrderedDict[tuple, tuple] = OrderedDict()
        self._mp_ctx = multiprocessing.get_context()
        self._fleet_lock = threading.Lock()
        self._fleet_cond = threading.Condition(self._fleet_lock)
        self._session_lock = threading.Lock()
        self._session_cond = threading.Condition(self._session_lock)
        self._session_shard: dict[str, int] = {}
        #: opening-graph digest per session opened *through this front* —
        #: what lets a ring change compute a session's new owner.
        #: Sessions discovered via ``list_sessions`` (attach, durable
        #: restore) have no recorded digest and stay sticky unless their
        #: shard leaves the fleet (then they move keyed by session id).
        self._session_digest: dict[str, str] = {}
        #: sessions mid-handoff: routing waits them out (bounded) so an
        #: update can never race the move and land on the losing side
        self._moving: set[str] = set()
        #: serializes admin topology changes (a flag, not a lock held
        #: across the blocking handoff RPCs)
        self._admin_busy = False
        self._closed = False
        #: the routing topology: an explicit epoch-numbered ring instead
        #: of PR 4's ``% N`` (see repro.service.ring for the migration)
        self.ring = HashRing(self.n_shards)
        self._slots: list[_ShardSlot] = [
            _ShardSlot(i, address=None if self._local else attach[i])
            for i in range(self.n_shards)
        ]
        self._probe_stop = threading.Event()
        self._probe_thread: Optional[threading.Thread] = None
        try:
            for slot in self._slots:
                slot.handle = (
                    self._spawn_local(slot.index)
                    if self._local
                    else self._connect_remote(slot)
                )
                slot.state = "up"
            # shards may already hold live sessions — a shard server
            # outliving its previous front, or a local shard restored
            # from a durable snapshot store.  Rebuild the session→shard
            # routing map so those sessions remain addressable through
            # this front instead of answering "unknown session".
            for slot in self._slots:
                for session_id in slot.handle.call("list_sessions"):
                    self._session_shard[session_id] = slot.index
            self._register_metrics()
            if config.probe_interval_s > 0:
                self._probe_thread = threading.Thread(
                    target=self._probe_loop,
                    name="shard-probes",
                    daemon=True,
                )
                self._probe_thread.start()
        except BaseException:
            # a partial fleet must not outlive a failed constructor
            for slot in self._slots:
                if slot.handle is not None:
                    slot.handle.shutdown()
            if self._tmpdir is not None:
                self._tmpdir.cleanup()
            raise

    # ------------------------------------------------------------------
    # fleet plumbing
    # ------------------------------------------------------------------
    def _register_metrics(self) -> None:
        """Front-local metric families (see :mod:`repro.obs`): the
        answer cache, shard supervision, placement and ring gauges, and
        the front tracer's counters.  The other per-request families
        come from the shards and are merged in :meth:`metrics`."""
        reg = self.registry

        def shard_up():
            return [
                ({"shard": str(entry["shard"])},
                 1.0 if entry["state"] == "up" else 0.0)
                for entry in self.shard_health()
            ]

        reg.gauge_fn("repro_shard_up", shard_up)

        def ring_epoch():
            return [({}, float(self.ring.epoch))]

        def ring_members():
            return [({}, float(len(self.ring.members)))]

        def ring_shares():
            shares = self.ring.version.shares()
            return [
                ({"shard": str(slot)}, float(share))
                for slot, share in sorted(shares.items())
            ]

        # the answer cache counts under cache="results" beside the
        # shards' result caches.  A repeat answered here is counted
        # once, here: the shards never see it.  A miss is counted by the
        # shard that looks it up, so the front registers no misses.
        def answers(field):
            return lambda: [
                ({"cache": "results"}, float(self._answers.stats()[field]))
            ]

        for field, metric in STATS_SECTIONS["cache"]:
            if field != "misses":
                reg.provide(metric, answers(field))

        def inflight():
            with self._load_lock:
                counts = dict(self._inflight)
            slots = set(range(self.ring.n_slots)) | set(counts)
            return [
                ({"shard": str(slot)}, float(counts.get(slot, 0)))
                for slot in sorted(slots)
            ]

        # where each submit miss ran: its ring owner, or another member
        # (a spill) because the owner was at the bounded-load cap
        for placement in ("owner", "spill"):
            reg.inc("repro_placements_total", 0.0, placement=placement)
        reg.gauge_fn("repro_shard_inflight", inflight)
        reg.gauge_fn("repro_ring_epoch", ring_epoch)
        reg.gauge_fn("repro_ring_members", ring_members)
        reg.gauge_fn("repro_ring_ownership_ratio", ring_shares)
        for field, metric in (
            ("spans_recorded", "repro_trace_spans_total"),
            ("spans_ingested", "repro_trace_spans_ingested_total"),
            ("sink_errors", "repro_trace_sink_errors_total"),
        ):
            reg.counter_fn(
                metric,
                (lambda f: lambda: [({}, float(self.tracer.counters()[f]))])(
                    field
                ),
            )

    def _shard_config(self, index: int) -> ServiceConfig:
        if self._snapshot_base is None:
            return self.config
        return self.config.with_updates(
            snapshot_dir=os.path.join(self._snapshot_base, f"shard-{index}")
        )

    def _spawn_local(self, index: int, ctx=None) -> _ShardHandle:
        ctx = self._mp_ctx if ctx is None else ctx
        front_end, shard_end = socket.socketpair()
        process = ctx.Process(
            target=_shard_main,
            args=(shard_end, self._shard_config(index)),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        with shard_end:
            # the started child holds its own copy (inherited under
            # fork, passed over exec under spawn); the front keeps none
            process.start()
        return _ShardHandle(
            index,
            SocketTransport(front_end),
            process=process,
            on_death=self._on_shard_death,
        )

    def _connect_remote(self, slot: _ShardSlot) -> _ShardHandle:
        try:
            transport = connect_shard(slot.address)
        except OSError as exc:
            raise ShardDiedError(
                f"cannot attach shard {slot.index} at {slot.address}: {exc}"
            ) from exc
        return _ShardHandle(
            slot.index, transport, on_death=self._on_shard_death
        )

    def _on_shard_death(self, handle: _ShardHandle) -> None:
        """Reader-thread callback: a shard's channel just died."""
        with self._fleet_lock:
            if handle.index >= len(self._slots):
                return  # slot retired by a fleet shrink
            slot = self._slots[handle.index]
            if self._closed or slot.handle is not handle:
                return  # stale handle (already replaced) or shutting down
            if slot.state == "removed":
                return  # retired slot: no supervision
            slot.handle = None
            self._begin_restart_locked(slot)
            state = slot.state
        self.registry.inc(
            "repro_shard_deaths_total", shard=str(handle.index)
        )
        _LOG.warning(
            "shard died",
            extra={
                "event": "shard_died",
                "shard": handle.index,
                "next_state": state,
                "transport": "pipe" if self._local else "socket",
            },
        )
        if handle.process is not None:
            handle.process.join(timeout=5.0)

    def _begin_restart_locked(self, slot: _ShardSlot) -> None:
        """Kick off (or give up on) a slot restart; fleet lock held."""
        if (
            self._local
            and self._auto_restart
            and slot.restarts < self._restart_limit
        ):
            slot.state = "restarting"
            slot.restart_thread = threading.Thread(
                target=self._restart_slot,
                args=(slot,),
                name=f"shard-{slot.index}-restart",
                daemon=True,
            )
            slot.restart_thread.start()
        else:
            slot.state = "down"
            self._fleet_cond.notify_all()

    def _restart_slot(self, slot: _ShardSlot) -> None:
        """Supervisor: replace a dead local shard in its own slot.

        The replacement keeps the slot index — digest→shard routing is
        a pure function of (digest, n_shards), so re-routing after a
        restart is deterministic by construction — and its service
        restores the dead shard's snapshot store before the new
        channel serves a single request.
        """
        try:
            # restart with the *spawn* context: the constructor forks
            # before any caller threads exist, but a supervised restart
            # runs while HTTP handlers, other shard readers, and GA
            # workers are live — forking there can hand the child a
            # lock some other thread held at fork time (import, BLAS,
            # allocator) and hang it.  A spawned child starts clean;
            # the answer bits do not depend on the start method.
            handle = self._spawn_local(
                slot.index, ctx=multiprocessing.get_context("spawn")
            )
        # repro: allow[BROAD-EXCEPT] — a failed restart attempt must never
        # crash the restart thread: mark the slot down so waiters fail fast
        except BaseException as exc:
            with self._fleet_lock:
                slot.state = "down"
                self._fleet_cond.notify_all()
            _LOG.error(
                "shard restart failed",
                extra={
                    "event": "shard_restart_failed",
                    "shard": slot.index,
                    "reason": f"{type(exc).__name__}: {exc}",
                },
            )
            return
        installed = False
        with self._fleet_lock:
            if self._closed:
                slot.state = "down"
            elif not handle.alive:
                # the replacement died before it could be installed (a
                # crash loop: startup OOM, bad snapshot dir, ...).  Its
                # on_death callback saw a foreign handle in the slot and
                # stood down, so re-engage the supervisor here — count
                # the attempt and retry while budget remains, otherwise
                # the slot would wedge as "up" around a corpse.
                slot.restarts += 1
                self._begin_restart_locked(slot)
            else:
                slot.handle = handle
                slot.state = "up"
                slot.restarts += 1
                installed = True
            self._fleet_cond.notify_all()
        if installed:
            self.registry.inc(
                "repro_shard_restarts_total", shard=str(slot.index)
            )
            _LOG.info(
                "shard restarted in place",
                extra={
                    "event": "shard_restarted",
                    "shard": slot.index,
                    "restarts": slot.restarts,
                },
            )
        if self._closed:  # lost the race with close(): tidy up
            handle.shutdown()

    def _shard_handle(self, index: int, wait: bool = True) -> _ShardHandle:
        """The live handle for a slot, waiting out an in-progress
        restart (bounded by ``restart_wait_s``) and lazily reconnecting
        attached shards.  ``wait=False`` never blocks and never
        reconnects: a slot that is not up raises immediately (the
        metrics path, which must answer mid-crash)."""
        deadline = time.monotonic() + self._restart_wait_s
        reconnect = None
        with self._fleet_lock:
            while True:
                self._check_open()
                if index >= len(self._slots):
                    raise ShardDiedError(
                        f"shard {index} left the fleet (width "
                        f"{len(self._slots)})"
                    )
                slot = self._slots[index]
                if slot.state == "up" and slot.handle is not None:
                    return slot.handle
                if slot.state == "removed":
                    raise ShardDiedError(
                        f"shard {index} was removed from the fleet"
                    )
                if not wait:
                    raise ShardDiedError(
                        f"shard {index} is {slot.state}"
                    )
                if slot.state in ("restarting", "starting"):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ShardDiedError(
                            f"shard {index} still restarting after "
                            f"{self._restart_wait_s:.1f}s"
                        )
                    self._fleet_cond.wait(remaining)
                    continue
                # down
                if not self._local:
                    slot.state = "restarting"  # claim the reconnect
                    reconnect = slot
                    break
                raise ShardDiedError(
                    f"shard {index} is down "
                    f"(after {slot.restarts} restart(s))"
                )
        # remote reconnect, outside the fleet lock (a refused ring
        # protocol is a ServiceError and leaves the slot down, too)
        try:
            handle = self._connect_remote(reconnect)
        except ServiceError:
            with self._fleet_lock:
                reconnect.state = "down"
                self._fleet_cond.notify_all()
            raise
        with self._fleet_lock:
            if self._closed:
                handle.shutdown()
                self._check_open()
            if not handle.alive:
                # connection dropped before install (server bounced it):
                # leave the slot down so the next call retries, and fail
                # this caller instead of installing a corpse as "up"
                reconnect.state = "down"
                self._fleet_cond.notify_all()
                raise ShardDiedError(
                    f"shard {index} at {reconnect.address} dropped the "
                    "connection during attach"
                )
            reconnect.handle = handle
            reconnect.state = "up"
            reconnect.restarts += 1
            self._fleet_cond.notify_all()
        self.registry.inc(
            "repro_shard_reattach_total", shard=str(index)
        )
        _LOG.info(
            "shard re-attached",
            extra={
                "event": "shard_reattached",
                "shard": index,
                "address": reconnect.address,
            },
        )
        return handle

    def _call(self, shard: int, verb: str, *args):
        return self._shard_handle(shard).call(verb, *args)

    def _traced_call(self, parent, shard: int, verb: str, *args):
        """One shard RPC under a ``shard.call`` hop span.  The hop's
        context rides the request frame, the shard's collected subtree
        rides back in ``result.spans`` and is ingested here — that is
        the whole cross-process stitch.  A failed attempt closes the hop
        with its error; a caller's retry under the same parent appears
        as a sibling hop of the same trace."""
        hop = self.tracer.start(
            "shard.call", parent=parent,
            attrs={"shard": shard, "verb": verb},
        )
        tc = hop.context() if hop else None
        try:
            result = self._shard_handle(shard).call(verb, *args, tc=tc)
        except BaseException as exc:
            hop.fail(exc)
            hop.close()
            if isinstance(exc, ShardDiedError):
                _LOG.warning(
                    "shard call failed fast",
                    extra={
                        "event": "shard_call_failed",
                        "shard": shard,
                        "verb": verb,
                        "trace_id": hop.trace_id,
                        "reason": str(exc),
                    },
                )
            raise
        hop.close()
        spans = getattr(result, "spans", None)
        if spans:
            self.tracer.ingest(spans)
        return result

    def _pinned_call(self, parent, shard: int, verb: str, *args):
        """A GA-bearing call that must run on ``shard`` (a session verb
        or a ``submit_many`` sub-batch): it counts in the load signal
        while in flight but is never placed."""
        self._claim(shard)
        try:
            return self._traced_call(parent, shard, verb, *args)
        finally:
            self._release(shard)

    def shard_health(self) -> list[dict]:
        """Per-shard supervision state (also embedded in :meth:`stats`).

        Since PR 10 each row also carries the slot's ring membership and
        the outcome of the front's health probes: ``probe_failures``
        counts failed probes over the slot's lifetime, and once a probe
        has run, ``last_probe`` (wall-clock seconds) and ``probe_ok``
        report the most recent verdict."""
        members = set(self.ring.members)
        with self._fleet_lock:
            return [
                {
                    "shard": slot.index,
                    "state": slot.state,
                    "restarts": slot.restarts,
                    "in_ring": slot.index in members,
                    "probe_failures": slot.probe_failures,
                    # "pipe" still labels the local lane (a socketpair
                    # to a child process) in the stats schema
                    "transport": "pipe" if self._local else "socket",
                    **(
                        {"address": slot.address}
                        if slot.address is not None
                        else {}
                    ),
                    **(
                        {
                            "last_probe": slot.last_probe,
                            "probe_ok": slot.probe_ok,
                        }
                        if slot.last_probe is not None
                        else {}
                    ),
                }
                for slot in self._slots
            ]

    # ------------------------------------------------------------------
    def shard_of(self, graph: CSRGraph) -> int:
        """The shard a graph's traffic routes to (stable across runs
        *and* across shard restarts, for a given ring epoch)."""
        return self.ring.owner(graph_digest(graph))

    def _route(self, request) -> tuple[int, str]:
        """``(shard, digest)``: the digest a request names — a
        digest-only request carries it, any other request its graph —
        and the ring owner it routes to."""
        digest = (
            request.graph_digest
            if request.graph is None
            else graph_digest(request.graph)
        )
        return self.ring.owner(digest), digest

    def _mark(self, result: JobResult, shard: int) -> JobResult:
        result.shard = shard
        return result

    def _up_members(self) -> set[int]:
        """Ring members whose slot is up.  Read under the fleet lock and
        never inside the load lock, which stays a leaf."""
        with self._fleet_lock:
            up = {slot.index for slot in self._slots if slot.state == "up"}
        return up & set(self.ring.members)

    def _claim(
        self, owner: int, digest: Optional[str] = None,
        key: Optional[str] = None, seed_key: Optional[tuple] = None,
    ) -> int:
        """Count one GA call in flight and return the slot it goes to.

        A call given only ``owner`` is pinned there.  A miss given its
        ``digest`` and cache ``key`` goes to the first of: the slot
        already running ``key``, whose scheduler joins the two; the
        slot that answered ``key`` before, whose cache holds it; for a
        ``warm_start`` miss (given its ``seed_key``), the slot holding
        the best warm seed, or the owner; else the first member of the
        digest's ring preference order under the bounded-load cap, or
        the owner.  A remembered slot that is not up gives way to the
        owner."""
        preference = self.ring.preference(digest) if digest else ()
        up = self._up_members() if preference else set()
        with self._load_lock:
            running = self._inflight_keys.get(key)
            if running is not None:
                shard = running[0]
                running[1] += 1
            elif preference:
                shard = self._homes.get(key)
                if shard is None and seed_key is not None:
                    best = self._best_seed.get(seed_key)
                    shard = owner if best is None else best[1]
                if shard is None:
                    m = sum(self._inflight.values()) + 1
                    cap = math.ceil(
                        (1 + PLACEMENT_EPSILON) * m / len(preference)
                    )
                    shard = next(
                        (
                            s for s in preference
                            if (s == owner or s in up)
                            and self._inflight.get(s, 0) < cap
                        ),
                        owner,
                    )
                elif shard not in up:
                    shard = owner
                self._inflight_keys[key] = [shard, 1]
            else:
                shard = owner
            self._inflight[shard] = self._inflight.get(shard, 0) + 1
        return shard

    def _release(self, shard: int, key: Optional[str] = None) -> None:
        """Undo :meth:`_claim` once the call has ended, however it
        ended."""
        with self._load_lock:
            self._inflight[shard] -= 1
            running = self._inflight_keys.get(key)
            if running is not None:
                running[1] -= 1
                if not running[1]:
                    del self._inflight_keys[key]

    def _note_answer(
        self, request, digest: str, key: str, shard: int, result: JobResult
    ) -> None:
        """Remember that ``shard`` answered ``key``, and whether its
        answer is now the best warm seed of its (graph, k, fitness): a
        shard keeps an answer as its seed when it beats the one it
        holds, as :class:`PartitionService` does."""
        with self._load_lock:
            _remember(self._homes, key, shard)
            if isinstance(request, (PartitionRequest, RefineRequest)):
                seed_key = (digest, request.n_parts, request.fitness_kind)
                best = self._best_seed.get(seed_key)
                if best is None or result.fitness > best[0]:
                    best = (result.fitness, shard)
                _remember(self._best_seed, seed_key, best)

    def held_answer(self, request) -> Optional[JobResult]:
        """The answer the front holds for ``request``, served as
        :meth:`submit` serves a front hit; ``None``, counting nothing,
        when it holds none.

        Only leaf locks are taken (the answer LRU, the registry, the
        span ring) and no I/O is done, so the event-loop front calls
        this on its loop thread for a digest-only request, and sends the
        request to its worker pool, where :meth:`submit` places the
        miss, only when this returns ``None``.  A tracer that writes a
        JSONL file would write it here, so with one configured this
        returns ``None`` and :meth:`submit` serves the hit instead."""
        self._check_open()
        if self.tracer.jsonl_path is not None:
            return None
        t0 = time.perf_counter()
        owner, digest = self._route(request)
        key = request_key(request, digest=digest)
        return self._held(
            request, owner, key, t0, request.trace, count_miss=False
        )

    def _held(
        self, request, owner: int, key: str, t0: float, trace,
        count_miss: bool = True,
    ) -> Optional[JobResult]:
        """Serve ``key``'s answer from the front LRU: a ``cache_hit``
        copy marked with the ring owner, counted as a request here,
        since no shard sees it, and spanned as ``front.submit`` under
        ``trace`` (:data:`NULL_SPAN`: not spanned); ``None`` on a
        miss."""
        cached = self._answers.lookup(key, count_miss)
        if cached is None:
            return None
        endpoint = (
            "refine" if isinstance(request, RefineRequest) else "partition"
        )
        cached.latency_s = time.perf_counter() - t0
        self.registry.inc("repro_requests_total", endpoint=endpoint)
        self.registry.observe(
            "repro_request_latency_ms", cached.latency_s * 1e3,
            endpoint=endpoint,
        )
        self.tracer.emit(
            "front.submit", parent=trace, duration_s=cached.latency_s,
            attrs={"endpoint": "partition", "shard": owner, "owner": owner,
                   "cache_hit": True},
        )
        return self._mark(cached, owner)

    # -- verbs ---------------------------------------------------------
    def submit(self, request) -> JobResult:
        """A front hit is marked with the ring owner; a miss is placed
        by bounded load (a ``warm_start`` miss runs where the best warm
        seed is) and marked with the shard that ran it."""
        self._check_open()
        t0 = time.perf_counter()
        owner, digest = self._route(request)
        key = request_key(request, digest=digest)
        held = self._held(request, owner, key, t0, request.trace)
        if held is not None:
            return held
        span = self.tracer.start(
            "front.submit", parent=request.trace,
            attrs={"endpoint": "partition", "shard": owner, "owner": owner},
        )
        with span:
            seed_key = (
                (digest, request.n_parts, request.fitness_kind)
                if getattr(request, "warm_start", False) else None
            )
            shard = self._claim(owner, digest, key, seed_key)
            self.registry.inc(
                "repro_placements_total",
                placement="owner" if shard == owner else "spill",
            )
            span.set(shard=shard)
            try:
                result = self._traced_call(span, shard, "submit", request)
                self._answers.store(key, result)
                self._note_answer(request, digest, key, shard, result)
            finally:
                self._release(shard, key)
            span.set(cache_hit=result.cache_hit)
        return self._mark(result, shard)

    def submit_many(self, requests: Sequence) -> list[JobResult]:
        """Batch submission: answers the front holds are filled in
        first; the rest split by shard, each sub-batch keeps its
        relative order (so per-shard coalescing behaves as in a single
        process), and sub-batches run concurrently."""
        self._check_open()
        results: list[Optional[JobResult]] = [None] * len(requests)
        keys: list[str] = [""] * len(requests)
        digests: list[str] = [""] * len(requests)
        by_shard: dict[int, list[int]] = {}
        for i, request in enumerate(requests):
            t0 = time.perf_counter()
            shard, digests[i] = self._route(request)
            keys[i] = request_key(request, digest=digests[i])
            results[i] = self._held(request, shard, keys[i], t0, NULL_SPAN)
            if results[i] is None:
                by_shard.setdefault(shard, []).append(i)

        span = self.tracer.start(
            "front.submit_many",
            attrs={"endpoint": "refine_batch", "n_requests": len(requests)},
        )

        def run_shard(shard: int, members: list[int]) -> None:
            batch = [requests[i] for i in members]
            # one shard stacks a refine group into one lockstep climb,
            # so a sub-batch stays on its owner
            out = self._pinned_call(span, shard, "submit_many", batch)
            for i, result in zip(members, out):
                self._answers.store(keys[i], result)
                self._note_answer(
                    requests[i], digests[i], keys[i], shard, result
                )
                results[i] = self._mark(result, shard)

        with span:
            if len(by_shard) == 1:
                ((shard, members),) = by_shard.items()
                run_shard(shard, members)
            elif by_shard:
                with ThreadPoolExecutor(max_workers=len(by_shard)) as fan:
                    futures = [
                        fan.submit(run_shard, shard, members)
                        for shard, members in by_shard.items()
                    ]
                    for future in futures:
                        future.result()
        return results  # type: ignore[return-value]

    def open_session(self, graph: CSRGraph, n_parts: int, **kwargs) -> JobResult:
        self._check_open()
        digest = graph_digest(graph)
        shard = self.ring.owner(digest)
        span = self.tracer.start(
            "front.open_session", parent=kwargs.get("trace"),
            attrs={"endpoint": "open_session", "shard": shard},
        )
        with span:
            result = self._pinned_call(
                span, shard, "open_session", graph, int(n_parts), kwargs
            )
            span.set(session_id=result.session_id)
        with self._session_lock:
            self._session_shard[result.session_id] = shard
            # remember the opening digest: a later ring change uses it
            # to compute the session's new owner for the warm handoff
            self._session_digest[result.session_id] = digest
        self.registry.inc("repro_sessions_routed_total")
        return self._mark(result, shard)

    def update_session(self, request: UpdateRequest) -> JobResult:
        self._check_open()
        shard = self._session_route(request.session_id)
        span = self.tracer.start(
            "front.update_session", parent=request.trace,
            attrs={"endpoint": "update_session", "shard": shard,
                   "session_id": request.session_id},
        )
        with span:
            result = self._pinned_call(
                span, shard, "update_session", request
            )
        return self._mark(result, shard)

    def close_session(self, session_id: str) -> dict:
        self._check_open()
        shard = self._session_route(session_id)
        summary = self._call(shard, "close_session", session_id)
        with self._session_lock:
            self._session_shard.pop(session_id, None)
            self._session_digest.pop(session_id, None)
        return summary

    def stats(self) -> dict:
        """The ``/v1/stats`` view of the fleet's :meth:`metrics`
        snapshot (:func:`~repro.obs.metrics.stats_view`), plus
        ``n_shards``, ``shards_reporting`` and :meth:`ring_status`."""
        snap = self.metrics()
        return dict(
            stats_view(snap),
            n_shards=snap["n_shards"],
            shards_reporting=snap["shards_reporting"],
            **self.ring_status(),
        )

    def metrics(self) -> dict:
        """One :data:`~repro.obs.metrics.METRICS_SCHEMA` snapshot for
        the fleet: every reachable shard's registry merged with the
        front's own (answer cache, supervision and placement metrics),
        plus the per-endpoint ``latency_ms`` digest.  Shards that are
        down mid-crash are skipped and counted in ``shards_reporting``."""
        self._check_open()
        snapshots = []
        for entry in self.shard_health():
            # never enter the restart wait (or a reconnect) from here:
            # an operator polling the front mid-crash must get an answer
            # now, not one stalled for up to restart_wait_s per shard
            try:
                handle = self._shard_handle(entry["shard"], wait=False)
                snapshots.append(handle.call("metrics"))
            except ShardDiedError:
                continue
        reporting = len(snapshots)
        snapshots.append(self.registry.snapshot())
        merged = merge_snapshots(snapshots)
        merged["latency_ms"] = latency_digest(merged)
        merged["n_shards"] = self.n_shards
        merged["shards_reporting"] = reporting
        return merged

    def _session_route(self, session_id: str) -> int:
        deadline = time.monotonic() + self._restart_wait_s
        with self._session_lock:
            # a session mid-handoff has two copies in flight; routing
            # waits the move out (bounded) so the request lands on
            # exactly one owner — never on the losing side of the move
            while session_id in self._moving:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardDiedError(
                        f"session {session_id!r} still handing off after "
                        f"{self._restart_wait_s:.1f}s"
                    )
                self._session_cond.wait(remaining)
            shard = self._session_shard.get(session_id)
        if shard is None:
            raise UnknownSession(f"unknown session {session_id!r}")
        return shard

    # -- health probes (PR 10) -----------------------------------------
    def _probe_loop(self) -> None:
        interval = self.config.probe_interval_s
        while not self._probe_stop.wait(interval):
            if self._closed:
                break
            try:
                self.probe_shards()
            # repro: allow[BROAD-EXCEPT] — the probe loop must outlive any
            # single failed pass; the next tick retries
            except Exception as exc:
                _LOG.warning(
                    "shard probe pass failed",
                    extra={
                        "event": "probe_pass_failed",
                        "reason": f"{type(exc).__name__}: {exc}",
                    },
                )

    def probe_shards(self) -> list[dict]:
        """One health-probe pass over the fleet (the ``probe_interval_s``
        loop calls this; tests and operators may call it directly).

        Each live shard answers a ``ping`` on its control lane.  A shard
        that cannot answer is ejected from the ring (its keyspace reroutes to the survivors under a new epoch,
        and its sessions are adopted from their on-commit snapshots); a
        probe that finds an ejected shard answering again re-admits it
        and re-warms its regained keyspace.  A down *attached* shard is
        reconnected here instead of lazily on the next caller.  Slots
        mid-restart get no verdict — the supervisor owns them.  Returns
        the post-pass :meth:`shard_health` rows.
        """
        with self._fleet_lock:
            width = len(self._slots)
        for index in range(width):
            with self._fleet_lock:
                if self._closed or index >= len(self._slots):
                    break
                slot = self._slots[index]
                state, handle = slot.state, slot.handle
            if state == "removed":
                continue
            verdict: Optional[bool] = None
            if state == "up" and handle is not None:
                try:
                    handle.call("ping")
                    verdict = True
                except ShardDiedError:
                    verdict = False
            elif state == "down":
                if not self._local:
                    # probe-driven reattach: recover the remote shard
                    # now instead of taxing the next caller with it
                    try:
                        self._shard_handle(index)
                        verdict = True
                    except (ShardDiedError, ServiceError):
                        verdict = False
                else:
                    verdict = False
            # "starting"/"restarting": in flux — no verdict this pass
            if verdict is None:
                continue
            now = time.time()
            with self._fleet_lock:
                if index < len(self._slots):
                    probed = self._slots[index]
                    probed.last_probe = now
                    probed.probe_ok = verdict
                    if not verdict:
                        probed.probe_failures += 1
            if verdict:
                self._readmit_slot(index)
            else:
                self.registry.inc(
                    "repro_shard_probe_failures_total", shard=str(index)
                )
                self._eject_slot(index, reason="probe")
        return self.shard_health()

    def _eject_slot(self, index: int, reason: str) -> bool:
        """Take a slot out of the ring (new epoch; its keyspace reroutes
        to the surviving members).  Idempotent; refuses to empty the
        ring — with one member left, ejecting it would route nothing."""
        with self._fleet_lock:
            if self._closed:
                return False
            members = self.ring.members
            if index not in members or len(members) <= 1:
                return False
            version = self.ring.eject(index)
        self.registry.inc("repro_ring_changes_total")
        self.registry.inc("repro_shard_ejections_total", shard=str(index))
        _LOG.warning(
            "shard ejected from ring",
            extra={
                "event": "ring_eject",
                "shard": index,
                "epoch": version.epoch,
                "reason": reason,
            },
        )
        # the ejected shard's sessions keep answering: every committed
        # epoch is in its on-commit snapshot store, so the new ring
        # owners adopt them from there (degraded, still bit-identical)
        self._rebalance_sessions(dead={index})
        return True

    def _readmit_slot(self, index: int) -> bool:
        """Put a recovered slot back in the ring and re-warm it for the
        keyspace it regains.  Idempotent (a healthy member is a no-op,
        which is what every successful probe of it reports)."""
        with self._fleet_lock:
            if self._closed or index >= len(self._slots):
                return False
            slot = self._slots[index]
            if slot.state != "up" or index in self.ring.members:
                return False
            version = self.ring.readmit(index)
        self.registry.inc("repro_ring_changes_total")
        self.registry.inc("repro_shard_readmissions_total", shard=str(index))
        _LOG.info(
            "shard readmitted to ring",
            extra={
                "event": "ring_readmit",
                "shard": index,
                "epoch": version.epoch,
            },
        )
        self._warm_slot(index)
        return True

    # -- elastic fleet admin (PR 10) -----------------------------------
    def ring_admin(
        self,
        action: str,
        n_shards: Optional[int] = None,
        shard: Optional[int] = None,
    ) -> dict:
        """The ``/v1/admin/ring`` verbs (also the ``ring`` CLI command):

        ``status``
            The ring descriptor plus :meth:`shard_health`.
        ``resize`` (``n_shards``) / ``add_shard`` / ``remove_shard``
            Change the width of a *local* fleet under traffic (see
            :meth:`resize`, :meth:`remove_shard`).
        ``eject`` / ``readmit`` (``shard``)
            Membership-only changes — what the health probes do
            automatically, exposed for operators (and the only resize
            lever an attached fleet has: its width is the address list).
        """
        self._check_open()
        action = str(action)
        if action == "status":
            return self.ring_status()
        if action == "resize":
            if n_shards is None:
                raise ServiceError("ring resize needs n_shards")
            return self.resize(n_shards)
        if action in ("add", "add_shard"):
            return self.add_shard()
        if action in ("remove", "remove_shard"):
            if shard is None:
                raise ServiceError("ring remove_shard needs shard")
            return self.remove_shard(shard)
        if action in ("eject", "readmit"):
            if shard is None:
                raise ServiceError(f"ring {action} needs shard")
            index = int(shard)
            with self._fleet_lock:
                if not 0 <= index < len(self._slots):
                    raise ServiceError(
                        f"no shard {index} (fleet width {len(self._slots)})"
                    )
            if action == "eject":
                changed = self._eject_slot(index, reason="admin")
            else:
                try:
                    self._shard_handle(index)  # reconnect/wait first
                except ShardDiedError as exc:
                    raise ServiceError(
                        f"cannot readmit shard {index}: {exc}"
                    ) from exc
                changed = self._readmit_slot(index)
            out = self.ring_status()
            out["action"] = action
            out["changed"] = changed
            return out
        raise ServiceError(
            f"unknown ring action {action!r} (expected status, resize, "
            "add_shard, remove_shard, eject, or readmit)"
        )

    def ring_status(self) -> dict:
        return {"ring": self.ring.describe(), "health": self.shard_health()}

    def resize(self, n_shards: int) -> dict:
        """Grow or shrink a local fleet to ``n_shards`` slots, live.

        Growing spawns the new shard workers, bumps the ring epoch (the
        remap moves only the minimal ~``(n-current)/n`` share of the
        keyspace), hands sessions whose owner changed to their new
        shards warm (drain-snapshot → adopt → release), and re-warms
        every member's newly owned keys from the other shards' result
        journals.  Shrinking is the mirror image: the leaving slots'
        sessions and journals are handed to the survivors before their
        workers shut down.  Serialized against other admin operations;
        answers under the new topology are bit-identical to the old one
        (same code, same seeds — only *where* is different)."""
        if not self._local:
            raise ServiceError(
                "resize needs local shards — an attached fleet's width is "
                "its address list; use eject/readmit for membership"
            )
        n = int(n_shards)
        if n < 1:
            raise ServiceError(f"n_shards must be >= 1, got {n}")
        self._admin_claim()
        try:
            current = len(self._slots)
            if n == current:
                out = self.ring_status()
                out["action"] = "resize"
                out["changed"] = False
                return out
            summary = self._grow(n) if n > current else self._shrink(n)
            summary["action"] = "resize"
            return summary
        finally:
            self._admin_release()

    def add_shard(self) -> dict:
        """Grow the fleet by one slot (``resize(width + 1)``)."""
        return self.resize(len(self._slots) + 1)

    def remove_shard(self, index: int) -> dict:
        """Retire one slot permanently: hand its sessions to the ring
        survivors, eject it, and shut its worker down.  Unlike a probe
        eject, a removed slot is never re-admitted (state ``removed``;
        the fleet width keeps counting it so slot indices stay stable)."""
        index = int(index)
        self._admin_claim()
        try:
            with self._fleet_lock:
                if not 0 <= index < len(self._slots):
                    raise ServiceError(
                        f"no shard {index} (fleet width {len(self._slots)})"
                    )
                slot = self._slots[index]
                if slot.state == "removed":
                    raise ServiceError(f"shard {index} was already removed")
                alive = slot.state == "up"
                version = self.ring.eject(index)  # raises on last member
            self.registry.inc("repro_ring_changes_total")
            self.registry.inc(
                "repro_shard_ejections_total", shard=str(index)
            )
            _LOG.info(
                "shard leaving fleet",
                extra={
                    "event": "ring_remove",
                    "shard": index,
                    "epoch": version.epoch,
                },
            )
            if alive:
                try:
                    self._call(index, "prepare_handoff", None)
                except (ShardDiedError, ServiceError):
                    pass
            warmed = self._warm_members()
            moved = self._rebalance_sessions(
                force={index}, dead=set() if alive else {index}
            )
            with self._fleet_lock:
                handle = slot.handle
                slot.handle = None
                slot.state = "removed"
                self._fleet_cond.notify_all()
            if handle is not None:
                handle.closing = True
                handle.shutdown()
            return {
                "action": "remove_shard",
                "shard": index,
                "changed": True,
                "sessions_moved": moved,
                "results_warmed": warmed,
                "ring": self.ring.describe(),
            }
        finally:
            self._admin_release()

    def _admin_claim(self) -> None:
        """Serialize topology changes with a flag, not a held lock — a
        resize spends seconds in blocking shard RPCs, and holding a lock
        across those would both stall the fleet and trip the lock-order
        analysis (LOCK-HELD-BLOCKING) for no benefit."""
        with self._fleet_lock:
            self._check_open()
            if self._admin_busy:
                raise ServiceError(
                    "another ring admin operation is in progress"
                )
            self._admin_busy = True

    def _admin_release(self) -> None:
        with self._fleet_lock:
            self._admin_busy = False

    def _grow(self, n: int) -> dict:
        current = len(self._slots)
        spawned = list(range(current, n))
        failed: list[int] = []
        # spawn context, not fork: caller threads are live (same
        # reasoning as _restart_slot); answer bits do not depend on it
        ctx = multiprocessing.get_context("spawn")
        with self._fleet_lock:
            for index in spawned:
                self._slots.append(_ShardSlot(index))
        for index in spawned:
            try:
                handle = self._spawn_local(index, ctx=ctx)
            # repro: allow[BROAD-EXCEPT] — one slot failing to spawn must
            # not abort the grow: it is marked down and left out of the ring
            except Exception as exc:
                failed.append(index)
                with self._fleet_lock:
                    self._slots[index].state = "down"
                    self._fleet_cond.notify_all()
                _LOG.error(
                    "new shard failed to spawn",
                    extra={
                        "event": "shard_spawn_failed",
                        "shard": index,
                        "reason": f"{type(exc).__name__}: {exc}",
                    },
                )
                continue
            # a durable snapshot dir may hand the new slot old sessions
            sessions: list = []
            try:
                sessions = handle.call("list_sessions")
            except (ShardDiedError, ServiceError):
                pass
            with self._fleet_lock:
                slot = self._slots[index]
                slot.handle = handle
                slot.state = "up"
                self._fleet_cond.notify_all()
            with self._session_lock:
                for session_id in sessions:
                    self._session_shard.setdefault(session_id, index)
        self._flush_members()  # complete journals before anyone warms
        with self._fleet_lock:
            version = self.ring.resize(n)
            for index in failed:
                try:
                    version = self.ring.eject(index)
                except ServiceError:
                    pass
            self.n_shards = n
        self.registry.inc("repro_ring_changes_total")
        _LOG.info(
            "fleet grown",
            extra={
                "event": "ring_resize",
                "width": n,
                "epoch": version.epoch,
            },
        )
        warmed = self._warm_members()
        moved = self._rebalance_sessions()
        return {
            "ring": self.ring.describe(),
            "changed": True,
            "spawned": spawned,
            "failed": failed,
            "sessions_moved": moved,
            "results_warmed": warmed,
        }

    def _shrink(self, n: int) -> dict:
        current = len(self._slots)
        leaving = list(range(n, current))
        self._flush_members()  # leaving journals must be complete
        with self._fleet_lock:
            version = self.ring.resize(n)
            self.n_shards = n
            dead = {i for i in leaving if self._slots[i].state != "up"}
        self.registry.inc("repro_ring_changes_total")
        _LOG.info(
            "fleet shrinking",
            extra={
                "event": "ring_resize",
                "width": n,
                "epoch": version.epoch,
            },
        )
        warmed = self._warm_members()
        moved = self._rebalance_sessions(force=set(leaving), dead=dead)
        with self._fleet_lock:
            retired = self._slots[n:]
            del self._slots[n:]
            self._fleet_cond.notify_all()
        for slot in retired:
            slot.state = "removed"
            handle = slot.handle
            slot.handle = None
            if handle is not None:
                handle.closing = True
                handle.shutdown()
        return {
            "ring": self.ring.describe(),
            "changed": True,
            "retired": leaving,
            "sessions_moved": moved,
            "results_warmed": warmed,
        }

    # -- handoff + warm plumbing (PR 10) -------------------------------
    def _shard_dir(self, index: int) -> Optional[str]:
        if self._snapshot_base is None:
            return None
        return os.path.join(self._snapshot_base, f"shard-{index}")

    def _flush_members(self) -> None:
        """Flush every live member's snapshots + result journal (the
        ``prepare_handoff`` verb with no session list) so adopters and
        warmers read complete state.  Best-effort: a dead member is
        skipped — its on-commit snapshots still serve."""
        for index in list(self.ring.members):
            try:
                self._shard_handle(index, wait=False).call(
                    "prepare_handoff", None
                )
            except (ShardDiedError, ServiceError):
                continue

    def _warm_members(self) -> int:
        warmed = 0
        for index in list(self.ring.members):
            warmed += self._warm_slot(index)
        return warmed

    def _warm_slot(self, index: int) -> int:
        """Re-warm one member from the *other* shards' result journals,
        filtered to the keys the current ring assigns it — the step that
        keeps the warm-hit rate intact across a remap.  Best-effort: a
        shard that cannot answer simply stays cold for its newly owned
        keys."""
        if self._snapshot_base is None:
            return 0
        with self._fleet_lock:
            width = len(self._slots)
        dirs = [
            d
            for j in range(width)
            if j != index
            for d in [self._shard_dir(j)]
            if d is not None and os.path.isdir(d)
        ]
        if not dirs:
            return 0
        try:
            return int(
                self._shard_handle(index, wait=False).call(
                    "warm_from", dirs, self.ring.describe(), index
                )
            )
        except (ShardDiedError, ServiceError):
            return 0

    def _rebalance_sessions(
        self,
        force: frozenset = frozenset(),
        dead: frozenset = frozenset(),
    ) -> list[str]:
        """Move sessions to their ring owners after a topology change.

        Sessions opened through this front move when the ring says their
        opening digest belongs elsewhere; sessions *discovered* (attach,
        durable restore — no recorded digest) stay sticky unless their
        shard is in ``force`` (leaving the fleet), in which case they
        move keyed by session id.  ``dead`` shards get no drain/release
        RPCs — their on-commit snapshots are adopted as-is."""
        if self._snapshot_base is None or not self._local:
            return []
        with self._session_lock:
            routed = dict(self._session_shard)
            digests = dict(self._session_digest)
        moved = []
        for session_id, current in routed.items():
            key = digests.get(session_id)
            if key is None:
                if current not in force and current not in dead:
                    continue
                key = session_id
            target = self.ring.owner(key)
            if target == current:
                continue
            if self._move_session(
                session_id, current, target, prepare=current not in dead
            ):
                moved.append(session_id)
        return moved

    def _move_session(
        self, session_id: str, src: int, dst: int, prepare: bool = True
    ) -> bool:
        """Hand one session from ``src`` to ``dst`` warm: drain-snapshot
        on the old owner (unless it is dead), adopt on the new owner
        from the old owner's store, then release the old copy.  Routing
        for the session waits the move out (``_moving``), so no request
        can land on the losing side; the adopted partitioner resumes at
        the last committed epoch, so retried updates are bit-identical."""
        src_dir = self._shard_dir(src)
        if src_dir is None:
            return False
        with self._session_lock:
            if (
                self._session_shard.get(session_id) != src
                or session_id in self._moving
            ):
                return False
            self._moving.add(session_id)
        try:
            if prepare:
                try:
                    self._call(src, "prepare_handoff", [session_id])
                except (ShardDiedError, ServiceError) as exc:
                    # fall back to the on-commit snapshot — every
                    # committed epoch is already in the store
                    _LOG.warning(
                        "handoff drain failed; adopting on-commit state",
                        extra={
                            "event": "handoff_drain_failed",
                            "session_id": session_id,
                            "shard": src,
                            "reason": str(exc),
                        },
                    )
            try:
                adopted = self._call(
                    dst, "adopt_sessions", src_dir, [session_id]
                )
            except (ShardDiedError, ServiceError) as exc:
                _LOG.warning(
                    "session adoption failed; session stays put",
                    extra={
                        "event": "handoff_adopt_failed",
                        "session_id": session_id,
                        "shard": dst,
                        "reason": str(exc),
                    },
                )
                return False
            if session_id not in (adopted or []):
                return False
            with self._session_lock:
                self._session_shard[session_id] = dst
            released = False
            if prepare:
                try:
                    self._call(src, "release_sessions", [session_id])
                    released = True
                except (ShardDiedError, ServiceError):
                    pass
            if not released:
                # the old owner could not drop its copy (dead, or the
                # call failed): delete its snapshot front-side so a
                # restart there cannot resurrect a second live copy
                self._forget_snapshot(src_dir, session_id)
            self.registry.inc("repro_sessions_handed_off_total")
            _LOG.info(
                "session handed off",
                extra={
                    "event": "session_handoff",
                    "session_id": session_id,
                    "from_shard": src,
                    "to_shard": dst,
                    "epoch": self.ring.epoch,
                },
            )
            return True
        finally:
            with self._session_lock:
                self._moving.discard(session_id)
                self._session_cond.notify_all()

    @staticmethod
    def _forget_snapshot(src_dir: str, session_id: str) -> None:
        from .persistence import SnapshotStore

        try:
            SnapshotStore(src_dir).delete(session_id)
        except (OSError, ServiceError):
            pass

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._probe_stop.set()
        with self._fleet_lock:
            if self._closed:
                return
            self._closed = True
            handles = [s.handle for s in self._slots if s.handle is not None]
            for handle in handles:
                handle.closing = True
            restarts = [
                s.restart_thread
                for s in self._slots
                if s.restart_thread is not None
            ]
            self._fleet_cond.notify_all()
        # wait out in-flight restarts first: a replacement shard spawned
        # mid-close must be fully shut down (the restart thread does it
        # once it sees _closed) before the snapshot tempdir is removed,
        # or the child would recreate directories under our feet
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=10.0)
        for thread in restarts:
            thread.join(timeout=60.0)
        for handle in handles:
            handle.shutdown()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
        self.tracer.close()

    def __enter__(self) -> "ShardedPartitionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")
