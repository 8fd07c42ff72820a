"""Content-addressed caching for the partition service.

Identity in the service is *content*: a graph is named by the digest of
its CSR arrays (:func:`graph_digest`), a request by the digest of its
graph plus every parameter that affects the answer
(:func:`request_key`), and a population row by
:func:`repro.ga.evaluation.hash_rows` — the same hash function the GA's
evaluator memo uses, so a row and a cached service result agree on
identity by construction.

Four stores hang off those names:

* :class:`LRUBytesCache` — a generic thread-safe LRU bounded by a byte
  budget, with hit/miss/eviction counters.
* :class:`ResultCache` — an :class:`LRUBytesCache` of answers under
  one copy rule: stored neutral, handed out as ``cache_hit`` copies.
  It is each service's result cache and the sharded front's answer
  cache.
* :class:`GraphStore` — interns :class:`CSRGraph` instances by digest,
  so repeated requests on the same graph (or a graph arriving again
  over the wire) reuse one CSR build along with its memoized strength
  table and unit-weight flags instead of re-deriving them per request.
  Interning also pre-warms the strength table — it is on every hot
  path (KNUX bias, hill-climb gains).
* warm seed partitions — the best assignment the service has computed
  per ``(graph, k, fitness)``, offered to ``warm_start`` requests so
  near-duplicate traffic starts from a good solution instead of cold.

:class:`ShippedLRU` is the sending side of digest-first traffic: the
digests a sender has already shipped to one peer, so later requests
for the same graph carry the digest alone.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Optional

import numpy as np

from ..errors import ServiceError
from ..graphs.csr import CSRGraph
from .models import JobResult, PartitionRequest, RefineRequest

__all__ = [
    "graph_digest",
    "request_key",
    "LRUBytesCache",
    "ResultCache",
    "GraphStore",
    "ContentStore",
    "ShippedLRU",
]


def graph_digest(graph: CSRGraph) -> str:
    """Stable content digest of a graph (hex), memoised on the graph
    (see :meth:`~repro.graphs.csr.CSRGraph.content_digest`): two graphs
    share a digest iff they are ``==``."""
    return graph.content_digest()


def request_key(request, digest: Optional[str] = None) -> str:
    """Cache key of a request: graph digest + every answer-affecting
    parameter.  ``digest`` skips re-hashing an already-interned graph."""
    d = digest if digest is not None else graph_digest(request.graph)
    if isinstance(request, PartitionRequest):
        ga = (
            ""
            if request.ga is None
            else json.dumps(request.ga, sort_keys=True)
        )
        return (
            f"partition:{d}:k={request.n_parts}:f={request.fitness_kind}"
            f":m={request.method}:s={request.seed}:w={int(request.warm_start)}"
            f":t={request.time_budget}:ga={ga}"
        )
    if isinstance(request, RefineRequest):
        a = hashlib.blake2b(
            np.ascontiguousarray(request.assignment, dtype=np.int64).tobytes(),
            digest_size=16,
        ).hexdigest()
        return (
            f"refine:{d}:k={request.n_parts}:f={request.fitness_kind}"
            f":p={request.passes}:a={a}"
        )
    raise ServiceError(
        f"cannot build a cache key for {type(request).__name__}"
    )


class LRUBytesCache:
    """Thread-safe LRU keyed by string, bounded by a byte budget.

    Values are opaque; the caller supplies each entry's size.  An entry
    larger than the whole budget is simply not stored (never an error —
    caching is an optimization, not a contract).
    """

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 0:
            raise ServiceError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, tuple[object, int]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str, count_miss: bool = True):
        """The cached value, or ``None`` (which is never a valid value).
        ``count_miss=False`` counts only a hit: a caller that will look
        the key up again on a miss counts that miss there."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if count_miss:
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: str, value, n_bytes: int) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old[1]
            if n_bytes > self.max_bytes:
                return
            self._entries[key] = (value, int(n_bytes))
            self.current_bytes += int(n_bytes)
            while self.current_bytes > self.max_bytes and self._entries:
                _, (_, size) = self._entries.popitem(last=False)
                self.current_bytes -= size
                self.evictions += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


def _graph_nbytes(graph: CSRGraph) -> int:
    total = (
        graph.edges_u.nbytes
        + graph.edges_v.nbytes
        + graph.edge_weights.nbytes
        + graph.node_weights.nbytes
        + graph.indptr.nbytes
        + graph.indices.nbytes
        + graph.adj_weights.nbytes
        + graph.adj_edge_ids.nbytes
    )
    if graph.coords is not None:
        total += graph.coords.nbytes
    return total


class GraphStore:
    """Interns graphs by content digest and keeps warm seed partitions."""

    def __init__(self, max_bytes: int, max_seeds: int = 256) -> None:
        self._graphs = LRUBytesCache(max_bytes)
        self._seeds_lock = threading.Lock()
        self._seeds: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.max_seeds = int(max_seeds)

    def intern(self, graph: CSRGraph) -> tuple[str, CSRGraph]:
        """``(digest, canonical_graph)`` — the returned graph is the
        store's resident instance when one exists, so its lazily-built
        strength table and unit-weight flags are shared by every request
        that names the same content."""
        digest = graph_digest(graph)
        resident = self._graphs.get(digest)
        if resident is not None:
            return digest, resident
        graph.node_strengths()  # pre-warm: shared by every hot path
        graph.has_unit_edge_weights()
        self._graphs.put(digest, graph, _graph_nbytes(graph))
        return digest, graph

    def lookup(self, digest: str) -> Optional[CSRGraph]:
        """The resident graph named by ``digest``, or ``None``.  Never
        builds a graph: this is how a digest-only request finds its
        graph."""
        return self._graphs.get(digest)

    # -- warm seed partitions ------------------------------------------
    @staticmethod
    def _seed_key(digest: str, n_parts: int, fitness_kind: str) -> str:
        return f"{digest}:k={n_parts}:f={fitness_kind}"

    def warm_seed(
        self, digest: str, n_parts: int, fitness_kind: str
    ) -> Optional[np.ndarray]:
        key = self._seed_key(digest, n_parts, fitness_kind)
        with self._seeds_lock:
            entry = self._seeds.get(key)
            if entry is not None:
                self._seeds.move_to_end(key)
                return np.array(entry[0], copy=True)
            return None

    def seed_fitness(
        self, digest: str, n_parts: int, fitness_kind: str
    ) -> Optional[float]:
        """Fitness the stored warm seed had when it was stored — kept
        alongside the assignment so "is this result better than the
        seed?" is a float comparison, not a fresh O(edges) evaluation
        on the serving path."""
        key = self._seed_key(digest, n_parts, fitness_kind)
        with self._seeds_lock:
            entry = self._seeds.get(key)
            return None if entry is None else entry[1]

    def store_seed_if_better(
        self,
        digest: str,
        n_parts: int,
        fitness_kind: str,
        assignment: np.ndarray,
        fitness: float,
    ) -> bool:
        """Atomically keep the better of (stored seed, this one).

        Check and store happen under one lock acquisition, so two
        workers publishing results for the same (graph, k, fitness)
        concurrently can never let the worse seed win the race."""
        key = self._seed_key(digest, n_parts, fitness_kind)
        fitness = float(fitness)
        with self._seeds_lock:
            entry = self._seeds.get(key)
            if entry is not None and entry[1] >= fitness:
                return False
            self._seeds[key] = (
                np.array(assignment, dtype=np.int64, copy=True),
                fitness,
            )
            self._seeds.move_to_end(key)
            while len(self._seeds) > self.max_seeds:
                self._seeds.popitem(last=False)
            return True

    def stats(self) -> dict:
        stats = self._graphs.stats()
        with self._seeds_lock:
            stats["warm_seeds"] = len(self._seeds)
        return stats


def _result_nbytes(result: JobResult) -> int:
    return int(np.asarray(result.assignment).nbytes) + 256


class ResultCache(LRUBytesCache):
    """An LRU of answers keyed by :func:`request_key`.

    It stores a neutral copy: the hit, coalesced and latency flags
    describe the request being served, not the one that filled the
    cache, and trace spans belong to the request that recorded them.
    Every hit is a fresh ``cache_hit`` copy the caller may mutate.
    """

    def lookup(
        self, key: str, count_miss: bool = True
    ) -> Optional[JobResult]:
        """A *copy* of the cached result (caller owns mutation flags)."""
        cached = self.get(key, count_miss)
        if cached is None:
            return None
        return cached.replace(cache_hit=True)

    def store(self, key: str, result: JobResult) -> None:
        neutral = result.replace(
            cache_hit=False, coalesced=False, latency_s=0.0, spans=None
        )
        self.put(key, neutral, _result_nbytes(neutral))


class ContentStore:
    """The service's cache plane: results + interned graphs + warm seeds.

    ``cache_bytes`` is split between the result cache and the graph
    store (half each) — both are LRU, so hot traffic keeps what it
    uses.
    """

    def __init__(self, cache_bytes: int = 64 << 20, max_seeds: int = 256) -> None:
        if cache_bytes < 0:
            raise ServiceError(f"cache_bytes must be >= 0, got {cache_bytes}")
        self.results = ResultCache(cache_bytes // 2)
        self.graphs = GraphStore(cache_bytes - cache_bytes // 2, max_seeds)

    def lookup_result(
        self, key: str, count_miss: bool = True
    ) -> Optional[JobResult]:
        """A *copy* of the cached result (caller owns mutation flags)."""
        return self.results.lookup(key, count_miss)

    def store_result(self, key: str, result: JobResult) -> None:
        self.results.store(key, result)

    def stats(self) -> dict:
        return {
            "results": self.results.stats(),
            "graphs": self.graphs.stats(),
        }


class ShippedLRU:
    """The graph digests a sender has shipped to one peer (thread-safe).

    Bounded to ``capacity`` digests, least recently used out first.
    The peer keeps a bounded intern table too, so a digest this side
    forgets was likely dropped there as well, and a digest this side
    remembers wrongly costs one resend with the graph
    (:class:`~repro.errors.NeedsGraph`), never a wrong answer.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._digests: "OrderedDict[str, None]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._digests)

    def seen(self, digest: str) -> bool:
        """Whether ``digest`` was shipped (a hit counts as a use)."""
        with self._lock:
            if digest not in self._digests:
                return False
            self._digests.move_to_end(digest)
            return True

    def mark(self, digest: str) -> None:
        """Record that the peer now holds ``digest``."""
        with self._lock:
            self._digests[digest] = None
            self._digests.move_to_end(digest)
            while len(self._digests) > self.capacity:
                self._digests.popitem(last=False)
