"""Typed request/response model of the partition service.

Every operation the service performs is described by one of three
request objects — :class:`PartitionRequest` (one-shot partition of a
graph, including the method-portfolio mode), :class:`RefineRequest`
(hill-climb an existing assignment), and :class:`UpdateRequest` (an
incremental step of an open streaming session) — and answered by a
:class:`JobResult`.  All four have a lossless JSON payload form
(``to_payload`` / ``from_payload``), which is simultaneously the HTTP
wire format and what the content-addressed result cache stores, so a
cached answer and a fresh one are literally the same bytes.

Graphs travel either as the JSON payload of
:func:`repro.graphs.io.graph_to_payload` or as a METIS-format string
(parsed by the strict :func:`repro.graphs.io.parse_metis`); both arrive
as untrusted bytes over the endpoint and raise
:class:`~repro.errors.GraphFormatError` with a precise message when
malformed.

A :class:`PartitionRequest` may instead name its graph by
``graph_digest`` — the 32-hex :func:`~repro.service.cache.graph_digest`
the service routes and caches by — when the caller already shipped the
graph to that server.  The payload then carries ``"graph_digest"`` in
place of ``"graph"``; a graph-bearing payload is unchanged.  A server
that holds neither the answer nor the graph raises
:class:`~repro.errors.NeedsGraph` and the caller resends with the
graph.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..errors import ServiceError
from ..graphs.csr import CSRGraph
from ..graphs.io import graph_from_payload, graph_to_payload, parse_metis
from ..partition.partition import Partition

__all__ = [
    "PartitionRequest",
    "RefineRequest",
    "UpdateRequest",
    "JobResult",
    "FITNESS_KINDS",
    "SERVICE_METHODS",
    "graph_from_wire",
    "graph_to_wire",
    "result_from_partition",
    "error_to_wire",
    "error_from_wire",
]

FITNESS_KINDS = ("fitness1", "fitness2")

#: methods a PartitionRequest may name; "portfolio" races dknux against
#: the cheap baselines under the request's time budget
SERVICE_METHODS = (
    "dknux",
    "greedy",
    "rgb",
    "kl",
    "random",
    "rsb",
    "portfolio",
)


def graph_to_wire(graph: CSRGraph, arrays=None) -> dict:
    """The wire form of a graph (see :func:`graph_to_payload`).

    ``arrays`` is the binary shard lane's ndarray hook (``arrays(arr,
    dtype) -> reference``): when given, array fields carry references to
    raw buffers instead of JSON number lists.  Either form decodes
    through :func:`graph_from_payload` into the same graph, because its
    :class:`CSRGraph` constructor normalizes lists and ndarrays to the
    identical int64/float64 arrays.
    """
    if arrays is None:
        return graph_to_payload(graph)
    return {
        "n_nodes": graph.n_nodes,
        "edges_u": arrays(graph.edges_u, np.int64),
        "edges_v": arrays(graph.edges_v, np.int64),
        "edge_weights": arrays(graph.edge_weights, np.float64),
        "node_weights": arrays(graph.node_weights, np.float64),
        "coords": (
            None if graph.coords is None else arrays(graph.coords, np.float64)
        ),
    }


def graph_from_wire(obj: Union[dict, str]) -> CSRGraph:
    """Decode a wire-format graph: a JSON payload dict or METIS text."""
    if isinstance(obj, str):
        return parse_metis(obj)
    return graph_from_payload(obj)


def error_to_wire(exc: BaseException) -> dict:
    """JSON wire form of a service-side exception (class name + message).

    Exceptions cross the shard transport as data, never as pickled
    objects: the front reconstructs the library error class by
    name (see :func:`error_from_wire`), so a hostile or buggy shard can
    at worst produce a :class:`ServiceError` with an odd message."""
    return {"type": type(exc).__name__, "message": str(exc)}


def error_from_wire(obj: dict) -> Exception:
    """Reconstruct a wire-format error as a library exception.

    Known :class:`~repro.errors.ReproError` subclasses come back as
    themselves (they all take a single message argument); anything else
    degrades to :class:`ServiceError` carrying the original type name."""
    from .. import errors

    name = obj.get("type", "ServiceError") if isinstance(obj, dict) else ""
    message = obj.get("message", "") if isinstance(obj, dict) else repr(obj)
    cls = getattr(errors, str(name), None)
    if isinstance(cls, type) and issubclass(cls, errors.ReproError):
        try:
            return cls(message)
        # repro: allow[BROAD-EXCEPT] — an exotic ReproError constructor must
        # degrade to ServiceError below, not crash reply decoding
        except Exception:  # pragma: no cover - exotic constructor
            pass
    if name and name != "ServiceError":
        return ServiceError(f"{name}: {message}")
    return ServiceError(message)


def _require(payload: dict, key: str):
    try:
        return payload[key]
    except (KeyError, TypeError):
        raise ServiceError(f"request payload missing field {key!r}") from None


def _check_int(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ServiceError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ServiceError(f"{name} must be >= {minimum}, got {value}")
    return value


#: :func:`~repro.service.cache.graph_digest` output: blake2b-128, hex
_DIGEST_RE = re.compile(r"[0-9a-f]{32}")


def _check_digest(value) -> None:
    if not isinstance(value, str) or _DIGEST_RE.fullmatch(value) is None:
        raise ServiceError(
            "graph_digest must be a string of 32 lowercase hex "
            f"characters, got {value!r}"
        )


def _check_fitness(kind: str) -> str:
    if kind not in FITNESS_KINDS:
        raise ServiceError(
            f"fitness_kind must be one of {FITNESS_KINDS}, got {kind!r}"
        )
    return kind


def _check_ga_overrides(ga: Optional[dict]) -> Optional[dict]:
    if ga is None:
        return None
    if not isinstance(ga, dict) or not all(isinstance(k, str) for k in ga):
        raise ServiceError("ga overrides must be a {str: value} object")
    return dict(ga)


def _check_trace(trace: Optional[dict]) -> Optional[dict]:
    """Validate an optional trace context (``{"trace_id", "span_id"}``).

    Trace context is observational-only: it never reaches the cache key
    (:func:`repro.service.cache.request_key` hashes explicit answer
    fields), the GA seed, or shard routing, and ``to_payload`` omits it
    entirely when absent so tracing-off leaves the wire byte-identical.
    """
    if trace is None:
        return None
    if not isinstance(trace, dict) or not trace.get("trace_id"):
        raise ServiceError(
            "trace must be a {trace_id, span_id} object, got "
            f"{trace!r}"
        )
    return {
        "trace_id": str(trace["trace_id"]),
        "span_id": str(trace.get("span_id") or ""),
    }


@dataclass(frozen=True)
class PartitionRequest:
    """One-shot partition of ``graph`` into ``n_parts``.

    Exactly one of ``graph`` and ``graph_digest`` is set: a digest-only
    request (``PartitionRequest(None, k, graph_digest=d)``) names a
    graph the server already holds, and is answered from its result
    cache or its interned copy of that graph.

    ``method="portfolio"`` races DKNUX against the cheap baselines
    under ``time_budget`` seconds and returns the best result found.
    ``warm_start=True`` opts into seeding the GA from the service's
    cached warm partition for this (graph, k, fitness) — faster on
    near-duplicate traffic, but deliberately *not* the default because
    it makes the answer depend on cache history rather than only on the
    request (cold-run bit-identity is the default contract).
    ``ga`` holds :class:`~repro.ga.config.GAConfig` field overrides.
    """

    graph: Optional[CSRGraph]
    n_parts: int
    fitness_kind: str = "fitness1"
    method: str = "dknux"
    seed: int = 0
    warm_start: bool = False
    time_budget: Optional[float] = None
    ga: Optional[dict] = None
    #: optional trace context (observational-only; see _check_trace)
    trace: Optional[dict] = None
    #: the graph's content digest, sent in place of the graph
    graph_digest: Optional[str] = None

    kind = "partition"

    def __post_init__(self) -> None:
        if (self.graph is None) == (self.graph_digest is None):
            raise ServiceError(
                "a partition request carries exactly one of graph or "
                "graph_digest"
            )
        if self.graph_digest is not None:
            _check_digest(self.graph_digest)
        _check_int(self.n_parts, "n_parts", 1)
        _check_int(self.seed, "seed", 0)  # numpy rngs reject negatives
        _check_fitness(self.fitness_kind)
        if self.method not in SERVICE_METHODS:
            raise ServiceError(
                f"method must be one of {SERVICE_METHODS}, got {self.method!r}"
            )
        if self.time_budget is not None:
            if isinstance(self.time_budget, bool) or not isinstance(
                self.time_budget, (int, float)
            ):
                raise ServiceError(
                    f"time_budget must be a number, got {self.time_budget!r}"
                )
            # NaN would skip every leg's budget check as "exhausted", and
            # Infinity would compute what None computes under another key
            if not math.isfinite(self.time_budget) or self.time_budget <= 0:
                raise ServiceError(
                    "time_budget must be positive and finite, got "
                    f"{self.time_budget}"
                )
        _check_ga_overrides(self.ga)
        object.__setattr__(self, "trace", _check_trace(self.trace))

    def to_payload(self, arrays=None) -> dict:
        payload = {"kind": self.kind}
        if self.graph is None:
            payload["graph_digest"] = self.graph_digest
        else:
            payload["graph"] = graph_to_wire(self.graph, arrays=arrays)
        payload.update({
            "n_parts": int(self.n_parts),
            "fitness_kind": self.fitness_kind,
            "method": self.method,
            "seed": int(self.seed),
            "warm_start": bool(self.warm_start),
            "time_budget": self.time_budget,
            "ga": self.ga,
        })
        if self.trace is not None:  # absent key keeps wire bytes identical
            payload["trace"] = dict(self.trace)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "PartitionRequest":
        if isinstance(payload, dict) and "graph_digest" in payload:
            if "graph" in payload:
                raise ServiceError(
                    "a partition request carries exactly one of graph or "
                    "graph_digest, got both"
                )
            graph, digest = None, payload["graph_digest"]
        else:
            graph = graph_from_wire(_require(payload, "graph"))
            digest = None
        return cls(
            graph=graph,
            graph_digest=digest,
            n_parts=_check_int(_require(payload, "n_parts"), "n_parts", 1),
            fitness_kind=payload.get("fitness_kind", "fitness1"),
            method=payload.get("method", "dknux"),
            seed=_check_int(payload.get("seed", 0), "seed", 0),
            warm_start=bool(payload.get("warm_start", False)),
            time_budget=payload.get("time_budget"),
            ga=_check_ga_overrides(payload.get("ga")),
            trace=payload.get("trace"),
        )


@dataclass(frozen=True)
class RefineRequest:
    """Hill-climb an existing ``assignment`` on ``graph``.

    Refinement always runs the deterministic lockstep climb
    (:func:`repro.ga.batch_climb.climb_batch` in ascending scan order),
    which is what lets the scheduler coalesce concurrently queued
    refinements of the same (graph, k, fitness) into one batched climb
    whose per-row results are bit-identical to serial submission.
    """

    graph: CSRGraph
    n_parts: int
    assignment: np.ndarray
    fitness_kind: str = "fitness1"
    passes: int = 2
    #: optional trace context (observational-only; see _check_trace)
    trace: Optional[dict] = None

    kind = "refine"

    def __post_init__(self) -> None:
        _check_int(self.n_parts, "n_parts", 1)
        _check_fitness(self.fitness_kind)
        _check_int(self.passes, "passes", 1)
        arr = np.asarray(self.assignment, dtype=np.int64)
        if arr.ndim != 1 or arr.shape[0] != self.graph.n_nodes:
            raise ServiceError(
                f"assignment must have length {self.graph.n_nodes}, "
                f"got shape {arr.shape}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_parts):
            raise ServiceError(
                f"assignment labels out of range [0, {self.n_parts})"
            )
        object.__setattr__(self, "assignment", arr)
        object.__setattr__(self, "trace", _check_trace(self.trace))

    def to_payload(self, arrays=None) -> dict:
        payload = {
            "kind": self.kind,
            "graph": graph_to_wire(self.graph, arrays=arrays),
            "n_parts": int(self.n_parts),
            "assignment": (
                np.asarray(self.assignment).tolist()
                if arrays is None
                else arrays(self.assignment, np.int64)
            ),
            "fitness_kind": self.fitness_kind,
            "passes": int(self.passes),
        }
        if self.trace is not None:  # absent key keeps wire bytes identical
            payload["trace"] = dict(self.trace)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "RefineRequest":
        assignment = _require(payload, "assignment")
        if not isinstance(assignment, (list, tuple, np.ndarray)):
            raise ServiceError("assignment must be a list of part labels")
        return cls(
            graph=graph_from_wire(_require(payload, "graph")),
            n_parts=_check_int(_require(payload, "n_parts"), "n_parts", 1),
            assignment=np.asarray(assignment, dtype=np.int64),
            fitness_kind=payload.get("fitness_kind", "fitness1"),
            passes=_check_int(payload.get("passes", 2), "passes", 1),
            trace=payload.get("trace"),
        )


@dataclass(frozen=True)
class UpdateRequest:
    """One incremental step of an open session: the updated graph
    (old node ids preserved, new ids appended — the paper's adaptive
    refinement model)."""

    session_id: str
    graph: CSRGraph
    #: optional trace context (observational-only; see _check_trace)
    trace: Optional[dict] = None

    kind = "update"

    def __post_init__(self) -> None:
        if not isinstance(self.session_id, str) or not self.session_id:
            raise ServiceError("session_id must be a non-empty string")
        object.__setattr__(self, "trace", _check_trace(self.trace))

    def to_payload(self, arrays=None) -> dict:
        payload = {
            "kind": self.kind,
            "session_id": self.session_id,
            "graph": graph_to_wire(self.graph, arrays=arrays),
        }
        if self.trace is not None:  # absent key keeps wire bytes identical
            payload["trace"] = dict(self.trace)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "UpdateRequest":
        return cls(
            session_id=_require(payload, "session_id"),
            graph=graph_from_wire(_require(payload, "graph")),
            trace=payload.get("trace"),
        )


@dataclass
class JobResult:
    """Answer to any service request.

    ``cache_hit`` marks answers served from the content-addressed
    result cache; ``coalesced`` marks answers produced by a shared
    execution (joined in-flight duplicate or batched refine group);
    ``latency_s`` is the request's wall time inside the service.
    ``portfolio`` carries the per-method race table when the request
    ran in portfolio mode.  ``shard`` is the shard index that served
    the answer (``None`` outside sharded serving) — transport metadata,
    never part of the answer: the assignment and metrics are
    bit-identical across shard layouts.  ``executed_in`` is always
    ``""`` (every answer is computed on a worker thread); it stays in
    the payload so the wire schema is unchanged.  ``spans`` carries
    finished trace-span records when the request arrived with a trace
    context (how a remote shard ships its subtree back to the front) —
    observational-only, stripped before a result enters the cache.
    """

    assignment: np.ndarray
    n_parts: int
    cut_size: float
    max_part_cut: float
    balance_ratio: float
    part_sizes: list[int]
    method: str
    fitness: float = 0.0
    cache_hit: bool = False
    coalesced: bool = False
    latency_s: float = 0.0
    request_key: str = ""
    session_id: Optional[str] = None
    portfolio: Optional[list[dict]] = None
    executed_in: str = ""
    shard: Optional[int] = None
    spans: Optional[list[dict]] = None

    def to_payload(self, arrays=None) -> dict:
        payload = {
            "assignment": (
                np.asarray(self.assignment).tolist()
                if arrays is None
                else arrays(np.asarray(self.assignment), np.int64)
            ),
            "n_parts": int(self.n_parts),
            "cut_size": float(self.cut_size),
            "max_part_cut": float(self.max_part_cut),
            "balance_ratio": float(self.balance_ratio),
            "part_sizes": [int(s) for s in self.part_sizes],
            "method": self.method,
            "fitness": float(self.fitness),
            "cache_hit": bool(self.cache_hit),
            "coalesced": bool(self.coalesced),
            "latency_s": float(self.latency_s),
            "request_key": self.request_key,
            "session_id": self.session_id,
            "portfolio": self.portfolio,
            "executed_in": self.executed_in,
            "shard": self.shard,
        }
        if self.spans:  # absent key keeps wire bytes identical
            payload["spans"] = self.spans
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "JobResult":
        return cls(
            assignment=np.asarray(_require(payload, "assignment"), dtype=np.int64),
            n_parts=int(_require(payload, "n_parts")),
            cut_size=float(_require(payload, "cut_size")),
            max_part_cut=float(_require(payload, "max_part_cut")),
            balance_ratio=float(_require(payload, "balance_ratio")),
            part_sizes=[int(s) for s in _require(payload, "part_sizes")],
            method=_require(payload, "method"),
            fitness=float(payload.get("fitness", 0.0)),
            cache_hit=bool(payload.get("cache_hit", False)),
            coalesced=bool(payload.get("coalesced", False)),
            latency_s=float(payload.get("latency_s", 0.0)),
            request_key=payload.get("request_key", ""),
            session_id=payload.get("session_id"),
            portfolio=payload.get("portfolio"),
            executed_in=payload.get("executed_in", ""),
            shard=payload.get("shard"),
            spans=payload.get("spans"),
        )

    def replace(self, **kwargs) -> "JobResult":
        """Copy with fields overridden (cache/coalesce marking).

        Mutable fields are copied too: the result cache hands these
        out to arbitrary callers, and a caller sorting ``part_sizes``
        or editing ``portfolio`` must not corrupt the cached entry."""
        out = JobResult(**{**self.__dict__, **kwargs})
        out.assignment = np.array(self.assignment, dtype=np.int64, copy=True)
        if out.part_sizes is self.part_sizes:
            out.part_sizes = list(self.part_sizes)
        if out.portfolio is not None and out.portfolio is self.portfolio:
            out.portfolio = [dict(leg) for leg in self.portfolio]
        if out.spans is not None and out.spans is self.spans:
            out.spans = [dict(span) for span in self.spans]
        return out


def result_from_partition(
    partition: Partition,
    method: str,
    fitness: float = 0.0,
    **kwargs,
) -> JobResult:
    """Build a :class:`JobResult` from a computed :class:`Partition`."""
    return JobResult(
        assignment=np.asarray(partition.assignment, dtype=np.int64),
        n_parts=partition.n_parts,
        cut_size=float(partition.cut_size),
        max_part_cut=float(partition.max_part_cut),
        balance_ratio=float(partition.balance_ratio),
        part_sizes=[int(s) for s in partition.part_sizes],
        method=method,
        fitness=float(fitness),
        **kwargs,
    )
