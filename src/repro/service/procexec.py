"""Process-pool execution of long GA runs.

Worker threads are the service's default execution lane: the batch
kernels release the GIL, so short jobs overlap well and nothing crosses
a process boundary.  But a long dknux run spends real time in
Python-level generation bookkeeping that threads serialize; above a
cost threshold (see :class:`~repro.service.config.ServiceConfig`) the
service routes the run to a :class:`~repro.ga.parallel.PinnedExecutors`
bank of single-worker *processes* instead.

The IPC cost model this module amortizes:

* **Graphs ship once per pin.**  Jobs are pinned to process slots by
  graph digest, so every request naming the same content lands in the
  same worker process.  The first job for a digest carries the CSR
  arrays; the worker interns them (pre-warming the strength table and
  unit-weight flags, like the parent's
  :class:`~repro.service.cache.GraphStore`) in a bounded worker-side
  LRU, and every later job carries the digest alone.  A worker that no
  longer holds the digest (restart, LRU eviction) raises
  :class:`~repro.errors.NeedsGraph` and the parent resends once with
  the arrays — shipping is an optimization with a self-healing
  fallback, never a protocol obligation.  The parent's record of what
  it shipped is a per-slot :class:`~repro.service.cache.ShippedLRU`,
  the same helper :class:`~repro.service.client.HTTPServiceClient`
  keeps for the digest-first HTTP requests it sends.
* **Results travel as plain arrays.**  The worker returns the
  assignment plus its scalar metrics; the parent builds the
  :class:`~repro.service.models.JobResult` and publishes to its caches
  (worker processes never see the parent's cache plane).

Determinism: the worker runs :func:`repro.partition_graph` with the
identical resolved config and seed the thread path would use, so
process-routed answers are bit-identical to thread-routed ones — the
threshold decides where a computation runs, never what it returns.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from ..errors import NeedsGraph
from ..graphs.csr import CSRGraph

__all__ = [
    "WORKER_GRAPH_CAP",
    "graph_to_arrays",
    "run_partition_job",
    "init_process_worker",
]

#: graphs each worker process keeps interned (LRU); paper-scale CSR
#: builds are a few hundred KB, so even the cap is a modest footprint
WORKER_GRAPH_CAP = 64

_GRAPHS: "OrderedDict[str, CSRGraph]" = OrderedDict()


def graph_to_arrays(graph: CSRGraph) -> tuple:
    """The picklable CSR payload of a graph (arrays only, no object)."""
    return (
        graph.n_nodes,
        np.asarray(graph.edges_u),
        np.asarray(graph.edges_v),
        np.asarray(graph.edge_weights),
        np.asarray(graph.node_weights),
        None if graph.coords is None else np.asarray(graph.coords),
    )


def _graph_from_arrays(arrays: tuple) -> CSRGraph:
    n_nodes, eu, ev, ew, nw, coords = arrays
    graph = CSRGraph(n_nodes, eu, ev, ew, nw, coords=coords)
    graph.node_strengths()  # pre-warm: shared by every hot path
    graph.has_unit_edge_weights()
    return graph


def init_process_worker() -> None:
    """Executor initializer: start each worker with an empty intern
    table (a forked worker must not inherit stale parent state)."""
    _GRAPHS.clear()


def _intern(digest: str, arrays: Optional[tuple]) -> Optional[CSRGraph]:
    graph = _GRAPHS.get(digest)
    if graph is not None:
        _GRAPHS.move_to_end(digest)
        return graph
    if arrays is None:
        return None
    graph = _graph_from_arrays(arrays)
    _GRAPHS[digest] = graph
    while len(_GRAPHS) > WORKER_GRAPH_CAP:
        _GRAPHS.popitem(last=False)
    return graph


def run_partition_job(
    digest: str,
    arrays: Optional[tuple],
    n_parts: int,
    fitness_kind: str,
    config_kwargs: dict,
    seed: int,
    seed_assignment: Optional[np.ndarray],
    trace: Optional[dict] = None,
):
    """Execute one dknux run in the worker process.

    Raises :class:`NeedsGraph` when ``arrays`` is ``None`` and the
    digest is not interned here; else returns ``(assignment, fitness)``
    — the parent rebuilds the partition metrics on its own interned
    graph instance.
    When the parent ships a ``trace`` context the worker records its
    execution (including per-generation GA spans) and the return grows
    a third element with the finished span records; ``trace=None``
    keeps the original two-element shape, so tracing off means the job
    pickles and the reply are byte-identical to before.
    """
    from .. import partition_graph
    from ..ga.config import GAConfig
    from ..ga.fitness import make_fitness
    from ..obs.hooks import ExecRecorder, recording
    from ..obs.trace import Tracer

    graph = _intern(digest, arrays)
    if graph is None:
        raise NeedsGraph(f"process worker does not hold graph {digest}")
    if trace is None:
        partition = partition_graph(
            graph,
            n_parts,
            fitness_kind=fitness_kind,
            config=GAConfig(**config_kwargs),
            seed=seed,
            seed_assignment=seed_assignment,
        )
        fitness = make_fitness(fitness_kind, graph, n_parts)
        return (
            np.asarray(partition.assignment, dtype=np.int64),
            float(fitness.evaluate(partition.assignment)),
        )
    # traced lane: identical computation, plus a collected span subtree
    tracer = Tracer(ring_size=256)
    span = tracer.start(
        "procexec.run", parent=trace,
        attrs={"digest": digest[:12], "n_parts": n_parts, "seed": seed},
    )
    with span, recording(ExecRecorder(tracer, span)):
        partition = partition_graph(
            graph,
            n_parts,
            fitness_kind=fitness_kind,
            config=GAConfig(**config_kwargs),
            seed=seed,
            seed_assignment=seed_assignment,
        )
    fitness = make_fitness(fitness_kind, graph, n_parts)
    return (
        np.asarray(partition.assignment, dtype=np.int64),
        float(fitness.evaluate(partition.assignment)),
        span.collected(),
    )
