"""Process-parallel execution of the distributed-population GA.

The paper's DPGA maps one subpopulation per processor of a
distributed-memory machine (CM-5 / Paragon) and reports near-linear
speedups.  Without MPI available here, this module provides the closest
laptop equivalent: islands stepped in a ``multiprocessing`` pool, with
migration performed by the coordinating process between epochs.  One
epoch = ``migration_interval`` generations of isolated evolution, which
is exactly the communication pattern of the paper's model (islands only
interact at migration points), so the search dynamics are identical to
:class:`repro.ga.dpga.DPGA` up to RNG stream interleaving.

Worker processes build their engine once (per island) from a compact
spec and keep it cached, so per-epoch IPC is just the population matrix.
Because an engine carries state that evolves across epochs — its RNG
stream, DKNUX's dynamic estimate, the evaluator's best-ever tracker —
the runner has two ways to keep that state consistent, chosen by the
pool's width:

* **pinned** — every island is pinned to one single-process executor
  for the whole run (island ``i`` always runs on pool ``i %
  n_workers``), so its engine state simply lives where the island
  runs.  An unpinned shared pool *without* state shipping would
  rebuild an island's engine from scratch whenever scheduling moved it,
  making same-seed results depend on n_workers and on OS scheduling.
* **shared** — one :class:`~concurrent.futures.ProcessPoolExecutor`
  of ``n_workers`` processes, with the evolving engine state
  **explicitly shipped** with every epoch task (RNG bit-generator
  state, DKNUX estimate + its fitness, best-ever individual) and
  restored onto whichever process picks the island up.  Same-seed
  results are bit-identical to pinned mode — the state round-trips
  exactly — at the cost of a few extra KB of IPC per island-epoch.

The runner takes pinned up to :data:`SHARED_POOL_CUTOFF` worker slots
and shared beyond.  Measured (``benchmarks/bench_parallel_fanout.py``,
24 islands × 2 epochs on a 60-node mesh): each pinned slot is a whole
``ProcessPoolExecutor`` — one OS process plus a management thread and
pipe pair — so bank construction and teardown grow linearly with the
slot count and come to dominate: end-to-end the shared pool matches
pinned at 4 workers (1.0x), and is 1.5x faster at 16 and 2.0x faster
at 24.  Pinned keeps the edge for long runs at small-to-moderate
widths, where its setup amortizes and per-island evaluator-memo
affinity pays every epoch — hence the cutoff at 16.  Same-seed search
results are identical for any ``n_workers`` on *both* paths, so the
cutoff is pure performance policy.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..errors import ConfigError
from ..graphs.csr import CSRGraph
from ..partition.partition import Partition
from ..rng import SeedLike, seed_sequence
from .config import GAConfig
from .crossover import TwoPointCrossover, UniformCrossover
from .dknux import DKNUX
from .dpga import DPGAConfig, DPGAResult, record_global_stats
from .engine import GAEngine
from .fitness import make_fitness
from .history import GAHistory
from .knux import KNUX
from .population import random_population
from .topology import Topology, hypercube_topology, ring_topology

__all__ = [
    "ParallelDPGA",
    "PinnedExecutors",
    "CROSSOVER_KINDS",
    "SHARED_POOL_CUTOFF",
]

#: crossover kinds the parallel runner can reconstruct in workers
CROSSOVER_KINDS = ("2-point", "uniform", "knux", "dknux")

#: the runner switches from per-island pinned executors to
#: one shared pool with explicit state shipping above this many worker
#: slots — the executor-bank setup/teardown cost grows linearly with
#: the slot count while the shared pool's is flat (measured in
#: ``benchmarks/bench_parallel_fanout.py``)
SHARED_POOL_CUTOFF = 16


class PinnedExecutors:
    """A bank of single-worker executors with stable key→slot pinning.

    Stateful computations (an island engine's RNG stream and DKNUX
    estimate, a service session's warm partitioner, a worker's per-graph
    engine cache) must keep living in *one* worker across submissions —
    a shared pool that migrates work between workers silently rebuilds
    that state and makes results depend on scheduling.  This class owns
    ``n_slots`` executors of one worker each and routes every submission
    for the same key to the same slot: integer keys map by modulo (the
    island pinning of :class:`ParallelDPGA`), other hashables map
    through a stable content digest (the partition service pins jobs by
    graph digest and sessions by id).

    ``kind="process"`` gives process isolation with an optional
    ``initializer`` (engine caches built once per worker);
    ``kind="thread"`` gives cheap in-process pinning for workloads that
    release the GIL (numpy kernels) or need to share objects with the
    coordinator.
    """

    def __init__(
        self,
        n_slots: int,
        kind: str = "process",
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
    ) -> None:
        if n_slots < 1:
            raise ConfigError(f"n_slots must be >= 1, got {n_slots}")
        if kind not in ("process", "thread"):
            raise ConfigError(
                f"kind must be 'process' or 'thread', got {kind!r}"
            )
        self.n_slots = int(n_slots)
        self.kind = kind
        self._executors: list[Union[ProcessPoolExecutor, ThreadPoolExecutor]] = []
        for _ in range(self.n_slots):
            if kind == "process":
                self._executors.append(
                    ProcessPoolExecutor(
                        max_workers=1,
                        initializer=initializer,
                        initargs=initargs,
                    )
                )
            else:
                executor = ThreadPoolExecutor(max_workers=1)
                if initializer is not None:
                    executor.submit(initializer, *initargs).result()
                self._executors.append(executor)

    def slot(self, key) -> int:
        """Stable slot index for ``key`` (same key → same slot, always)."""
        if isinstance(key, (int, np.integer)):
            return int(key) % self.n_slots
        if isinstance(key, bytes):
            raw = key
        else:
            raw = str(key).encode()
        digest = hashlib.blake2b(raw, digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.n_slots

    def submit(self, key, fn, /, *args, **kwargs) -> Future:
        """Submit ``fn(*args, **kwargs)`` to the slot pinned to ``key``."""
        return self._executors[self.slot(key)].submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True) -> None:
        for executor in self._executors:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "PinnedExecutors":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


@dataclass(frozen=True)
class _EngineSpec:
    """Picklable recipe for rebuilding an island engine in a worker."""

    n_nodes: int
    edges_u: np.ndarray
    edges_v: np.ndarray
    edge_weights: np.ndarray
    node_weights: np.ndarray
    fitness_kind: str
    n_parts: int
    alpha: float
    crossover_kind: str
    knux_estimate: Optional[np.ndarray]
    ga_config: GAConfig
    island_entropy: tuple[int, ...]


_WORKER_ENGINES: "OrderedDict[int, GAEngine]" = OrderedDict()
_WORKER_SPEC: Optional[_EngineSpec] = None

#: shared-pool engine-cache cap per worker process.  Pinned mode hosts
#: only a process's own islands, so its cache is naturally bounded; a
#: shared worker may execute *any* island each epoch, and without a cap
#: every process would eventually hold an engine (fitness tables, DKNUX
#: counts, evaluator memo) for every island.  Eviction is harmless in
#: shared mode — the authoritative state ships with each task.
_WORKER_ENGINE_CAP = 4


def _init_worker(spec: _EngineSpec) -> None:
    global _WORKER_SPEC
    _WORKER_SPEC = spec
    _WORKER_ENGINES.clear()


def _get_engine(island: int) -> GAEngine:
    spec = _WORKER_SPEC
    assert spec is not None, "worker not initialized"
    engine = _WORKER_ENGINES.get(island)
    if engine is None:
        graph = CSRGraph(
            spec.n_nodes,
            spec.edges_u,
            spec.edges_v,
            spec.edge_weights,
            spec.node_weights,
        )
        fitness = make_fitness(spec.fitness_kind, graph, spec.n_parts, spec.alpha)
        kind = spec.crossover_kind
        if kind == "2-point":
            crossover = TwoPointCrossover()
        elif kind == "uniform":
            crossover = UniformCrossover()
        elif kind == "knux":
            if spec.knux_estimate is None:
                raise ConfigError("knux crossover needs knux_estimate")
            crossover = KNUX(graph, spec.knux_estimate, spec.n_parts)
        elif kind == "dknux":
            crossover = DKNUX(graph, spec.n_parts)
        else:
            raise ConfigError(f"unknown crossover kind {kind!r}")
        rng = np.random.default_rng(
            np.random.SeedSequence(spec.island_entropy).spawn(island + 1)[island]
        )
        engine = GAEngine(graph, fitness, crossover, config=spec.ga_config, seed=rng)
        _WORKER_ENGINES[island] = engine
    return engine


def _capture_engine_state(engine: GAEngine) -> dict:
    """The picklable evolving state of an island engine (everything a
    fresh rebuild would lose): RNG stream, DKNUX dynamic estimate with
    its fitness, and the evaluator's best-ever individual.  The
    evaluator's row-hash memo is deliberately not shipped — it only
    affects evaluation *counts*, never values (exact-value cache on a
    fixed graph), and it is the bulkiest piece."""
    state: dict = {"rng": engine.rng.bit_generator.state}
    cross = engine.crossover
    if isinstance(cross, DKNUX):
        est = cross._estimate
        state["dknux_estimate"] = None if est is None else np.asarray(est)
        state["dknux_fitness"] = float(cross._best_fitness)
    tracker = engine.evaluator
    state["best_assignment"] = (
        None
        if tracker.best_assignment is None
        else np.asarray(tracker.best_assignment)
    )
    state["best_fitness"] = float(tracker.best_fitness)
    return state


def _restore_engine_state(engine: GAEngine, state: dict) -> None:
    """Install shipped state onto a (possibly rebuilt) island engine.

    Exact inverse of :func:`_capture_engine_state`: the RNG state dict
    round-trips bit-exactly, the DKNUX count table is a deterministic
    function of the estimate, and the best-ever tracker is re-observed
    with zero evaluation cost."""
    engine.rng.bit_generator.state = state["rng"]
    cross = engine.crossover
    if isinstance(cross, DKNUX) and state.get("dknux_estimate") is not None:
        cross.set_carried_estimate(
            state["dknux_estimate"], state["dknux_fitness"]
        )
    tracker = engine.evaluator
    tracker.best_fitness = -np.inf
    tracker.best_assignment = None
    if state["best_assignment"] is not None:
        tracker.observe(
            state["best_assignment"][None, :],
            np.array([state["best_fitness"]]),
            evaluated=0,
        )


def _run_epoch_shipped(
    island: int,
    population: np.ndarray,
    fitness_values: np.ndarray,
    n_gens: int,
    migrants: Optional[tuple[np.ndarray, np.ndarray]],
    state: Optional[dict],
) -> tuple[int, np.ndarray, np.ndarray, int, Optional[np.ndarray], float, dict]:
    """Shared-pool epoch step: like :func:`_run_epoch`, but the island's
    evolving engine state arrives with the task (``None`` on the first
    epoch, when the engine's fresh build *is* the canonical state) and
    the updated state returns with the result, so the island may run on
    a different process next epoch without losing anything."""
    engine = _get_engine(island)
    _WORKER_ENGINES.move_to_end(island)
    while len(_WORKER_ENGINES) > _WORKER_ENGINE_CAP:
        _WORKER_ENGINES.popitem(last=False)
    if state is not None:
        _restore_engine_state(engine, state)
    if migrants is not None:
        engine.evaluator.memoize(*migrants)
    evals = 0
    for _ in range(n_gens):
        population, fitness_values, e = engine.step(population, fitness_values)
        evals += e
    tracker = engine.evaluator
    return (
        island,
        population,
        fitness_values,
        evals,
        tracker.best_assignment,
        float(tracker.best_fitness),
        _capture_engine_state(engine),
    )


def _run_epoch(
    island: int,
    population: np.ndarray,
    fitness_values: np.ndarray,
    n_gens: int,
    migrants: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[int, np.ndarray, np.ndarray, int, Optional[np.ndarray], float]:
    """Step one island for an epoch; also ship the engine evaluator's
    best-ever individual so offspring dropped at replacement still reach
    the coordinator's harvest.  ``migrants`` is the ``(rows, fitness)``
    the coordinator migrated into this island since the last epoch —
    memoized into the island evaluator so rows evaluated on their source
    island are never re-evaluated here."""
    engine = _get_engine(island)
    if migrants is not None:
        engine.evaluator.memoize(*migrants)
    evals = 0
    for _ in range(n_gens):
        population, fitness_values, e = engine.step(population, fitness_values)
        evals += e
    tracker = engine.evaluator
    return (
        island,
        population,
        fitness_values,
        evals,
        tracker.best_assignment,
        float(tracker.best_fitness),
    )


class ParallelDPGA:
    """DPGA over a process pool (pinned or shared — see module docstring).

    Parameters mirror :class:`repro.ga.dpga.DPGA` except the crossover
    operator is named by ``crossover_kind`` (one of
    :data:`CROSSOVER_KINDS`) so it can be rebuilt inside workers.

    Same-seed runs produce identical search results (populations,
    fitness values, best partition) for any ``n_workers`` on either
    pool: pinned islands keep their engine state in place, the shared
    pool ships it explicitly.  Only the *evaluation counters* may
    differ between the two — an island hopping processes in the
    shared pool starts with a cold evaluator memo, so it re-pays
    evaluations the pinned memo would have cached (values are
    unaffected by construction).
    """

    def __init__(
        self,
        graph: CSRGraph,
        fitness_kind: str,
        n_parts: int,
        crossover_kind: str = "dknux",
        alpha: float = 1.0,
        knux_estimate: Optional[np.ndarray] = None,
        ga_config: Optional[GAConfig] = None,
        dpga_config: Optional[DPGAConfig] = None,
        topology: Optional[Topology] = None,
        n_workers: int = 4,
        seed: SeedLike = None,
    ) -> None:
        if crossover_kind not in CROSSOVER_KINDS:
            raise ConfigError(
                f"crossover_kind must be one of {CROSSOVER_KINDS}, got "
                f"{crossover_kind!r}"
            )
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        self.graph = graph
        self.n_parts = int(n_parts)
        self.fitness = make_fitness(fitness_kind, graph, n_parts, alpha)
        self.dpga_config = dpga_config or DPGAConfig()
        cfg = ga_config or GAConfig()
        self.ga_config = cfg.with_updates(
            population_size=self.dpga_config.island_population,
            elite=min(cfg.elite, self.dpga_config.island_population),
            max_generations=0,
            patience=None,
            target_fitness=None,
        )
        n_isl = self.dpga_config.n_islands
        if topology is None:
            topology = (
                hypercube_topology(4) if n_isl == 16 else ring_topology(n_isl)
            )
        if topology.n_islands != n_isl:
            raise ConfigError("topology size does not match n_islands")
        self.topology = topology
        self.n_workers = int(n_workers)
        seq = seed_sequence(seed)
        self._rng = np.random.default_rng(seq.spawn(1)[0])
        self._spec = _EngineSpec(
            n_nodes=graph.n_nodes,
            edges_u=np.asarray(graph.edges_u),
            edges_v=np.asarray(graph.edges_v),
            edge_weights=np.asarray(graph.edge_weights),
            node_weights=np.asarray(graph.node_weights),
            fitness_kind=fitness_kind,
            n_parts=self.n_parts,
            alpha=float(alpha),
            crossover_kind=crossover_kind,
            knux_estimate=None if knux_estimate is None else np.asarray(knux_estimate),
            ga_config=self.ga_config,
            island_entropy=tuple(int(x) for x in seq.generate_state(4)),
        )

    def run(self, initial_population: Optional[np.ndarray] = None) -> DPGAResult:
        """Run the epoch/migrate loop across the process pool."""
        cfg = self.dpga_config
        n_isl = cfg.n_islands
        island_pop = cfg.island_population

        populations: list[np.ndarray] = []
        offset = 0
        init = (
            None
            if initial_population is None
            else np.asarray(initial_population, dtype=np.int64)
        )
        for island in range(n_isl):
            if init is not None and offset < init.shape[0]:
                take = init[offset : offset + island_pop]
                offset += take.shape[0]
            else:
                take = np.empty((0, self.graph.n_nodes), dtype=np.int64)
            if take.shape[0] < island_pop:
                extra = random_population(
                    self.graph.n_nodes,
                    self.n_parts,
                    island_pop - take.shape[0],
                    seed=self._rng,
                )
                take = np.vstack([take, extra]) if take.size else extra
            populations.append(take.copy())
        fitnesses = [self.fitness.evaluate_batch(p) for p in populations]

        history = GAHistory()
        best_fitness = -np.inf
        best_assignment = populations[0][0].copy()

        def harvest() -> None:
            nonlocal best_fitness, best_assignment
            for island in range(n_isl):
                idx = int(np.argmax(fitnesses[island]))
                if fitnesses[island][idx] > best_fitness:
                    best_fitness = float(fitnesses[island][idx])
                    best_assignment = populations[island][idx].copy()

        harvest()
        epochs = max(cfg.max_generations // cfg.migration_interval, 0)
        # Pinned mode: one single-worker executor per slot — island i
        # always runs on slot i % n_pools, so its engine (RNG stream,
        # DKNUX estimate, best-ever tracker) lives in exactly one
        # process for the whole run.  Shared mode: one pool of n_pools
        # workers, with that same engine state explicitly shipped with
        # every epoch task and restored wherever the island lands.
        # Either way same-seed results cannot depend on scheduling.
        n_pools = min(self.n_workers, n_isl)
        mode = "pinned" if n_pools <= SHARED_POOL_CUTOFF else "shared"
        pools: Optional[PinnedExecutors] = None
        shared: Optional[ProcessPoolExecutor] = None
        received: list[Optional[tuple[np.ndarray, np.ndarray]]] = [
            None
        ] * n_isl
        states: list[Optional[dict]] = [None] * n_isl
        try:
            if epochs > 0 and mode == "pinned":
                pools = PinnedExecutors(
                    n_pools,
                    kind="process",
                    initializer=_init_worker,
                    initargs=(self._spec,),
                )
            elif epochs > 0:
                shared = ProcessPoolExecutor(
                    max_workers=n_pools,
                    initializer=_init_worker,
                    initargs=(self._spec,),
                )
            for _ in range(epochs):
                if mode == "pinned":
                    futures = [
                        pools.submit(
                            island,
                            _run_epoch,
                            island,
                            populations[island],
                            fitnesses[island],
                            cfg.migration_interval,
                            received[island],
                        )
                        for island in range(n_isl)
                    ]
                else:
                    futures = [
                        shared.submit(
                            _run_epoch_shipped,
                            island,
                            populations[island],
                            fitnesses[island],
                            cfg.migration_interval,
                            received[island],
                            states[island],
                        )
                        for island in range(n_isl)
                    ]
                total_evals = 0
                for fut in futures:
                    out = fut.result()
                    island, pop, fit, evals, epoch_best, epoch_best_fit = out[:6]
                    if mode == "shared":
                        states[island] = out[6]
                    populations[island] = pop
                    fitnesses[island] = fit
                    total_evals += evals
                    if epoch_best is not None and epoch_best_fit > best_fitness:
                        best_fitness = epoch_best_fit
                        best_assignment = epoch_best.copy()
                received = self._migrate(populations, fitnesses)
                record_global_stats(
                    self.graph, self.n_parts, history,
                    populations, fitnesses, total_evals,
                )
                harvest()
        finally:
            if pools is not None:
                pools.shutdown()
            if shared is not None:
                shared.shutdown()

        best = Partition(self.graph, best_assignment, self.n_parts)
        return DPGAResult(
            best=best,
            best_fitness=best_fitness,
            history=history,
            island_histories=[],
            generations=epochs * cfg.migration_interval,
            stopped_by="max_generations",
        )

    def _migrate(
        self, populations: list[np.ndarray], fitnesses: list[np.ndarray]
    ) -> list[Optional[tuple[np.ndarray, np.ndarray]]]:
        """Synchronous migration round; returns what each island received
        so the next epoch can memoize migrants into the island's
        (worker-resident) evaluator instead of re-evaluating them."""
        k = self.dpga_config.migration_size
        migrants = []
        for pop, fit in zip(populations, fitnesses):
            idx = np.argsort(-fit, kind="stable")[:k]
            migrants.append((pop[idx].copy(), fit[idx].copy()))
        received: list[Optional[tuple[np.ndarray, np.ndarray]]] = []
        for island in range(self.topology.n_islands):
            inc_pop = [migrants[n][0] for n in self.topology.neighbors(island)]
            inc_fit = [migrants[n][1] for n in self.topology.neighbors(island)]
            if not inc_pop:
                received.append(None)
                continue
            inc_pop_arr = np.vstack(inc_pop)
            inc_fit_arr = np.concatenate(inc_fit)
            worst = np.argsort(fitnesses[island], kind="stable")[: inc_pop_arr.shape[0]]
            populations[island][worst] = inc_pop_arr
            fitnesses[island][worst] = inc_fit_arr
            received.append((inc_pop_arr, inc_fit_arr))
        return received
