"""The generational GA engine (Section 3 of the paper).

One :class:`GAEngine` owns a graph, a fitness function, a crossover
operator, and a :class:`GAConfig`, and runs the loop::

    evaluate → (operator.prepare) → select parents → crossover →
    mutate → [hill-climb] → evaluate offspring → replacement

Everything between the per-generation bookkeeping lines is whole-array
numpy over the ``(P, n)`` population matrix — including, under
``hill_climb="all"``, the boundary hill-climbing step, which runs as a
single lockstep sweep over the whole offspring batch
(:mod:`repro.ga.batch_climb`) rather than a per-row Python loop; a
paper-scale generation (320 individuals, ~300-node mesh) costs a few
milliseconds.

All fitness values flow through a per-engine :class:`BatchEvaluator`,
which skips re-evaluation of offspring that are verbatim copies of
their parents (non-recombined pairs, unmutated rows), reuses the
fitness the hill climber computes, counts every evaluated row exactly
once into :class:`GAHistory`, and tracks the best individual *ever
evaluated* — not merely the best that survived replacement.

The engine is also the single integration point for DKNUX: the
operator's :meth:`prepare` hook receives the evaluated population each
generation, which is how the dynamic estimate tracks the best-so-far
individual without the engine knowing anything operator-specific.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import ConfigError
from ..graphs.csr import CSRGraph
from ..obs.hooks import emit_generation
from ..partition.metrics import batch_cut_size, batch_max_part_cut
from ..partition.partition import Partition
from ..rng import SeedLike, as_generator
from .config import GAConfig
from .crossover import CrossoverOperator
from .evaluation import BatchEvaluator
from .fitness import FitnessFunction
from .hillclimb import HillClimber
from .history import GAHistory
from .mutation import BoundaryMutation, MutationOperator, PointMutation
from .population import random_population
from .selection import generational_replacement, make_selector, plus_replacement

__all__ = ["GAResult", "GAEngine"]


@dataclass
class GAResult:
    """Outcome of one GA run."""

    best: Partition
    best_fitness: float
    history: GAHistory
    generations: int
    stopped_by: str  # "max_generations" | "patience" | "target_fitness" | "deadline"

    @property
    def best_cut(self) -> float:
        """Total cut of the best individual (what Tables 1–3 report)."""
        return self.best.cut_size

    @property
    def best_worst_cut(self) -> float:
        """Worst-part cut of the best individual (Tables 4–6)."""
        return self.best.max_part_cut

    def __repr__(self) -> str:
        return (
            f"GAResult(fitness={self.best_fitness:g}, cut={self.best_cut:g}, "
            f"worst={self.best_worst_cut:g}, generations={self.generations}, "
            f"stopped_by={self.stopped_by!r})"
        )


class GAEngine:
    """Generational genetic algorithm for graph partitioning."""

    def __init__(
        self,
        graph: CSRGraph,
        fitness: FitnessFunction,
        crossover: CrossoverOperator,
        config: Optional[GAConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        if fitness.graph is not graph:
            raise ConfigError("fitness was built for a different graph")
        self.graph = graph
        self.fitness = fitness
        self.n_parts = fitness.n_parts
        self.crossover = crossover
        self.config = config or GAConfig()
        self.rng = as_generator(seed)
        self._selector = make_selector(
            self.config.selection, self.config.tournament_size
        )
        if self.config.mutation == "point":
            self._mutator: MutationOperator = PointMutation(self.n_parts)
        else:
            self._mutator = BoundaryMutation(graph)
        self._climber: Optional[HillClimber] = None
        if self.config.hill_climb != "off":
            self._climber = HillClimber(graph, fitness)
        #: caching evaluation backend; owns eval counts and best-ever state
        self.evaluator = BatchEvaluator(
            fitness, memo_capacity=self.config.eval_memo
        )

    # ------------------------------------------------------------------
    def _initial_population(
        self, initial_population: Optional[np.ndarray]
    ) -> np.ndarray:
        p = self.config.population_size
        if initial_population is None:
            return random_population(
                self.graph.n_nodes, self.n_parts, p, seed=self.rng
            )
        pop = np.asarray(initial_population, dtype=np.int64)
        if pop.ndim != 2 or pop.shape[1] != self.graph.n_nodes:
            raise ConfigError(
                f"initial population must have shape (P, {self.graph.n_nodes}), "
                f"got {pop.shape}"
            )
        if pop.size and (pop.min() < 0 or pop.max() >= self.n_parts):
            raise ConfigError("initial population labels out of range")
        if pop.shape[0] > p:
            pop = pop[:p]
        elif pop.shape[0] < p:
            extra = random_population(
                self.graph.n_nodes, self.n_parts, p - pop.shape[0], seed=self.rng
            )
            pop = np.vstack([pop, extra])
        return pop.copy()

    def _make_offspring(
        self,
        population: np.ndarray,
        fitness_values: np.ndarray,
        track_clones: bool = True,
    ) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Select parents, recombine (with prob p_c), and mutate.

        Returns ``(offspring, source_fitness, unchanged)``: each child's
        source parent fitness and a mask of children that came through
        crossover + mutation as verbatim copies of that parent — those
        rows need no re-evaluation.  ``track_clones=False`` skips that
        bookkeeping (both extras are ``None``) for callers that will
        re-evaluate every row anyway.
        """
        cfg = self.config
        p = population.shape[0]
        n_pairs = (p + 1) // 2
        idx_a = self._selector(fitness_values, n_pairs, self.rng)
        idx_b = self._selector(fitness_values, n_pairs, self.rng)
        parents_a = population[idx_a]
        parents_b = population[idx_b]

        recombine = self.rng.random(n_pairs) < cfg.crossover_rate
        child1 = parents_a.copy()
        child2 = parents_b.copy()
        if recombine.any():
            c1, c2 = self.crossover.cross(
                parents_a[recombine], parents_b[recombine], self.rng
            )
            child1[recombine] = c1
            child2[recombine] = c2
        offspring = np.vstack([child1, child2])[:p]
        offspring = self._mutator.mutate(offspring, cfg.mutation_rate, self.rng)
        if not track_clones:
            return offspring, None, None
        sources = np.vstack([parents_a, parents_b])[:p]
        source_fitness = np.concatenate(
            [fitness_values[idx_a], fitness_values[idx_b]]
        )[:p]
        unchanged = np.all(offspring == sources, axis=1)
        return offspring, source_fitness, unchanged

    def _apply_hill_climbing(
        self, offspring: np.ndarray, offspring_fitness: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Returns (offspring, fitness, extra fitness evaluations).

        Only handles "best" here; "all" is dispatched in :meth:`step`
        before any offspring evaluation, since climbing every row makes
        the pre-climb fitness pass pure waste.
        """
        cfg = self.config
        if self._climber is None or cfg.hill_climb in ("off", "final", "all"):
            return offspring, offspring_fitness, 0
        # "best": climb only the best offspring of this generation
        idx = int(np.argmax(offspring_fitness))
        better, fit = self._climber.improve(
            offspring[idx], max_passes=cfg.hill_climb_passes, rng=self.rng
        )
        self.evaluator.observe(better[None, :], np.array([fit]), evaluated=1)
        offspring = offspring.copy()
        offspring_fitness = offspring_fitness.copy()
        offspring[idx] = better
        offspring_fitness[idx] = fit
        return offspring, offspring_fitness, 1

    def step(
        self, population: np.ndarray, fitness_values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Advance one generation; returns (pop, fitness, evaluations).

        ``evaluations`` counts the rows actually passed through the
        fitness function this generation — cloned offspring reuse their
        parent's fitness and are not counted, hill-climb evaluations
        are.
        """
        cfg = self.config
        climb_all = self._climber is not None and cfg.hill_climb == "all"
        self.crossover.prepare(population, fitness_values)
        offspring, source_fitness, unchanged = self._make_offspring(
            population, fitness_values, track_clones=not climb_all
        )
        if climb_all:
            # every row gets climbed in one vectorized lockstep sweep
            # (see repro.ga.batch_climb), and the climber neither needs
            # nor keeps pre-climb fitness — its batched evaluation of
            # the climbed rows is the generation's only fitness pass
            offspring, offspring_fitness = self._climber.improve_batch(
                offspring, max_passes=cfg.hill_climb_passes, rng=self.rng
            )
            self.evaluator.observe(
                offspring, offspring_fitness, evaluated=offspring.shape[0]
            )
            evaluations = offspring.shape[0]
        else:
            offspring_fitness, evaluations = self.evaluator.evaluate(
                offspring, known_fitness=source_fitness, known_mask=unchanged
            )
            offspring, offspring_fitness, climb_evals = (
                self._apply_hill_climbing(offspring, offspring_fitness)
            )
            evaluations += climb_evals
        if cfg.replacement == "plus":
            new_pop, new_fit = plus_replacement(
                population, fitness_values, offspring, offspring_fitness,
                cfg.population_size,
            )
        else:
            new_pop, new_fit = generational_replacement(
                population, fitness_values, offspring, offspring_fitness,
                cfg.population_size, elite=cfg.elite,
            )
        return new_pop, new_fit, evaluations

    # ------------------------------------------------------------------
    def run(
        self,
        initial_population: Optional[np.ndarray] = None,
        deadline: Optional[float] = None,
        on_generation: Optional[Callable[..., None]] = None,
    ) -> GAResult:
        """Run to completion and return the best partition found.

        The result's ``best`` is the best individual *ever evaluated*
        (the paper reports "the best individual explored by the GA").
        The evaluator tracks it at evaluation time, so offspring that
        are dropped at replacement (generational mode with a small
        elite) still count.

        ``deadline`` (a ``time.perf_counter()`` timestamp) stops the
        loop between generations once the clock passes it
        (``stopped_by="deadline"``) — used by time-budgeted serving
        (the portfolio's DKNUX leg); completed generations are
        unaffected, so a non-binding deadline changes nothing.

        ``on_generation`` is a progress callback invoked after every
        recorded generation (the initial evaluation counts as
        generation 0) with keyword arguments ``generation``,
        ``best_cut``, ``best_worst_cut``, and ``evaluations``.  It is
        observational-only: the engine ignores its return value and
        shares no state with it.  Independently of the explicit
        callback, the same event reaches any ambient
        :func:`repro.obs.hooks.recording` recorder installed by the
        serving layer — a single integer check when nothing records.
        """
        cfg = self.config
        history = GAHistory()
        evaluator = self.evaluator
        evaluator.reset()
        population = self._initial_population(initial_population)
        fitness_values, evals = evaluator.evaluate(population)
        self._progress(
            on_generation, history,
            self._record(history, population, fitness_values, evals),
        )

        stopped_by = "max_generations"
        stale = 0
        best_fitness = evaluator.best_fitness
        for _ in range(cfg.max_generations):
            if deadline is not None and time.perf_counter() >= deadline:
                stopped_by = "deadline"
                break
            population, fitness_values, evals = self.step(
                population, fitness_values
            )
            self._progress(
                on_generation, history,
                self._record(history, population, fitness_values, evals),
            )
            if evaluator.best_fitness > best_fitness:
                best_fitness = evaluator.best_fitness
                stale = 0
            else:
                stale += 1
            if cfg.target_fitness is not None and best_fitness >= cfg.target_fitness:
                stopped_by = "target_fitness"
                break
            if cfg.patience is not None and stale >= cfg.patience:
                stopped_by = "patience"
                break

        best_assignment = evaluator.best_assignment
        best_fitness = evaluator.best_fitness
        if self._climber is not None and cfg.hill_climb == "final":
            climbed, fit = self._climber.improve(
                best_assignment, max_passes=cfg.hill_climb_passes, rng=self.rng
            )
            evaluator.observe(climbed[None, :], np.array([fit]), evaluated=1)
            history.add_evaluations(1)
            if fit > best_fitness:
                best_assignment, best_fitness = climbed, fit

        best = Partition(
            self.graph, np.array(best_assignment, dtype=np.int64), self.n_parts
        )
        return GAResult(
            best=best,
            best_fitness=float(best_fitness),
            history=history,
            generations=history.n_generations - 1,
            stopped_by=stopped_by,
        )

    def _record(
        self,
        history: GAHistory,
        population: np.ndarray,
        fitness_values: np.ndarray,
        evaluations: int,
    ) -> tuple[float, float, int]:
        idx = int(np.argmax(fitness_values))
        best = population[idx][None, :]
        best_cut = float(batch_cut_size(self.graph, best)[0])
        best_worst_cut = float(
            batch_max_part_cut(self.graph, best, self.n_parts)[0]
        )
        history.record(
            fitness_values,
            best_cut=best_cut,
            best_worst_cut=best_worst_cut,
            evaluations=evaluations,
        )
        return best_cut, best_worst_cut, int(evaluations)

    @staticmethod
    def _progress(
        on_generation: Optional[Callable[..., None]],
        history: GAHistory,
        recorded: tuple[float, float, int],
    ) -> None:
        """Fan one recorded generation out to the explicit callback and
        the ambient obs recorder (values flow out, never back in)."""
        best_cut, best_worst_cut, evaluations = recorded
        generation = history.n_generations - 1
        emit_generation(
            generation=generation,
            best_cut=best_cut,
            best_worst_cut=best_worst_cut,
            evaluations=evaluations,
        )
        if on_generation is not None:
            on_generation(
                generation=generation,
                best_cut=best_cut,
                best_worst_cut=best_worst_cut,
                evaluations=evaluations,
            )
