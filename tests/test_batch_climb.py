"""Equivalence and reproducibility tests for the vectorized batch climber.

The contracts:

* :func:`repro.ga.batch_climb.climb_batch` in deterministic scan order
  is **bit-identical** to climbing each row with the scalar
  ``HillClimber._climb`` reference — across weighted and unweighted
  graphs, part counts, both fitness functions, pass budgets, and any
  row chunking;
* in the rng scan mode every served request runs, it is bit-identical
  to the lockstep reference kernel kept in ``climb_reference.py`` (the
  destination scan it replaced), near ties included;
* same-seed :class:`repro.ga.ParallelDPGA` runs produce identical
  results for any ``n_workers`` (islands are pinned to worker
  processes), and their histories carry real cut metrics instead of
  the old ``0.0`` placeholders.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.ga import (
    DPGAConfig,
    Fitness1,
    Fitness2,
    GAConfig,
    HillClimber,
    ParallelDPGA,
    climb_batch,
)
from repro.ga.population import random_population
from repro.graphs import CSRGraph, mesh_graph

from climb_reference import climb_batch_reference


def scalar_reference(hc: HillClimber, pop: np.ndarray, passes: int) -> np.ndarray:
    """Per-row scalar climb — the trajectory the batch kernel must match."""
    out = np.empty_like(pop)
    for r in range(pop.shape[0]):
        out[r] = hc._climb(pop[r], passes, None)
    return out


def make_graph(weights: str):
    g = mesh_graph(64, seed=5)
    if weights == "unit":
        return g
    rng = np.random.default_rng(3)
    if weights == "integer":
        return g.with_weights(
            node_weights=rng.integers(1, 4, g.n_nodes).astype(np.float64),
            edge_weights=rng.integers(1, 5, g.n_edges).astype(np.float64),
        )
    if weights == "edges":
        # unit node weights with weighted edges: the weighted bincount
        # next to integer-valued loads
        return g.with_weights(edge_weights=rng.uniform(0.5, 2.0, g.n_edges))
    # fractional edge weights force the metrics' direct (non-identity)
    # cut kernel, exercising the climber on that accumulation path too
    return g.with_weights(
        node_weights=rng.integers(1, 4, g.n_nodes).astype(np.float64),
        edge_weights=rng.uniform(0.5, 2.0, g.n_edges),
    )


class TestBitEquivalence:
    @pytest.mark.parametrize("weights", ["unit", "integer", "fractional", "edges"])
    @pytest.mark.parametrize("k", [2, 4, 16])
    @pytest.mark.parametrize("fitness_cls", [Fitness1, Fitness2])
    def test_matches_scalar_bit_for_bit(self, weights, k, fitness_cls):
        g = make_graph(weights)
        fit = fitness_cls(g, k)
        hc = HillClimber(g, fit)
        pop = random_population(g.n_nodes, k, 12, seed=7)
        for passes in (1, 3):
            ref = scalar_reference(hc, pop, passes)
            out = climb_batch(g, fit, pop, max_passes=passes)
            assert np.array_equal(out, ref)

    @pytest.mark.parametrize("weights", ["unit", "integer", "fractional", "edges"])
    @pytest.mark.parametrize("k", [2, 4, 16])
    @pytest.mark.parametrize("fitness_cls", [Fitness1, Fitness2])
    def test_rng_mode_matches_reference_oracle(self, weights, k, fitness_cls):
        """The serving scan mode: same shared per-pass permutations, same
        moves as the reference kernel, for any chunking."""
        g = make_graph(weights)
        fit = fitness_cls(g, k)
        pop = random_population(g.n_nodes, k, 12, seed=11)
        ref = climb_batch_reference(
            g, fit, pop, max_passes=3, rng=np.random.default_rng(5)
        )
        for chunk_rows in (1, 3, 7):
            out = climb_batch(
                g, fit, pop, max_passes=3, rng=np.random.default_rng(5),
                chunk_rows=chunk_rows,
            )
            assert np.array_equal(out, ref)
        # and the deterministic mode agrees with the oracle too
        det = climb_batch_reference(g, fit, pop, max_passes=3)
        assert np.array_equal(climb_batch(g, fit, pop, max_passes=3), det)

    def test_improve_batch_dispatches_to_kernel(self):
        g = make_graph("unit")
        fit = Fitness2(g, 4)
        hc = HillClimber(g, fit)
        pop = random_population(g.n_nodes, 4, 8, seed=2)
        ref = scalar_reference(hc, pop, 2)
        out, values = hc.improve_batch(pop, max_passes=2)
        assert np.array_equal(out, ref)
        assert np.array_equal(values, fit.evaluate_batch(ref))

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7])
    def test_chunking_never_changes_results(self, chunk_rows):
        g = make_graph("integer")
        fit = Fitness1(g, 4)
        pop = random_population(g.n_nodes, 4, 10, seed=9)
        full = climb_batch(g, fit, pop, max_passes=2)
        chunked = climb_batch(g, fit, pop, max_passes=2, chunk_rows=chunk_rows)
        assert np.array_equal(full, chunked)

    def test_runs_to_fixed_point_like_scalar(self):
        """A generous pass budget must terminate at the same local
        optimum the scalar climber reaches (early per-row stop)."""
        g = make_graph("unit")
        fit = Fitness1(g, 3)
        hc = HillClimber(g, fit)
        pop = random_population(g.n_nodes, 3, 6, seed=4)
        ref = scalar_reference(hc, pop, 50)
        out = climb_batch(g, fit, pop, max_passes=50)
        assert np.array_equal(out, ref)
        # fixed point: climbing again changes nothing
        assert np.array_equal(climb_batch(g, fit, out, max_passes=5), out)


class TestNearTie:
    """The destination is each row's first maximum gain unless a lesser
    candidate lies within the scan's 1e-12 tolerance of it; then the
    sequential scan is replayed for that row."""

    @staticmethod
    def near_tie_graph() -> CSRGraph:
        # node 0 (part 0) gains about 3.8 by moving to part 1 and 8e-13
        # more by moving to part 2: within tolerance, so the ascending
        # scan keeps part 1 where a plain argmax would take part 2
        return CSRGraph(
            6,
            [0, 0, 0, 1, 2],
            [1, 2, 3, 4, 5],
            edge_weights=[3.0, 3.0 + 4e-13, 0.1, 1.0, 1.0],
        )

    # seed 8's first permutation scans node 0 before its neighbors
    @pytest.mark.parametrize("rng_seed", [None, 8])
    def test_fallback_replays_the_scalar_scan(self, rng_seed):
        g = self.near_tie_graph()
        fit = Fitness1(g, 3)
        pop = np.array([[0, 1, 2, 0, 1, 2]] * 3, dtype=np.int64)
        scalar = HillClimber(g, fit)._climb(pop[0], 1, None)
        assert scalar[0] == 1

        def rng():
            return None if rng_seed is None else np.random.default_rng(rng_seed)

        out = climb_batch(g, fit, pop, max_passes=1, rng=rng())
        ref = climb_batch_reference(g, fit, pop, max_passes=1, rng=rng())
        assert np.array_equal(out, ref)
        if rng_seed is None:
            assert np.array_equal(out, np.stack([scalar] * 3))
        assert np.all(out[:, 0] == 1)


class TestBatchBehavior:
    def test_input_not_modified_and_fitness_never_worsens(self):
        g = make_graph("unit")
        fit = Fitness2(g, 4)
        pop = random_population(g.n_nodes, 4, 8, seed=1)
        before = pop.copy()
        out = climb_batch(g, fit, pop, max_passes=2)
        assert np.array_equal(pop, before)
        assert np.all(
            fit.evaluate_batch(out) >= fit.evaluate_batch(pop) - 1e-9
        )

    def test_rng_mode_is_seed_deterministic(self):
        g = make_graph("unit")
        fit = Fitness1(g, 4)
        pop = random_population(g.n_nodes, 4, 8, seed=6)
        out1 = climb_batch(
            g, fit, pop, max_passes=2, rng=np.random.default_rng(42)
        )
        out2 = climb_batch(
            g, fit, pop, max_passes=2, rng=np.random.default_rng(42)
        )
        assert np.array_equal(out1, out2)
        assert np.all(
            fit.evaluate_batch(out1) >= fit.evaluate_batch(pop) - 1e-9
        )

    def test_rng_draws_independent_of_chunking(self):
        g = make_graph("unit")
        fit = Fitness1(g, 4)
        pop = random_population(g.n_nodes, 4, 9, seed=8)
        out_full = climb_batch(
            g, fit, pop, max_passes=3, rng=np.random.default_rng(7)
        )
        out_chunked = climb_batch(
            g, fit, pop, max_passes=3, rng=np.random.default_rng(7),
            chunk_rows=2,
        )
        assert np.array_equal(out_full, out_chunked)

    def test_empty_population_and_zero_passes(self):
        g = make_graph("unit")
        fit = Fitness1(g, 4)
        empty = np.empty((0, g.n_nodes), dtype=np.int64)
        assert climb_batch(g, fit, empty, max_passes=2).shape == (0, g.n_nodes)
        pop = random_population(g.n_nodes, 4, 3, seed=1)
        assert np.array_equal(climb_batch(g, fit, pop, max_passes=0), pop)

    def test_single_part_is_a_no_op(self):
        g = make_graph("unit")
        fit = Fitness1(g, 1)
        pop = np.zeros((4, g.n_nodes), dtype=np.int64)
        assert np.array_equal(climb_batch(g, fit, pop, max_passes=3), pop)

    def test_rejects_unsupported_fitness(self):
        g = make_graph("unit")

        class Weird:
            n_parts = 2

        with pytest.raises(ConfigError):
            climb_batch(g, Weird(), np.zeros((1, g.n_nodes), dtype=np.int64))


# ----------------------------------------------------------------------
# ParallelDPGA reproducibility (pinned islands) and history metrics
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def pgraph():
    return mesh_graph(40, seed=23)


def run_parallel(graph, n_workers, seed=11, max_generations=6):
    runner = ParallelDPGA(
        graph,
        "fitness1",
        4,
        crossover_kind="dknux",
        ga_config=GAConfig(population_size=8),
        dpga_config=DPGAConfig(
            total_population=16,
            n_islands=4,
            migration_interval=2,
            max_generations=max_generations,
        ),
        n_workers=n_workers,
        seed=seed,
    )
    return runner.run()


class TestParallelReproducibility:
    def test_same_seed_identical_across_worker_counts(self, pgraph):
        """Regression: worker-cached engines used to follow pool
        scheduling, so results depended on n_workers (and on OS timing).
        With islands pinned to workers, same-seed runs are identical."""
        r1 = run_parallel(pgraph, n_workers=1)
        r4 = run_parallel(pgraph, n_workers=4)
        assert r1.best_fitness == r4.best_fitness
        assert np.array_equal(r1.best.assignment, r4.best.assignment)
        assert r1.history.best_fitness == r4.history.best_fitness
        assert r1.history.mean_fitness == r4.history.mean_fitness
        assert r1.history.best_cut == r4.history.best_cut
        assert r1.history.best_worst_cut == r4.history.best_worst_cut

    def test_history_records_real_cut_metrics(self, pgraph):
        """Regression: per-epoch history rows carried best_cut=0.0 /
        best_worst_cut=0.0 placeholders."""
        res = run_parallel(pgraph, n_workers=2)
        h = res.history
        assert h.n_generations == 3  # one row per epoch
        for total_cut, worst_cut in zip(h.best_cut, h.best_worst_cut):
            # a real partition of a connected mesh always has a cut
            assert total_cut > 0.0
            assert worst_cut > 0.0
            # max_q C(q) <= sum_q C(q) = 2 * cut_size
            assert worst_cut <= 2.0 * total_cut
