"""Tests for the process-parallel DPGA runner."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.ga import CROSSOVER_KINDS, DPGAConfig, GAConfig, ParallelDPGA
from repro.graphs import mesh_graph
from repro.partition import check_partition


@pytest.fixture(scope="module")
def graph():
    return mesh_graph(40, seed=23)


class TestValidation:
    def test_unknown_crossover(self, graph):
        with pytest.raises(ConfigError):
            ParallelDPGA(graph, "fitness1", 4, crossover_kind="3-point")

    def test_bad_workers(self, graph):
        with pytest.raises(ConfigError):
            ParallelDPGA(graph, "fitness1", 4, n_workers=0)

    def test_kinds_registry(self):
        assert "dknux" in CROSSOVER_KINDS
        assert "2-point" in CROSSOVER_KINDS

    def test_bad_pool_mode(self, graph):
        """The pool is chosen by width; the ``pool_mode`` override is
        deleted and passing it fails loudly."""
        with pytest.raises(TypeError, match="pool_mode"):
            ParallelDPGA(graph, "fitness1", 4, pool_mode="shared")


class TestRun:
    def test_parallel_run_produces_valid_partition(self, graph):
        runner = ParallelDPGA(
            graph,
            "fitness1",
            4,
            crossover_kind="dknux",
            ga_config=GAConfig(population_size=8),
            dpga_config=DPGAConfig(
                total_population=16,
                n_islands=2,
                migration_interval=2,
                max_generations=6,
            ),
            n_workers=2,
            seed=5,
        )
        res = runner.run()
        check_partition(res.best)
        assert res.generations == 6
        assert res.best_fitness <= 0.0

    def test_quality_reasonable(self, graph):
        """Parallel DKNUX should comfortably beat a random partition."""
        from repro.baselines import random_partition
        from repro.ga import Fitness1

        runner = ParallelDPGA(
            graph,
            "fitness1",
            2,
            crossover_kind="dknux",
            ga_config=GAConfig(population_size=10),
            dpga_config=DPGAConfig(
                total_population=20,
                n_islands=2,
                migration_interval=3,
                max_generations=15,
            ),
            n_workers=2,
            seed=9,
        )
        res = runner.run()
        fit = Fitness1(graph, 2)
        rand = random_partition(graph, 2, seed=0)
        assert res.best_fitness > fit.evaluate(rand.assignment)

    def test_shared_pool_matches_pinned(self, graph, monkeypatch):
        """The PR-4 fan-out satellite: one shared pool with explicit
        state shipping produces bit-identical search results to the
        per-island pinned executors, for any worker count.  Each path
        is forced by moving the width cutoff."""
        import repro.ga.parallel as parallel

        kwargs = dict(
            fitness_kind="fitness1",
            n_parts=4,
            crossover_kind="dknux",
            ga_config=GAConfig(
                population_size=8, hill_climb="all", hill_climb_passes=1
            ),
            dpga_config=DPGAConfig(
                total_population=16,
                n_islands=4,
                migration_interval=2,
                max_generations=4,
                migration_size=2,
            ),
            seed=11,
        )
        monkeypatch.setattr(parallel, "SHARED_POOL_CUTOFF", 64)
        pinned = ParallelDPGA(graph, n_workers=2, **kwargs).run()
        monkeypatch.setattr(parallel, "SHARED_POOL_CUTOFF", 0)
        shared = ParallelDPGA(graph, n_workers=2, **kwargs).run()
        shared3 = ParallelDPGA(graph, n_workers=3, **kwargs).run()
        assert np.array_equal(pinned.best.assignment, shared.best.assignment)
        assert pinned.best_fitness == shared.best_fitness
        # shared mode is itself n_workers-invariant
        assert np.array_equal(shared.best.assignment, shared3.best.assignment)
        # per-epoch harvested cut metrics agree too
        assert np.array_equal(
            pinned.history.as_arrays()["best_cut"],
            shared.history.as_arrays()["best_cut"],
        )

    def test_auto_mode_picks_pinned_at_small_widths(self, graph, monkeypatch):
        """``run()`` builds the pinned bank up to ``SHARED_POOL_CUTOFF``
        worker slots and one shared pool beyond it."""
        import repro.ga.parallel as parallel

        assert parallel.SHARED_POOL_CUTOFF == 16  # the measured default
        built = []

        class SpyBank(parallel.PinnedExecutors):
            def __init__(self, n_slots, *args, **kwargs):
                built.append(("bank", n_slots))
                super().__init__(n_slots, *args, **kwargs)

        class SpyPool(parallel.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                built.append(("pool", max_workers))
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(parallel, "PinnedExecutors", SpyBank)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", SpyPool)
        runner = ParallelDPGA(
            graph, "fitness1", 4,
            ga_config=GAConfig(population_size=4, hill_climb="off"),
            dpga_config=DPGAConfig(
                total_population=8, n_islands=2,
                migration_interval=1, max_generations=1,
            ),
            n_workers=2, seed=0,
        )
        monkeypatch.setattr(parallel, "SHARED_POOL_CUTOFF", 2)
        runner.run()
        # pinned: a bank of one single-process pool per slot
        assert built == [("bank", 2), ("pool", 1), ("pool", 1)]
        built.clear()
        monkeypatch.setattr(parallel, "SHARED_POOL_CUTOFF", 1)
        runner.run()
        assert built == [("pool", 2)]  # shared: one pool of both slots

    def test_initial_population_respected(self, graph):
        from repro.baselines import rsb_partition
        from repro.ga import Fitness1

        seed_assign = rsb_partition(graph, 4).assignment
        runner = ParallelDPGA(
            graph,
            "fitness1",
            4,
            crossover_kind="uniform",
            ga_config=GAConfig(
                population_size=8, crossover_rate=0.0, mutation_rate=0.0
            ),
            dpga_config=DPGAConfig(
                total_population=16,
                n_islands=2,
                migration_interval=2,
                max_generations=2,
            ),
            n_workers=2,
            seed=1,
        )
        res = runner.run(seed_assign[None, :])
        assert res.best_fitness >= Fitness1(graph, 4).evaluate(seed_assign)
