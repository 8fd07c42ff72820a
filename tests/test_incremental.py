"""Tests for incremental graph partitioning."""

import numpy as np
import pytest

from repro.baselines import rsb_partition
from repro.errors import GraphError, PartitionError
from repro.ga import GAConfig
from repro.graphs import check_graph, is_connected, mesh_graph, paper_mesh
from repro.incremental import (
    IncrementalGAPartitioner,
    extend_assignment,
    insert_local_nodes,
    naive_incremental_partition,
    seed_population_from_previous,
)
from repro.partition import check_partition


@pytest.fixture(scope="module")
def base_and_update():
    g = mesh_graph(80, seed=31)
    upd = insert_local_nodes(g, 15, seed=4)
    return g, upd


class TestInsertLocalNodes:
    def test_node_count_and_ids(self, base_and_update):
        g, upd = base_and_update
        assert upd.graph.n_nodes == 95
        assert upd.n_old == 80
        assert upd.new_nodes.tolist() == list(range(80, 95))
        assert 0 <= upd.center < 80
        check_graph(upd.graph)

    def test_old_coordinates_preserved(self, base_and_update):
        g, upd = base_and_update
        assert np.allclose(upd.graph.coords[:80], g.coords)

    def test_new_nodes_are_local(self, base_and_update):
        g, upd = base_and_update
        center = g.coords[upd.center]
        new_pts = upd.graph.coords[80:]
        d = np.linalg.norm(new_pts - center, axis=1)
        # all inserted points within the (generous) default radius
        assert d.max() < 0.6

    def test_still_connected(self, base_and_update):
        _, upd = base_and_update
        assert is_connected(upd.graph)

    def test_deterministic(self):
        g = mesh_graph(50, seed=1)
        a = insert_local_nodes(g, 10, seed=2)
        b = insert_local_nodes(g, 10, seed=2)
        assert a.graph == b.graph
        assert a.center == b.center

    def test_points_match_one_draw_at_a_time(self):
        """The canonical incremental cases rest on these exact points:
        the same draws, rejections and order as a loop that re-stacks
        the accepted points for every candidate."""
        g, n_new = paper_mesh(118), 41
        upd = insert_local_nodes(g, n_new, seed=7)
        rng = np.random.default_rng(7)
        coords = g.coords
        center = int(rng.integers(0, g.n_nodes))
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        area = float(np.prod(np.maximum(hi - lo, 1e-12)))
        radius = float(np.sqrt(3.0 * n_new * area / (np.pi * g.n_nodes)))
        accepted = []
        while len(accepted) < n_new:
            r = radius * np.sqrt(rng.random())
            theta = 2 * np.pi * rng.random()
            cand = coords[center] + np.array([r * np.cos(theta), r * np.sin(theta)])
            if np.any(cand < lo) or np.any(cand > hi):
                continue
            pool = np.vstack([coords] + accepted)
            if np.min(np.sum((pool - cand) ** 2, axis=1)) < 1e-9:
                continue
            accepted.append(cand[None, :])
        assert upd.center == center
        assert np.array_equal(upd.graph.coords[g.n_nodes :], np.vstack(accepted))

    def test_node_weights_extended(self):
        g = mesh_graph(30, seed=1).with_weights(node_weights=np.full(30, 2.0))
        upd = insert_local_nodes(g, 5, seed=3)
        assert np.all(upd.graph.node_weights[:30] == 2.0)
        assert np.all(upd.graph.node_weights[30:] == 1.0)

    def test_validation(self):
        g = mesh_graph(30, seed=1)
        with pytest.raises(GraphError):
            insert_local_nodes(g, 0)
        with pytest.raises(GraphError):
            insert_local_nodes(g, 5, radius=-1.0)
        from repro.graphs import CSRGraph

        with pytest.raises(GraphError):
            insert_local_nodes(CSRGraph(4, [0], [1]), 2)


class TestExtendAssignment:
    def test_old_labels_preserved(self, base_and_update):
        g, upd = base_and_update
        old = rsb_partition(g, 4).assignment
        full = extend_assignment(upd.graph, old, 4, seed=5)
        assert np.array_equal(full[:80], old)

    def test_balance_maintained(self, base_and_update):
        g, upd = base_and_update
        old = rsb_partition(g, 4).assignment
        full = extend_assignment(upd.graph, old, 4, seed=6)
        sizes = np.bincount(full, minlength=4)
        old_spread = np.ptp(np.bincount(old, minlength=4))
        assert sizes.max() - sizes.min() <= old_spread + 1

    def test_validation(self, base_and_update):
        g, upd = base_and_update
        with pytest.raises(PartitionError):
            extend_assignment(upd.graph, np.zeros(200, dtype=np.int64), 4)
        with pytest.raises(PartitionError):
            extend_assignment(upd.graph, np.full(80, 9, dtype=np.int64), 4)


class TestSeedPopulation:
    def test_shape_and_rows(self, base_and_update):
        g, upd = base_and_update
        old = rsb_partition(g, 4).assignment
        pop = seed_population_from_previous(upd.graph, old, 4, 10, seed=7)
        assert pop.shape == (10, 95)
        # row 0 is a faithful extension
        assert np.array_equal(pop[0, :80], old)

    def test_rows_differ_in_new_region(self, base_and_update):
        g, upd = base_and_update
        old = rsb_partition(g, 4).assignment
        pop = seed_population_from_previous(
            upd.graph, old, 4, 8, seed=8, perturb_rate=0.0
        )
        tails = {tuple(row[80:]) for row in pop}
        assert len(tails) > 1

    def test_zero_perturb_keeps_all_old_genes(self, base_and_update):
        g, upd = base_and_update
        old = rsb_partition(g, 4).assignment
        pop = seed_population_from_previous(
            upd.graph, old, 4, 6, seed=9, perturb_rate=0.0
        )
        for row in pop:
            assert np.array_equal(row[:80], old)

    def test_validation(self, base_and_update):
        g, upd = base_and_update
        old = rsb_partition(g, 4).assignment
        with pytest.raises(PartitionError):
            seed_population_from_previous(upd.graph, old, 4, 0)
        with pytest.raises(PartitionError):
            seed_population_from_previous(upd.graph, old, 4, 5, perturb_rate=3.0)


class TestNaiveBaseline:
    def test_old_labels_untouched(self, base_and_update):
        g, upd = base_and_update
        old = rsb_partition(g, 4).assignment
        p = naive_incremental_partition(upd.graph, old, 4)
        assert np.array_equal(p.assignment[:80], old)
        check_partition(p)

    def test_majority_rule(self):
        """A new node whose labelled neighbors are all in part q joins q."""
        g = mesh_graph(40, seed=2)
        upd = insert_local_nodes(g, 1, seed=3)
        old = np.zeros(40, dtype=np.int64)  # everything in part 0
        p = naive_incremental_partition(upd.graph, old, 2)
        assert p.assignment[40] == 0

    def test_processes_most_connected_first(self, base_and_update):
        g, upd = base_and_update
        old = rsb_partition(g, 2).assignment
        p = naive_incremental_partition(upd.graph, old, 2)
        # every new node ends with a label
        assert p.assignment.min() >= 0

    def test_validation(self, base_and_update):
        _, upd = base_and_update
        with pytest.raises(PartitionError):
            naive_incremental_partition(
                upd.graph, np.zeros(200, dtype=np.int64), 4
            )
        with pytest.raises(PartitionError):
            naive_incremental_partition(
                upd.graph, np.full(80, -1, dtype=np.int64), 4
            )


class TestIncrementalGAPartitioner:
    @pytest.fixture
    def quick_config(self):
        return GAConfig(
            population_size=24,
            max_generations=25,
            patience=8,
            hill_climb="all",
            hill_climb_passes=1,
        )

    def test_full_cycle(self, quick_config):
        g = mesh_graph(60, seed=41)
        part = IncrementalGAPartitioner(g, 4, config=quick_config, seed=1)
        p0 = part.partition_initial()
        check_partition(p0)
        upd = insert_local_nodes(g, 12, seed=5)
        p1 = part.update(upd.graph)
        check_partition(p1)
        assert part.n_updates == 1
        assert part.graph is upd.graph

    def test_update_without_initial_partitions_from_scratch(self, quick_config):
        g = mesh_graph(60, seed=42)
        part = IncrementalGAPartitioner(g, 2, config=quick_config, seed=2)
        p = part.update(g)  # no partition yet -> behaves like initial
        check_partition(p)

    def test_initial_assignment_seed(self, quick_config):
        g = mesh_graph(60, seed=43)
        rsb = rsb_partition(g, 4)
        part = IncrementalGAPartitioner(
            g, 4, config=quick_config, seed=3, initial_assignment=rsb.assignment
        )
        p = part.partition_initial()
        # refinement never loses to the seed
        from repro.ga import Fitness1

        fit = Fitness1(g, 4)
        assert fit.evaluate(p.assignment) >= fit.evaluate(rsb.assignment)

    def test_shrinking_graph_rejected(self, quick_config):
        g = mesh_graph(60, seed=44)
        part = IncrementalGAPartitioner(g, 2, config=quick_config, seed=4)
        part.partition_initial()
        smaller = mesh_graph(50, seed=45)
        with pytest.raises(PartitionError):
            part.update(smaller)

    def test_split_kernels_match_update(self, quick_config):
        """begin_update → run_pending → commit_update is exactly what
        update() composes (the overlapped session path relies on it)."""
        g = mesh_graph(60, seed=46)
        upd = insert_local_nodes(g, 10, seed=8)
        monolithic = IncrementalGAPartitioner(g, 4, config=quick_config, seed=5)
        monolithic.partition_initial()
        split = IncrementalGAPartitioner(g, 4, config=quick_config, seed=5)
        split.partition_initial()

        expected = monolithic.update(upd.graph)
        pending = split.begin_update(upd.graph)
        split.run_pending(pending)
        got = split.commit_update(pending)
        assert np.array_equal(expected.assignment, got.assignment)
        assert split.n_updates == 1

    def test_stale_commit_rebases(self, quick_config):
        """A pending update that lost the commit race raises
        StaleUpdateError; re-running it seeds from the newly committed
        partition (the rebase) and then commits cleanly."""
        from repro.incremental import StaleUpdateError

        g = mesh_graph(60, seed=47)
        part = IncrementalGAPartitioner(g, 4, config=quick_config, seed=6)
        part.partition_initial()
        upd_a = insert_local_nodes(g, 8, seed=9)
        upd_b = insert_local_nodes(g, 8, seed=10)

        pending = part.begin_update(upd_a.graph)
        part.run_pending(pending)
        part.update(upd_b.graph)  # a competing update commits first
        with pytest.raises(StaleUpdateError):
            part.commit_update(pending)
        # rebase: upd_a must now grow on top of upd_b's node count? no —
        # it is an alternative update of the same base; re-running seeds
        # from the *current* (upd_b) partition's prefix
        part.run_pending(pending)
        committed = part.commit_update(pending)
        check_partition(committed)
        assert part.graph is upd_a.graph
        assert part.n_updates == 2

    def test_rebase_conflict_when_session_moved_past_pending(self, quick_config):
        """If a competing update committed a *larger* graph, the pending
        update cannot rebase (node removal is outside the model) —
        run_pending surfaces StaleUpdateError with a clear message, not
        a shape error from deep inside the seeding."""
        from repro.incremental import StaleUpdateError

        g = mesh_graph(60, seed=51)
        part = IncrementalGAPartitioner(g, 4, config=quick_config, seed=10)
        part.partition_initial()
        small = insert_local_nodes(g, 5, seed=13)
        big = insert_local_nodes(g, 9, seed=14)
        pending = part.begin_update(small.graph)
        part.run_pending(pending)
        part.update(big.graph)  # session moves to 69 nodes
        with pytest.raises(StaleUpdateError, match="moved past"):
            part.run_pending(pending)

    def test_commit_requires_run(self, quick_config):
        g = mesh_graph(60, seed=48)
        part = IncrementalGAPartitioner(g, 2, config=quick_config, seed=7)
        part.partition_initial()
        upd = insert_local_nodes(g, 5, seed=11)
        pending = part.begin_update(upd.graph)
        with pytest.raises(PartitionError, match="not been run"):
            part.commit_update(pending)

    def test_engine_reused_on_same_graph(self, quick_config):
        """The engine (and its evaluator memo) survives repeated runs on
        an unchanged graph instead of being rebuilt (warm-carry item)."""
        g = mesh_graph(60, seed=49)
        part = IncrementalGAPartitioner(g, 4, config=quick_config, seed=8)
        part.partition_initial()
        engine = part._engine
        assert engine is not None
        part.partition_initial()  # re-optimize the same graph
        assert part._engine is engine

    def test_dknux_estimate_carried_across_updates(self, quick_config):
        """After an update, the fresh engine's DKNUX starts from the
        carried previous-best estimate (with its re-evaluated fitness),
        not from scratch — and carry can be disabled."""
        from repro.ga.dknux import DKNUX

        g = mesh_graph(60, seed=50)
        upd = insert_local_nodes(g, 10, seed=12)
        carried = IncrementalGAPartitioner(g, 4, config=quick_config, seed=9)
        carried.partition_initial()
        carried.update(upd.graph)
        cross = carried._engine.crossover
        assert isinstance(cross, DKNUX)
        # the estimate survived the graph change: by the time the run
        # ended its best-seen fitness can only have improved on the
        # carried seed value, and an estimate exists from generation 0
        assert cross.best_fitness_seen > -np.inf

        plain = IncrementalGAPartitioner(
            g, 4, config=quick_config, seed=9, carry_estimate=False
        )
        plain.partition_initial()
        p = plain.update(upd.graph)
        check_partition(p)  # the opt-out path still works end to end

    def test_incremental_beats_naive_on_balance(self, quick_config):
        """The paper's Section 5 claim: the naive assign-to-majority rule
        cannot match GA incremental results (it sacrifices balance)."""
        base = paper_mesh(78)
        part = IncrementalGAPartitioner(base, 4, config=quick_config, seed=6)
        p0 = part.partition_initial()
        upd = insert_local_nodes(base, 20, seed=7)
        ga = part.update(upd.graph)
        naive = naive_incremental_partition(upd.graph, p0.assignment, 4)
        from repro.ga import Fitness1

        fit = Fitness1(upd.graph, 4)
        assert fit.evaluate(ga.assignment) > fit.evaluate(naive.assignment)

    def test_repr(self, quick_config):
        g = mesh_graph(60, seed=46)
        part = IncrementalGAPartitioner(g, 2, config=quick_config)
        assert "unpartitioned" in repr(part)
