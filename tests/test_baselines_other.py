"""Tests for RCB, RGB, KL, FM, greedy, and random baselines."""

import numpy as np
import pytest

from repro.baselines import (
    fm_refine,
    greedy_partition,
    kl_refine,
    random_partition,
    rcb_partition,
    recursive_kl_partition,
    rgb_partition,
    rsb_partition,
)
from repro.errors import GraphError, PartitionError
from repro.graphs import CSRGraph, caveman_graph, grid2d, mesh_graph, path_graph
from repro.partition import (
    Partition,
    check_partition,
    cut_size,
    require_all_parts_nonempty,
)


class TestRCB:
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_valid_balanced(self, mesh120, k):
        p = rcb_partition(mesh120, k)
        check_partition(p)
        require_all_parts_nonempty(p)
        assert p.part_sizes.max() - p.part_sizes.min() <= 1

    def test_grid_bisection_optimal(self):
        p = rcb_partition(grid2d(8, 8), 2)
        assert p.cut_size == 8.0

    def test_requires_coords(self):
        with pytest.raises(GraphError):
            rcb_partition(CSRGraph(4, [0], [1]), 2)

    def test_splits_longest_axis(self):
        """A 2x16 grid should be cut across its long axis (cut 2)."""
        p = rcb_partition(grid2d(2, 16), 2)
        assert p.cut_size == 2.0

    def test_bad_k(self, mesh60):
        with pytest.raises(PartitionError):
            rcb_partition(mesh60, 0)
        with pytest.raises(PartitionError):
            rcb_partition(mesh60, 61)


class TestRGB:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_valid_balanced(self, mesh120, k):
        p = rgb_partition(mesh120, k)
        check_partition(p)
        require_all_parts_nonempty(p)
        assert p.part_sizes.max() - p.part_sizes.min() <= 1

    def test_no_coords_needed(self):
        g = caveman_graph(4, 5)
        p = rgb_partition(g, 2)
        check_partition(p)

    def test_path_bisection_optimal(self):
        p = rgb_partition(path_graph(10), 2)
        assert p.cut_size == 1.0

    def test_disconnected(self):
        g = CSRGraph(6, [0, 1, 3, 4], [1, 2, 4, 5])
        p = rgb_partition(g, 2)
        check_partition(p)

    def test_empty_graph(self):
        p = rgb_partition(CSRGraph(0, [], []), 2)
        assert p.assignment.size == 0


class TestKL:
    def test_refine_improves_random_bisection(self, mesh120, rng):
        side = np.zeros(120, dtype=bool)
        side[rng.choice(120, 60, replace=False)] = True
        before = cut_size(mesh120, side.astype(np.int64))
        refined = kl_refine(mesh120, side)
        after = cut_size(mesh120, refined.astype(np.int64))
        assert after < before

    def test_refine_preserves_sizes(self, mesh120, rng):
        side = np.zeros(120, dtype=bool)
        side[rng.choice(120, 50, replace=False)] = True
        refined = kl_refine(mesh120, side)
        assert refined.sum() == 50

    def test_optimal_is_fixed_point_on_grid(self):
        """The straight bisection of a grid is KL-optimal."""
        g = grid2d(6, 6)
        side = np.zeros(36, dtype=bool)
        side[18:] = True
        refined = kl_refine(g, side)
        assert cut_size(g, refined.astype(np.int64)) <= 6.0

    def test_length_mismatch(self, mesh60):
        with pytest.raises(PartitionError):
            kl_refine(mesh60, np.zeros(10, dtype=bool))

    @pytest.mark.parametrize("k", [2, 4])
    def test_recursive_partition_quality(self, mesh120, k):
        p = recursive_kl_partition(mesh120, k, seed=0)
        check_partition(p)
        require_all_parts_nonempty(p)
        rand = random_partition(mesh120, k, seed=0)
        assert p.cut_size < 0.6 * rand.cut_size

    def test_recursive_validation(self, mesh60):
        with pytest.raises(PartitionError):
            recursive_kl_partition(mesh60, 0)
        with pytest.raises(PartitionError):
            recursive_kl_partition(mesh60, 61)

    def test_deadline_nonbinding_bit_identical(self, mesh120):
        """A deadline that never binds changes nothing — same labels,
        same RNG consumption (the portfolio's contract)."""
        import time

        plain = recursive_kl_partition(mesh120, 4, seed=0)
        budgeted = recursive_kl_partition(
            mesh120, 4, seed=0, deadline=time.perf_counter() + 1e6
        )
        assert np.array_equal(plain.assignment, budgeted.assignment)

    def test_deadline_binding_cancels_midrun(self, mesh120):
        """An already-passed deadline skips all refinement sweeps but
        still returns a valid balanced k-way partition promptly."""
        import time

        t0 = time.perf_counter()
        p = recursive_kl_partition(mesh120, 8, seed=0, deadline=t0)
        elapsed = time.perf_counter() - t0
        check_partition(p)
        require_all_parts_nonempty(p)
        unrefined = recursive_kl_partition(mesh120, 8, seed=0)
        assert elapsed < 1.0  # no KL sweeps ran
        assert p.cut_size >= unrefined.cut_size  # refinement was skipped


class TestFM:
    def test_refine_improves_or_keeps(self, mesh120, rng):
        a = rng.integers(0, 4, 120)
        p = Partition(mesh120, a, 4)
        refined = fm_refine(p, max_ratio=1.3)
        assert refined.cut_size <= p.cut_size
        check_partition(refined)

    def test_respects_balance_cap(self, mesh120):
        p = rsb_partition(mesh120, 4)
        refined = fm_refine(p, max_ratio=1.1)
        assert refined.balance_ratio <= 1.1 + 1e-9

    def test_local_optimum_stable(self, mesh60):
        p = rsb_partition(mesh60, 2)
        once = fm_refine(p, max_passes=10)
        twice = fm_refine(once, max_passes=3)
        assert twice.cut_size == once.cut_size

    def test_bad_ratio(self, mesh60):
        p = rsb_partition(mesh60, 2)
        with pytest.raises(PartitionError):
            fm_refine(p, max_ratio=0.5)

    def test_escapes_hill_climb_traps(self):
        """FM's negative-gain moves recover the clique split from a bad
        but locally-stable start at least as well as the start."""
        g = caveman_graph(2, 5)
        bad = np.array([0, 1] * 5)
        p = Partition(g, bad, 2)
        refined = fm_refine(p, max_passes=10, max_ratio=1.2)
        assert refined.cut_size <= p.cut_size


class TestGreedy:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_valid_and_covering(self, mesh120, k):
        p = greedy_partition(mesh120, k, seed=1)
        check_partition(p)
        require_all_parts_nonempty(p)

    def test_balance_reasonable(self, mesh120):
        p = greedy_partition(mesh120, 4, seed=2)
        assert p.balance_ratio < 1.5

    def test_beats_random(self, mesh120):
        g = greedy_partition(mesh120, 4, seed=3)
        r = random_partition(mesh120, 4, seed=3)
        assert g.cut_size < r.cut_size

    def test_deterministic_given_seed(self, mesh60):
        a = greedy_partition(mesh60, 3, seed=5)
        b = greedy_partition(mesh60, 3, seed=5)
        assert np.array_equal(a.assignment, b.assignment)

    def test_disconnected_leftovers_assigned(self):
        g = CSRGraph(7, [0, 1], [1, 2])  # nodes 3..6 isolated
        p = greedy_partition(g, 2, seed=0)
        assert p.part_sizes.sum() == 7

    def test_bad_k(self, mesh60):
        with pytest.raises(PartitionError):
            greedy_partition(mesh60, 0)


class TestRandomPartition:
    def test_balanced(self, mesh60):
        p = random_partition(mesh60, 4, seed=1)
        assert p.part_sizes.max() - p.part_sizes.min() <= 1

    def test_too_many_parts(self):
        with pytest.raises(PartitionError):
            random_partition(path_graph(3), 5)
