"""Tests for the Fiedler solver and recursive spectral bisection."""

import numpy as np
import pytest

from repro.baselines import fiedler_value, fiedler_vector, rsb_partition, split_by_scores
from repro.errors import GraphError, PartitionError
from repro.graphs import CSRGraph, caveman_graph, grid2d, mesh_graph, path_graph
from repro.partition import check_partition, require_all_parts_nonempty


class TestFiedler:
    def test_path_fiedler_is_monotone(self):
        """The Fiedler vector of a path is a discrete cosine — strictly
        monotone along the path."""
        g = path_graph(10)
        vec = fiedler_vector(g)
        diffs = np.diff(vec)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_orthogonal_to_constant(self, mesh60):
        vec = fiedler_vector(mesh60)
        assert abs(vec.sum()) < 1e-8

    def test_eigen_equation(self, mesh60):
        from repro.graphs import laplacian

        vec = fiedler_vector(mesh60)
        val = fiedler_value(mesh60)
        lap = laplacian(mesh60, dense=True)
        assert np.allclose(lap @ vec, val * vec, atol=1e-8)

    def test_value_known_for_path(self):
        """λ₂ of a path of n nodes is 2(1 - cos(π/n))."""
        n = 8
        val = fiedler_value(path_graph(n))
        assert np.isclose(val, 2 * (1 - np.cos(np.pi / n)))

    def test_disconnected_returns_component_indicator(self):
        g = CSRGraph(4, [0, 2], [1, 3])
        vec = fiedler_vector(g)
        assert vec[0] == vec[1]
        assert vec[2] == vec[3]
        assert vec[0] != vec[2]
        assert fiedler_value(g) == 0.0

    def test_sign_convention_deterministic(self, mesh60):
        v1 = fiedler_vector(mesh60)
        v2 = fiedler_vector(mesh60)
        assert np.array_equal(v1, v2)

    def test_sparse_matches_dense(self, mesh120):
        dense = fiedler_vector(mesh120, method="dense")
        sparse = fiedler_vector(mesh120, method="sparse", seed=0)
        # same eigenvector up to sign (sign convention fixes it) & tolerance
        assert np.allclose(np.abs(dense), np.abs(sparse), atol=1e-6)

    def test_too_small(self):
        with pytest.raises(GraphError):
            fiedler_vector(CSRGraph(1, [], []))

    def test_unknown_method(self, mesh60):
        with pytest.raises(GraphError):
            fiedler_vector(mesh60, method="magic")


class TestSplitByScores:
    def test_unit_weights_median_split(self):
        scores = np.array([5.0, 1.0, 3.0, 2.0, 4.0, 6.0])
        mask = split_by_scores(scores, np.ones(6), 0.5)
        assert mask.sum() == 3
        assert set(np.flatnonzero(mask)) == {1, 3, 2}  # three smallest

    def test_weighted_split(self):
        scores = np.arange(4, dtype=float)
        weights = np.array([3.0, 1.0, 1.0, 1.0])
        mask = split_by_scores(scores, weights, 0.5)
        # node 0 alone carries half the weight
        assert mask[0] and mask.sum() == 1

    def test_uneven_fraction(self):
        scores = np.arange(8, dtype=float)
        mask = split_by_scores(scores, np.ones(8), 0.25)
        assert mask.sum() == 2

    def test_both_sides_nonempty(self):
        mask = split_by_scores(np.array([1.0, 1.0]), np.ones(2), 0.5)
        assert mask.sum() == 1

    def test_tie_break_by_id(self):
        scores = np.zeros(4)
        mask = split_by_scores(scores, np.ones(4), 0.5)
        assert np.flatnonzero(mask).tolist() == [0, 1]

    def test_bad_fraction(self):
        with pytest.raises(PartitionError):
            split_by_scores(np.ones(3), np.ones(3), 0.0)


class TestRSB:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    def test_valid_balanced_partitions(self, mesh120, k):
        p = rsb_partition(mesh120, k)
        check_partition(p)
        require_all_parts_nonempty(p)
        assert p.part_sizes.max() - p.part_sizes.min() <= 1

    def test_rect_grid_bisection_is_straight_cut(self):
        """RSB cuts a 4x10 grid across the long axis with the minimum
        cut of 4.  (A square grid is avoided: its λ₂ eigenspace is
        two-dimensional, so the Fiedler direction is degenerate.)"""
        g = grid2d(4, 10)
        p = rsb_partition(g, 2)
        assert p.cut_size == 4.0

    def test_caveman_respects_cliques(self):
        g = caveman_graph(4, 5)
        p = rsb_partition(g, 4)
        # optimal: one clique per part, cutting only the 4 ring links
        assert p.cut_size <= 4.0

    def test_beats_random_substantially(self, mesh120):
        from repro.baselines import random_partition

        rsb = rsb_partition(mesh120, 4)
        rand = random_partition(mesh120, 4, seed=0)
        assert rsb.cut_size < 0.5 * rand.cut_size

    def test_deterministic(self, mesh120):
        p1 = rsb_partition(mesh120, 4)
        p2 = rsb_partition(mesh120, 4)
        assert np.array_equal(p1.assignment, p2.assignment)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(PartitionError):
            rsb_partition(path_graph(3), 5)

    def test_bad_k(self, mesh60):
        with pytest.raises(PartitionError):
            rsb_partition(mesh60, 0)

    def test_empty_graph(self):
        p = rsb_partition(CSRGraph(0, [], []), 3)
        assert p.assignment.size == 0

    def test_deadline_nonbinding_bit_identical(self, mesh120):
        """A deadline that never binds changes nothing (the portfolio's
        contract for its iterative baseline legs)."""
        import time

        plain = rsb_partition(mesh120, 4)
        budgeted = rsb_partition(
            mesh120, 4, deadline=time.perf_counter() + 1e6
        )
        assert np.array_equal(plain.assignment, budgeted.assignment)

    def test_deadline_binding_skips_eigensolves(self, mesh120):
        """Once the deadline passes, remaining levels split by index —
        valid, prompt, and with every part non-empty."""
        import time

        t0 = time.perf_counter()
        p = rsb_partition(mesh120, 8, deadline=t0)
        elapsed = time.perf_counter() - t0
        check_partition(p)
        require_all_parts_nonempty(p)
        assert elapsed < 1.0  # no eigensolves ran

    def test_disconnected_graph_handled(self):
        g = CSRGraph(6, [0, 1, 3, 4], [1, 2, 4, 5])  # two triangles paths
        p = rsb_partition(g, 2)
        check_partition(p)
        assert p.part_sizes.tolist() == [3, 3]

    def test_two_node_graph(self):
        g = CSRGraph(2, [0], [1])
        p = rsb_partition(g, 2)
        assert sorted(p.assignment.tolist()) == [0, 1]
