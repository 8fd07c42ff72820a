"""Tests for the paper-scale mesh workload generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import (
    PAPER_SIZES,
    blue_noise_points,
    check_graph,
    is_connected,
    mesh_graph,
    paper_mesh,
)


class TestBlueNoise:
    def test_count_and_range(self):
        pts = blue_noise_points(30, seed=1)
        assert pts.shape == (30, 2)
        assert pts.min() >= 0.0 and pts.max() <= 1.0

    def test_deterministic(self):
        a = blue_noise_points(25, seed=4)
        b = blue_noise_points(25, seed=4)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = blue_noise_points(25, seed=4)
        b = blue_noise_points(25, seed=5)
        assert not np.array_equal(a, b)

    def test_zero_points(self):
        assert blue_noise_points(0, seed=1).shape == (0, 2)

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            blue_noise_points(-3)

    @pytest.mark.parametrize("n,candidates", [(1, 12), (2, 1), (40, 6), (183, 12)])
    def test_matches_one_round_at_a_time(self, n, candidates):
        """The canonical meshes rest on these exact points: drawing every
        round up front must pick what drawing and scanning one candidate
        set per round picks, bit for bit."""
        rng = np.random.default_rng(11)
        ref = np.empty((n, 2))
        ref[0] = rng.random(2)
        for i in range(1, n):
            cand = rng.random((candidates, 2))
            d = np.min(
                np.sum((cand[:, None, :] - ref[None, :i, :]) ** 2, axis=2), axis=1
            )
            ref[i] = cand[np.argmax(d)]
        pts = blue_noise_points(n, seed=11, candidates=candidates)
        assert np.array_equal(pts, ref)

    def test_spacing_better_than_uniform(self):
        """Best-candidate sampling should avoid very close pairs."""
        pts = blue_noise_points(50, seed=2)
        d = np.sqrt(
            ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        )
        np.fill_diagonal(d, np.inf)
        # minimum pairwise distance well above the uniform-sampling
        # expectation (~1/(2n) for close pairs)
        assert d.min() > 0.02


class TestMeshGraph:
    def test_valid_and_connected(self):
        g = mesh_graph(60, seed=3)
        check_graph(g)
        assert is_connected(g)
        assert g.coords is not None

    def test_deterministic(self):
        assert mesh_graph(40, seed=8) == mesh_graph(40, seed=8)

    def test_minimum_size(self):
        with pytest.raises(GraphError):
            mesh_graph(2)

    def test_bounded_average_degree(self):
        g = mesh_graph(150, seed=10)
        # Delaunay triangulations have average degree < 6
        assert g.degree().mean() < 6.0


class TestPaperMesh:
    @pytest.mark.parametrize("n", PAPER_SIZES)
    def test_all_paper_sizes(self, n):
        g = paper_mesh(n)
        assert g.n_nodes == n
        assert is_connected(g)

    def test_stable_across_calls(self):
        assert paper_mesh(78) == paper_mesh(78)

    def test_distinct_sizes_distinct_graphs(self):
        assert paper_mesh(78) != paper_mesh(88)
