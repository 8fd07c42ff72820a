"""Tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import (
    binary_tree,
    caveman_graph,
    check_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    delaunay_mesh,
    grid2d,
    grid3d,
    hypercube_graph,
    is_connected,
    path_graph,
    random_geometric,
    random_regular,
    star_graph,
    torus2d,
)


class TestPathCycleStar:
    def test_path_structure(self):
        g = path_graph(5)
        assert g.n_edges == 4
        assert g.degree(0) == 1
        assert g.degree(2) == 2
        check_graph(g)

    def test_path_zero_and_one(self):
        assert path_graph(0).n_nodes == 0
        assert path_graph(1).n_edges == 0

    def test_path_negative_rejected(self):
        with pytest.raises(GraphError):
            path_graph(-1)

    def test_cycle_structure(self):
        g = cycle_graph(6)
        assert g.n_edges == 6
        assert np.all(g.degree() == 2)
        check_graph(g)

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(7)
        assert g.n_nodes == 8
        assert g.degree(0) == 7
        assert g.degree(3) == 1

    def test_complete(self):
        g = complete_graph(5)
        assert g.n_edges == 10
        assert np.all(g.degree() == 4)

    def test_complete_trivial(self):
        assert complete_graph(1).n_edges == 0


class TestGrids:
    def test_grid2d_counts(self):
        g = grid2d(3, 4)
        assert g.n_nodes == 12
        assert g.n_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        check_graph(g)

    def test_grid2d_coords_match_ids(self):
        g = grid2d(3, 4)
        # node (r=1, c=2) has id 6 and coordinate (x=2, y=1)
        assert g.coords[6].tolist() == [2.0, 1.0]

    def test_grid2d_bad_dims(self):
        with pytest.raises(GraphError):
            grid2d(0, 4)

    def test_grid3d_counts(self):
        g = grid3d(2, 3, 4)
        n = 2 * 3 * 4
        assert g.n_nodes == n
        expected = 1 * 3 * 4 + 2 * 2 * 4 + 2 * 3 * 3
        assert g.n_edges == expected
        check_graph(g)

    def test_torus_regular(self):
        g = torus2d(4, 5)
        assert np.all(g.degree() == 4)
        assert g.n_edges == 2 * 20
        check_graph(g)

    def test_torus_too_small(self):
        with pytest.raises(GraphError):
            torus2d(2, 5)


class TestHypercube:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
    def test_counts(self, dim):
        g = hypercube_graph(dim)
        assert g.n_nodes == 2**dim
        assert g.n_edges == dim * 2 ** (dim - 1) if dim else g.n_edges == 0

    def test_neighbors_differ_by_one_bit(self):
        g = hypercube_graph(4)
        for u, v, _ in g.iter_edges():
            assert bin(u ^ v).count("1") == 1

    def test_connected(self):
        assert is_connected(hypercube_graph(5))


class TestGeometric:
    def test_random_geometric_deterministic(self):
        a = random_geometric(50, 0.2, seed=3)
        b = random_geometric(50, 0.2, seed=3)
        assert a == b

    def test_random_geometric_radius_zero(self):
        g = random_geometric(10, 0.0, seed=1)
        assert g.n_edges == 0

    def test_random_geometric_full_radius(self):
        g = random_geometric(10, 2.0, seed=1)
        assert g.n_edges == 45  # complete

    def test_delaunay_mesh_planar_bounds(self):
        pts = np.random.default_rng(5).random((40, 2))
        g = delaunay_mesh(pts)
        check_graph(g)
        # planar graph: m <= 3n - 6
        assert g.n_edges <= 3 * g.n_nodes - 6
        assert is_connected(g)

    def test_delaunay_edges_are_the_triangle_edges_once(self):
        from scipy.spatial import Delaunay

        pts = np.random.default_rng(5).random((120, 2))
        simplices = Delaunay(pts).simplices
        edges = np.vstack(
            [simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]]
        )
        ref = np.unique(np.sort(edges, axis=1), axis=0)
        g = delaunay_mesh(pts)
        assert np.array_equal(g.edges_u, ref[:, 0])
        assert np.array_equal(g.edges_v, ref[:, 1])
        assert np.all(g.edge_weights == 1.0)

    def test_delaunay_needs_3_points(self):
        with pytest.raises(GraphError):
            delaunay_mesh(np.zeros((2, 2)))

    def test_delaunay_rejects_3d(self):
        with pytest.raises(GraphError):
            delaunay_mesh(np.zeros((5, 3)))


class TestCaveman:
    def test_structure(self):
        g = caveman_graph(4, 5)
        assert g.n_nodes == 20
        # 4 cliques of C(5,2)=10 edges plus 4 ring links
        assert g.n_edges == 44
        assert is_connected(g)

    def test_two_cliques_single_bridge(self):
        g = caveman_graph(2, 3)
        assert g.n_edges == 2 * 3 + 1

    def test_single_clique(self):
        g = caveman_graph(1, 4)
        assert g.n_edges == 6

    def test_bad_args(self):
        with pytest.raises(GraphError):
            caveman_graph(0, 5)
        with pytest.raises(GraphError):
            caveman_graph(3, 1)


class TestMisc:
    def test_random_regular(self):
        g = random_regular(20, 3, seed=9)
        assert np.all(g.degree() == 3)

    def test_random_regular_parity(self):
        with pytest.raises(GraphError):
            random_regular(5, 3)

    def test_binary_tree(self):
        g = binary_tree(3)
        assert g.n_nodes == 15
        assert g.n_edges == 14
        assert g.degree(0) == 2
        assert connected_components(g).max() == 0

    def test_binary_tree_depth0(self):
        g = binary_tree(0)
        assert g.n_nodes == 1
