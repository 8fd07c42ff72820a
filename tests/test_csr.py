"""Unit tests for the CSR graph substrate."""

import pickle

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import CSRGraph, check_graph, grid2d


class TestConstruction:
    def test_empty_graph(self):
        g = CSRGraph(0, [], [])
        assert g.n_nodes == 0
        assert g.n_edges == 0
        check_graph(g)

    def test_nodes_without_edges(self):
        g = CSRGraph(5, [], [])
        assert g.n_nodes == 5
        assert g.n_edges == 0
        assert g.degree(3) == 0
        check_graph(g)

    def test_single_edge(self):
        g = CSRGraph(2, [0], [1])
        assert g.n_edges == 1
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        check_graph(g)

    def test_canonical_orientation(self):
        g = CSRGraph(3, [2, 1], [0, 0])
        assert np.all(g.edges_u < g.edges_v)
        assert g.has_edge(0, 2)
        assert g.has_edge(0, 1)

    def test_duplicate_edges_merge_weights(self):
        g = CSRGraph(2, [0, 1, 0], [1, 0, 1], edge_weights=[1.0, 2.0, 3.0])
        assert g.n_edges == 1
        assert g.edge_weights[0] == 6.0
        check_graph(g)

    def test_default_weights_are_unit(self):
        g = CSRGraph(3, [0, 1], [1, 2])
        assert np.all(g.edge_weights == 1.0)
        assert np.all(g.node_weights == 1.0)

    def test_negative_n_nodes_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(-1, [], [])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            CSRGraph(3, [1], [1])

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(3, [0], [3])
        with pytest.raises(GraphError):
            CSRGraph(3, [-1], [1])

    def test_mismatched_endpoint_lengths_rejected(self):
        with pytest.raises(GraphError, match="differ in length"):
            CSRGraph(3, [0, 1], [1])

    def test_bad_edge_weight_length_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(3, [0], [1], edge_weights=[1.0, 2.0])

    def test_negative_edge_weight_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(3, [0], [1], edge_weights=[-1.0])

    def test_bad_node_weight_length_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(3, [0], [1], node_weights=[1.0])

    def test_negative_node_weight_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(2, [0], [1], node_weights=[1.0, -2.0])

    def test_coords_row_mismatch_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(3, [0], [1], coords=np.zeros((2, 2)))

    def test_1d_coords_promoted_to_column(self):
        g = CSRGraph(3, [0], [1], coords=np.array([0.0, 1.0, 2.0]))
        assert g.coords.shape == (3, 1)


class TestAdjacency:
    def test_neighbors_of_path(self, path6):
        assert path6.neighbors(0).tolist() == [1]
        assert sorted(path6.neighbors(3).tolist()) == [2, 4]
        assert path6.neighbors(5).tolist() == [4]

    def test_neighbor_weights_aligned(self, weighted_triangle):
        g = weighted_triangle
        nbrs = g.neighbors(0)
        wts = g.neighbor_weights(0)
        lookup = dict(zip(nbrs.tolist(), wts.tolist()))
        assert lookup == {1: 1.0, 2: 4.0}

    def test_degree_array_and_scalar(self, grid4x4):
        degrees = grid4x4.degree()
        assert degrees.sum() == 2 * grid4x4.n_edges
        assert grid4x4.degree(0) == 2  # corner
        assert grid4x4.degree(5) == 4  # interior

    def test_neighbors_out_of_range(self, path6):
        with pytest.raises(GraphError):
            path6.neighbors(6)
        with pytest.raises(GraphError):
            path6.neighbor_weights(-1)
        with pytest.raises(GraphError):
            path6.degree(17)

    def test_has_edge_negative_cases(self, path6):
        assert not path6.has_edge(0, 2)
        assert not path6.has_edge(0, 0)
        assert not path6.has_edge(0, 99)

    def test_edge_list_shape(self, grid4x4):
        el = grid4x4.edge_list()
        assert el.shape == (grid4x4.n_edges, 2)
        assert np.all(el[:, 0] < el[:, 1])

    def test_iter_edges_matches_arrays(self, weighted_triangle):
        edges = list(weighted_triangle.iter_edges())
        assert edges == [(0, 1, 1.0), (0, 2, 4.0), (1, 2, 2.0)]

    def test_totals(self, weighted_triangle):
        assert weighted_triangle.total_node_weight() == 6.0
        assert weighted_triangle.total_edge_weight() == 7.0

    def test_node_tables_match_per_node_queries(self):
        rng = np.random.default_rng(4)
        g = grid2d(5, 5).with_weights(
            node_weights=rng.uniform(0.5, 2.0, 25),
            edge_weights=rng.uniform(0.1, 3.0, 40),
        )
        bounds, incident, weights = g.node_tables()
        assert list(bounds) == g.indptr.tolist()
        for i in range(g.n_nodes):
            # the same per-node sum, bit for bit (node_strengths sums in
            # another order)
            assert incident[i] == float(g.neighbor_weights(i).sum())
            assert weights[i] == g.node_weights[i]
        assert g.node_tables() is g.node_tables()  # cached


def _blank_graph() -> CSRGraph:
    return CSRGraph.__new__(CSRGraph)


class _OldPickle:
    """Pickles as a :class:`CSRGraph` written by a release whose class
    had no ``missing`` slots (a session snapshot can be that old)."""

    def __init__(self, graph: CSRGraph, missing: set) -> None:
        self.state = {
            name: getattr(graph, name)
            for name in CSRGraph.__slots__
            if name not in missing
        }

    def __reduce__(self):
        return _blank_graph, (), (None, self.state)


class TestContentDigest:
    def test_memoised_and_content_defined(self):
        g = grid2d(4, 4)
        d = g.content_digest()
        assert len(d) == 32 and g.content_digest() is d  # cached
        assert grid2d(4, 4).content_digest() == d
        heavier = g.with_weights(node_weights=np.full(16, 2.0))
        assert heavier.content_digest() != d

    def test_pickle_keeps_the_digest(self):
        g = grid2d(4, 4)
        d = g.content_digest()
        assert pickle.loads(pickle.dumps(g)).content_digest() == d

    def test_graph_pickled_before_the_memo_slots_loads_and_hashes(self):
        g = grid2d(4, 4)
        fresh = grid2d(4, 4)
        old = pickle.loads(pickle.dumps(
            _OldPickle(g, {"_digest", "_node_tables"})
        ))
        assert isinstance(old, CSRGraph) and old == g
        assert old.content_digest() == fresh.content_digest()
        assert old.node_tables() == fresh.node_tables()


class TestImmutability:
    def test_arrays_are_readonly(self, grid4x4):
        with pytest.raises(ValueError):
            grid4x4.edges_u[0] = 5
        with pytest.raises(ValueError):
            grid4x4.node_weights[0] = 2.0
        with pytest.raises(ValueError):
            grid4x4.indices[0] = 3
        with pytest.raises(ValueError):
            grid4x4.coords[0, 0] = 9.0

    def test_unhashable(self, path6):
        with pytest.raises(TypeError):
            hash(path6)


class TestEqualityAndDerivation:
    def test_equality(self):
        a = CSRGraph(3, [0, 1], [1, 2])
        b = CSRGraph(3, [1, 0], [2, 1])
        assert a == b

    def test_inequality_different_weights(self):
        a = CSRGraph(3, [0], [1], edge_weights=[1.0])
        b = CSRGraph(3, [0], [1], edge_weights=[2.0])
        assert a != b

    def test_inequality_non_graph(self, path6):
        assert path6.__eq__(42) is NotImplemented

    def test_with_coords(self, path6):
        coords = np.random.default_rng(0).random((6, 3))
        g = path6.with_coords(coords)
        assert g.coords.shape == (6, 3)
        assert g == path6 or g.n_edges == path6.n_edges  # edges preserved
        assert np.array_equal(g.edges_u, path6.edges_u)

    def test_with_weights(self, path6):
        g = path6.with_weights(node_weights=np.arange(6, dtype=float))
        assert g.node_weights.tolist() == [0, 1, 2, 3, 4, 5]
        assert np.array_equal(g.edge_weights, path6.edge_weights)

    def test_repr(self, grid4x4):
        assert "n_nodes=16" in repr(grid4x4)
        assert "coords=2d" in repr(grid4x4)


class TestLen:
    def test_len_is_node_count(self, grid4x4):
        assert len(grid4x4) == 16
