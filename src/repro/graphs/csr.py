"""Compressed-sparse-row graph — the core substrate of the library.

The paper partitions undirected graphs whose vertices carry computation
weights and whose edges carry communication weights.  :class:`CSRGraph`
stores such a graph in numpy CSR form so that every hot path in the GA
(fitness evaluation, KNUX bias tables, hill-climbing gains) is a handful
of vectorized gathers/scatters instead of Python loops.

Internally we keep two complementary views of the same edge set:

* an *edge list* ``(edges_u, edges_v)`` with ``edges_u < edges_v`` — one
  entry per undirected edge, used for cut-size evaluation;
* a *CSR adjacency* ``(indptr, indices, adj_weights)`` listing every
  neighbor of every vertex (each undirected edge appears twice), used for
  neighborhood queries such as KNUX's ``#(i, X, I)`` counts.

Both views are immutable after construction; graph *updates* build new
graphs (see :mod:`repro.incremental.updates`).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ..errors import GraphError

__all__ = ["CSRGraph"]

#: lazily-computed derived quantities, ``None`` until first asked for
_MEMO_SLOTS = (
    "_strengths",
    "_node_tables",
    "_unit_edge_weights",
    "_unit_node_weights",
    "_integer_edge_weights",
    "_digest",
)


def _as_index_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise GraphError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


class CSRGraph:
    """An immutable undirected graph with weighted nodes and edges.

    Parameters
    ----------
    n_nodes:
        Number of vertices; vertices are labelled ``0 .. n_nodes-1``.
    edges_u, edges_v:
        Endpoint arrays of the undirected edge list.  Self-loops are
        rejected; duplicate edges are merged by summing their weights.
    edge_weights:
        Per-edge communication cost ``w_e`` (default: all ones).
    node_weights:
        Per-node computation cost ``w_i`` (default: all ones).
    coords:
        Optional ``(n_nodes, d)`` geometric coordinates.  Required by the
        coordinate-based partitioners (IBP, RCB); carried by all mesh
        generators.
    """

    __slots__ = (
        "n_nodes",
        "n_edges",
        "edges_u",
        "edges_v",
        "edge_weights",
        "node_weights",
        "coords",
        "indptr",
        "indices",
        "adj_weights",
        "adj_edge_ids",
    ) + _MEMO_SLOTS

    def __init__(
        self,
        n_nodes: int,
        edges_u: Iterable[int],
        edges_v: Iterable[int],
        edge_weights: Optional[Iterable[float]] = None,
        node_weights: Optional[Iterable[float]] = None,
        coords: Optional[np.ndarray] = None,
    ) -> None:
        if n_nodes < 0:
            raise GraphError(f"n_nodes must be non-negative, got {n_nodes}")
        self.n_nodes = int(n_nodes)

        u = _as_index_array(edges_u, "edges_u")
        v = _as_index_array(edges_v, "edges_v")
        if u.shape != v.shape:
            raise GraphError(
                f"edge endpoint arrays differ in length: {u.shape[0]} vs {v.shape[0]}"
            )
        if u.size and (u.min() < 0 or v.min() < 0):
            raise GraphError("edge endpoints must be non-negative")
        if u.size and (u.max() >= n_nodes or v.max() >= n_nodes):
            raise GraphError(
                f"edge endpoint out of range for a graph with {n_nodes} nodes"
            )
        if np.any(u == v):
            raise GraphError("self-loops are not allowed")

        if edge_weights is None:
            w = np.ones(u.size, dtype=np.float64)
        else:
            w = np.asarray(edge_weights, dtype=np.float64)
            if w.shape != u.shape:
                raise GraphError(
                    f"edge_weights length {w.size} != number of edges {u.size}"
                )
            if w.size and w.min() < 0:
                raise GraphError("edge weights must be non-negative")

        # Canonical orientation (u < v), then merge duplicates by weight sum.
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        if lo.size:
            order = np.lexsort((hi, lo))
            lo, hi, w = lo[order], hi[order], w[order]
            keep = np.ones(lo.size, dtype=bool)
            keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            if not keep.all():
                group = np.cumsum(keep) - 1
                merged = np.zeros(int(group[-1]) + 1, dtype=np.float64)
                np.add.at(merged, group, w)
                lo, hi, w = lo[keep], hi[keep], merged
        self.edges_u = lo
        self.edges_v = hi
        self.edge_weights = w
        self.n_edges = int(lo.size)

        if node_weights is None:
            nw = np.ones(self.n_nodes, dtype=np.float64)
        else:
            nw = np.asarray(node_weights, dtype=np.float64)
            if nw.shape != (self.n_nodes,):
                raise GraphError(
                    f"node_weights length {nw.size} != n_nodes {self.n_nodes}"
                )
            if nw.size and nw.min() < 0:
                raise GraphError("node weights must be non-negative")
        self.node_weights = nw

        if coords is not None:
            coords = np.asarray(coords, dtype=np.float64)
            if coords.ndim == 1:
                coords = coords.reshape(-1, 1)
            if coords.shape[0] != self.n_nodes:
                raise GraphError(
                    f"coords has {coords.shape[0]} rows but graph has "
                    f"{self.n_nodes} nodes"
                )
        self.coords = coords

        self._build_adjacency()
        # Lazily-computed derived quantities; safe to cache because every
        # array below is frozen for the graph's lifetime.
        for name in _MEMO_SLOTS:
            setattr(self, name, None)
        # Freeze all array state so accidental in-place mutation by callers
        # fails loudly instead of silently corrupting shared graphs.
        for name in (
            "edges_u",
            "edges_v",
            "edge_weights",
            "node_weights",
            "indptr",
            "indices",
            "adj_weights",
            "adj_edge_ids",
        ):
            getattr(self, name).setflags(write=False)
        if self.coords is not None:
            self.coords.setflags(write=False)

    def _build_adjacency(self) -> None:
        n, m = self.n_nodes, self.n_edges
        deg = np.zeros(n, dtype=np.int64)
        np.add.at(deg, self.edges_u, 1)
        np.add.at(deg, self.edges_v, 1)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        indices = np.empty(2 * m, dtype=np.int64)
        adj_w = np.empty(2 * m, dtype=np.float64)
        adj_eid = np.empty(2 * m, dtype=np.int64)
        cursor = indptr[:-1].copy()
        # Vectorized fill: emit (u -> v) entries sorted by u, then (v -> u)
        # entries sorted by v; both endpoint arrays are already grouped in
        # canonical edge order, so argsort is cheap and stable.
        for src, dst in ((self.edges_u, self.edges_v), (self.edges_v, self.edges_u)):
            order = np.argsort(src, kind="stable")
            s, d = src[order], dst[order]
            counts = np.bincount(s, minlength=n)
            # Position of each entry within its source's slot block.
            offsets = np.arange(s.size) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            slots = cursor[s] + offsets
            indices[slots] = d
            adj_w[slots] = self.edge_weights[order]
            adj_eid[slots] = order
            cursor += counts
        self.indptr = indptr
        self.indices = indices
        self.adj_weights = adj_w
        self.adj_edge_ids = adj_eid

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> np.ndarray:
        """Neighbor ids of ``node`` (read-only view into the CSR arrays)."""
        if not 0 <= node < self.n_nodes:
            raise GraphError(f"node {node} out of range [0, {self.n_nodes})")
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def neighbor_weights(self, node: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors`."""
        if not 0 <= node < self.n_nodes:
            raise GraphError(f"node {node} out of range [0, {self.n_nodes})")
        return self.adj_weights[self.indptr[node] : self.indptr[node + 1]]

    def degree(self, node: Optional[int] = None):
        """Degree of one node, or the full degree array when ``node`` is None."""
        degrees = np.diff(self.indptr)
        if node is None:
            return degrees
        if not 0 <= node < self.n_nodes:
            raise GraphError(f"node {node} out of range [0, {self.n_nodes})")
        return int(degrees[node])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the undirected edge ``{u, v}`` exists."""
        if u == v:
            return False
        if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
            return False
        return bool(np.isin(v, self.neighbors(u)))

    def edge_list(self) -> np.ndarray:
        """``(n_edges, 2)`` array of canonical (u < v) edge endpoints."""
        return np.column_stack([self.edges_u, self.edges_v])

    def total_node_weight(self) -> float:
        """Sum of all node weights (the total computational load)."""
        return float(self.node_weights.sum())

    def total_edge_weight(self) -> float:
        """Sum of all edge weights (the total potential communication)."""
        return float(self.edge_weights.sum())

    def node_strengths(self) -> np.ndarray:
        """Total incident edge weight per node: ``s[v] = sum_{e ∋ v} w_e``.

        Cached after the first call (the graph is immutable); the returned
        array is read-only and shared between callers.
        """
        s = self._strengths
        if s is None:
            n = self.n_nodes
            s = np.bincount(self.edges_u, weights=self.edge_weights, minlength=n)
            s += np.bincount(self.edges_v, weights=self.edge_weights, minlength=n)
            s.setflags(write=False)
            self._strengths = s
        return s

    def node_tables(self) -> tuple[tuple, tuple, tuple]:
        """Per-node Python scalars for node-at-a-time kernels (cached).

        Returns ``(bounds, incident, weights)``: ``bounds`` is ``indptr``
        (node ``i``'s CSR slice is ``bounds[i]:bounds[i + 1]``);
        ``incident[i]`` is ``float(neighbor_weights(i).sum())``, summed
        per node exactly as a caller slicing one node at a time would
        (:meth:`node_strengths` accumulates in another order); and
        ``weights[i]`` is node ``i``'s weight.  Reading these tuples
        skips the numpy scalar work a hot loop would repeat per visit.
        """
        t = self._node_tables
        if t is None:
            bounds = tuple(self.indptr.tolist())
            adj_w = self.adj_weights
            incident = tuple(
                float(adj_w[lo:hi].sum()) for lo, hi in zip(bounds, bounds[1:])
            )
            t = (bounds, incident, tuple(self.node_weights.tolist()))
            self._node_tables = t
        return t

    def has_unit_edge_weights(self) -> bool:
        """True iff every edge weight equals 1.0 (cached)."""
        u = self._unit_edge_weights
        if u is None:
            u = bool(np.all(self.edge_weights == 1.0))
            self._unit_edge_weights = u
        return u

    def has_unit_node_weights(self) -> bool:
        """True iff every node weight equals 1.0 (cached)."""
        u = self._unit_node_weights
        if u is None:
            u = bool(np.all(self.node_weights == 1.0))
            self._unit_node_weights = u
        return u

    def has_integer_edge_weights(self) -> bool:
        """True iff every edge weight is integer-valued (cached)."""
        u = self._integer_edge_weights
        if u is None:
            u = bool(np.all(self.edge_weights == np.trunc(self.edge_weights)))
            self._integer_edge_weights = u
        return u

    def content_digest(self) -> str:
        """Stable content digest of the graph (32 hex chars, cached).

        Hashes the canonical arrays with blake2b: the edge list (
        deduplicated and sorted at construction, so any edge ordering of
        the same graph digests identically), the weights, and the
        coordinates when present — two graphs share a digest iff they
        are ``==``.  The service names, routes and caches graphs by it
        (:func:`repro.service.cache.graph_digest`).
        """
        d = self._digest
        if d is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(str(self.n_nodes).encode())
            for arr in (
                self.edges_u,
                self.edges_v,
                self.edge_weights,
                self.node_weights,
            ):
                h.update(np.ascontiguousarray(arr).tobytes())
            if self.coords is not None:
                h.update(np.ascontiguousarray(self.coords).tobytes())
            d = self._digest = h.hexdigest()
        return d

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(u, v, weight)`` per undirected edge (canonical order)."""
        for u, v, w in zip(self.edges_u, self.edges_v, self.edge_weights):
            yield int(u), int(v), float(w)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_nodes

    def __repr__(self) -> str:
        dims = "" if self.coords is None else f", coords={self.coords.shape[1]}d"
        return f"CSRGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges}{dims})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if self.n_nodes != other.n_nodes or self.n_edges != other.n_edges:
            return False
        same = (
            np.array_equal(self.edges_u, other.edges_u)
            and np.array_equal(self.edges_v, other.edges_v)
            and np.array_equal(self.edge_weights, other.edge_weights)
            and np.array_equal(self.node_weights, other.node_weights)
        )
        if not same:
            return False
        if (self.coords is None) != (other.coords is None):
            return False
        if self.coords is not None:
            return np.array_equal(self.coords, other.coords)
        return True

    def __hash__(self):  # pragma: no cover - explicit unhashability
        raise TypeError("CSRGraph is not hashable")

    def __setstate__(self, state) -> None:
        # a graph pickled before one of the memo slots existed (session
        # snapshots outlive releases) lacks it: start every memo empty,
        # then restore what the pickle holds
        for name in _MEMO_SLOTS:
            setattr(self, name, None)
        for name, value in state[1].items():
            setattr(self, name, value)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def with_coords(self, coords: np.ndarray) -> "CSRGraph":
        """Copy of this graph carrying the given coordinates."""
        return CSRGraph(
            self.n_nodes,
            self.edges_u,
            self.edges_v,
            self.edge_weights,
            self.node_weights,
            coords=coords,
        )

    def with_weights(
        self,
        node_weights: Optional[np.ndarray] = None,
        edge_weights: Optional[np.ndarray] = None,
    ) -> "CSRGraph":
        """Copy with replaced node and/or edge weights."""
        return CSRGraph(
            self.n_nodes,
            self.edges_u,
            self.edges_v,
            self.edge_weights if edge_weights is None else edge_weights,
            self.node_weights if node_weights is None else node_weights,
            coords=self.coords,
        )
