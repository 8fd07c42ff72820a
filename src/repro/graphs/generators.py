"""Synthetic graph generators.

The structured generators (grids, tori, hypercubes) give exactly
predictable cut sizes for testing; the geometric generators approximate
the unstructured computational meshes the paper partitions (see
:mod:`repro.graphs.meshes` for the paper-specific workload suite).
All generators attach coordinates where a natural geometry exists, which
the coordinate-based partitioners (IBP, RCB) require.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from ..errors import GraphError
from ..rng import SeedLike, as_generator
from .csr import CSRGraph

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid2d",
    "grid3d",
    "torus2d",
    "hypercube_graph",
    "random_geometric",
    "delaunay_mesh",
    "caveman_graph",
    "random_regular",
    "binary_tree",
]


def path_graph(n: int) -> CSRGraph:
    """Path ``0-1-...-(n-1)`` with unit coordinates along the x axis."""
    if n < 0:
        raise GraphError("n must be non-negative")
    idx = np.arange(max(n - 1, 0))
    coords = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return CSRGraph(n, idx, idx + 1, coords=coords)


def cycle_graph(n: int) -> CSRGraph:
    """Cycle on ``n >= 3`` nodes, laid out on the unit circle."""
    if n < 3:
        raise GraphError("a cycle needs at least 3 nodes")
    idx = np.arange(n)
    theta = 2 * np.pi * idx / n
    coords = np.column_stack([np.cos(theta), np.sin(theta)])
    return CSRGraph(n, idx, (idx + 1) % n, coords=coords)


def complete_graph(n: int) -> CSRGraph:
    """Complete graph K_n."""
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    return CSRGraph(n, pairs[:, 0], pairs[:, 1])


def star_graph(n_leaves: int) -> CSRGraph:
    """Star: node 0 is the hub, nodes ``1..n_leaves`` are leaves."""
    if n_leaves < 0:
        raise GraphError("n_leaves must be non-negative")
    leaves = np.arange(1, n_leaves + 1)
    return CSRGraph(n_leaves + 1, np.zeros(n_leaves, dtype=np.int64), leaves)


def grid2d(rows: int, cols: int) -> CSRGraph:
    """4-connected ``rows x cols`` grid in row-major node order.

    Node ``(r, c)`` has id ``r * cols + c`` and coordinate ``(c, r)`` —
    matching the pixel-indexing convention of the paper's appendix.
    """
    if rows <= 0 or cols <= 0:
        raise GraphError("grid dimensions must be positive")
    ids = np.arange(rows * cols).reshape(rows, cols)
    right = np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
    down = np.column_stack([ids[:-1, :].ravel(), ids[1:, :].ravel()])
    edges = np.vstack([right, down])
    rr, cc = np.divmod(np.arange(rows * cols), cols)
    coords = np.column_stack([cc.astype(float), rr.astype(float)])
    return CSRGraph(rows * cols, edges[:, 0], edges[:, 1], coords=coords)


def grid3d(nx: int, ny: int, nz: int) -> CSRGraph:
    """6-connected 3-D grid; node ``(i,j,k)`` has id ``(i*ny + j)*nz + k``."""
    if min(nx, ny, nz) <= 0:
        raise GraphError("grid dimensions must be positive")
    ids = np.arange(nx * ny * nz).reshape(nx, ny, nz)
    e = []
    e.append(np.column_stack([ids[:-1].ravel(), ids[1:].ravel()]))
    e.append(np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()]))
    e.append(np.column_stack([ids[:, :, :-1].ravel(), ids[:, :, 1:].ravel()]))
    edges = np.vstack(e)
    i, rem = np.divmod(np.arange(nx * ny * nz), ny * nz)
    j, k = np.divmod(rem, nz)
    coords = np.column_stack([i, j, k]).astype(float)
    return CSRGraph(nx * ny * nz, edges[:, 0], edges[:, 1], coords=coords)


def torus2d(rows: int, cols: int) -> CSRGraph:
    """2-D torus (grid with wraparound edges); needs ``rows, cols >= 3``."""
    if rows < 3 or cols < 3:
        raise GraphError("torus dimensions must be >= 3 to avoid parallel edges")
    ids = np.arange(rows * cols).reshape(rows, cols)
    right = np.column_stack([ids.ravel(), np.roll(ids, -1, axis=1).ravel()])
    down = np.column_stack([ids.ravel(), np.roll(ids, -1, axis=0).ravel()])
    edges = np.vstack([right, down])
    rr, cc = np.divmod(np.arange(rows * cols), cols)
    coords = np.column_stack([cc.astype(float), rr.astype(float)])
    return CSRGraph(rows * cols, edges[:, 0], edges[:, 1], coords=coords)


def hypercube_graph(dim: int) -> CSRGraph:
    """``dim``-dimensional boolean hypercube on ``2**dim`` nodes.

    This is also the DPGA island topology used in the paper's experiments
    (16 subpopulations = 4-D hypercube).
    """
    if dim < 0:
        raise GraphError("dimension must be non-negative")
    n = 1 << dim
    nodes = np.arange(n)
    us, vs = [], []
    for bit in range(dim):
        mask = (nodes >> bit) & 1
        lower = nodes[mask == 0]
        us.append(lower)
        vs.append(lower | (1 << bit))
    if dim == 0:
        return CSRGraph(1, [], [])
    return CSRGraph(n, np.concatenate(us), np.concatenate(vs))


def random_geometric(
    n: int, radius: float, seed: SeedLike = None, dim: int = 2
) -> CSRGraph:
    """Random geometric graph: points in the unit cube, edges within ``radius``."""
    if n < 0:
        raise GraphError("n must be non-negative")
    if radius < 0:
        raise GraphError("radius must be non-negative")
    rng = as_generator(seed)
    pts = rng.random((n, dim))
    if n == 0:
        return CSRGraph(0, [], [], coords=pts)
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    return CSRGraph(n, pairs[:, 0], pairs[:, 1], coords=pts)


def delaunay_mesh(points: np.ndarray) -> CSRGraph:
    """Planar triangulation of the given 2-D points (FEM-style mesh).

    The edge set is the union of all Delaunay triangle edges; this is the
    builder behind the paper-scale workload meshes.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GraphError(f"points must have shape (n, 2), got {pts.shape}")
    if pts.shape[0] < 3:
        raise GraphError("Delaunay triangulation needs at least 3 points")
    from scipy.spatial import Delaunay

    tri = Delaunay(pts)
    simplices = tri.simplices
    edges = np.vstack(
        [simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]]
    )
    # adjacent triangles share edges; deduplicate so every mesh edge has
    # unit weight (CSRGraph would otherwise merge duplicates by summing)
    n = pts.shape[0]
    edges = np.sort(edges, axis=1).astype(np.int64)
    keys = np.unique(edges[:, 0] * n + edges[:, 1])
    return CSRGraph(n, keys // n, keys % n, coords=pts)


def caveman_graph(n_cliques: int, clique_size: int) -> CSRGraph:
    """Connected caveman graph: cliques chained in a ring by single edges.

    A canonical "obvious best partition" structure for sanity-checking
    partitioners: cutting the ring links is optimal.
    """
    if n_cliques < 1 or clique_size < 2:
        raise GraphError("need n_cliques >= 1 and clique_size >= 2")
    us, vs = [], []
    for c in range(n_cliques):
        base = c * clique_size
        for i, j in itertools.combinations(range(clique_size), 2):
            us.append(base + i)
            vs.append(base + j)
    if n_cliques > 1:
        for c in range(n_cliques):
            a = c * clique_size + clique_size - 1
            b = ((c + 1) % n_cliques) * clique_size
            if n_cliques == 2 and c == 1:
                break  # avoid the duplicate second link between two cliques
            us.append(a)
            vs.append(b)
    return CSRGraph(n_cliques * clique_size, us, vs)


def random_regular(n: int, degree: int, seed: SeedLike = None) -> CSRGraph:
    """Random ``degree``-regular graph via networkx (coordinate-free)."""
    import networkx as nx

    if n * degree % 2 != 0:
        raise GraphError("n * degree must be even for a regular graph")
    rng = as_generator(seed)
    g = nx.random_regular_graph(degree, n, seed=int(rng.integers(2**31)))
    edges = np.array(g.edges(), dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    return CSRGraph(n, edges[:, 0], edges[:, 1])


def binary_tree(depth: int) -> CSRGraph:
    """Complete binary tree of the given depth (root = node 0)."""
    if depth < 0:
        raise GraphError("depth must be non-negative")
    n = (1 << (depth + 1)) - 1
    children = np.arange(1, n)
    parents = (children - 1) // 2
    return CSRGraph(n, parents, children)
