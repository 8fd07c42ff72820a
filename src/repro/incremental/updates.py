"""Incremental graph updates (Section 4.2 of the paper).

The paper's incremental experiments "start with a graph, partition it,
then modify by adding some number of nodes in a local area chosen
randomly within the graph", and partition the modified graphs.  For
mesh workloads this models adaptive refinement: new mesh points appear
where the solution needs resolution.

:func:`insert_local_nodes` implements that update for coordinate meshes:
new points are sampled in a disc around a randomly chosen existing
vertex and the union point set is re-triangulated.  Existing vertices
keep their ids (new ids are appended), which is what lets the previous
partition seed the new problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import GraphError
from ..graphs.csr import CSRGraph
from ..graphs.generators import delaunay_mesh
from ..rng import SeedLike, as_generator

__all__ = ["IncrementalUpdate", "insert_local_nodes"]


@dataclass(frozen=True)
class IncrementalUpdate:
    """Result of a graph update.

    Attributes
    ----------
    graph:
        The updated graph; nodes ``0 .. n_old-1`` are the original
        vertices (same ids, possibly different edges near the insertion
        region), nodes ``n_old ..`` are new.
    n_old:
        Number of pre-existing vertices.
    new_nodes:
        Ids of the inserted vertices.
    center:
        Id of the existing vertex around which insertion happened.
    """

    graph: CSRGraph
    n_old: int
    new_nodes: np.ndarray
    center: int

    @property
    def n_new(self) -> int:
        return int(self.new_nodes.size)


def insert_local_nodes(
    graph: CSRGraph,
    n_new: int,
    seed: SeedLike = None,
    radius: Optional[float] = None,
) -> IncrementalUpdate:
    """Add ``n_new`` vertices in a random local region of a mesh.

    Parameters
    ----------
    graph:
        A coordinate-carrying planar mesh (``coords`` required).
    n_new:
        Number of vertices to insert.
    seed:
        RNG seed; controls the region choice and the new points.
    radius:
        Insertion disc radius.  Default scales with the local mesh
        spacing so the refined region stays genuinely local: the disc
        area is ~3x the area the new points would occupy at the existing
        point density.
    """
    if graph.coords is None or graph.coords.shape[1] != 2:
        raise GraphError("insert_local_nodes requires 2-D coordinates")
    if n_new < 1:
        raise GraphError(f"n_new must be >= 1, got {n_new}")
    rng = as_generator(seed)
    n_old = graph.n_nodes
    coords = np.asarray(graph.coords)

    center = int(rng.integers(0, n_old))
    cpt = coords[center]
    if radius is None:
        # existing density: n_old points over the bounding-box area
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        area = float(np.prod(np.maximum(hi - lo, 1e-12)))
        radius = float(np.sqrt(3.0 * n_new * area / (np.pi * n_old)))
    if radius <= 0:
        raise GraphError(f"radius must be positive, got {radius}")

    # disc sampling with rejection: points must stay inside the original
    # bounding box and be distinct from all other points (coincident
    # points would come out of the triangulation as isolated vertices)
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    all_pts = np.empty((n_old + n_new, 2))
    all_pts[:n_old] = coords
    placed = n_old
    tol = 1e-9
    for _ in range(200 * n_new):
        if placed == n_old + n_new:
            break
        r = radius * np.sqrt(rng.random())
        theta = 2 * np.pi * rng.random()
        cand = cpt + np.array([r * np.cos(theta), r * np.sin(theta)])
        if (cand < lo).any() or (cand > hi).any():
            continue
        diff = all_pts[:placed] - cand
        diff *= diff
        if diff.sum(axis=1).min() < tol:
            continue
        all_pts[placed] = cand
        placed += 1
    if placed < n_old + n_new:
        raise GraphError(
            f"could not place {n_new} distinct points in radius {radius:g}; "
            "increase the radius"
        )

    new_graph = delaunay_mesh(all_pts)
    # carry node weights: old weights preserved, new nodes unit weight
    node_w = np.concatenate([graph.node_weights, np.ones(n_new)])
    new_graph = new_graph.with_weights(node_weights=node_w)
    return IncrementalUpdate(
        graph=new_graph,
        n_old=n_old,
        new_nodes=np.arange(n_old, n_old + n_new),
        center=center,
    )
