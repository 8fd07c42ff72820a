"""Paper-scale unstructured mesh workloads.

The SC'94 paper evaluates on unnamed 2-D unstructured meshes with 78–309
nodes (plus incremental variants).  Those graphs were never published, so
— per the reproduction's substitution rule (DESIGN.md §4) — we generate
deterministic stand-ins with the same character: planar Delaunay
triangulations of well-spaced ("blue noise") point sets in the unit
square.  Like FEM meshes these have bounded degree (~6 average), strong
geometric locality, and small separators, which is exactly the structure
KNUX's neighbor-derived bias probabilities exploit.

:data:`PAPER_SIZES` lists every base node count used in Tables 1–6;
:func:`paper_mesh` builds the canonical instance for a node count.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from ..rng import SeedLike, as_generator
from .csr import CSRGraph
from .generators import delaunay_mesh

__all__ = [
    "PAPER_SIZES",
    "INCREMENTAL_CASES",
    "blue_noise_points",
    "mesh_graph",
    "paper_mesh",
]

#: Every base graph size appearing in the paper's Tables 1-6.
PAPER_SIZES: tuple[int, ...] = (78, 88, 98, 118, 139, 144, 167, 183, 213, 243, 249, 279, 309)

#: (base_nodes, added_nodes) pairs of the incremental experiments
#: (Tables 3 and 6).
INCREMENTAL_CASES: tuple[tuple[int, int], ...] = (
    (78, 10),
    (78, 20),
    (118, 21),
    (118, 41),
    (183, 30),
    (183, 60),
    (249, 30),
    (249, 60),
)

#: Seed namespace so paper meshes are stable across library versions.
_MESH_SEED_BASE = 19940910  # the paper's revision date, 1994-09-10


def blue_noise_points(
    n: int,
    seed: SeedLike = None,
    candidates: int = 12,
) -> np.ndarray:
    """Generate ``n`` well-spaced points in the unit square.

    Uses Mitchell's best-candidate algorithm: each new point is the
    candidate farthest from all previously accepted points.  This gives
    FEM-mesh-like vertex spacing without clusters or big holes, at
    O(n^2 * candidates) cost — fine for the paper's sub-thousand-node
    scale.
    """
    if n < 0:
        raise GraphError("n must be non-negative")
    rng = as_generator(seed)
    if n == 0:
        return np.zeros((0, 2))
    pts = np.empty((n, 2))
    pts[0] = rng.random(2)
    # every round's candidates at once (the same stream as drawing them
    # round by round), and each candidate's squared distance to its
    # nearest accepted point, lowered as each point is accepted
    cand = rng.random((n - 1, candidates, 2))
    nearest = np.full((n - 1, candidates), np.inf)
    for i in range(1, n):
        diff = cand[i - 1 :] - pts[i - 1]
        diff *= diff
        rest = nearest[i - 1 :]
        np.minimum(rest, diff[..., 0] + diff[..., 1], out=rest)
        pts[i] = cand[i - 1, rest[0].argmax()]
    return pts


def mesh_graph(n: int, seed: SeedLike = None, candidates: int = 12) -> CSRGraph:
    """Delaunay mesh over ``n`` blue-noise points (arbitrary seed)."""
    if n < 3:
        raise GraphError("a mesh needs at least 3 nodes")
    pts = blue_noise_points(n, seed=seed, candidates=candidates)
    return delaunay_mesh(pts)


def paper_mesh(n: int) -> CSRGraph:
    """The canonical reproduction workload mesh with ``n`` nodes.

    Deterministic: the same ``n`` always yields the identical graph, so
    experiment tables are reproducible bit-for-bit.  ``n`` need not be a
    member of :data:`PAPER_SIZES`, but those are the sizes the benchmark
    harness uses.
    """
    return mesh_graph(n, seed=_MESH_SEED_BASE + n)
