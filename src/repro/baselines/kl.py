"""Kernighan–Lin bisection refinement.

The classical mincut-based method family the paper's introduction cites.
This is the textbook KL: repeated passes that greedily swap the
highest-gain pair of nodes across the cut (allowing temporarily negative
gains), then roll back to the best prefix of the swap sequence.  Works
on 2-way partitions; :func:`kl_refine` improves an existing bisection
and :func:`recursive_kl_partition` builds a ``k``-way partition by
recursive bisection with KL at every level.

Both entry points accept an optional ``deadline`` (a
``time.perf_counter()`` timestamp): the refinement loop checks it per
sweep and per candidate pair, so a binding time budget — the
portfolio's, for instance — cancels the run mid-flight while still
returning a *valid* partition (refinement simply stops early).  A
deadline that never binds changes nothing: results are bit-identical
to running without one.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..errors import PartitionError
from ..graphs.csr import CSRGraph
from ..graphs.ops import subgraph
from ..partition.partition import Partition
from ..rng import SeedLike, as_generator

__all__ = ["kl_refine", "recursive_kl_partition"]


def _d_values(graph: CSRGraph, side: np.ndarray) -> np.ndarray:
    """KL D-value per node: external minus internal incident weight."""
    d = np.zeros(graph.n_nodes)
    same = side[graph.edges_u] == side[graph.edges_v]
    w = graph.edge_weights
    np.add.at(d, graph.edges_u, np.where(same, -w, w))
    np.add.at(d, graph.edges_v, np.where(same, -w, w))
    return d


def _edge_weight_between(graph: CSRGraph, a: int, b: int) -> float:
    nbrs = graph.neighbors(a)
    w = graph.neighbor_weights(a)
    hit = nbrs == b
    return float(w[hit].sum())


def kl_refine(
    graph: CSRGraph,
    side: np.ndarray,
    max_passes: int = 10,
    deadline: Optional[float] = None,
) -> np.ndarray:
    """One KL optimization of a boolean bisection vector.

    ``side`` is a boolean array (False = part 0).  Returns an improved
    boolean vector with exactly the same part sizes (KL swaps preserve
    balance by construction).  A ``deadline`` that has passed stops
    refinement: completed passes keep their improvements, a pass cut
    mid-sequence is discarded whole (its swaps were provisional until
    the best-prefix rollback, which never ran).
    """
    side = np.asarray(side, dtype=bool).copy()
    if side.shape != (graph.n_nodes,):
        raise PartitionError("side vector length mismatch")
    n = graph.n_nodes
    for _ in range(max_passes):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        d = _d_values(graph, side)
        locked = np.zeros(n, dtype=bool)
        gains: list[float] = []
        swaps: list[tuple[int, int]] = []
        work_side = side.copy()
        n_pairs = min(int(side.sum()), int((~side).sum()))
        for _ in range(n_pairs):
            if deadline is not None and time.perf_counter() >= deadline:
                return side  # mid-pass cut: drop the provisional swaps
            cand_a = np.flatnonzero(~locked & ~work_side)
            cand_b = np.flatnonzero(~locked & work_side)
            if cand_a.size == 0 or cand_b.size == 0:
                break
            # best candidate from each side by D value (top few to keep
            # the pair search cheap but near-exact)
            top_a = cand_a[np.argsort(-d[cand_a])[: min(8, cand_a.size)]]
            top_b = cand_b[np.argsort(-d[cand_b])[: min(8, cand_b.size)]]
            best_gain = -np.inf
            best_pair: Optional[tuple[int, int]] = None
            for a in top_a:
                for b in top_b:
                    g = d[a] + d[b] - 2.0 * _edge_weight_between(graph, int(a), int(b))
                    if g > best_gain:
                        best_gain = g
                        best_pair = (int(a), int(b))
            if best_pair is None:
                break
            a, b = best_pair
            gains.append(best_gain)
            swaps.append(best_pair)
            locked[a] = locked[b] = True
            work_side[a], work_side[b] = work_side[b], work_side[a]
            # update D-values of unlocked neighbors
            for node, entered_side in ((a, True), (b, False)):
                nbrs = graph.neighbors(node)
                w = graph.neighbor_weights(node)
                for j, wj in zip(nbrs, w):
                    if locked[j]:
                        continue
                    # j's connection to `node` flipped between internal
                    # and external
                    if work_side[j] == work_side[node]:
                        d[j] -= 2.0 * wj
                    else:
                        d[j] += 2.0 * wj
        if not gains:
            break
        prefix = np.cumsum(gains)
        best_k = int(np.argmax(prefix))
        if prefix[best_k] <= 1e-12:
            break
        for a, b in swaps[: best_k + 1]:
            side[a], side[b] = side[b], side[a]
    return side


def _bisect(
    graph: CSRGraph,
    nodes: np.ndarray,
    k_left: int,
    k: int,
    rng,
    deadline: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    sub, mapping = subgraph(graph, nodes)
    n = sub.n_nodes
    target_left = n * k_left // k
    side = np.zeros(n, dtype=bool)
    # the random split always draws, deadline or not: the RNG stream
    # must not depend on timing (only refinement effort does)
    side[rng.choice(n, size=n - target_left, replace=False)] = True
    side = kl_refine(sub, side, deadline=deadline)
    return mapping[~side], mapping[side]


def recursive_kl_partition(
    graph: CSRGraph,
    n_parts: int,
    seed: SeedLike = None,
    deadline: Optional[float] = None,
) -> Partition:
    """``k``-way partition by recursive bisection with KL refinement.

    Each bisection starts from a random balanced split (KL is a
    refinement method, not a constructor), so different seeds explore
    different local optima.  ``deadline`` is checked per sweep inside
    every bisection's KL refinement: once binding, the remaining levels
    fall back to the unrefined random balanced splits, so the call
    returns a valid ``k``-way partition promptly instead of overshooting
    its time budget.
    """
    if n_parts < 1:
        raise PartitionError(f"n_parts must be >= 1, got {n_parts}")
    if n_parts > graph.n_nodes:
        raise PartitionError(
            f"cannot split {graph.n_nodes} nodes into {n_parts} parts"
        )
    rng = as_generator(seed)
    labels = np.full(graph.n_nodes, -1, dtype=np.int64)

    def recurse(nodes: np.ndarray, k: int, next_label: int) -> int:
        if k == 1 or nodes.size <= 1:
            labels[nodes] = next_label
            return next_label + 1
        k_left = k // 2
        left, right = _bisect(graph, nodes, k_left, k, rng, deadline=deadline)
        if left.size == 0 or right.size == 0:
            half = max(nodes.size * k_left // k, 1)
            left, right = nodes[:half], nodes[half:]
        nl = recurse(left, k_left, next_label)
        return recurse(right, k - k_left, nl)

    recurse(np.arange(graph.n_nodes), n_parts, 0)
    return Partition(graph, labels, n_parts)
