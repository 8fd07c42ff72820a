"""Recursive Spectral Bisection (RSB) — the paper's main comparator.

Following Pothen–Simon–Liou and Simon's unstructured-mesh work (the
paper's refs [11, 12]): compute the Fiedler vector of the (sub)graph,
split the vertices at the weighted median of their Fiedler coordinates,
and recurse on each half until the requested number of parts is
reached.  Non-power-of-two ``k`` is handled by splitting into
``floor(k/2)`` and ``ceil(k/2)`` shares with node-weight targets in the
same proportion.

:func:`rsb_partition` accepts an optional ``deadline`` (a
``time.perf_counter()`` timestamp), checked before each bisection's
eigensolve — the expensive unit of RSB work.  A binding deadline makes
the remaining levels fall back to cheap deterministic index splits, so
a time-budgeted caller (the portfolio) can cancel RSB mid-run
and still receive a valid ``k``-way partition; a non-binding deadline
leaves results bit-identical.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..errors import PartitionError
from ..graphs.csr import CSRGraph
from ..graphs.ops import subgraph
from ..partition.partition import Partition
from .spectral import fiedler_vector

__all__ = ["rsb_partition", "split_by_scores"]


def split_by_scores(
    scores: np.ndarray, node_weights: np.ndarray, left_fraction: float
) -> np.ndarray:
    """Boolean mask: True for nodes in the "left" side of a bisection.

    Nodes are ordered by score and the prefix whose cumulative node
    weight best matches ``left_fraction`` of the total goes left.  Ties
    in score are broken by node id, making the split deterministic.
    """
    if not 0.0 < left_fraction < 1.0:
        raise PartitionError(
            f"left_fraction must be in (0, 1), got {left_fraction}"
        )
    n = scores.shape[0]
    order = np.lexsort((np.arange(n), scores))
    cumw = np.cumsum(node_weights[order])
    total = cumw[-1]
    target = left_fraction * total
    # Choose the prefix length whose cumulative weight is closest to the
    # target, with at least one node on each side.
    sizes = np.arange(1, n)  # candidate prefix lengths 1..n-1
    err = np.abs(cumw[:-1] - target)
    take = int(sizes[np.argmin(err)])
    mask = np.zeros(n, dtype=bool)
    mask[order[:take]] = True
    return mask


def _recurse(
    graph: CSRGraph,
    nodes: np.ndarray,
    k: int,
    labels: np.ndarray,
    next_label: int,
    method: str,
    seed: Optional[int],
    deadline: Optional[float] = None,
) -> int:
    """Assign labels ``next_label .. next_label+k-1`` to ``nodes``."""
    if k == 1 or nodes.size <= 1:
        labels[nodes] = next_label
        return next_label + 1
    k_left = k // 2
    k_right = k - k_left
    if deadline is not None and time.perf_counter() >= deadline:
        # budget exhausted: skip the eigensolve, split by node order —
        # valid parts now beat a better cut delivered too late
        half = max(nodes.size * k_left // k, 1)
        left, right = nodes[:half], nodes[half:]
        next_label = _recurse(
            graph, left, k_left, labels, next_label, method, seed, deadline
        )
        return _recurse(
            graph, right, k_right, labels, next_label, method, seed, deadline
        )
    sub, mapping = subgraph(graph, nodes)
    frac = k_left / k
    if sub.n_nodes == 2:
        mask = np.array([True, False])
    else:
        vec = fiedler_vector(sub, method=method, seed=seed)
        mask = split_by_scores(vec, sub.node_weights, frac)
    left = mapping[mask]
    right = mapping[~mask]
    if left.size == 0 or right.size == 0:  # degenerate split: force a cut
        half = max(nodes.size * k_left // k, 1)
        left, right = nodes[:half], nodes[half:]
    next_label = _recurse(
        graph, left, k_left, labels, next_label, method, seed, deadline
    )
    return _recurse(
        graph, right, k_right, labels, next_label, method, seed, deadline
    )


def rsb_partition(
    graph: CSRGraph,
    n_parts: int,
    method: str = "auto",
    seed: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Partition:
    """Partition ``graph`` into ``n_parts`` by recursive spectral bisection.

    Parameters
    ----------
    graph:
        Graph to partition (need not be connected; disconnected pieces
        split by component indicator).
    n_parts:
        Number of parts ``k >= 1``.
    method:
        Eigensolver selection passed to :func:`fiedler_vector`
        (``"auto"``, ``"dense"``, ``"sparse"``).
    seed:
        Seed for the sparse eigensolver's start vector (the dense path
        is fully deterministic).
    deadline:
        Optional ``time.perf_counter()`` timestamp; once passed, the
        remaining bisections use cheap index splits instead of
        eigensolves (see the module docstring).
    """
    if n_parts < 1:
        raise PartitionError(f"n_parts must be >= 1, got {n_parts}")
    if graph.n_nodes == 0:
        return Partition(graph, np.zeros(0, dtype=np.int64), n_parts)
    if n_parts > graph.n_nodes:
        raise PartitionError(
            f"cannot split {graph.n_nodes} nodes into {n_parts} non-empty parts"
        )
    labels = np.full(graph.n_nodes, -1, dtype=np.int64)
    _recurse(
        graph, np.arange(graph.n_nodes), n_parts, labels, 0, method, seed,
        deadline,
    )
    return Partition(graph, labels, n_parts)
