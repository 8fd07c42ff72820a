"""Answer checks: every answer the benchmark times is also verified."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.partition.metrics import cut_size


def check_answer(graph, n_parts: int, result) -> Optional[str]:
    """Why ``result`` is not a valid partition of ``graph`` into
    ``n_parts``, or ``None`` when it is: the assignment has one label in
    ``[0, n_parts)`` per node, and the reported cut equals the cut
    recomputed from that assignment."""
    assignment = np.asarray(result.assignment)
    if assignment.shape != (graph.n_nodes,):
        return (
            f"assignment has shape {assignment.shape}, "
            f"expected ({graph.n_nodes},)"
        )
    if assignment.size and (
        int(assignment.min()) < 0 or int(assignment.max()) >= n_parts
    ):
        return f"labels outside [0, {n_parts})"
    if int(result.n_parts) != n_parts:
        return f"answered n_parts={result.n_parts}, asked {n_parts}"
    recomputed = cut_size(graph, assignment)
    if float(result.cut_size) != float(recomputed):
        return f"reported cut {result.cut_size} != recomputed {recomputed}"
    return None


def check_same(expected, result) -> Optional[str]:
    """Why ``result`` differs from the ``expected`` answer to the same
    request, or ``None`` when assignment and cut are identical."""
    if not np.array_equal(
        np.asarray(expected.assignment), np.asarray(result.assignment)
    ):
        return "assignment differs from the recorded answer"
    if float(expected.cut_size) != float(result.cut_size):
        return (
            f"cut {result.cut_size} differs from the recorded "
            f"{expected.cut_size}"
        )
    return None
