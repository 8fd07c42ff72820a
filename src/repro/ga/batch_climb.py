"""Vectorized boundary hill-climbing across the population axis.

:meth:`repro.ga.hillclimb.HillClimber._climb` migrates boundary nodes
one at a time; applied row-by-row to a ``(B, n)`` population it is a
Python loop over ``B × |frontier|`` tiny numpy operations and — after
the fast evaluation backend of PR 1 — the dominant cost of the GA inner
loop under ``hill_climb="all"``.

:func:`climb_batch` runs the *same* sequential scan in lockstep over
all rows at once.  The key observation is that the scalar climber's
per-pass scan order is a function of the node ids only (ascending over
the pass-start frontier), so every row that has node ``i`` on its
frontier examines ``i`` at the same point of the scan.  One pass then
becomes a loop over *nodes* instead of a loop over rows×nodes:

1. **Shared frontier gathers** — one node-major ``(n, C)`` boundary
   mask for the rows still climbing, built from a single cut-edge
   scatter per pass; the rows that have node ``i`` on their pass-start
   frontier are row ``i`` of this mask.  A visit computes every row
   and moves only those.
2. **Fused-index ``w_into`` tables** — the working assignment is kept
   node-major with each label fused with its row's offset,
   ``row * k + label``, so the weight from node ``i`` into each part,
   for every row, is one ``np.bincount`` over the gathered neighbor
   labels (the kernel idiom of :mod:`repro.partition.metrics`).  Each
   bin accumulates its neighbors in CSR order, as the scalar
   ``np.add.at`` does, and therefore bit-identically; on unit edge
   weights the bins are plain counts and need no weights array.
3. **Batched move deltas and a masked argmax** — the Fitness1/Fitness2
   gain of moving each row's node to every part is a ``(C, k)`` matrix
   built from the maintained per-row loads/cuts tables.  The scalar
   climber takes a candidate only if it beats the running best,
   starting at 0, by more than ``1e-12`` in ascending part order.  Here
   the non-candidates are masked to ``-inf`` and each row takes its first
   maximum ``top``, moving if ``top > 1e-12``.  That is the scan's
   choice unless some lesser candidate ``g`` fails the scan's own test
   ``top > g + 1e-12`` (a near tie): only such rows replay the
   sequential scan, so the rule is exact by construction, and a visit
   costs a fixed handful of numpy calls instead of a few per part.
4. **Chunking** — rows are independent, so the batch is processed in
   chunks sized to a scratch-memory budget; results are invariant to
   where chunk boundaries fall.  A row that moves nothing in a pass
   has reached its local optimum and leaves the chunk's working set.

Every floating-point expression is evaluated with the same operations,
associativity and accumulation order as the scalar climber, so in
deterministic scan order (``rng=None``) the climbed assignments are
**bit-identical** to climbing each row with ``_climb`` — the
equivalence suite in ``tests/test_batch_climb.py`` asserts exactly
that, and ``benchmarks/check_bench.py`` guards the speedup.

With an ``rng``, the scalar climber shuffles each row's frontier
independently; a lockstep scan needs a *shared* order, so this module
instead draws one node permutation per pass (consumed up front, keeping
results independent of chunking) and scans it restricted to each row's
frontier.  The scan order is still uniformly random per pass — only the
RNG stream differs from the per-row form.  In this mode the equivalence
suite compares the kernel with a lockstep reference kept beside the
tests (``tests/climb_reference.py``, the per-part destination scan).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..graphs.csr import CSRGraph
from ..obs.hooks import kernel_probe
from ..partition.metrics import (
    _chunk_step,
    batch_part_cuts,
    batch_part_loads,
    check_population,
)
from .fitness import Fitness1, Fitness2, FitnessFunction

__all__ = ["climb_batch"]


def _frontier_by_node(graph: CSRGraph, labels: np.ndarray) -> np.ndarray:
    """``(n, A)`` mask: node has >= 1 neighbor in another part, per row.

    ``labels`` is node-major, ``(n, A)``, and may be offset per row (as
    the kernel's fused ``row * k + label`` are).  Column ``r``'s True
    entries are exactly ``metrics.boundary_nodes`` of row ``r`` — the
    candidates the scalar climber scans — computed for all rows with
    one shared cut-edge gather; row ``i`` holds the rows that examine
    node ``i``.
    """
    n, a_rows = labels.shape
    m = graph.n_edges
    mask = np.zeros((n, a_rows), dtype=bool)
    if a_rows == 0 or m == 0:
        return mask
    eu, ev = graph.edges_u, graph.edges_v
    cut = labels[eu] != labels[ev]  # (m, A)
    e_idx, r_idx = np.divmod(np.flatnonzero(cut), a_rows)
    mask[eu[e_idx], r_idx] = True
    mask[ev[e_idx], r_idx] = True
    return mask


@kernel_probe("climb_batch")
def climb_batch(
    graph: CSRGraph,
    fitness: FitnessFunction,
    population: np.ndarray,
    max_passes: int = 1,
    rng: Optional[np.random.Generator] = None,
    chunk_rows: Optional[int] = None,
) -> np.ndarray:
    """Hill-climb every row of ``(B, n)`` ``population``; returns the
    climbed copy (the input is not modified).

    ``rng=None`` scans boundary nodes in ascending order and is
    bit-identical to the scalar ``HillClimber._climb`` applied per row;
    with an ``rng``, one shared node permutation is drawn per pass (see
    the module docstring).  ``chunk_rows`` caps rows processed per
    lockstep sweep (default: sized to the metrics module's scratch
    budget); chunking never changes the result.
    """
    if not isinstance(fitness, (Fitness1, Fitness2)):
        raise ConfigError(
            "climb_batch supports Fitness1 and Fitness2, got "
            f"{type(fitness).__name__}"
        )
    pop = np.asarray(population, dtype=np.int64)
    out = check_population(graph, pop, fitness.n_parts).copy()
    b = out.shape[0]
    if b == 0 or graph.n_nodes == 0 or max_passes < 1:
        return out
    # one scan order per pass, drawn up front so the stream consumed is
    # a function of max_passes alone — not of chunking or convergence
    orders = (
        None
        if rng is None
        else [rng.permutation(graph.n_nodes) for _ in range(max_passes)]
    )
    step = _chunk_step(b, graph.n_nodes + 2 * graph.n_edges, chunk_rows)
    for start in range(0, b, step):
        _climb_chunk(graph, fitness, out[start : start + step], max_passes, orders)
    return out


def _climb_chunk(
    graph: CSRGraph,
    fitness: FitnessFunction,
    a: np.ndarray,
    max_passes: int,
    orders: Optional[list[np.ndarray]],
) -> None:
    """Lockstep-climb the ``(C, n)`` chunk ``a`` in place."""
    c_rows = a.shape[0]
    k = fitness.n_parts
    alpha = fitness.alpha
    is_f2 = isinstance(fitness, Fitness2)
    # maintained per-row tables, updated incrementally move by move —
    # exactly the scalar climber's ``loads``/``cuts`` state per row.
    # Fitness1 move decisions never read the cuts table (its Δcomm uses
    # only ``w_into``), so it is maintained for Fitness2 alone.
    loads = batch_part_loads(graph, a, k, validate=False)
    cuts = batch_part_cuts(graph, a, k, validate=False) if is_f2 else None
    avg = graph.total_node_weight() / k
    bounds, incident, node_w = graph.node_tables()
    loads_flat = loads.reshape(-1)
    cuts_flat = cuts.reshape(-1) if is_f2 else None
    indices, adj_w = graph.indices, graph.adj_weights
    # unit edge weights: the weight into each part is a plain count,
    # exact in any order, so the bincount needs no weights array
    unit_edges = graph.has_unit_edge_weights()
    # node-major working copy holding each label fused with its row's
    # offset, ``row * k + label``: that is the entry (row, label) of a
    # flattened (C, k) table, so per-visit gathers, the bincount index
    # and the move scatter are all 1-D indexing
    rk = np.arange(c_rows, dtype=np.int64) * k
    fa = np.ascontiguousarray(a.T) + rk  # (n, C)
    rows = np.arange(c_rows)  # the rows of ``a`` still climbing
    neg_inf = -np.inf

    for pass_no in range(max_passes):
        c_rows = rows.size
        size = c_rows * k
        front = _frontier_by_node(graph, fa)  # (n, C)
        if orders is None:
            scan = np.flatnonzero(front.any(axis=1))
        else:
            order = orders[pass_no]
            scan = order[front[order].any(axis=1)]
        moved = np.zeros(c_rows, dtype=bool)
        for node in scan.tolist():
            lo, hi = bounds[node], bounds[node + 1]
            f_s = fa[node]  # (C,) entry (row, source part); a view
            # (deg, C) neighbors' fused labels: each (row, part) bin
            # accumulates its neighbors in CSR order, as the scalar
            # ``np.add.at`` does.  Every visit computes all C rows.
            fused = fa.take(indices[lo:hi], 0).ravel()
            if unit_edges:
                w_flat = np.bincount(fused, minlength=size)
            else:
                w_flat = np.bincount(
                    fused, weights=adj_w[lo:hi].repeat(c_rows), minlength=size
                )
            w_into = w_flat.reshape(c_rows, k)
            total_w = incident[node]
            w_node = node_w[node]
            loads_s = loads_flat.take(f_s)  # (C,)
            dc_s = 2.0 * w_flat.take(f_s) - total_w

            # ΔI and ΔC for every (row, destination) pair; identical
            # expressions (and evaluation order) to the scalar climber
            t_src = (loads_s - w_node - avg) ** 2
            t_src_old = (loads_s - avg) ** 2
            t_dst = (loads + w_node - avg) ** 2  # (C, k)
            t_dst_old = (loads - avg) ** 2
            d_imb = (t_src[:, None] + t_dst) - t_src_old[:, None] - t_dst_old
            dc_d = total_w - 2.0 * w_into  # (C, k)
            if is_f2:
                old_comm = np.maximum(np.maximum.reduce(cuts, axis=1), 0.0)
                new_s = cuts_flat.take(f_s) + dc_s
                new_d = cuts + dc_d  # (C, k)
                # max over parts excluding {s, d}: mask s, then use the
                # top-2 of the remainder to exclude each candidate d
                wo_s = cuts.copy()
                wo_s.put(f_s, neg_inf)
                f_top1 = rk + wo_s.argmax(axis=1)
                top1 = wo_s.take(f_top1)
                wo_s.put(f_top1, neg_inf)
                top2 = np.maximum.reduce(wo_s, axis=1)
                rest = np.full((c_rows, k), top1[:, None])
                rest.put(f_top1, top2)
                rest = np.maximum(rest, 0.0)
                new_comm = np.maximum(np.maximum(rest, new_s[:, None]), new_d)
                d_comm = new_comm - old_comm[:, None]
            else:
                d_comm = dc_s[:, None] + dc_d
            gain = -(d_imb + alpha * d_comm)  # (C, k)

            # destination: the scalar climber scans candidates (parts
            # with w_into > 0, other than s) in ascending order and takes
            # one only if it beats the running best by > 1e-12, starting
            # from 0.  Mask the non-candidates, take each row's first
            # maximum, and replay that scan only where it can differ.
            # Rows without the node on their pass-start frontier never
            # move (their scalar scan does not reach it).
            np.putmask(gain, w_into <= 0, neg_inf)
            gain.put(f_s, neg_inf)
            dest = gain.argmax(axis=1)
            f_d = rk + dest
            top = gain.take(f_d)
            mv = (top > 1e-12) & front[node]
            hit = mv.nonzero()[0]
            if hit.size == 0:
                continue
            top_col = top[:, None]
            near = (gain < top_col) & (gain + 1e-12 >= top_col)
            near_rows = near.nonzero()[0]
            if near_rows.size:
                _replay_scan(gain, f_d, near_rows, mv)
            fs_h, fd_h = f_s[hit], f_d[hit]
            if is_f2:
                cuts_flat[fs_h] += dc_s[hit]
                cuts_flat[fd_h] += dc_d.take(fd_h)
            loads_flat[fs_h] -= w_node
            loads_flat[fd_h] += w_node
            f_s[hit] = fd_h  # the move, through the view into ``fa``
            moved[hit] = True
        if moved.all():
            continue
        # a row that moved nothing has reached its local optimum: store
        # it, and climb on with the others only
        a[rows] = (fa - rk).T
        keep = moved.nonzero()[0]
        if keep.size == 0:
            return
        rows = rows[keep]
        fa = fa.take(keep, 1) - (rk.take(keep) - rk[: keep.size])
        rk = rk[: keep.size]
        loads = loads.take(keep, 0)
        loads_flat = loads.reshape(-1)
        if is_f2:
            cuts = cuts.take(keep, 0)
            cuts_flat = cuts.reshape(-1)
    a[rows] = (fa - rk).T


def _replay_scan(
    gain: np.ndarray, f_d: np.ndarray, near_rows: np.ndarray, mv: np.ndarray
) -> None:
    """Fix ``f_d`` (row ``i``'s destination, fused as ``i * k + d``)
    where the first maximum of ``gain`` is not the scalar climber's
    choice.

    The ascending scan keeps a running best ``b`` (initially 0) and
    takes candidate ``g`` only if ``g > b + 1e-12``.  A row's first
    maximum ``top`` is taken when the scan reaches it unless the best so
    far — a lesser candidate ``g`` — fails ``top > g + 1e-12``; past it
    nothing beats ``top``.  So the first maximum is exact for every
    moving row without such a near tie, and the rows with one
    (``near_rows``, repeats allowed) replay the scan here, in the same
    float64 arithmetic.  Masked non-candidates are ``-inf`` and never
    win.
    """
    for i in np.unique(near_rows).tolist():
        if not mv[i]:
            continue
        best, best_d = 0.0, -1
        for d, g in enumerate(gain[i].tolist()):
            if g > best + 1e-12:
                best, best_d = g, d
        f_d[i] = i * gain.shape[1] + best_d
