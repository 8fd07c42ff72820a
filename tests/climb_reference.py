"""Reference lockstep climber: the batch kernel's previous ``_climb_chunk``.

:func:`repro.ga.batch_climb.climb_batch` now picks each row's
destination with one masked argmax and replays the sequential scan only
for near ties.  This module keeps the form it replaced -- a ``k``-step
ascending destination scan per scanned node, with ``np.ix_`` gathers
and a weighted bincount -- as the oracle the equivalence suite compares
the kernel against, in the deterministic *and* the rng scan mode (the
scalar ``HillClimber._climb`` covers only the former, because it
shuffles each row's frontier on its own).

It is test code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ga.fitness import Fitness2, FitnessFunction
from repro.graphs.csr import CSRGraph
from repro.partition.metrics import (
    _chunk_step,
    batch_part_cuts,
    batch_part_loads,
    check_population,
)


def climb_batch_reference(
    graph: CSRGraph,
    fitness: FitnessFunction,
    population: np.ndarray,
    max_passes: int = 1,
    rng: Optional[np.random.Generator] = None,
    chunk_rows: Optional[int] = None,
) -> np.ndarray:
    """``climb_batch`` driven by the reference chunk kernel: same scan
    orders, same RNG draws, same chunking."""
    pop = np.asarray(population, dtype=np.int64)
    out = check_population(graph, pop, fitness.n_parts).copy()
    b = out.shape[0]
    if b == 0 or graph.n_nodes == 0 or max_passes < 1:
        return out
    orders = (
        None
        if rng is None
        else [rng.permutation(graph.n_nodes) for _ in range(max_passes)]
    )
    step = _chunk_step(b, graph.n_nodes + 2 * graph.n_edges, chunk_rows)
    for start in range(0, b, step):
        _climb_chunk(graph, fitness, out[start : start + step], max_passes, orders)
    return out


def _boundary_mask(graph: CSRGraph, rows: np.ndarray) -> np.ndarray:
    """``(A, n)`` mask: node has >= 1 neighbor in another part, per row.

    Row ``r``'s True columns are exactly
    ``metrics.boundary_nodes(graph, rows[r])`` — the candidates the
    scalar climber scans — computed for all rows with one shared
    cut-edge gather.
    """
    a_rows, n = rows.shape
    m = graph.n_edges
    mask = np.zeros((a_rows, n), dtype=bool)
    if a_rows == 0 or m == 0:
        return mask
    eu, ev = graph.edges_u, graph.edges_v
    cut = rows[:, eu] != rows[:, ev]  # (A, m)
    sel = np.flatnonzero(cut.ravel())
    r_idx, e_idx = np.divmod(sel, m)
    mask[r_idx, eu[e_idx]] = True
    mask[r_idx, ev[e_idx]] = True
    return mask


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
    node_w = graph.node_weights
    indptr, indices, adj_w = graph.indptr, graph.indices, graph.adj_weights
    parts = np.arange(k)

    alive = np.arange(c_rows)  # rows that moved in the previous pass
    for pass_no in range(max_passes):
        fmask = _boundary_mask(graph, a[alive])  # (A, n)
        if orders is None:
            scan = np.flatnonzero(fmask.any(axis=0))
        else:
            order = orders[pass_no]
            scan = order[fmask[:, order].any(axis=0)]
        moved = np.zeros(alive.size, dtype=bool)
        for node in scan:
            sel = np.flatnonzero(fmask[:, node])
            rows = alive[sel]
            r = rows.size
            lo, hi = indptr[node], indptr[node + 1]
            nbrs = indices[lo:hi]
            wts = adj_w[lo:hi]
            s = a[rows, node]  # (R,) source part per row
            lbl = a[np.ix_(rows, nbrs)]  # (R, deg) neighbor labels
            fused = lbl + (np.arange(r, dtype=np.int64) * k)[:, None]
            w_into = np.bincount(
                fused.ravel(),
                weights=np.broadcast_to(wts, lbl.shape).ravel(),
                minlength=r * k,
            ).reshape(r, k)
            total_w = float(wts.sum())
            w_node = node_w[node]
            ridx = np.arange(r)
            loads_r = loads[rows]  # (R, k)
            loads_s = loads_r[ridx, s]  # (R,)
            w_into_s = w_into[ridx, s]
            dc_s = 2.0 * w_into_s - total_w

            # ΔI and ΔC for every (row, destination) pair; identical
            # expressions (and evaluation order) to the scalar climber
            t_src = (loads_s - w_node - avg) ** 2  # (R,)
            t_src_old = (loads_s - avg) ** 2
            t_dst = (loads_r + w_node - avg) ** 2  # (R, k)
            t_dst_old = (loads_r - avg) ** 2
            d_imb = (t_src[:, None] + t_dst) - t_src_old[:, None] - t_dst_old
            dc_d = total_w - 2.0 * w_into  # (R, k)
            if is_f2:
                cuts_r = cuts[rows]
                old_comm = np.maximum(cuts_r.max(axis=1), 0.0)  # (R,)
                new_s = cuts_r[ridx, s] + dc_s
                new_d = cuts_r + dc_d  # (R, k)
                # max over parts excluding {s, d}: mask s, then use the
                # top-2 of the remainder to exclude each candidate d
                wo_s = cuts_r.copy()
                wo_s[ridx, s] = -np.inf
                top1_idx = np.argmax(wo_s, axis=1)
                top1 = wo_s[ridx, top1_idx]
                wo_s[ridx, top1_idx] = -np.inf
                top2 = wo_s.max(axis=1)
                rest = np.where(
                    parts[None, :] == top1_idx[:, None],
                    top2[:, None],
                    top1[:, None],
                )
                rest = np.maximum(rest, 0.0)
                new_comm = np.maximum(np.maximum(rest, new_s[:, None]), new_d)
                d_comm = new_comm - old_comm[:, None]
            else:
                d_comm = dc_s[:, None] + dc_d
            gain = -(d_imb + alpha * d_comm)  # (R, k)

            # replay the scalar ascending destination scan: a candidate
            # wins only by beating the running best by > 1e-12
            valid = (w_into > 0) & (parts[None, :] != s[:, None])
            best_gain = np.zeros(r)
            best_dest = np.full(r, -1, dtype=np.int64)
            for d in range(k):
                win = valid[:, d] & (gain[:, d] > best_gain + 1e-12)
                if win.any():
                    best_gain[win] = gain[win, d]
                    best_dest[win] = d

            mv = best_dest >= 0
            if not mv.any():
                continue
            rr = rows[mv]
            rm = ridx[mv]
            sm = s[mv]
            dm = best_dest[mv]
            if is_f2:
                cuts[rr, sm] += dc_s[mv]
                cuts[rr, dm] += total_w - 2.0 * w_into[rm, dm]
            loads[rr, sm] -= w_node
            loads[rr, dm] += w_node
            a[rr, node] = dm
            moved[sel[mv]] = True
        alive = alive[moved]
        if alive.size == 0:
            break
