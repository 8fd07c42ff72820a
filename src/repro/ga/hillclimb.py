"""Boundary hill-climbing (Section 3.6 of the paper).

Only "boundary points" — nodes with at least one neighbor in another
part — are examined; each is migrated to the neighboring part that most
improves fitness, if any.  Passes repeat until a fixed point or the pass
budget is exhausted, so the result is a local optimum of the fitness
under single-node moves.

The move deltas are computed incrementally from two maintained arrays,
the per-part loads ``L`` and per-part boundary costs ``C``.  Moving node
``i`` (incident weight ``T``, weight ``W_q`` into each part ``q``) from
part ``s`` to ``d`` changes only ``C(s)`` and ``C(d)``::

    ΔC(s) = 2 W_s - T        (internal edges become cut, old cut edges leave)
    ΔC(d) = T - 2 W_d

which gives O(degree + k) per candidate move instead of re-evaluating
the whole partition.

Batched delta formulation
-------------------------
:meth:`HillClimber.improve_batch` dispatches to
:func:`repro.ga.batch_climb.climb_batch`, which runs the same greedy
scan in lockstep over all ``B`` rows of a population.  Per pass it
keeps ``(B, k)`` tables of the loads ``L`` and boundary costs ``C`` and
a shared node-major frontier mask; per scanned node ``i`` it forms the
``(B, k)`` table ``W[r, q]`` — row ``r``'s weight from ``i`` into part
``q`` — with one fused-index bincount over ``row * k + label``, and the
move deltas become whole-array expressions over that table::

    ΔI(r, d) = (L[r,s]-w_i-W̄)² + (L[r,d]+w_i-W̄)² - (L[r,s]-W̄)² - (L[r,d]-W̄)²
    ΔC(r, s) = 2 W[r,s] - T_i,   ΔC(r, d) = T_i - 2 W[r,d]

with Fitness2's worst-part term obtained from the per-row top-2 of
``C`` excluding ``{s, d}``.  The destination is one masked argmax per
row: parts with ``W[r, q] = 0`` and ``s`` itself are masked, the row's
first maximum gain ``g*`` is taken, and the node moves if
``g* > 1e-12``.  That equals this module's ascending scan (take ``d``
only if its gain beats the running best, from 0, by more than
``1e-12``) except when a lesser candidate ``g`` fails ``g* > g +
1e-12``; only rows with such a near tie replay the scan, so the choice
is exact.  One pass thus costs O(scanned nodes) vectorized steps of a
fixed handful of numpy calls, instead of O(B × frontier) Python
iterations, while remaining bit-identical to the scalar ``_climb`` in
deterministic scan order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..graphs.csr import CSRGraph
from ..partition.metrics import boundary_nodes, part_cuts, part_loads
from .batch_climb import climb_batch
from .fitness import Fitness1, Fitness2, FitnessFunction

__all__ = ["HillClimber"]


class HillClimber:
    """Greedy single-node-migration local search for either fitness.

    Parameters
    ----------
    graph:
        Graph being partitioned.
    fitness:
        A :class:`Fitness1` or :class:`Fitness2` instance; determines
        whether the communication delta uses the total or the worst-part
        formulation.
    """

    def __init__(self, graph: CSRGraph, fitness: FitnessFunction) -> None:
        if not isinstance(fitness, (Fitness1, Fitness2)):
            raise ConfigError(
                "HillClimber supports Fitness1 and Fitness2, got "
                f"{type(fitness).__name__}"
            )
        self.graph = graph
        self.fitness = fitness
        self.n_parts = fitness.n_parts

    # ------------------------------------------------------------------
    def improve(
        self,
        assignment: np.ndarray,
        max_passes: int = 5,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[np.ndarray, float]:
        """Return ``(improved_assignment, its_fitness)``.

        ``rng`` randomizes the scan order over boundary nodes (a fixed
        order biases which local optimum is reached); ``None`` keeps the
        deterministic ascending order.
        """
        a = self._climb(assignment, max_passes, rng)
        return a, self.fitness.evaluate(a)

    def _climb(
        self,
        assignment: np.ndarray,
        max_passes: int,
        rng: Optional[np.random.Generator],
    ) -> np.ndarray:
        """Greedy migration passes; returns the climbed assignment only.

        This scalar form is the reference implementation the vectorized
        :func:`~repro.ga.batch_climb.climb_batch` must match bit-for-bit
        in deterministic scan order (asserted by the equivalence suite
        and the perf guard); it remains the fast path for single rows,
        where per-node numpy-scalar arithmetic beats whole-array
        dispatch overhead.
        """
        graph, k = self.graph, self.n_parts
        alpha = self.fitness.alpha
        a = np.asarray(assignment, dtype=np.int64).copy()
        loads = part_loads(graph, a, k)
        cuts = part_cuts(graph, a, k)
        avg = graph.total_node_weight() / k
        is_f2 = isinstance(self.fitness, Fitness2)

        for _ in range(max_passes):
            moved = False
            frontier = boundary_nodes(graph, a)
            if rng is not None:
                frontier = frontier.copy()
                rng.shuffle(frontier)
            for node in frontier:
                s = a[node]
                nbrs = graph.neighbors(node)
                wts = graph.neighbor_weights(node)
                w_into = np.zeros(k)
                np.add.at(w_into, a[nbrs], wts)
                total_w = float(wts.sum())
                w_node = graph.node_weights[node]

                # candidate destinations: parts adjacent to this node
                dests = np.flatnonzero(w_into > 0)
                best_gain = 0.0
                best_dest = -1
                for d in dests:
                    if d == s:
                        continue
                    d_imb = (
                        (loads[s] - w_node - avg) ** 2
                        + (loads[d] + w_node - avg) ** 2
                        - (loads[s] - avg) ** 2
                        - (loads[d] - avg) ** 2
                    )
                    dc_s = 2.0 * w_into[s] - total_w
                    dc_d = total_w - 2.0 * w_into[d]
                    if is_f2:
                        old_comm = cuts.max(initial=0.0)
                        new_s, new_d = cuts[s] + dc_s, cuts[d] + dc_d
                        rest = np.delete(cuts, [s, d]).max(initial=0.0)
                        new_comm = max(rest, new_s, new_d)
                        d_comm = new_comm - old_comm
                    else:
                        d_comm = dc_s + dc_d
                    gain = -(d_imb + alpha * d_comm)
                    if gain > best_gain + 1e-12:
                        best_gain = gain
                        best_dest = int(d)
                if best_dest >= 0:
                    d = best_dest
                    cuts[s] += 2.0 * w_into[s] - total_w
                    cuts[d] += total_w - 2.0 * w_into[d]
                    loads[s] -= w_node
                    loads[d] += w_node
                    a[node] = d
                    moved = True
            if not moved:
                break
        return a

    def improve_batch(
        self,
        population: np.ndarray,
        max_passes: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Hill-climb every row of a ``(B, n)`` batch, vectorized.

        Dispatches to :func:`repro.ga.batch_climb.climb_batch`, which
        climbs all rows in lockstep; with ``rng=None`` the result is
        bit-identical to climbing each row with :meth:`_climb` (with an
        ``rng`` the scan order is a shared per-pass permutation instead
        of a per-row shuffle — see that module's docstring).

        Returns ``(improved, fitness)`` where ``fitness`` comes from one
        batched evaluation of the climbed rows — callers should reuse it
        instead of re-evaluating the batch (which is what the engine
        used to do, doubling the per-generation evaluation cost under
        ``hill_climb="all"``).
        """
        out = climb_batch(
            self.graph, self.fitness, population, max_passes=max_passes, rng=rng
        )
        return out, self.fitness.evaluate_batch(out)
