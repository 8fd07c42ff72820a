"""Method-portfolio mode: race DKNUX against the cheap baselines.

The paper compares DKNUX against a suite of classical partitioners
(Section 4); production traffic turns that comparison into a serving
strategy.  Under a time budget the portfolio runs the cheap
deterministic baselines (greedy growth, recursive graph bisection,
recursive KL, plus the coordinate methods when the graph carries
coordinates, and RSB) and the DKNUX GA, and answers with the best
partition seen — so a tight budget degrades gracefully to the best
classical answer instead of timing out, and a loose one recovers full
GA quality.

Every method is scored by the *request's* fitness function (the same
objective the GA optimizes), so "best" means best under the paper's
cost model, not merely smallest edge cut.

Legs run one after another in a fixed order, with the budget checked
between legs and between DKNUX generations.  The iterative baseline
legs (KL, RSB) additionally check a deadline *inside* their own
sweeps, so a binding budget cancels them mid-run instead of letting
one monolithic leg overshoot the whole budget; a non-binding budget
leaves their results bit-identical.

The winner is the highest-fitness leg, ties keeping the earlier leg,
so a budget that does not bind gives the same winner and partition on
every run of the same request (each leg's computation is seeded and
runs to its own stopping rule).  A binding budget is timing-dependent.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from ..errors import ReproError
from ..ga.config import GAConfig
from ..ga.fitness import make_fitness
from ..graphs.csr import CSRGraph
from ..partition.partition import Partition

__all__ = ["run_portfolio", "PORTFOLIO_GA_DEFAULTS"]

#: compact GA budget for the portfolio leg (callers override via ``ga``)
PORTFOLIO_GA_DEFAULTS = dict(
    population_size=48,
    max_generations=80,
    hill_climb="all",
    hill_climb_passes=2,
    patience=15,
)


def _run_budgeted_dknux(
    graph: CSRGraph,
    n_parts: int,
    fitness_kind: str,
    config: GAConfig,
    seed: int,
    remaining,
) -> tuple[Partition, int]:
    """The full DKNUX engine run, clock-bounded via ``run(deadline=)``.

    Identical to :func:`repro.partition_graph` with the same config and
    seed (same engine, RNG stream, hill-climb modes, stopping rules) —
    a binding budget only stops it between generations earlier."""
    from ..ga.dknux import DKNUX
    from ..ga.engine import GAEngine

    fitness = make_fitness(fitness_kind, graph, n_parts)
    engine = GAEngine(
        graph, fitness, DKNUX(graph, n_parts), config=config, seed=seed
    )
    budget = remaining()
    deadline = None if budget == float("inf") else time.perf_counter() + budget
    result = engine.run(deadline=deadline)
    return result.best, result.generations


def _baseline_legs(
    graph: CSRGraph,
    n_parts: int,
    seed: int,
    remaining: Optional[Callable[[], float]] = None,
) -> list[tuple[str, Callable[[], Partition]]]:
    """Leg list in the fixed order.  The iterative legs (KL, RSB)
    receive a per-call deadline derived from ``remaining`` at the
    moment the leg starts, so a binding budget cancels them *mid-run*
    (per-sweep checks inside each method) instead of letting a
    monolithic leg overshoot the budget; when the budget never binds
    the deadline is ``None`` and the legs are bit-identical to their
    unbudgeted runs."""
    from ..baselines import (
        greedy_partition,
        ibp_partition,
        rcb_partition,
        recursive_kl_partition,
        rgb_partition,
        rsb_partition,
    )

    def leg_deadline() -> Optional[float]:
        if remaining is None:
            return None
        left = remaining()
        return None if left == float("inf") else time.perf_counter() + left

    legs: list[tuple[str, Callable[[], Partition]]] = [
        ("greedy", lambda: greedy_partition(graph, n_parts, seed=seed)),
        ("rgb", lambda: rgb_partition(graph, n_parts)),
        (
            "kl",
            lambda: recursive_kl_partition(
                graph, n_parts, seed=seed, deadline=leg_deadline()
            ),
        ),
    ]
    if graph.coords is not None:
        legs.append(("rcb", lambda: rcb_partition(graph, n_parts)))
        legs.append(("ibp", lambda: ibp_partition(graph, n_parts)))
    legs.append(
        ("rsb", lambda: rsb_partition(graph, n_parts, deadline=leg_deadline()))
    )
    return legs


def run_portfolio(
    graph: CSRGraph,
    n_parts: int,
    fitness_kind: str = "fitness1",
    seed: int = 0,
    time_budget: Optional[float] = None,
    ga: Optional[dict] = None,
) -> tuple[Partition, str, float, list[dict]]:
    """Run the portfolio; returns ``(best, method, fitness, table)``.

    ``table`` has one row per leg in the fixed leg order — ``{method,
    cut_size, max_part_cut, fitness, seconds}`` for legs that ran,
    ``{method, skipped: reason}`` for legs the budget cut or that
    failed (a leg error never sinks the request; the race just moves
    on).  The winner is the highest-fitness leg, ties resolved by leg
    order (see the module docstring).
    """
    fitness = make_fitness(fitness_kind, graph, n_parts)
    t_start = time.perf_counter()

    def remaining() -> float:
        if time_budget is None:
            return float("inf")
        return time_budget - (time.perf_counter() - t_start)

    baselines = _baseline_legs(graph, n_parts, seed, remaining)
    overrides = dict(PORTFOLIO_GA_DEFAULTS)
    if ga:
        overrides.update(ga)
    config = GAConfig(**overrides)

    rows = _run_legs(
        graph, n_parts, fitness_kind, fitness, config, seed,
        baselines, remaining,
    )

    table: list[dict] = []
    best: Optional[Partition] = None
    best_method = ""
    best_fitness = -np.inf
    for method, partition, value, row in rows:
        table.append(row)
        if partition is not None and value > best_fitness:
            best, best_method, best_fitness = partition, method, value

    if best is None:
        # every leg failed or was cut — fall back to a trivial valid answer
        from ..baselines import random_partition

        best = random_partition(graph, n_parts, seed=seed)
        best_method = "random"
        best_fitness = fitness.evaluate(best.assignment)
        table.append({"method": "random", "skipped": "fallback answer"})
    return best, best_method, float(best_fitness), table


def _run_legs(
    graph, n_parts, fitness_kind, fitness, config, seed, baselines, remaining
) -> list[tuple]:
    """``[(method, partition|None, fitness, table_row), ...]`` in leg
    order; baselines first, then the budget-bounded DKNUX leg."""
    rows: list[tuple] = []
    for method, leg in baselines:
        if remaining() <= 0:
            rows.append((method, None, -np.inf,
                         {"method": method, "skipped": "time budget exhausted"}))
            continue
        t0 = time.perf_counter()
        try:
            partition = leg()
        except ReproError as exc:
            rows.append((method, None, -np.inf,
                         {"method": method, "skipped": f"failed: {exc}"}))
            continue
        rows.append(_leg_row(method, partition, fitness,
                             time.perf_counter() - t0))

    # DKNUX leg: spend whatever budget remains — the generation loop
    # checks the clock, so a binding budget stops the GA mid-run and
    # answers with its best-so-far instead of overshooting the cap
    if remaining() > 0:
        t0 = time.perf_counter()
        partition, generations = _run_budgeted_dknux(
            graph, n_parts, fitness_kind, config, seed, remaining
        )
        row = _leg_row("dknux", partition, fitness, time.perf_counter() - t0)
        row[3]["generations"] = generations
        rows.append(row)
    else:
        rows.append(("dknux", None, -np.inf,
                     {"method": "dknux", "skipped": "time budget exhausted"}))
    return rows


def _leg_row(method: str, partition: Partition, fitness, seconds: float):
    value = float(fitness.evaluate(partition.assignment))
    return (
        method,
        partition,
        value,
        {
            "method": method,
            "cut_size": float(partition.cut_size),
            "max_part_cut": float(partition.max_part_cut),
            "fitness": value,
            "seconds": round(seconds, 6),
        },
    )
