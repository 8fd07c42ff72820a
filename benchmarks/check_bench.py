#!/usr/bin/env python
"""Perf guard for the GA's batch kernels.

Times the fused-bincount batch metrics against the seed's ``np.add.at``
scatter-add forms, and the lockstep batch hill-climber against the
per-row scalar climb loop, at paper scale (P=320 individuals, ~300-node
mesh, k=8).  Verifies agreement (bit-identical for the hill climber)
and writes the measurements to ``BENCH_metrics.json`` so later PRs can
track the perf trajectory.  Exits non-zero if a kernel falls below its
speedup floor or disagrees with the baseline.

The climb is also timed at serving scale (``batch_hillclimb_serving``:
P=64, 2 passes, the service's default GA), where each scanned node has
few rows and per-call overhead matters most.  It is checked for bit
identity against the scalar climber but has no floor.

Usage::

    PYTHONPATH=src python benchmarks/check_bench.py \
        [--min-speedup 3.0] [--min-climb-speedup 4.0] [--repeats 30] \
        [--out benchmarks/BENCH_metrics.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.ga import Fitness1, HillClimber, climb_batch
from repro.ga.population import random_population
from repro.graphs import mesh_graph
from repro.partition.metrics import (
    batch_cut_size,
    batch_part_cuts,
    batch_part_loads,
)

from bench_microbench import (
    scalar_improve_batch,
    seed_batch_part_cuts,
    seed_batch_part_loads,
)

#: paper-scale workload (Section 4: population 320, few-hundred-node meshes)
MESH_NODES = 300
N_PARTS = 8
POPULATION = 320
#: the service's default GA climbs P=64 offspring with 2 passes
SERVING_POPULATION = 64
SERVING_PASSES = 2


def best_of(fn, repeats: int) -> float:
    """Best wall time over ``repeats`` runs (seconds); best-of filters
    scheduler noise better than the mean for sub-ms kernels."""
    fn()  # warm up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="floor for new/seed speedup of the rewritten kernels",
    )
    parser.add_argument(
        "--min-climb-speedup",
        type=float,
        default=4.0,
        help="floor for batch/scalar speedup of the lockstep hill-climber",
    )
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument(
        "--climb-repeats",
        type=int,
        default=3,
        help="repeats for the hill-climb pair (its scalar baseline runs "
        "seconds per call, so best-of-few keeps the guard fast)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "BENCH_metrics.json",
    )
    args = parser.parse_args(argv)

    graph = mesh_graph(MESH_NODES, seed=77, candidates=6)
    pop = random_population(graph.n_nodes, N_PARTS, POPULATION, seed=1)
    fitness = Fitness1(graph, N_PARTS)

    failures: list[str] = []
    kernels: dict[str, dict] = {}

    guarded = [
        (
            "batch_part_loads",
            lambda: batch_part_loads(graph, pop, N_PARTS),
            lambda: seed_batch_part_loads(graph, pop, N_PARTS),
        ),
        (
            "batch_part_cuts",
            lambda: batch_part_cuts(graph, pop, N_PARTS),
            lambda: seed_batch_part_cuts(graph, pop, N_PARTS),
        ),
    ]
    for name, new_fn, seed_fn in guarded:
        if not np.allclose(new_fn(), seed_fn(), rtol=0, atol=1e-9):
            failures.append(f"{name}: results diverge from the seed kernel")
            continue
        new_s = best_of(new_fn, args.repeats)
        seed_s = best_of(seed_fn, args.repeats)
        speedup = seed_s / new_s if new_s > 0 else float("inf")
        kernels[name] = {
            "new_ms": round(new_s * 1e3, 4),
            "seed_ms": round(seed_s * 1e3, 4),
            "speedup": round(speedup, 2),
        }
        if speedup < args.min_speedup:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below floor "
                f"{args.min_speedup:.2f}x"
            )

    # lockstep batch hill-climber vs the per-row scalar loop: the guard
    # requires bit-identical climbed assignments (deterministic scan
    # order), not mere numerical agreement
    climber = HillClimber(graph, fitness)
    new_fn = lambda: climb_batch(graph, fitness, pop, 1)  # noqa: E731
    base_fn = lambda: scalar_improve_batch(climber, pop, 1)  # noqa: E731
    if not np.array_equal(new_fn(), base_fn()):
        failures.append(
            "batch_hillclimb: climbed assignments are not bit-identical "
            "to the scalar climber"
        )
    else:
        new_s = best_of(new_fn, args.climb_repeats)
        seed_s = best_of(base_fn, args.climb_repeats)
        speedup = seed_s / new_s if new_s > 0 else float("inf")
        kernels["batch_hillclimb"] = {
            "new_ms": round(new_s * 1e3, 4),
            "seed_ms": round(seed_s * 1e3, 4),
            "speedup": round(speedup, 2),
        }
        if speedup < args.min_climb_speedup:
            failures.append(
                f"batch_hillclimb: speedup {speedup:.2f}x below floor "
                f"{args.min_climb_speedup:.2f}x"
            )

    # the same pair at serving scale: bit identity is required, the
    # timing is recorded without a floor
    serving_pop = random_population(
        graph.n_nodes, N_PARTS, SERVING_POPULATION, seed=2
    )
    new_fn = lambda: climb_batch(  # noqa: E731
        graph, fitness, serving_pop, SERVING_PASSES
    )
    base_fn = lambda: scalar_improve_batch(  # noqa: E731
        climber, serving_pop, SERVING_PASSES
    )
    if not np.array_equal(new_fn(), base_fn()):
        failures.append(
            "batch_hillclimb_serving: climbed assignments are not "
            "bit-identical to the scalar climber"
        )
    else:
        kernels["batch_hillclimb_serving"] = {
            "new_ms": round(best_of(new_fn, args.repeats) * 1e3, 4),
            "population": SERVING_POPULATION,
            "passes": SERVING_PASSES,
        }

    # trajectory-only kernels (no seed baseline / no floor)
    for name, fn in [
        ("batch_cut_size", lambda: batch_cut_size(graph, pop)),
        ("fitness1_evaluate_batch", lambda: fitness.evaluate_batch(pop)),
    ]:
        kernels[name] = {"new_ms": round(best_of(fn, args.repeats) * 1e3, 4)}

    report = {
        "scale": {
            "mesh_nodes": graph.n_nodes,
            "edges": graph.n_edges,
            "population": POPULATION,
            "n_parts": N_PARTS,
        },
        "min_speedup": args.min_speedup,
        "min_climb_speedup": args.min_climb_speedup,
        "kernels": kernels,
        "ok": not failures,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(json.dumps(report, indent=2))
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
