#!/usr/bin/env python
"""ParallelDPGA pool fan-out overhead: pinned executor bank vs one
shared pool with explicit state shipping.

The pinned bank buys island-state affinity with one single-process
``ProcessPoolExecutor`` per worker slot; every slot is an OS process
plus a management thread and pipe pair, so bank construction/teardown
grows linearly with the slot count.  The shared pool pays one pool
startup regardless of width but ships each island's engine state
(~KBs) with every epoch task.  This benchmark measures both paths
end-to-end (constructor + run + teardown) across worker counts,
verifies their results are bit-identical, and records the numbers that
set ``repro.ga.parallel.SHARED_POOL_CUTOFF`` — the width above which
the runner takes the shared pool.  Each path is forced at every width
by moving that cutoff.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_fanout.py \
        [--workers 4 16 24] [--islands 24] [--out FANOUT_metrics.json]

Informational (prints a table, writes JSON); the only hard gate is
bit-identity between the two paths.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import repro.ga.parallel as parallel
from repro.ga.config import GAConfig
from repro.ga.dpga import DPGAConfig
from repro.ga.parallel import ParallelDPGA
from repro.graphs import mesh_graph

#: the ``SHARED_POOL_CUTOFF`` that forces each path at any width
FORCING_CUTOFF = {"pinned": sys.maxsize, "shared": 0}


def run_mode(graph, mode: str, n_workers: int, n_islands: int, epochs: int):
    """(wall seconds incl. pool setup/teardown, best assignment)."""
    dpga = ParallelDPGA(
        graph,
        "fitness1",
        4,
        dpga_config=DPGAConfig(
            n_islands=n_islands,
            total_population=4 * n_islands,
            migration_interval=1,
            max_generations=epochs,
            migration_size=1,
        ),
        ga_config=GAConfig(population_size=4, hill_climb="off"),
        n_workers=n_workers,
        seed=0,
    )
    saved = parallel.SHARED_POOL_CUTOFF
    parallel.SHARED_POOL_CUTOFF = FORCING_CUTOFF[mode]
    try:
        t0 = time.perf_counter()
        result = dpga.run()
        return time.perf_counter() - t0, result.best.assignment
    finally:
        parallel.SHARED_POOL_CUTOFF = saved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, nargs="+",
                        default=[4, 16, 24])
    parser.add_argument("--islands", type=int, default=24)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--nodes", type=int, default=60)
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).parent / "FANOUT_metrics.json",
    )
    args = parser.parse_args(argv)

    graph = mesh_graph(args.nodes, seed=0)
    rows = []
    identical = True
    print(f"{'workers':>8} {'pinned_s':>9} {'shared_s':>9} {'shared/pinned':>13}")
    for n_workers in args.workers:
        pinned_s, pinned_a = run_mode(
            graph, "pinned", n_workers, args.islands, args.epochs
        )
        shared_s, shared_a = run_mode(
            graph, "shared", n_workers, args.islands, args.epochs
        )
        identical &= bool(np.array_equal(pinned_a, shared_a))
        ratio = shared_s / max(pinned_s, 1e-9)
        rows.append({
            "workers": n_workers,
            "pinned_s": round(pinned_s, 3),
            "shared_s": round(shared_s, 3),
            "shared_over_pinned": round(ratio, 3),
        })
        print(f"{n_workers:>8} {pinned_s:>9.2f} {shared_s:>9.2f} {ratio:>13.2f}")

    report = {
        "scale": {
            "nodes": args.nodes,
            "islands": args.islands,
            "epochs": args.epochs,
        },
        "rows": rows,
        "bit_identical": identical,
        "ok": identical,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    if not identical:
        print("FAIL: pinned and shared pools disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
