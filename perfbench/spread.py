"""Run-to-run spread of the benchmark, the way its acceptance reads it.

Runs ``run.py`` once per seed and prints, per metric, the median and
the quartile spread -- the distance between the first and third
quartile of the values as a share of their median::

    python3 perfbench/spread.py --workload hot_hits --seeds 1 2 3 4 5

Each run takes ``--seconds`` plus its set-up, so ten seeds on a 30 s
run take about six minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    values: dict = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, check=True,
        ).stdout.strip().splitlines()[-1]
        result = json.loads(out)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) > 1 else 0.0
        print(f"{name:40s} median {statistics.median(vals):12.6g} "
              f"spread {100 * spread:6.2f}%  "
              + " ".join(f"{v:.5g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
