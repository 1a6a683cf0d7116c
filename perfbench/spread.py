#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads explore service \
        --seeds 10 --seconds 50 [--trace 1]

For every workload and metric, prints the median of the per-seed
values and the distance between their first and third quartiles
(statistics.quantiles, n=4) as a share of that median - the noise
band a change's median has to clear. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    # Seed-major order interleaves the workloads, so a slow spell on
    # the machine lands on several workloads instead of one.
    ok = True
    values = {workload: {} for workload in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in args.workloads:
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: run failed")
                ok = False
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result")
                ok = False
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(
                    metric["value"])
    for workload, metrics in values.items():
        for name, series in metrics.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"{workload:8} {name:26} median {median:12.4f}  "
                  f"iqr/median {spread:6.3f}  n={len(series)}  "
                  + " ".join(f"{value:.4g}" for value in series))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
