#!/usr/bin/env python3
"""Run the benchmark several times with different seeds and report, per
end-to-end metric, the median and the spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Run from the root of a checkout. Each run is `perfbench/run.py` with its
own seed and the run_seconds of BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    values = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, check=True).stdout.decode()
        result = json.loads(out.rstrip("\n").split("\n")[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: incorrect or failed jobs: %s" % (seed, out))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.5g" % (k, m["value"]) for k, m in result["metrics"].items())), flush=True)
    worst = 0.0
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print("%-22s median %12.6g  spread %.4f  bound %.2f" % (m["name"], med, spread, m["bound"]))
    print("worst spread / bound (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
