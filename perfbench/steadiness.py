"""Run-to-run spread of every end-to-end metric, in fresh processes.

Usage, from the repository root::

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 10 --seed-base 200 \
        --compare .perfbench/steadiness.json --out .perfbench/steadiness-2.json

Runs ``perfbench/run.py`` ``--runs`` times per workload of
``BENCHMARK.json``, for its ``run_seconds``, each time with another
seed, interleaving the workloads (a, b, c, a, b, c, ...) so that slow
drift of the host spreads over all of them alike. For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the quartile spread
as a share of the median, and the largest deviation from the median,
beside the metric's bound from ``BENCHMARK.json``. It also prints the
share of failed operations per workload, which must be identical in
every run. ``--compare`` reads an earlier output file and prints how far
each median moved in the direction that counts as worse.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        print(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    worst = max(abs(v - median) for v in values) / median if median else float("inf")
    return median, q1, q3, spread, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench", "steadiness.json"))
    parser.add_argument("--compare", default=None,
                        help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metric_spec = {m["name"]: m for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    failed_shares = {w: set() for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            start = time.time()
            result = one_run(workload, args.seed_base + i, seconds)
            if result is None:
                failed_shares[workload].add("crashed")
                continue
            if not result["correct"]:
                print(f"{workload} seed {args.seed_base + i}: outputs INCORRECT")
            failed_shares[workload].add(
                str(Fraction(result["failed"], result["attempted"]))
            )
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"run {i + 1}/{args.runs} {workload} seed {args.seed_base + i} "
                  f"({time.time() - start:.0f} s)", flush=True)

    previous = None
    if args.compare:
        with open(args.compare) as handle:
            previous = json.load(handle)["values"]
    header = (f"{'workload':15s} {'metric':20s} {'unit':5s} {'median':>11s} "
              f"{'q1':>11s} {'q3':>11s} {'iqr/med':>8s} {'maxdev':>7s} {'bound':>6s}")
    if previous:
        header += f" {'worse':>7s}"
    print(header)
    for workload in workloads:
        for name, series in values[workload].items():
            median, q1, q3, spread, worst = summarize(series)
            spec = metric_spec.get(name, {})
            line = (f"{workload:15s} {name:20s} {spec.get('unit', ''):5s} "
                    f"{median:11.5g} {q1:11.5g} {q3:11.5g} {spread:8.2%} "
                    f"{worst:7.2%} {spec.get('bound', float('nan')):6.2f}")
            if previous and name in previous.get(workload, {}):
                before = statistics.median(previous[workload][name])
                change = (median - before) / before
                worse = change if spec.get("better") == "lower" else -change
                line += f" {worse:7.2%}"
            print(line)
        print(f"{workload:15s} failed share per run: {sorted(failed_shares[workload])}")

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump({"seconds": seconds, "runs": args.runs,
                   "seed_base": args.seed_base, "values": values}, handle, indent=1)
    print(f"wrote {os.path.relpath(args.out, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
