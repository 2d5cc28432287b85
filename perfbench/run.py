"""The repository's benchmark: one workload, one seed, one JSON result.

Usage, from the repository root::

    python3 perfbench/run.py --workload pingers_clock --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the workload's end-to-end metrics: the set-up
time (median of several set-ups), then whole rounds of work until
``--seconds`` is nearly spent. ``--trace 1`` runs a warm-up round, one
round untraced and the same round again with every layer wrapped (see
``tracing.py``), reports the per-layer metrics, checks that the traced
simulation took the same steps and recorded the same events, and writes
the per-function table and the sampled span log under ``.perfbench/``.

Every round's outputs are checked by ``checks.py``. The last line of
standard output is the result::

    {"correct": true, "attempted": 3600, "failed": 1200, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("pingers_clock", "register_clock", "live_register")
PERF = time.perf_counter


def round_seed(seed: int, index: int) -> int:
    """The inputs of round ``index`` depend on the run's seed alone."""
    return seed * 1000 + index


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def manifest_mismatch(metrics, kind: str) -> list:
    """The metrics of ``BENCHMARK.json``'s ``kind`` list not reported as named.

    Every run reports every metric of its kind, in the manifest's unit.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        wanted = {m["name"]: m["unit"] for m in json.load(handle)[kind]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    return sorted(set(wanted.items()) ^ set(got.items()))


def measure(workload, seed: int, seconds: float):
    """Set-up median, then whole rounds for about ``seconds``."""
    setups = []

    def set_up(times: int) -> None:
        for _ in range(times):
            gc.collect()  # no collection of earlier garbage inside a timed set-up
            setups.append(workload.setup_once(seed))

    workload.setup_once(seed)  # warm-up: first-use caches and imports
    set_up(workload.setup_reps)
    rounds = []
    start = PERF()
    while True:
        if rounds:
            # more set-ups between rounds: the median spans the whole run
            set_up(max(1, workload.setup_reps // 4))
        gc.collect()
        round_start = PERF()
        rnd = workload.run_round(round_seed(seed, len(rounds)))
        rnd.wall_s = PERF() - round_start
        rounds.append(rnd)
        elapsed = PERF() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    metrics = {"setup_s": (statistics.median(setups), "s")}
    metrics.update(workload.end_to_end(rounds))
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    notes = [f"{len(rounds)} rounds in {PERF() - start:.1f} s; "
             f"setup_s is the median of {len(setups)} set-ups"]
    return rounds, metrics, notes + workload.notes(rounds)


def traced(workload, seed: int):
    """One untraced and one traced round of the same inputs.

    A warm-up round runs first, so that neither timed round pays for
    imports and first-use caches.
    """
    first = round_seed(seed, 0)
    warm = workload.run_round(first)
    gc.collect()
    start = PERF()
    plain = workload.run_round(first, keep=True)
    plain.wall_s = PERF() - start

    trace = workload.traced()
    try:
        gc.collect()
        start = PERF()
        again = workload.run_round(first, keep=True)
        again.wall_s = PERF() - start
    finally:
        trace.restore()
    again.problems += workload.same_execution(plain, again)
    metrics = workload.per_layer(trace, plain, again)
    metrics["trace.overhead_ratio"] = (again.wall_s / plain.wall_s, "ratio")
    stem = f"{workload.name}-seed{seed}"
    paths = trace.write(OUT_DIR, stem, {
        "workload": workload.name, "seed": seed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    notes = [f"untraced round {plain.wall_s:.2f} s, traced {again.wall_s:.2f} s",
             "wrote " + ", ".join(os.path.relpath(p, ROOT) for p in paths)]
    return [warm, plain, again], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.trace:
        rounds, metrics, notes = traced(workload, args.seed)
    else:
        rounds, metrics, notes = measure(workload, args.seed, args.seconds)
    missing = manifest_mismatch(metrics, "per_layer" if args.trace else "end_to_end")
    if missing:
        print(f"perfbench: metrics differ from BENCHMARK.json: {missing}",
              file=sys.stderr)
        return 1

    problems = [p for r in rounds for p in r.problems]
    late = sum(r.data.get("late", 0) for r in rounds)
    if late:
        notes.append(f"{late} operations finished after Theorem 6.5 cost + 2 eps")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for note in notes:
        print(note)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
