"""The benchmark's three workloads: inputs from a seed, rounds, metrics.

Every workload runs in whole *rounds*, each a fixed shape of work whose
inputs come from ``(seed, round index)`` alone, so the share of failed
operations is the same in every run however many rounds fit.

``pingers_clock``
    256 pinger/echo pairs (n = 512 clock nodes) on the default serial
    :class:`~repro.sim.engine.Simulator`. Ping intervals are drawn from a
    16-value grid, so several pairs share an instant. The eager O(n)
    clock sweep on every time advance and the O(n^2) routing-table fill
    do nearly all the work; no checker, no live code. Each round also
    runs one fixed n = 64 system, mostly with ``mixed`` drivers and
    uniform delays, that dies with ``TimelockError`` today; its pings
    count as failed.
``register_clock``
    Algorithm S in the clock model: three all-to-all n = 8 histories of
    800 operations (50 % reads), each simulated then checked with
    :func:`~repro.traces.linearizability.analyze_linearizability`, plus
    one fixed n = 3 history of 1,200 operations whose check dies with
    ``RecursionError`` today; its operations count as failed.
``live_register``
    A loopback :class:`~repro.live.service.LiveCluster` with n = 2, one
    closed-loop client per node, think time 0, 50 % reads and default
    :class:`~repro.live.params.LiveParams`; 150 operations per client.

Only public entry points of ``repro`` are called.
"""

from __future__ import annotations

import asyncio
import gc
import random
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from checks import (
    Op,
    check_latencies,
    check_pingers,
    check_register_history,
    ops_from_events,
    percentile,
    theorem_costs,
)
from tracing import (
    CHECK_FUNCTIONS,
    CHECK_LAYERS,
    CHECK_LOOKUPS,
    LIVE_LAYERS,
    SIM_LAYERS,
    WIRE_FUNCTIONS,
    WIRE_LOOKUPS,
    LayerTrace,
)

from repro.components.pinger import EchoProcess, PingerProcess
from repro.core.pipeline import build_clock_system
from repro.live.client import LiveLoadClient
from repro.live.load import build_operations, live_workload
from repro.live.params import LiveParams
from repro.live.service import LiveCluster
from repro.network.topology import Topology
from repro.registers.opstream import OpSchedule, PlannedOp
from repro.registers.system import (
    INITIAL_VALUE,
    clock_register_system,
    run_register_experiment,
)
from repro.registers.workload import RegisterWorkload
from repro.errors import TimelockError
from repro.sim.clock_drivers import (
    FastClockDriver,
    PerfectClockDriver,
    SkewedClockDriver,
    SlowClockDriver,
    driver_factory,
)
from repro.sim.delay import DelayModel, UniformDelay
from repro.sim.engine import Simulator
from repro.sim.recorder import Recorder
from repro.traces import linearizability

PERF = time.perf_counter
REGISTER_EVENTS = ("READ", "WRITE", "RETURN", "ACK")

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Round:
    """One round's outcome: operation counts, problems and raw figures."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    data: Dict[str, object] = field(default_factory=dict)


def median_of(rounds: List[Round], rate) -> float:
    """The median over rounds of a figure computed from each round's data."""
    return statistics.median(rate(r.data) for r in rounds)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# layers whose share of the traced round's wall time is reported
SHARE_LAYERS = ("engine", "clock_node", "clock_driver", "buffers", "channel",
                "registers", "scheduler", "recorder", "obs", "check", "wire",
                "live_clock")


def layer_metrics(trace: LayerTrace, wall_s: float, steps: int, outputs: int,
                  ops: int) -> Metrics:
    """The per-layer figures of one traced round, the same on every workload.

    Self times are shares (%) of the traced round's wall time; counts are
    per engine step, fired output or operation. A layer a workload does
    not run reads 0, in units that are not times.
    """
    metrics: Metrics = {
        f"{layer}.self_pct": (100.0 * trace.layer_self_s(layer) / wall_s, "%")
        for layer in SHARE_LAYERS
    }
    metrics.update({
        "engine.accepts_per_output": (_per(trace.count_suffix("accepts"), outputs), "calls/output"),
        # every Simulator of the round, as one set-up builds them
        "engine.construct_pct": (100.0 * trace.total_s.get("Simulator.__init__", 0.0) / wall_s, "%"),
        "clock_node.advance_calls_per_step": (_per(trace.count("ClockNodeEntity.advance"), steps), "calls/step"),
        "clock_node.deadline_calls_per_step": (_per(trace.count("ClockNodeEntity.deadline"), steps), "calls/step"),
        "clock_node.enabled_calls_per_step": (_per(trace.count("ClockNodeEntity.enabled"), steps), "calls/step"),
        "clock_driver.step_calls_per_step": (_per(trace.count_suffix("step", "clock_driver"), steps), "calls/step"),
        "buffers.clock_deadline_calls_per_step": (_per(trace.count_suffix("clock_deadline", "buffers"), steps), "calls/step"),
        "wire.frames_per_op": (_per(trace.count("encode_frame"), ops), "frames/op"),
        "live_clock.reads_per_op": (_per(trace.count("LiveClock.read"), ops), "reads/op"),
    })
    return metrics


def wrap_every_layer(trace: LayerTrace) -> LayerTrace:
    """Wrap every layer, so each workload reports the same per-layer set."""
    trace.wrap_layers(SIM_LAYERS)
    trace.wrap_layers(CHECK_LAYERS)
    trace.wrap_functions("check", CHECK_FUNCTIONS, CHECK_LOOKUPS)
    trace.wrap_layers(LIVE_LAYERS)
    trace.wrap_functions("wire", WIRE_FUNCTIONS, WIRE_LOOKUPS)
    return trace


def register_metrics(ops_checked: int, visited: int, histories, reads_s,
                     writes_s, costs_s, late: int) -> Metrics:
    """The checker's and the register operations' figures of one round.

    ``histories`` are the operation lists the checker finished with;
    ``check.peak_mb`` is the largest tracemalloc peak of checking one of
    them again. Overheads are each kind's median latency above Theorem
    6.5's cost, as a share of that cost.
    """
    peak = 0
    for operations in histories:
        gc.collect()
        tracemalloc.start()
        linearizability.analyze_linearizability(
            operations, initial_value=INITIAL_VALUE)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    read_cost, write_cost = costs_s
    return {
        "check.visited_per_op": (_per(visited, ops_checked), "nodes/op"),
        "check.peak_mb": (peak / 2 ** 20, "MB"),
        "ops.read_overhead_pct": (100.0 * (percentile(reads_s, 0.5) / read_cost - 1.0), "%"),
        "ops.write_overhead_pct": (100.0 * (percentile(writes_s, 0.5) / write_cost - 1.0), "%"),
        # operations over Theorem 6.5's cost + 2 eps
        "ops.late": (float(late), "count"),
    }


NO_REGISTER_OPS: Metrics = {
    "check.visited_per_op": (0.0, "nodes/op"),
    "check.peak_mb": (0.0, "MB"),
    "ops.read_overhead_pct": (0.0, "%"),
    "ops.write_overhead_pct": (0.0, "%"),
    "ops.late": (0.0, "count"),
}


def export_metrics(results) -> Metrics:
    """Time advances per step and scheduler candidates per pick.

    Both come from the program's own metrics export of each finished
    run (``repro.engine.time_advances``, ``repro.scheduler.contention``).
    """
    steps = advances = picks = 0
    candidates = 0.0
    for result in results:
        snapshot = result.metrics
        contention = snapshot["histograms"].get("repro.scheduler.contention", {})
        steps += result.steps
        advances += int(snapshot["counters"].get("repro.engine.time_advances", 0))
        picks += int(contention.get("count", 0))
        candidates += float(contention.get("sum", 0.0))
    return {
        "engine.advances_per_step": (_per(advances, steps), "advances/step"),
        "scheduler.candidates_per_pick": (_per(candidates, picks), "candidates/pick"),
    }


def fired_outputs(entities, recorder: Recorder) -> int:
    """Recorded actions that were outputs of the entity that fired them."""
    by_name = {entity.name: entity for entity in entities}
    return sum(
        1 for event in recorder.events
        if event.owner in by_name
        and by_name[event.owner].signature.is_output(event.action)
    )


# -- inputs on a dyadic grid -------------------------------------------------
#
# The simulator inputs are exact binary fractions (eps, delays, ping
# intervals, think times), so every event time is exact and two distinct
# event times differ by far more than the engine's 1e-9 tolerance. With
# arbitrary floats, a channel delivery due within (1e-12, 1e-9] after the
# current time raises TimelockError: the engine will not advance time
# (tolerance 1e-9) while the channel does not yet offer the delivery
# (tolerance 1e-12). That fault fires on some seeds only, so the seeded
# inputs avoid it rather than fail some runs and not others; one fixed
# system that hits it runs in every round (PingersClock.build_timelock).

GRID = 64


class GridDelay(DelayModel):
    """Seeded delays on ``d1 + (d2 - d1) * k / 64``, ``k`` in 0..64."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def sample(self, edge, message, send_time, d1, d2) -> float:
        return d1 + (d2 - d1) * self._rng.randrange(GRID + 1) / GRID


def grid_drivers(eps: float):
    """Fast, slow and half-skewed clocks by node index: constant offsets.

    Like ``driver_factory("mixed")`` communicating nodes disagree by up
    to ``2*eps``; unlike its random walk, the offsets keep event times
    on the grid.
    """
    def make(node: int):
        return (FastClockDriver(eps), SlowClockDriver(eps),
                SkewedClockDriver(eps, eps / 2))[node % 3]

    return make


def event_tuples(recorder: Recorder) -> List[tuple]:
    return [
        (e.action, e.now, e.owner, e.clock, e.visible) for e in recorder.events
    ]


# -- pingers_clock -----------------------------------------------------------


class NearMissDelay(DelayModel):
    """Uniform delays, except one delivery that falls due just after ``at``.

    The first message on edge ``(0, 1)`` is delivered ``GAP`` after the
    instant ``at``, when another event happens. ``GAP`` lies in
    (1e-12, 1e-9]: the engine will not advance time by so little, and
    the channel does not yet offer the delivery, so the run dies with
    ``TimelockError``. Any delay in ``[d1, d2]`` is a legal channel
    behaviour, this one included.
    """

    GAP = 5e-10

    def __init__(self, seed: int, at: float):
        self._uniform = UniformDelay(seed)
        self._at = at
        self._sent = False

    def sample(self, edge, message, send_time, d1, d2) -> float:
        if edge == (0, 1) and not self._sent:
            self._sent = True
            return self._at + self.GAP - send_time
        return self._uniform.sample(edge, message, send_time, d1, d2)


def pairs_system(intervals: List[float], pings: List[int], eps: float,
                 d1: float, d2: float, drivers, delays) -> Tuple[Simulator, Dict[int, int]]:
    """Pinger ``2k`` pings echo ``2k + 1`` ``pings[k]`` times, every ``intervals[k]``."""
    def make(i: int):
        if i % 2 == 0:
            return PingerProcess(i, i + 1, pings[i // 2], intervals[i // 2])
        return EchoProcess(i, i - 1)

    n = 2 * len(intervals)
    edges = []
    for k in range(0, n, 2):
        edges += [(k, k + 1), (k + 1, k)]
    spec = build_clock_system(Topology(n, edges), make, eps, d1, d2, drivers, delays)
    sim = Simulator(spec.entities, hidden=spec.hidden, max_steps=10_000_000)
    return sim, {2 * k: count for k, count in enumerate(pings)}


class PingersClock:
    """Clock-model pinger/echo pairs at n = 512."""

    name = "pingers_clock"
    setup_reps = 9
    N = 512
    PINGS = 2
    EPS, D1, D2 = 1 / 16, 3 / 16, 5 / 8
    GRID = 16
    # The timelock fault, kept in view by fixed inputs that do not depend
    # on --seed: 30 pairs on arbitrary floats (`mixed` drivers with their
    # random walk, uniform delays) ping twice; pairs (0, 1) and (2, 3),
    # on perfect clocks, ping once at TIMELOCK_AT, after the others are
    # done, and NearMissDelay makes the first of those pings a near miss.
    TIMELOCK_N, TIMELOCK_SEED = 64, 0
    TIMELOCK_EPS, TIMELOCK_D1, TIMELOCK_D2 = 0.05, 0.2, 0.6
    TIMELOCK_AT = (3.25, 3.5)

    def build(self, seed: int):
        """The seeded n = 512 system: grid intervals, clocks and delays."""
        rng = random.Random(seed)
        intervals = [0.5 + rng.randrange(self.GRID) / (2 * self.GRID)
                     for _ in range(self.N // 2)]
        sim, counts = pairs_system(
            intervals, [self.PINGS] * len(intervals), self.EPS, self.D1,
            self.D2, grid_drivers(self.EPS), GridDelay(seed),
        )
        horizon = self.PINGS * 1.0 + 2.0 * (self.D2 + 2.0 * self.EPS) + 1.0
        return sim, horizon, counts, (self.EPS, self.D1, self.D2)

    def build_timelock(self):
        """The fixed system that dies with TimelockError today."""
        eps, d1, d2 = self.TIMELOCK_EPS, self.TIMELOCK_D1, self.TIMELOCK_D2
        rng = random.Random(self.TIMELOCK_SEED)
        pairs = self.TIMELOCK_N // 2
        intervals = list(self.TIMELOCK_AT) + [
            0.5 + rng.random() * 0.5 for _ in range(pairs - 2)]
        pings = [1, 1] + [2] * (pairs - 2)
        mixed = driver_factory("mixed", eps, seed=self.TIMELOCK_SEED)

        def drivers(node: int):
            return PerfectClockDriver(eps) if node < 4 else mixed(node)

        sim, counts = pairs_system(
            intervals, pings, eps, d1, d2, drivers,
            NearMissDelay(self.TIMELOCK_SEED, self.TIMELOCK_AT[1]),
        )
        horizon = max(self.TIMELOCK_AT) + 2.0 * (d2 + 2.0 * eps) + 1.0
        return sim, horizon, counts, (eps, d1, d2)

    def systems(self, seed: int) -> list:
        return [self.build(seed), self.build_timelock()]

    def setup_once(self, seed: int) -> float:
        start = PERF()
        self.systems(seed)
        return PERF() - start

    def run_round(self, seed: int, keep: bool = False) -> Round:
        rnd = Round(data={"sim_s": 0.0, "steps": 0, "verified": 0, "runs": []})
        for sim, horizon, counts, (eps, d1, d2) in self.systems(seed):
            recorder = Recorder()
            result = None
            start = PERF()
            try:
                result = sim.run(horizon, recorder=recorder)
            except TimelockError:
                pass
            rnd.data["sim_s"] += PERF() - start
            # one recorded event per step, also up to a timelock
            rnd.data["steps"] += len(recorder.events)
            planned = sum(counts.values())
            rnd.attempted += planned
            if result is None:
                rnd.failed += planned  # the run aborted: no ping counts
            else:
                _, answered, problems = check_pingers(
                    ((e.action.name, e.action.params, e.now, e.clock)
                     for e in recorder.events),
                    counts, eps, d1, d2,
                )
                if len(recorder.events) != result.steps:
                    problems.append(f"{result.steps} steps but "
                                    f"{len(recorder.events)} recorded events")
                rnd.failed += planned - answered
                if not problems:
                    rnd.data["verified"] += answered
                rnd.problems += [f"{len(counts)} pairs: {p}" for p in problems]
            if keep:
                rnd.data["runs"].append({"sim": sim, "recorder": recorder,
                                         "result": result})
        return rnd

    def end_to_end(self, rounds: List[Round]) -> Metrics:
        """Answered, checked pings per second of simulation."""
        return {"ops_per_s": (
            median_of(rounds, lambda d: d["verified"] / d["sim_s"]), "1/s")}

    def notes(self, rounds: List[Round]) -> List[str]:
        rate = median_of(rounds, lambda d: d["steps"] / d["sim_s"])
        return [f"engine steps per second of simulation: {rate:.6g} (median)"]

    def traced(self) -> LayerTrace:
        """A trace wrapping every layer, tagged by step."""
        return wrap_every_layer(LayerTrace("Recorder.record"))

    def same_execution(self, plain: Round, traced: Round) -> List[str]:
        problems = []
        for a, b in zip(plain.data["runs"], traced.data["runs"]):
            if event_tuples(a["recorder"]) != event_tuples(b["recorder"]):
                problems.append("traced run recorded different events than "
                                "the untraced run")
        if plain.data["steps"] != traced.data["steps"]:
            problems.append(f"traced run took {traced.data['steps']} steps, "
                            f"untraced {plain.data['steps']}")
        return problems

    def per_layer(self, trace: LayerTrace, plain: Round, traced: Round) -> Metrics:
        runs = traced.data["runs"]
        outputs = sum(fired_outputs(r["sim"].entities, r["recorder"]) for r in runs)
        pings = traced.attempted
        metrics = layer_metrics(trace, traced.wall_s, traced.data["steps"],
                                outputs, pings)
        # the program's own export, of the runs that ended
        finished = [r["result"] for r in runs if r["result"] is not None]
        metrics.update(export_metrics(finished))
        metrics.update(NO_REGISTER_OPS)
        return metrics


# -- register_clock ----------------------------------------------------------


@dataclass(frozen=True)
class History:
    n: int
    ops_per_client: int
    seed: int


class RegisterClock:
    """Algorithm S histories in the clock model, simulated then checked."""

    name = "register_clock"
    setup_reps = 31
    N, OPS, HISTORIES = 8, 100, 3
    # the checker's recursion fault: fixed inputs, independent of --seed
    BROKEN = History(3, 400, 0)
    EPS, D1, D2, C, DELTA = 1 / 8, 1 / 4, 1.0, 1 / 4, 1 / 128
    READ_FRACTION = 0.5
    THINK_MIN, THINK_MAX = 0.5, 2.0

    def histories(self, seed: int) -> List[History]:
        return [History(self.N, self.OPS, seed * self.HISTORIES + k)
                for k in range(self.HISTORIES)] + [self.BROKEN]

    def schedules(self, history: History) -> List[OpSchedule]:
        """Closed-loop op streams: 50 % reads, think times on the grid."""
        schedules = []
        for node in range(history.n):
            rng = random.Random(history.seed * 1009 + node)
            ops, writes = [], 0
            for index in range(history.ops_per_client):
                if rng.random() < self.READ_FRACTION:
                    kind, value = "R", None
                else:
                    kind, value = "W", ("v", node, writes)
                    writes += 1
                think = self.THINK_MIN + (self.THINK_MAX - self.THINK_MIN) * (
                    rng.randrange(GRID + 1) / GRID)
                ops.append(PlannedOp(index, kind, value, think))
            schedules.append(OpSchedule(node=node, start_delay=0.0, ops=tuple(ops)))
        return schedules

    def build(self, history: History):
        schedules = self.schedules(history)
        spec = clock_register_system(
            n=history.n, d1=self.D1, d2=self.D2, c=self.C, eps=self.EPS,
            workload=RegisterWorkload(operations=history.ops_per_client),
            drivers=grid_drivers(self.EPS), delta=self.DELTA,
            delay_model=GridDelay(history.seed), schedules=schedules,
        )
        read_cost, write_cost = theorem_costs(self.EPS, self.DELTA, self.C, self.D2)
        per_op = self.THINK_MAX + max(read_cost, write_cost) + 2.0 * self.EPS
        return spec, history.ops_per_client * per_op + 10.0

    def setup_once(self, seed: int) -> float:
        start = PERF()
        for history in self.histories(seed):
            spec, _ = self.build(history)
            spec.simulator(max_steps=3_000_000)
        return PERF() - start

    def run_round(self, seed: int, keep: bool = False) -> Round:
        rnd = Round(data={"sim_s": 0.0, "check_s": 0.0, "extract_s": 0.0,
                          "steps": 0, "verified": 0, "visited": 0,
                          "reads_s": [], "writes_s": [], "late": 0,
                          "histories": []})
        d = rnd.data
        read_cost, write_cost = theorem_costs(self.EPS, self.DELTA, self.C, self.D2)
        for history in self.histories(seed):
            gc.collect()  # free the last history's cycles before this one peaks
            spec, horizon = self.build(history)
            recorder = Recorder()
            start = PERF()
            run = run_register_experiment(
                spec, horizon, max_steps=3_000_000, recorder=recorder
            )
            extract_start = PERF()
            operations = linearizability.extract_operations(run.result.trace)
            check_start = PERF()
            try:
                report = linearizability.analyze_linearizability(
                    operations, initial_value=INITIAL_VALUE)
            except RecursionError:
                report = None
            end = PERF()
            d["sim_s"] += extract_start - start
            d["extract_s"] += check_start - extract_start
            d["check_s"] += end - check_start
            d["steps"] += run.result.steps

            planned = history.n * history.ops_per_client
            ops, pending, problems = ops_from_events(
                (e.action.name, e.action.params, e.now)
                for e in recorder.events
                if e.visible and e.action.name in REGISTER_EVENTS
            )
            problems += check_register_history(ops, INITIAL_VALUE)
            late_problems, late = check_latencies(ops, read_cost, write_cost, self.EPS)
            problems += late_problems
            d["late"] += late
            d["reads_s"] += [op.res - op.inv for op in ops if op.kind == "R"]
            d["writes_s"] += [op.res - op.inv for op in ops if op.kind == "W"]
            if pending or len(ops) != planned:
                problems.append(f"{len(ops)} of {planned} operations completed")
            rnd.attempted += planned
            if report is None:
                rnd.failed += planned
            else:
                rnd.failed += planned - len(ops)
                if report.ok:
                    d["verified"] += len(operations)
                    d["visited"] += report.visited
                else:
                    problems.append("the checker finds it not linearizable")
            rnd.problems += [f"{history}: {p}" for p in problems]
            if keep:
                d["histories"].append({
                    "history": history, "steps": run.result.steps,
                    "recorder": recorder, "result": run.result,
                    "operations": operations if report is not None else None,
                })
            del run, recorder, operations, ops
        return rnd

    def end_to_end(self, rounds: List[Round]) -> Metrics:
        """Verified operations per second of simulation plus check."""
        return {"ops_per_s": (median_of(rounds, lambda d: d["verified"] / (
            d["sim_s"] + d["extract_s"] + d["check_s"])), "1/s")}

    def notes(self, rounds: List[Round]) -> List[str]:
        rate = median_of(rounds, lambda d: d["steps"] / d["sim_s"])
        return [f"engine steps per second of simulation: {rate:.6g} (median)"]

    def traced(self) -> LayerTrace:
        """A trace wrapping every layer, tagged by step."""
        return wrap_every_layer(LayerTrace("Recorder.record"))

    def same_execution(self, plain: Round, traced: Round) -> List[str]:
        problems = []
        for a, b in zip(plain.data["histories"], traced.data["histories"]):
            if a["steps"] != b["steps"]:
                problems.append(f"{a['history']}: traced run took {b['steps']} steps, untraced {a['steps']}")
            elif event_tuples(a["recorder"]) != event_tuples(b["recorder"]):
                problems.append(f"{a['history']}: traced run recorded different events")
        return problems

    def per_layer(self, trace: LayerTrace, plain: Round, traced: Round) -> Metrics:
        d = traced.data
        outputs = 0
        for h in d["histories"]:
            spec, _ = self.build(h["history"])
            outputs += fired_outputs(spec.entities, h["recorder"])
        metrics = layer_metrics(trace, traced.wall_s, d["steps"], outputs,
                                traced.attempted)
        metrics.update(export_metrics(h["result"] for h in d["histories"]))
        metrics.update(register_metrics(
            d["verified"], d["visited"],
            [h["operations"] for h in d["histories"] if h["operations"] is not None],
            d["reads_s"], d["writes_s"],
            theorem_costs(self.EPS, self.DELTA, self.C, self.D2), d["late"],
        ))
        return metrics


# -- live_register -----------------------------------------------------------


class LiveRegister:
    """A loopback two-node register service under closed-loop load."""

    name = "live_register"
    setup_reps = 41
    START_BLOCK = 10
    N = 2
    OPS_PER_CLIENT = 150
    READ_FRACTION = 0.5

    def params(self, seed: int) -> LiveParams:
        return LiveParams(n=self.N, seed=seed)

    def schedules(self, seed: int) -> List[OpSchedule]:
        workload = live_workload(
            operations=self.OPS_PER_CLIENT, read_fraction=self.READ_FRACTION,
            seed=seed, think_min=0.0, think_max=0.0,
        )
        return [OpSchedule.generate(i, workload) for i in range(self.N)]

    def setup_once(self, seed: int) -> float:
        """The median start time of ``START_BLOCK`` clusters, one at a time.

        One start takes under 2 ms, so a single one is at the mercy of a
        single scheduler hiccup; a block of them is not.
        """
        async def start_stop() -> List[float]:
            times = []
            for _ in range(self.START_BLOCK):
                start = PERF()
                cluster = LiveCluster(self.params(seed))
                await cluster.start()
                times.append(PERF() - start)
                await cluster.stop()
            return times

        return statistics.median(asyncio.run(start_stop()))

    async def _load(self, params: LiveParams, schedules):
        cluster = LiveCluster(params)
        addresses = await cluster.start()
        try:
            epoch = time.monotonic()
            clients = [
                LiveLoadClient(s.node, s, addresses[s.node], epoch,
                               op_timeout=params.op_timeout)
                for s in schedules
            ]
            start = PERF()
            per_client = await asyncio.gather(*(c.run() for c in clients))
            load_s = PERF() - start
        finally:
            await cluster.stop()
        return [r for batch in per_client for r in batch], load_s

    def run_round(self, seed: int, keep: bool = False) -> Round:
        params = self.params(seed)
        records, load_s = asyncio.run(self._load(params, self.schedules(seed)))
        extract_start = PERF()
        operations = build_operations(records)
        check_start = PERF()
        report = linearizability.analyze_linearizability(
            operations, initial_value=INITIAL_VALUE)
        check_s = PERF() - check_start
        extract_s = check_start - extract_start

        read_cost, write_cost = theorem_costs(params.eps, params.delta, params.c, params.d2)
        done = [r for r in records if r.completed]
        ops = [Op(r.node, r.kind, r.value, r.inv_time, r.res_time) for r in done]
        problems = check_register_history(ops, INITIAL_VALUE)
        late_problems, late = check_latencies(
            ops, read_cost, write_cost, params.eps, every_upper=False
        )
        problems += late_problems
        if not report.ok:
            problems.append("the checker finds the live history not linearizable")
        attempted = sum(len(s) for s in self.schedules(seed))
        if len(records) != attempted:
            problems.append(f"{len(records)} of {attempted} operations recorded")
        return Round(attempted, attempted - len(done), problems, data={
            "load_s": load_s, "check_s": check_s, "extract_s": extract_s,
            "verified": len(operations) if report.ok else 0,
            "visited": report.visited,
            "reads_ms": [r.latency * 1e3 for r in done if r.kind == "R"],
            "writes_ms": [r.latency * 1e3 for r in done if r.kind == "W"],
            "costs_ms": (read_cost * 1e3, write_cost * 1e3),
            "ops": len(records), "late": late,
            "operations": operations if keep else None,
        })

    def end_to_end(self, rounds: List[Round]) -> Metrics:
        """Verified operations per second of load plus check."""
        return {"ops_per_s": (median_of(rounds, lambda d: d["verified"] / (
            d["load_s"] + d["extract_s"] + d["check_s"])), "1/s")}

    def notes(self, rounds: List[Round]) -> List[str]:
        """Latency percentiles of each kind, with their sample counts."""
        lines = []
        for kind in ("reads", "writes"):
            values = [x for r in rounds for x in r.data[kind + "_ms"]]
            lines.append(f"{kind}: p50 {percentile(values, 0.5):.3f} ms, "
                         f"p90 {percentile(values, 0.9):.3f} ms "
                         f"({len(values)} samples)")
        return lines

    def traced(self) -> LayerTrace:
        """A trace wrapping every layer, tagged by operation.

        Each read or write request frame a client encodes starts a new
        operation.
        """
        return wrap_every_layer(LayerTrace(
            "encode_frame",
            tag_when=lambda args: args[0].get("t") in ("read", "write"),
        ))

    def same_execution(self, plain: Round, traced: Round) -> List[str]:
        return []  # wall-clock timing differs by design; nothing to compare

    def per_layer(self, trace: LayerTrace, plain: Round, traced: Round) -> Metrics:
        d = traced.data
        # no simulator: the per-step and per-output counts read 0
        metrics = layer_metrics(trace, traced.wall_s, 0, 0, d["ops"])
        metrics.update(export_metrics([]))
        metrics.update(register_metrics(
            d["verified"], d["visited"],
            [d["operations"]] if d["verified"] else [],
            [x / 1e3 for x in d["reads_ms"]], [x / 1e3 for x in d["writes_ms"]],
            tuple(x / 1e3 for x in d["costs_ms"]),
            # the untraced round's late operations
            plain.data["late"],
        ))
        return metrics


WORKLOADS = {w.name: w for w in (PingersClock, RegisterClock, LiveRegister)}
