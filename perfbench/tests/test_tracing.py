"""Wrapping the layers leaves the simulation's steps and events unchanged."""

from repro.components.base import Entity
from repro.components.pinger import EchoProcess, PingerProcess
from repro.core.clock_transform import ClockNodeEntity
from repro.core.pipeline import build_clock_system
from repro.network.topology import Topology
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import UniformDelay
from repro.sim.engine import Simulator
from repro.sim.recorder import Recorder

from tracing import SIM_LAYERS, LayerTrace
from workloads import event_tuples


def run_pairs(n=8, seed=3):
    def make(i):
        if i % 2 == 0:
            return PingerProcess(i, i + 1, 2, 0.5 + 0.1 * i)
        return EchoProcess(i, i - 1)

    edges = [e for k in range(0, n, 2) for e in ((k, k + 1), (k + 1, k))]
    spec = build_clock_system(
        Topology(n, edges), make, 0.05, 0.2, 0.6,
        driver_factory("mixed", 0.05, seed=seed), UniformDelay(seed=seed),
    )
    sim = Simulator(spec.entities, hidden=spec.hidden)
    recorder = Recorder()
    result = sim.run(5.0, recorder=recorder)
    return sim, result, recorder


def test_traced_run_matches_untraced_run():
    _, plain, plain_rec = run_pairs()
    trace = LayerTrace("Recorder.record", sample_every=1)
    trace.wrap_layers(SIM_LAYERS)
    try:
        sim, traced, traced_rec = run_pairs()
        flags = [(info.probe_always, info.advances) for info in sim._infos]
    finally:
        trace.restore()
    assert traced.steps == plain.steps
    assert event_tuples(traced_rec) == event_tuples(plain_rec)
    # only ClockNodeEntity (not the channels) advances with time, and no
    # entity probes every action: wrapping did not change what the
    # engine derives from comparing methods against Entity's
    sim, _, _ = run_pairs()
    assert flags == [(info.probe_always, info.advances) for info in sim._infos]
    assert trace.count("ClockNodeEntity.advance") > 0
    assert trace.count("Simulator.run") == 1
    assert trace.tag == len(traced_rec)
    assert trace.spans and all(span[4] >= 0 for span in trace.spans)


def test_restore_puts_originals_back():
    before = (Entity.accepts, ClockNodeEntity.advance, Recorder.record)
    trace = LayerTrace("Recorder.record")
    trace.wrap_layers(SIM_LAYERS)
    assert ClockNodeEntity.advance is not before[1]
    trace.restore()
    assert (Entity.accepts, ClockNodeEntity.advance, Recorder.record) == before
