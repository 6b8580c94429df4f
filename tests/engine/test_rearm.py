"""`rearm()`: re-running one elaboration in place must be
bit-identical to a fresh elaboration -- registers, conflicts, stats
and trace samples -- on both scalar backends.  This is the serving
hot path (repro.serve re-arms one cached elaboration per lane)."""

import random

import pytest

from repro.core import ModelError, RTModel
from repro.core.values import DISC
from repro.observe import Probe
from repro.observe.monitor import monitored_watch_list

from ..observe.conftest import conflict_model, fig1_model, tiny_model

SCALAR_BACKENDS = ("compiled", "compiled-py")


def _snapshot(sim):
    return {
        "registers": dict(sim.registers),
        "clean": sim.clean,
        "conflicts": [
            (e.signal, tuple(e.sources), None if e.at is None else
             (e.at.step, int(e.at.phase)))
            for e in sim.conflicts
        ],
        "cycles": sim.stats.cycles,
        "transactions": sim.stats.transactions,
    }


@pytest.mark.parametrize("backend", SCALAR_BACKENDS)
@pytest.mark.parametrize("build", [fig1_model, tiny_model, conflict_model])
def test_rearm_matches_fresh_elaboration(backend, build):
    model = build()
    rng = random.Random(4242)
    vectors = [
        {name: rng.randrange(0, 1 << model.width) for name in model.registers}
        for _ in range(20)
    ]
    vectors.append({"R1": DISC})  # disconnect override travels too
    sim = model.elaborate(backend=backend)
    for vector in vectors:
        sim.rearm(vector)
        sim.run()
        fresh = model.elaborate(
            register_values=vector, backend=backend
        ).run()
        assert _snapshot(sim) == _snapshot(fresh), vector


def stateful_model():
    """One unit of each state machine, all sticky-ILLEGAL: a pipelined
    adder, a busy-poisoning non-pipelined multiplier and a
    combinational subtractor."""
    model = RTModel("stateful", cs_max=6)
    for name, init in (("R1", 2), ("R2", 3), ("R3", 5), ("R4", 7)):
        model.register(name, init=init)
    for bus in ("B1", "B2", "B3", "B4"):
        model.bus(bus)
    model.module("ADD", latency=1)
    model.module("MUL", ops=["MULT"], latency=2, pipelined=False)
    model.module("SUB", ops=["SUB"], latency=0)
    model.add_transfer("(R1,B1,R2,B2,1,ADD,2,B1,R1)")
    model.add_transfer("(R3,B3,R4,B4,1,MUL,3,B3,R3)")
    model.add_transfer("(R2,B2,R4,B4,4,SUB,4,B2,R2)")
    model.add_transfer("(R1,B1,R3,B3,5,ADD,6,B1,R4)")
    return model


@pytest.mark.parametrize("backend", SCALAR_BACKENDS)
def test_rearm_after_disconnected_input_matches_fresh_elaboration(backend):
    """A disconnected ('z') input drives ILLEGAL into the units, which
    freeze (sticky ILLEGAL) with poisoned pipeline and busy state; the
    next re-armed run must start from time-zero module state, exactly
    like a fresh elaboration."""
    model = stateful_model()
    vectors = [
        {"R1": DISC},
        {"R1": 4, "R2": 9, "R3": 1, "R4": 2},
        {"R3": DISC, "R2": DISC},
        {},
        {"R4": DISC},
        {"R1": 11},
    ]
    sim = model.elaborate(backend=backend)
    for vector in vectors:
        sim.rearm(vector)
        sim.run()
        fresh = model.elaborate(
            register_values=vector, backend=backend
        ).run()
        assert _snapshot(sim) == _snapshot(fresh), vector
        assert sim.stats.events == fresh.stats.events, vector


@pytest.mark.parametrize("backend", SCALAR_BACKENDS)
def test_rearm_resets_trace(backend):
    model = fig1_model()
    watch = monitored_watch_list(model)
    sim = model.elaborate(backend=backend, watch=watch)
    sim.run()
    first = list(sim.tracer.samples)
    assert first, "watch list produced no samples"
    sim.rearm()
    assert sim.tracer.samples == []
    sim.run()
    assert sim.tracer.samples == first  # same inputs, same trace


@pytest.mark.parametrize("backend", SCALAR_BACKENDS)
def test_rearm_override_wraps_to_width(backend):
    model = fig1_model()
    wrapped = model.elaborate(backend=backend)
    wrapped.rearm({"R1": (1 << model.width) + 3})
    wrapped.run()
    fresh = model.elaborate(register_values={"R1": 3}, backend=backend).run()
    assert wrapped.registers == fresh.registers


def test_rearm_rejects_unknown_register():
    sim = fig1_model().elaborate(backend="compiled")
    with pytest.raises(ModelError, match="unknown register"):
        sim.rearm({"BOGUS": 1})


def test_rearm_rejects_probe():
    sim = fig1_model().elaborate(backend="compiled", observe=Probe())
    with pytest.raises(ModelError, match="probe"):
        sim.rearm()
