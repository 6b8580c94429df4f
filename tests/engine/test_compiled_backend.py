"""CompiledRTSimulation: bit-identical to the event kernel.

The compiled backend precomputes per-(step, phase) action tables and
executes them as a straight loop; these tests pin its observable
equivalence with the event kernel on fixed models -- registers,
conflict events (including their (CS, PH) locations and sources),
traces, partial runs, and the synthesized delta/event/transaction
accounting that keeps the paper's CS_MAX*6 claims verifiable.
"""

import pytest

from repro.core import DISC, ILLEGAL, ModelError, ModuleSpec, RTModel
from repro.engine import CompiledRTSimulation


def fig1_model(cs_max=7, r1=2, r2=3):
    model = RTModel("example", cs_max=cs_max)
    model.register("R1", init=r1)
    model.register("R2", init=r2)
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
    return model


def conflict_model():
    """Two sources on B1 in step 2: a deliberate bus conflict."""
    model = RTModel("clash", cs_max=4)
    model.register("R1", init=1)
    model.register("R2", init=2)
    model.register("R3")
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,2,ADD,3,B1,R3)")
    model.add_transfer("(R2,B1,R1,B2,2,ADD,3,B2,R3)")
    return model


def conflict_signature(sim):
    return [(e.signal, e.at, e.sources) for e in sim.conflicts]


class TestRegisterParity:
    def test_fig1(self):
        model = fig1_model()
        ev = model.elaborate().run()
        co = model.elaborate(backend="compiled").run()
        assert co.registers == ev.registers == {"R1": 5, "R2": 3}
        assert co["R1"] == 5

    def test_register_overrides(self):
        model = fig1_model()
        ev = model.elaborate(register_values={"R1": 10, "R2": 20}).run()
        co = model.elaborate(
            register_values={"R1": 10, "R2": 20}, backend="compiled"
        ).run()
        assert co.registers == ev.registers == {"R1": 30, "R2": 20}

    def test_unknown_override_rejected(self):
        with pytest.raises(ModelError):
            CompiledRTSimulation(fig1_model(), register_values={"R9": 1})


class TestStatsParity:
    @pytest.mark.parametrize("builder", [fig1_model, conflict_model])
    def test_full_run_counters(self, builder):
        model = builder()
        ev = model.elaborate().run()
        co = model.elaborate(backend="compiled").run()
        assert co.stats.delta_cycles == ev.stats.delta_cycles
        assert co.stats.cycles == ev.stats.cycles
        assert co.stats.events == ev.stats.events
        assert co.stats.transactions == ev.stats.transactions

    def test_delta_budget_is_cs_max_times_6(self):
        model = fig1_model()
        co = model.elaborate(backend="compiled").run()
        assert co.stats.delta_cycles == model.cs_max * 6

    def test_fused_dispatch_reduces_resumes(self):
        model = fig1_model()
        ev = model.elaborate().run()
        co = model.elaborate(backend="compiled").run()
        assert co.stats.process_resumes * 3 <= ev.stats.process_resumes


class TestConflictParity:
    def test_conflict_events_match_event_kernel(self):
        model = conflict_model()
        ev = model.elaborate().run()
        co = model.elaborate(backend="compiled").run()
        assert conflict_signature(co) == conflict_signature(ev)
        assert not co.clean
        assert conflict_signature(co)  # the clash was actually seen

    def test_conflict_location_is_step_and_phase(self):
        co = conflict_model().elaborate(backend="compiled").run()
        event = co.conflicts[0]
        assert event.signal == "B1"
        assert event.at.step == 2
        assert {owner for owner, _ in event.sources} >= {
            "R1_out_B1_2", "R2_out_B1_2",
        }

    def test_clean_model_stays_clean(self):
        co = fig1_model().elaborate(backend="compiled").run()
        assert co.clean
        assert co.conflicts == []


class TestTraceParity:
    def test_traces_are_identical(self):
        model = fig1_model()
        ev = model.elaborate(trace=True).run()
        co = model.elaborate(trace=True, backend="compiled").run()
        assert ev.tracer.watched_names == co.tracer.watched_names
        assert ev.tracer.samples == co.tracer.samples

    def test_watch_traces_only_the_subset(self):
        # The subset fast path: watch= samples only the named ports.
        model = fig1_model()
        co = model.elaborate(watch=["R1_out", "B1"], backend="compiled").run()
        assert co.tracer is not None
        assert co.tracer.watched_names == ["R1_out", "B1"]
        assert all(
            set(sample.values) == {"R1_out", "B1"}
            for sample in co.tracer.samples
        )

    def test_watched_subset_matches_event_kernel_port_for_port(self):
        # Same sample times, same values -- just restricted columns.
        model = fig1_model()
        co = model.elaborate(watch=["R1_out", "B1"], backend="compiled").run()
        ev = model.elaborate(trace=True).run()
        assert len(co.tracer.samples) == len(ev.tracer.samples)
        for ours, theirs in zip(co.tracer.samples, ev.tracer.samples):
            assert ours.at == theirs.at
            for name in ("R1_out", "B1"):
                assert ours.values[name] == theirs.values[name]

    @pytest.mark.parametrize("backend", ["compiled", "compiled-py"])
    def test_single_column_watch_matches_event_kernel(self, backend):
        model = fig1_model()
        co = model.elaborate(watch=["B1"], backend=backend).run()
        ev = model.elaborate(trace=True).run()
        assert [(s.at, s.values) for s in co.tracer.samples] == [
            (s.at, {"B1": s.values["B1"]}) for s in ev.tracer.samples
        ]

    @pytest.mark.parametrize("backend", ["compiled", "compiled-py"])
    def test_portless_model_traces_empty_samples(self, backend):
        model = RTModel("empty", cs_max=1)
        co = model.elaborate(trace=True, backend=backend).run()
        ev = model.elaborate(trace=True).run()
        assert co.tracer.samples == ev.tracer.samples

    def test_subset_trace_cuts_memory_on_the_iks_chip(self):
        # The E6 chip: watching two result registers instead of every
        # port shrinks the per-sample payload by the port ratio.
        from repro.iks.flow import build_ik_model
        from repro.iks.microprogram import RESULT_REGISTERS

        watch = [f"{RESULT_REGISTERS['theta1']}_out",
                 f"{RESULT_REGISTERS['theta2']}_out"]
        model, _ = build_ik_model(6.0, 4.0)
        full = model.elaborate(trace=True, backend="compiled").run()
        subset = model.elaborate(watch=watch, backend="compiled").run()
        full_cells = sum(len(s.values) for s in full.tracer.samples)
        subset_cells = sum(len(s.values) for s in subset.tracer.samples)
        assert len(full.tracer.samples) == len(subset.tracer.samples)
        assert subset_cells * 10 < full_cells
        # ...and the retained columns are still bit-identical.
        for ours, theirs in zip(subset.tracer.samples, full.tracer.samples):
            assert all(ours.values[n] == theirs.values[n] for n in watch)

    def test_unknown_watch_rejected(self):
        with pytest.raises(ModelError):
            fig1_model().elaborate(watch=["nope"], backend="compiled")


class TestPartialRuns:
    @pytest.mark.parametrize("steps", [1, 2, 4, 5, 6, 7, 8])
    def test_run_steps_matches_event_kernel(self, steps):
        model = fig1_model()
        ev = model.elaborate()
        ev.run_steps(steps)
        co = model.elaborate(backend="compiled")
        co.run_steps(steps)
        assert co.registers == ev.registers
        assert co.stats.delta_cycles == ev.stats.delta_cycles
        assert co.stats.transactions == ev.stats.transactions

    def test_resume_after_partial_run(self):
        model = fig1_model()
        ev = model.elaborate()
        ev.run_steps(3)
        ev.run()
        co = model.elaborate(backend="compiled")
        co.run_steps(3)
        co.run()
        assert co.registers == ev.registers
        assert co.stats.delta_cycles == ev.stats.delta_cycles


class TestSignalAccess:
    def test_signal_view_reads_current_value(self):
        co = fig1_model().elaborate(backend="compiled")
        assert co.signal("R1_out").value == 2
        assert co.signal("B1").value == DISC
        co.run()
        assert co.signal("R1_out").value == 5

    def test_unknown_signal_rejected(self):
        with pytest.raises(KeyError):
            fig1_model().elaborate(backend="compiled").signal("nope")


class TestIllegalPropagation:
    def test_illegal_register_marks_unclean(self):
        model = conflict_model()
        co = model.elaborate(backend="compiled").run()
        ev = model.elaborate().run()
        assert co.registers == ev.registers
        assert co.registers["R3"] == ILLEGAL
        assert not co.clean
