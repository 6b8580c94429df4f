"""The correctness gate: in-process ``compiled`` reference runs.

Every result the benchmark times -- a cold first run, a warm-start
run, a re-armed vector run, a served response -- is compared with the
``compiled`` backend on the same design and register vector.  The
outcome of one run is reduced to an :class:`Outcome`; two outcomes
match when registers, the clean flag and the conflict locations
``(signal, CS, PH)`` agree, plus the ``SimStats`` counters wherever
both sides carry them (the wire does not).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core import DISC, ILLEGAL, RTModel
from repro.engine.plan import lower
from repro.observe.monitor import (
    default_properties,
    evaluate_trace,
    monitored_watch_list,
)

Stats = Tuple[int, int, int, int, int]


@dataclass(frozen=True)
class Outcome:
    registers: Tuple[Tuple[str, int], ...]
    clean: bool
    conflicts: Tuple[Tuple[str, int, str], ...]
    stats: Optional[Stats] = None
    #: verify verdict (None for plain simulate)
    ok: Optional[bool] = None
    violations: Optional[int] = None


def wire_value(value: Any) -> int:
    """A register value as sent or received on the wire ('z'/'x')."""
    if value == "z":
        return DISC
    if value == "x":
        return ILLEGAL
    return int(value)


def plain_vector(vector: Mapping[str, Any]) -> Dict[str, int]:
    return {name: wire_value(value) for name, value in vector.items()}


def stats_of(sim: Any) -> Stats:
    s = sim.stats
    return (
        s.cycles, s.delta_cycles, s.events, s.process_resumes, s.transactions
    )


def outcome_of(sim: Any, with_stats: bool = True) -> Outcome:
    """Reduce a finished scalar simulation (any backend) to an Outcome."""
    return Outcome(
        registers=tuple(sorted(sim.registers.items())),
        clean=bool(sim.clean),
        conflicts=tuple(
            (e.signal, e.at.step, e.at.phase.vhdl_name)
            for e in sim.conflicts
        ),
        stats=stats_of(sim) if with_stats else None,
    )


def outcome_of_wire(records: list) -> Outcome:
    """Reduce one served response (NDJSON records) to an Outcome."""
    result = records[-1]
    conflicts = tuple(
        (r["signal"], r["cs"], r["ph"])
        for r in records
        if r.get("event") == "conflict"
    )
    violations = sum(1 for r in records if r.get("event") == "violation")
    verify = "ok" in result
    return Outcome(
        registers=tuple(sorted(
            (name, wire_value(value))
            for name, value in result["registers"].items()
        )),
        clean=bool(result["clean"]),
        conflicts=conflicts,
        ok=bool(result["ok"]) if verify else None,
        violations=violations if verify else None,
    )


class Reference:
    """Fresh ``compiled`` elaborations of one design, one per vector.

    Deliberately not re-armed: ``rearm()`` is a path under test (the
    serve sweep and the cold-designs vector runs use it), so the
    reference never shares it."""

    def __init__(self, model: RTModel) -> None:
        self.model = model
        self.plan = lower(model)
        #: exact simulated totals over every reference run
        self.deltas = self.events = self.transactions = 0

    def _elaborate(self, vector: Optional[Mapping[str, Any]], **kwargs: Any):
        sim = self.model.elaborate(
            backend="compiled", plan=self.plan,
            register_values=plain_vector(vector or {}), **kwargs,
        )
        sim.run()
        self.deltas += sim.stats.delta_cycles
        self.events += sim.stats.events
        self.transactions += sim.stats.transactions
        return sim

    def run(self, vector: Optional[Mapping[str, Any]] = None) -> Outcome:
        return outcome_of(self._elaborate(vector))

    def verify(self, vector: Mapping[str, Any]) -> Outcome:
        """What ``/v1/verify`` with the default property set answers."""
        sim = self._elaborate(vector, watch=monitored_watch_list(self.model))
        report = evaluate_trace(
            self.model, sim.tracer, default_properties(self.model),
            list(sim.conflicts),
        )
        base = outcome_of(sim, with_stats=False)
        return replace(
            base,
            clean=base.clean and report.ok,
            ok=report.ok,
            violations=len(report.violations),
        )


def corrupt(outcome: Outcome) -> Outcome:
    """A deliberately wrong reference (the gate's self-test)."""
    name, value = outcome.registers[0]
    flipped = (name, value + 1 if value >= 0 else 0)
    return replace(outcome, registers=(flipped,) + outcome.registers[1:])


def matches(got: Outcome, want: Outcome) -> bool:
    """Field-wise equality; stats only when both sides carry them."""
    if got.stats is not None and want.stats is not None:
        if got.stats != want.stats:
            return False
    return (
        got.registers == want.registers
        and got.clean == want.clean
        and got.conflicts == want.conflicts
        and got.ok == want.ok
        and got.violations == want.violations
    )
