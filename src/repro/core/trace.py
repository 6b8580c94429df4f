"""Signal tracing over (control step, phase) time.

The abstract RT level has no physical time, so waveforms are indexed by
``(control step, phase)`` -- one sample per simulation cycle.  The
tracer doubles as a debugging aid (the paper's §2.7 argues the model's
regular structure makes simulations easy to read) and as the data
source for the equivalence checks between the clock-free and the
clocked model.

A small VCD export is included so traces can be inspected in standard
waveform viewers; phases are mapped onto a synthetic timescale of one
tick per phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence, TextIO

from ..kernel import Signal, Simulator, wait_on
from .phases import PHASES_PER_STEP, Phase, StepPhase
from .values import format_value


@dataclass
class TraceSample:
    """All watched signal values at one (step, phase) point."""

    at: StepPhase
    values: dict[str, int]

    def __getitem__(self, name: str) -> int:
        return self.values[name]


class TraceLog:
    """Backend-independent store of (step, phase) samples.

    Holds the recorded waveform plus every query and rendering helper;
    how samples get in is the subclass's business.  The event-kernel
    :class:`Tracer` fills it from a phase-sensitive process; the
    compiled backends append one row per executed cycle through a
    :meth:`recorder`.  Samples are stored as two parallel lists:
    ``times[i]`` is the i-th sample's (step, phase) point and
    ``rows[i]`` the tuple of its values in ``watched_names`` order;
    :attr:`samples` presents them as :class:`TraceSample` records.
    """

    def __init__(self, watched_names: Sequence[str]) -> None:
        self.watched_names = list(watched_names)
        self.times: list[StepPhase] = []
        self.rows: list[tuple[int, ...]] = []

    def append(self, at: StepPhase, values: Mapping[str, int]) -> None:
        """Record one sample (values must cover every watched name)."""
        self.times.append(at)
        self.rows.append(tuple([values[name] for name in self.watched_names]))

    def recorder(
        self,
        values: Sequence[int],
        indices: Sequence[int],
        schedule: Sequence[StepPhase],
    ) -> Callable[[int], None]:
        """A per-cycle sampling hook over a live value table.

        ``record(pos)`` stores ``schedule[pos]`` and the entries of
        ``values`` at ``indices`` (aligned with ``watched_names``) in
        one C-level gather -- no per-cycle dict.  ``values`` is read
        at call time, so it must be mutated in place, never rebound.
        """
        if len(indices) > 1:
            gather = itemgetter(*indices)
        else:  # itemgetter returns a bare value for one index, none for 0

            def gather(seq: Sequence[int]) -> tuple:
                return tuple([seq[i] for i in indices])
        add_time = self.times.append
        add_row = self.rows.append

        def record(pos: int) -> None:
            add_time(schedule[pos])
            add_row(gather(values))

        return record

    def reset(self) -> None:
        """Drop every recorded sample, keeping the watch list.

        Clears in place so holders of this object (recorder hooks bind
        its storage at elaboration time) see the reset -- the re-arm
        path of the compiled backends relies on it.
        """
        self.times.clear()
        self.rows.clear()

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def samples(self) -> list[TraceSample]:
        """The recorded samples as :class:`TraceSample` records."""
        names = self.watched_names
        return [
            TraceSample(at, dict(zip(names, row)))
            for at, row in zip(self.times, self.rows)
        ]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _column(self, signal: str) -> int:
        try:
            return self.watched_names.index(signal)
        except ValueError:
            raise KeyError(signal) from None

    def at(self, step: int, phase: Phase) -> Optional[TraceSample]:
        """The sample taken at (step, phase), or None if never reached."""
        for at, row in zip(self.times, self.rows):
            if at.step == step and at.phase is phase:
                return TraceSample(at, dict(zip(self.watched_names, row)))
        return None

    def history(self, signal: str) -> list[tuple[StepPhase, int]]:
        """The (time, value) sequence of one signal, change-compressed."""
        col = self._column(signal)
        out: list[tuple[StepPhase, int]] = []
        last: Optional[int] = None
        for at, row in zip(self.times, self.rows):
            value = row[col]
            if value != last:
                out.append((at, value))
                last = value
        return out

    def step_values(self, signal: str, phase: Phase = Phase.CR) -> dict[int, int]:
        """Per-control-step value of ``signal`` sampled at ``phase``."""
        col = self._column(signal)
        return {
            at.step: row[col]
            for at, row in zip(self.times, self.rows)
            if at.phase is phase
        }

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def format_table(self, signals: Optional[Iterable[str]] = None) -> str:
        """An ASCII table: rows = (step, phase), columns = signals."""
        names = list(signals) if signals is not None else list(
            self.watched_names
        )
        cols = [self._column(n) for n in names]
        header = ["cs.ph"] + names
        rows = [header]
        for at, row in zip(self.times, self.rows):
            rows.append([str(at)] + [format_value(row[c]) for c in cols])
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in rows
        ]
        return "\n".join(lines)

    def write_vcd(self, out: TextIO, design_name: str = "rt_model") -> None:
        """Write the trace as a VCD file (one tick per phase).

        DISC is emitted as ``z`` (high impedance) and ILLEGAL as ``x``,
        matching their intuitive std-logic analogues.  The first sample
        is written as a ``$dumpvars`` initialization block covering
        *every* watched signal, so a DISC signal reads back ``z`` from
        tick 0 and stays distinguishable from a wire the file never
        values at all (which VCD semantics leave uninitialized = ``x``).
        """
        names = list(self.watched_names)
        idents = {name: _vcd_ident(i) for i, name in enumerate(names)}
        out.write("$date reproduction of Mutz DATE'98 $end\n")
        out.write("$timescale 1ns $end\n")
        out.write(f"$scope module {design_name} $end\n")
        for name in names:
            out.write(f"$var integer 32 {idents[name]} {name} $end\n")
        out.write("$upscope $end\n$enddefinitions $end\n")
        last: list[Optional[int]] = [None] * len(names)
        first = True
        for at, row in zip(self.times, self.rows):
            tick = (at.step - 1) * PHASES_PER_STEP + int(at.phase)
            changes = []
            for col, name in enumerate(names):
                value = row[col]
                if value != last[col]:
                    last[col] = value
                    changes.append((name, value))
            if first:
                out.write(f"#{max(tick, 0)}\n$dumpvars\n")
                for name, value in changes:
                    out.write(f"{_vcd_value(value)} {idents[name]}\n")
                out.write("$end\n")
                first = False
            elif changes:
                out.write(f"#{max(tick, 0)}\n")
                for name, value in changes:
                    out.write(f"{_vcd_value(value)} {idents[name]}\n")


class Tracer(TraceLog):
    """Records watched signals at every phase change (event kernel).

    Parameters
    ----------
    sim, cs, ph:
        The kernel simulator and the control-step/phase signals.
    watched:
        Signals to record.  Defaults (in :class:`RTSimulation`) to all
        buses and functional-unit ports.
    """

    def __init__(
        self,
        sim: Simulator,
        cs: Signal,
        ph: Signal,
        watched: Sequence[Signal],
        name: str = "tracer",
    ) -> None:
        super().__init__([s.name for s in watched])
        self._cs = cs
        self._ph = ph
        self._watched = list(watched)
        sim.add_process(name, self._process)

    def _process(self):
        while True:
            yield wait_on(self._ph)
            at = StepPhase(self._cs.value, Phase(self._ph.value))
            self.append(at, {s.name: s.value for s in self._watched})


def _vcd_ident(index: int) -> str:
    """Short printable VCD identifier for the index-th variable."""
    alphabet = "".join(chr(c) for c in range(33, 127))
    ident = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, len(alphabet))
        ident = alphabet[rem] + ident
    return ident


def _vcd_value(value: int) -> str:
    from .values import DISC, ILLEGAL

    if value == DISC:
        return "bz"
    if value == ILLEGAL:
        return "bx"
    return "b" + bin(value)[2:]
