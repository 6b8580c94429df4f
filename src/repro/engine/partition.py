"""Connectivity clusters of a lowered model.

Within one control step a value travels register output -> bus ->
module input -> module output -> bus -> register input, and every hop
except the two register ends happens mid-step.  Register outputs are
stable for the whole step (the CR latch lands at the next step's RA
cycle) and register inputs only matter at the step's CR cycle, so
registers are exactly the state that lives at the step boundary.

:func:`clusters_from_rows` groups each functional unit with every bus
that feeds its input ports and every bus it writes results to
(union-find over the transfer connectivity).  :func:`repro.engine.plan.lower`
records the result as ``Plan.clusters``: the sets of buses and units
that exchange values inside a step.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..core.phases import Phase

#: (step, phase_int, source, sink) -- one lowered TRANS instance.
SpecRow = Tuple[int, int, str, str]


def _port_owner(port: str) -> str:
    """Strip a module-port suffix (``_in1``/``_in2``/``_op``/``_out``)."""
    for suffix in ("_in1", "_in2", "_op", "_out"):
        if port.endswith(suffix):
            return port[: -len(suffix)]
    return port


def clusters_from_rows(
    bus_names: Sequence[str],
    module_names: Sequence[str],
    rows: Sequence[SpecRow],
) -> List[Set[str]]:
    """Union-find clusters over the lowered transfer connectivity.

    Nodes are buses and functional units; an edge joins a module with
    every bus feeding its input/op ports and every bus carrying its
    output.  Buses and units untouched by any transfer form singleton
    clusters.
    """
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for name in bus_names:
        find(name)
    for name in module_names:
        find(name)
    rb_phase, wa_phase = int(Phase.RB), int(Phase.WA)
    for _step, phase_int, source, sink in rows:
        if phase_int == rb_phase:
            module = _port_owner(sink)
            if not source.startswith("op:"):
                union(module, source)
        elif phase_int == wa_phase:
            union(_port_owner(source), sink)
        # RA reads a stable register output and WB writes a register
        # input: neither joins a cluster.
    groups: Dict[str, Set[str]] = {}
    for name in parent:
        groups.setdefault(find(name), set()).add(name)
    return sorted(groups.values(), key=lambda g: min(g))
