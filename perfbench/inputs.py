"""Seeded inputs: designs and register vectors.

Everything here is derived from the benchmark's ``--seed`` alone; the
program only ever sees what these functions return.  Building the
designs (HLS synthesis, the IKS chip builder) is input generation and
is never inside a timed region.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Set

from repro.core import ModuleSpec, RTModel
from repro.core.serialize import model_to_dict
from repro.hls import synthesize
from repro.iks.fixedpoint import DEFAULT_FORMAT
from repro.iks.flow import build_ik_model

#: Random straight-line HLS programs: fixed size and resources, so each
#: one is structurally new but about E6-sized once generated.
HLS_OPS = 60  # 24 '+', 24 '-', 12 '*'
HLS_INPUTS = 8
#: Control steps every drawn design has: the ALU bound (48 ALU ops on
#: 2 ALUs).  Programs whose multiply chains stretch the schedule are
#: redrawn, so generated-code size barely varies across seeds.
HLS_STEPS = 24
HLS_RESOURCES = {"ALU": 2, "MUL": 1}
MASK32 = (1 << 32) - 1
#: E6 target box (reachable by the default arm geometry).
E6_X = (1.2, 3.0)
E6_Y = (0.2, 1.6)


def fig1_model(r1: int = 2, r2: int = 3, name: str = "example") -> RTModel:
    """The paper's Fig. 1 example: R1 + R2 -> R1 in steps 5/6."""
    model = RTModel(name, cs_max=7)
    model.register("R1", init=r1)
    model.register("R2", init=r2)
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
    return model


def hls_program(rng: random.Random) -> str:
    """A random straight-line program: ``HLS_OPS`` operations with a
    fixed operator mix and literal count over ``HLS_INPUTS`` inputs
    (each used), so designs differ in structure but not in size."""
    ops = list("+" * 24 + "-" * 24 + "*" * 12)
    rng.shuffle(ops)
    literals = set(rng.sample(range(HLS_INPUTS, HLS_OPS), 9))
    names = [f"i{k}" for k in range(HLS_INPUTS)]
    lines = []
    for k, op in enumerate(ops):
        left = names[k] if k < HLS_INPUTS else rng.choice(names[-12:])
        right = (
            str(rng.randrange(1, 100)) if k in literals
            else rng.choice(names)
        )
        lines.append(f"t{k} = {left} {op} {right}")
        names.append(f"t{k}")
    return "\n".join(lines)


def hls_design(rng: random.Random, name: str, seen: Optional[Set[str]] = None):
    """One synthesized ``HLS_STEPS``-step HLS design
    (``SynthesisResult``); with ``seen``, never a program already in it
    (the program is added)."""
    while True:
        program = hls_program(rng)
        if seen is not None and program in seen:
            continue
        result = synthesize(program, resources=HLS_RESOURCES, name=name)
        if result.model.cs_max == HLS_STEPS:
            if seen is not None:
                seen.add(program)
            return result


def e6_target(rng: random.Random):
    return (rng.uniform(*E6_X), rng.uniform(*E6_Y))


def e6_design(px: float, py: float) -> RTModel:
    """The E6 IKS chip retargeted at ``(px, py)``: identical structure,
    a different preset (so a different content digest)."""
    return build_ik_model(px, py)[0]


def e6_vector(rng: random.Random) -> Dict[str, int]:
    """Override the chip's target registers with a fresh target."""
    px, py = e6_target(rng)
    return {"J0": DEFAULT_FORMAT.encode(px), "J1": DEFAULT_FORMAT.encode(py)}


def hls_vector(rng: random.Random, inputs: List[str]) -> Dict[str, int]:
    """Every program input set to a random 32-bit value."""
    return {name: rng.randrange(MASK32 + 1) for name in inputs}


def edited_document(
    document: Dict[str, Any], register: str, init: int
) -> Dict[str, Any]:
    """A copy of a model document with one register preset changed:
    same structure, different digest (a user's edit)."""
    edited = dict(document)
    edited["registers"] = [
        dict(entry, init=init) if entry["name"] == register else dict(entry)
        for entry in document["registers"]
    ]
    return edited


class ColdDesigns:
    """The cold-designs stream: edit (E6 retargeted) and fresh (random
    HLS) designs interleaved, never repeating a target or a program
    within one process (so no in-process memo can serve them)."""

    def __init__(self, seed: int, stream: str = "timed") -> None:
        self.rng = random.Random(f"cold-designs/{seed}/{stream}")
        self._targets: Set[tuple] = set()
        self._programs: Set[str] = set()
        self.count = 0

    def next(self):
        """``(family, model, first_vector, vector_factory)`` for the
        next design: E6 first runs at its own preset target, an HLS
        design on a full input vector."""
        family = "edit" if self.count % 2 == 0 else "fresh"
        self.count += 1
        if family == "edit":
            while True:
                target = tuple(round(v, 6) for v in e6_target(self.rng))
                if target not in self._targets:
                    break
            self._targets.add(target)
            return family, e6_design(*target), {}, e6_vector
        result = hls_design(self.rng, f"hls{self.count}", self._programs)
        inputs = list(result.program.inputs)
        return (
            family,
            result.model,
            hls_vector(self.rng, inputs),
            lambda rng: hls_vector(rng, inputs),
        )


class ServedDesign:
    """One design the server is loaded with: its document, its vector
    pool and edited copies of it (a different preset on one input)."""

    def __init__(
        self, rng: random.Random, name: str, pool: int, edits: int,
        seen: Set[str],
    ) -> None:
        result = hls_design(rng, name, seen)
        self.model = result.model
        inputs = list(result.program.inputs)
        self.edit_register = inputs[0]
        self.vectors = [hls_vector(rng, inputs) for _ in range(pool)]
        self.document = model_to_dict(self.model)
        values = rng.sample(range(1, 1 << 16), edits)
        self.edit_documents = [
            edited_document(self.document, self.edit_register, v)
            for v in values
        ]


class ServeInputs:
    """The serve workload's inputs: one served design per cycle, and the
    structurally new designs submitted while setting up.  No program
    repeats within a run."""

    def __init__(
        self, seed: int, designs: int, pool: int, edits: int = 0,
        fresh: int = 0,
    ) -> None:
        rng = random.Random(f"serve-wide-ws/{seed}")
        seen: Set[str] = set()
        self.designs = [
            ServedDesign(rng, f"hls_wide{k}", pool, edits, seen)
            for k in range(designs)
        ]
        #: (model, first vector) of each structurally new design
        self.fresh: List[tuple] = []
        while len(self.fresh) < fresh:
            result = hls_design(rng, f"hls_new{len(self.fresh)}", seen)
            inputs = list(result.program.inputs)
            self.fresh.append((result.model, hls_vector(rng, inputs)))
