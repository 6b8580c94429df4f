"""The ``cold-designs`` workload and the per-design layer pipeline.

A user with a new or edited design wants its first result.  Each
design goes digest -> lower -> codegen build -> elaborate -> first run
against a fresh disk cache, then restarts warm from the ``plans/v1`` +
``codegen/v1`` disk tiers, then runs a batch of re-armed vectors.
Every step is a timed call into a public function of
``repro.engine.plan`` / ``repro.engine.codegen`` or the ``compiled-py``
simulation (``RTModel.elaborate``, ``.run()``, ``.rearm()``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Tuple

from repro.engine.codegen import generate_source, model_op_arities, resolve_codegen
from repro.engine.plan import PlanCache, lower, model_digest, resolve_plan

from common import (
    ROOT,
    Result,
    Scratch,
    Spans,
    median,
    mean,
    now,
    proc_status_kb,
    program_env,
    quantile,
    tail_label,
)
from inputs import ColdDesigns
from reference import Reference, corrupt, matches, outcome_of, plain_vector

HERE = os.path.dirname(os.path.abspath(__file__))

#: Designs always completed, whatever ``--seconds`` says.  Peak RSS,
#: generated source bytes and the ``sim.*`` totals are taken over
#: exactly this prefix, so they do not depend on host speed.
FIXED_DESIGNS = 4
#: Distinct register vectors per design, and how many times each is
#: run re-armed after the warm restart (so a design costs only
#: ``VECTORS`` reference runs).
VECTORS = 64
ROUNDS = 16
#: Vectors per timed request.  One re-armed run takes a fraction of a
#: millisecond, less than the stalls the shared host inflicts a few
#: times a second, so the p99 of single runs measures how often the
#: host stalls; a request for a block of vectors (a small parameter
#: sweep) is long enough that each p99 sample includes a stall and the
#: stall is a small part of it.
BLOCK = 16
#: One fresh interpreter (a ``setup_s`` sample) is started before
#: every ``SETUP_EVERY``-th design, so the samples spread over the whole
#: window like the design timings do.
SETUP_EVERY = 3

#: A fresh interpreter: import the plan, codegen, HLS and IKS layers
#: (``inputs`` imports the last two) and produce Fig. 1's first result.
SETUP_PROGRAM = """
import repro.engine.plan, repro.engine.codegen
from inputs import fig1_model
sim = fig1_model().elaborate(backend="compiled-py").run()
if sim.registers["R1"] != 5 or sim.stats.delta_cycles != 42:
    raise SystemExit("fig1 first result is wrong")
"""


def process_setup_s(result: Result) -> float:
    """Wall (s) of one ``SETUP_PROGRAM`` interpreter; a non-zero exit
    counts as a failed result."""
    env = program_env()
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    t0 = now()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROGRAM], cwd=ROOT, env=env,
        timeout=120,
    )
    wall = now() - t0
    result.check(proc.returncode == 0, "setup interpreter")
    return wall


@dataclass
class DesignTimes:
    """Layer timings (ms) of one design's trip through the pipeline."""

    family: str
    cs_max: int
    first_ms: float = 0.0
    digest_ms: float = 0.0
    lower_ms: float = 0.0
    build_ms: float = 0.0
    build_source: str = ""
    elaborate_ms: float = 0.0
    execute_ms: float = 0.0
    generate_ms: Optional[float] = None
    source_bytes: Optional[int] = None
    warm_ms: float = 0.0
    plan_hit_ms: float = 0.0
    codegen_hit_ms: float = 0.0
    warm_sources: tuple = ()
    #: re-armed requests of ``block`` vectors each
    vector_ms: List[float] = field(default_factory=list)
    vector_p50_ms: float = 0.0
    block: int = 1
    rss_delta_mb: float = 0.0


def measure_design(
    family: str,
    model: Any,
    first_vector: Mapping[str, Any],
    vectors: List[Mapping[str, Any]],
    cache_root: Any,
    result: Result,
    spans: Spans,
    trace: str,
    corrupt_reference: bool = False,
    rounds: int = 1,
    block: int = 1,
) -> Tuple[DesignTimes, Reference]:
    """Cold first result, warm restart and re-armed vectors of one
    design, each checked against the ``compiled`` reference (computed
    first, outside every timed region)."""
    ref = Reference(model)
    want_first = ref.run(first_vector)
    want_vectors = [ref.run(v) for v in vectors]
    if corrupt_reference:
        want_first = corrupt(want_first)
    times = DesignTimes(family, model.cs_max)
    rss0 = proc_status_kb("self", "VmRSS")

    # -- cold: digest -> lower -> codegen build -> elaborate -> run ----
    t0 = now()
    digest = model_digest(model)
    t1 = now()
    plan = lower(model, digest=digest)
    t2 = now()
    PlanCache(cache_root).put(plan)
    t3 = now()
    arities = model_op_arities(model, plan)
    handle = resolve_codegen(plan, arities, cache_root)
    t4 = now()
    sim = model.elaborate(
        backend="compiled-py", plan=plan,
        register_values=plain_vector(first_vector),
    )
    t5 = now()
    sim.run()
    t6 = now()
    result.check(
        matches(outcome_of(sim), want_first), f"{trace} cold first run"
    )
    times.first_ms = (t6 - t0) * 1e3
    times.digest_ms = (t1 - t0) * 1e3
    times.lower_ms = (t2 - t1) * 1e3
    times.build_ms = (t4 - t3) * 1e3
    times.build_source = handle.source
    times.elaborate_ms = (t5 - t4) * 1e3
    times.execute_ms = (t6 - t5) * 1e3
    for name, a, b in (
        ("plan.digest", t0, t1), ("plan.lower", t1, t2),
        ("plan.store", t2, t3), ("codegen.build", t3, t4),
        ("compiled.elaborate", t4, t5), ("compiled.execute", t5, t6),
    ):
        spans.add(name, a, b, tid=1, trace=trace)
    spans.add("first_result", t0, t6, tid=0, trace=trace, family=family)
    if spans.enabled:
        # Only the traced run pays a separate generation, outside the
        # first-result span: the build above already generated once.
        g0 = now()
        source = generate_source(plan, arities)
        g1 = now()
        spans.add("codegen.generate", g0, g1, tid=1, trace=trace)
        times.generate_ms = (g1 - g0) * 1e3
        times.source_bytes = len(source.encode("utf-8"))
    del sim, plan, handle

    # -- warm restart from the disk tiers -------------------------------
    w0 = now()
    plan_handle = resolve_plan(model, None, cache_root)
    w1 = now()
    code_handle = resolve_codegen(
        plan_handle.plan, model_op_arities(model, plan_handle.plan),
        cache_root,
    )
    w2 = now()
    sim = model.elaborate(
        backend="compiled-py", plan=plan_handle,
        register_values=plain_vector(first_vector),
    )
    sim.run()
    w3 = now()
    result.check(
        matches(outcome_of(sim), want_first), f"{trace} warm-start run"
    )
    times.warm_ms = (w3 - w0) * 1e3
    times.plan_hit_ms = (w1 - w0) * 1e3
    times.codegen_hit_ms = (w2 - w1) * 1e3
    times.warm_sources = (plan_handle.source, code_handle.source)
    spans.add("plan.resolve", w0, w1, tid=1, trace=trace,
              source=plan_handle.source)
    spans.add("codegen.resolve", w1, w2, tid=1, trace=trace,
              source=code_handle.source)
    spans.add("warm_start", w0, w3, tid=0, trace=trace)

    # -- re-armed vectors, ``rounds`` times over, ``block`` a request --
    times.block = block
    n = len(vectors)
    for r in range(rounds * n // block):
        got = []
        v0 = now()
        for k in range(r * block, (r + 1) * block):
            sim.rearm(plain_vector(vectors[k % n]))
            sim.run()
            got.append(outcome_of(sim))
        v1 = now()
        times.vector_ms.append((v1 - v0) * 1e3)
        spans.add("vector", v0, v1, tid=2, trace=trace)
        for k, outcome in zip(range(r * block, (r + 1) * block), got):
            result.check(
                matches(outcome, want_vectors[k % n]),
                f"{trace} vector {k % n} round {k // n}",
            )
    times.rss_delta_mb = (proc_status_kb("self", "VmRSS") - rss0) / 1024.0
    return times, ref


@dataclass
class PassStats:
    fixed: int
    designs: List[DesignTimes] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    sim_totals: tuple = (0, 0, 0)


def cold_pass(
    seed: int,
    stream: str,
    seconds: float,
    result: Result,
    spans: Spans,
    vectors: int,
    min_designs: int,
    corrupt_reference: bool = False,
    setup: bool = False,
) -> PassStats:
    """Designs until ``seconds`` of wall have passed (at least
    ``min_designs``), alternating the edit and fresh families, after an
    unrecorded warm-up pair; with ``setup``, a ``setup_s`` sample before
    every ``SETUP_EVERY``-th design."""
    source = ColdDesigns(seed, stream)
    stats = PassStats(min_designs)
    deltas = events = transactions = 0
    with Scratch(f"cold-{stream}") as scratch:
        # One design of each family first: the first design in a process
        # pays one-off imports and memo fills that no later one does.
        for k in range(2):
            family, model, first, factory = source.next()
            measure_design(
                family, model, first, [factory(source.rng)],
                scratch.sub(f"warm{k}"), result, Spans(False),
                trace=f"{stream}-warm-up-{k}",
            )
        deadline = now() + seconds
        while len(stats.designs) < min_designs or now() < deadline:
            n = len(stats.designs)
            if setup and n % SETUP_EVERY == 0:
                stats.setup_s.append(process_setup_s(result))
            family, model, first, factory = source.next()
            vecs = [factory(source.rng) for _ in range(vectors)]
            times, ref = measure_design(
                family, model, first, vecs, scratch.sub(f"d{n}"), result,
                spans, trace=f"{stream}-design-{n}-{family}",
                corrupt_reference=corrupt_reference, rounds=ROUNDS,
                block=BLOCK,
            )
            stats.designs.append(times)
            if n < min_designs:
                deltas += ref.deltas
                events += ref.events
                transactions += ref.transactions
            if n + 1 == min_designs:
                stats.peak_rss_mb = proc_status_kb("self", "VmHWM") / 1024.0
                stats.sim_totals = (deltas, events, transactions)
    return stats


def family_mean(designs: List[DesignTimes], attr: str, family: str) -> float:
    return mean([getattr(d, attr) for d in designs if d.family == family])


def across_families(designs: List[DesignTimes], attr: str) -> float:
    """Mean of the two family means.  The families differ in cost, so a
    statistic over the mix would move with the design count."""
    return (family_mean(designs, attr, "edit")
            + family_mean(designs, attr, "fresh")) / 2


def end_to_end(result: Result, stats: PassStats) -> None:
    """Means over the designs of the window, not medians: the host's
    speed drifts between regimes for seconds at a time, and a mean
    weighs them by how long each lasted where a median jumps between
    them.  The families alternate, so the p99 over both has a fixed
    mix."""
    designs = stats.designs
    edit_ms = family_mean(designs, "first_ms", "edit")
    fresh_ms = family_mean(designs, "first_ms", "fresh")
    for d in designs:
        d.vector_p50_ms = quantile(d.vector_ms, 0.5)
    requests = [ms for d in designs for ms in d.vector_ms]
    n_edit = sum(1 for d in designs if d.family == "edit")
    result.put("setup_s", median(stats.setup_s), "s",
               f"median of {len(stats.setup_s)} fresh interpreters spread "
               "over the window: import + Fig. 1 first result")
    result.put("throughput_rps", 2e3 / (edit_ms + fresh_ms), "1/s",
               "new designs to first result per host second "
               "(1 / mean of the two family means)")
    result.put("latency_p50_ms", across_families(designs, "vector_p50_ms"),
               "ms", f"re-armed request for {designs[0].block} vectors: "
               f"p50 of each design's {len(designs[0].vector_ms)}, mean per "
               "family, mean of the families")
    result.put("latency_p99_ms", quantile(requests, 0.99), "ms",
               f"re-armed request for {designs[0].block} vectors: p99 of "
               f"n={len(requests)} over both families (highest supported: "
               f"{tail_label(len(requests))})")
    result.put("first_result_edit_ms", edit_ms, "ms",
               f"mean of {n_edit} E6 retargets")
    result.put("first_result_fresh_ms", fresh_ms, "ms",
               f"mean of {len(designs) - n_edit} random HLS designs")
    result.put("warm_start_ms", across_families(designs, "warm_ms"), "ms",
               f"mean of the family means, n={len(designs)} disk-tier "
               "restarts")
    result.put("peak_rss_mb", stats.peak_rss_mb, "MB",
               "benchmark process VmHWM after the warm-up and "
               f"{stats.fixed} designs")


def per_layer(result: Result, stats: PassStats) -> None:
    designs = stats.designs
    first_k = designs[:stats.fixed]
    builds = [d for d in designs if d.generate_ms is not None]
    result.put("plan.digest_ms", median(d.digest_ms for d in designs), "ms",
               "p50 timed model_digest")
    result.put("plan.lower_ms", median(d.lower_ms for d in designs), "ms",
               "p50 timed lower")
    result.put("codegen.generate_ms", median(d.generate_ms for d in builds),
               "ms", "p50 timed generate_source")
    result.put("codegen.build_ms", median(d.build_ms for d in designs), "ms",
               "p50 timed resolve_codegen on a fresh cache")
    result.put("codegen.compile_ms",
               median(d.build_ms - d.generate_ms for d in builds), "ms",
               "p50 of build - generate, per design")
    result.put("codegen.source_bytes",
               sum(d.source_bytes for d in first_k), "bytes",
               f"generated source over the first {stats.fixed} designs")
    hits = sum(1 for d in designs if d.build_source == "hit")
    result.put("codegen.hit_ratio", hits / len(designs), "ratio",
               f"{hits} hits / {len(designs)} cold resolutions")
    result.put("plan.hit_ms", median(d.plan_hit_ms for d in designs), "ms",
               "p50 resolve_plan on the warm disk tier")
    result.put("codegen.hit_ms", median(d.codegen_hit_ms for d in designs),
               "ms", "p50 resolve_codegen on the warm disk tier")
    warm_hits = sum(1 for d in designs if d.warm_sources == ("hit", "hit"))
    result.notes["codegen.hit_ms"] += (
        f"; {warm_hits}/{len(designs)} restarts hit both tiers"
    )
    result.put("compiled.elaborate_ms",
               median(d.elaborate_ms for d in designs), "ms",
               "p50 elaborate(compiled-py) on the built plan")
    result.put("compiled.execute_ms", median(d.execute_ms for d in designs),
               "ms", "p50 first run()")
    per_cs = [ms * 1e3 / d.block / d.cs_max
              for d in designs for ms in d.vector_ms]
    result.put("execute.host_us_per_cs", median(per_cs), "us",
               "p50 re-armed run host time / CS_MAX")
    result.put("rss.per_design_mb", mean([d.rss_delta_mb for d in designs]),
               "MB", "mean VmRSS growth per design")
    deltas, events, transactions = stats.sim_totals
    result.put("sim.deltas", deltas, "count",
               f"reference totals, first {stats.fixed} designs")
    result.put("sim.events", events, "count")
    result.put("sim.transactions", transactions, "count")


def run(args: Any, result: Result, spans: Spans) -> None:
    vectors = 8 if args.short else VECTORS
    fixed = 2 if args.short else FIXED_DESIGNS
    if not args.trace:
        stats = cold_pass(args.seed, "timed", args.seconds, result, spans,
                          vectors, fixed, args.corrupt_reference, setup=True)
        end_to_end(result, stats)
        return
    # Traced run: an untraced pass and a traced pass over different
    # (but seed-determined) designs, half the window each.
    spans.enabled = False
    plain = cold_pass(args.seed, "untraced", args.seconds / 2, result, spans,
                      vectors, fixed, args.corrupt_reference)
    spans.enabled = True
    spans.tracks.update({0: "design", 1: "layer calls", 2: "vectors"})
    traced = cold_pass(args.seed, "traced", args.seconds / 2, result, spans,
                       vectors, fixed, args.corrupt_reference)
    per_layer(result, traced)
    result.overhead = (
        across_families(plain.designs, "first_ms"),
        across_families(traced.designs, "first_ms"),
        "first-result ms (mean of the family means)",
    )
