"""The ``serve-wide-ws`` workload: the server as a subprocess, our own load.

The server runs in its own process (see :mod:`wire`); its CPU time and
VmHWM come from ``/proc/<pid>``.  The load comes from one
single-threaded asyncio loop in this process over one WebSocket: a
closed loop in waves of ``WINDOW`` requests, each wave sent in one
burst and refilled once all its replies are in; every fourth request
is a ``verify`` with the default property set.

A run is ``CYCLES`` cycles spread over the window, each on its own
seeded design: boot a server on a fresh cache (one ``setup_s``
sample), submit structurally new and edited designs to it, restart it
on the now-warm cache, then drive load at the restarted server for the
cycle's share of the window.  Every end-to-end figure is a mean over
the cycles, so each one samples the whole window and several designs.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.serialize import model_from_dict, model_to_dict
from repro.observe.metrics import parse_prometheus

from cold import measure_design
from common import (
    Result,
    Scratch,
    Spans,
    mean,
    median,
    now,
    proc_cpu_s,
    proc_status_kb,
    quantile,
    tail_label,
)
from inputs import ServeInputs, ServedDesign
from reference import Reference, corrupt, matches, outcome_of_wire
from wire import HttpConn, Server, WsConn

#: Requests in flight: one wave (the server's default ``max_batch``).
WINDOW = 64
#: Every ``VERIFY_EVERY``-th request of a wave (and pool position) is a
#: verify: a fixed in-flight mix of 48 simulates and 16 verifies.
VERIFY_EVERY = 4
#: Cycles per run (one served design, one server boot each).
CYCLES = 5
#: Per cycle: structurally new designs, edited presets and warm
#: restarts submitted to the server, each one first-result sample.
FRESH = 2
EDITS = 2
RESTARTS = 1
#: Vectors in a design's request pool (request i uses vector i % POOL).
POOL = 128
#: Requests in the warm-up before each measured slice (and at the end
#: of each setup).
WARMUP = 128
#: Shortest measured slice, whatever the window leaves.
MIN_SLICE_S = 2.0
#: Chrome-trace track of the client connection (0-2 are the in-process
#: layer tracks).
CLIENT_TID = 10


def is_verify_position(j: int) -> bool:
    return j % VERIFY_EVERY == VERIFY_EVERY - 1


def pool_index(verify: bool, k: int) -> int:
    """Vector-pool position of the k-th simulate (or verify) request,
    so that each pool position is always the same op and has one
    reference."""
    every = VERIFY_EVERY
    if verify:
        return every * k + every - 1
    return every * (k // (every - 1)) + k % (every - 1)


# ----------------------------------------------------------------------
# one measured client session against one server
# ----------------------------------------------------------------------
@dataclass
class Reply:
    #: vector-pool position (selects the reference)
    position: int
    start: float
    end: float
    records: List[dict]


@dataclass
class Session:
    """One WebSocket to one server, loaded with one design."""

    server: Server
    design: ServedDesign
    spans: Spans
    tag: str
    conn: Any = None
    digest: str = ""
    #: request ids issued, and simulate / verify requests issued
    issued: int = 0
    counts: List[int] = field(default_factory=lambda: [0, 0])

    async def connect(self) -> None:
        self.conn = await WsConn.open(self.server.host, self.server.port)

    async def close(self) -> None:
        if self.conn is not None:
            await self.conn.close()
            self.conn = None

    # -- single calls (setup) ----------------------------------------
    async def submit(self, document: Dict[str, Any]) -> str:
        self.conn.send({"op": "submit", "model": document, "id": "submit"})
        record = await self.conn.recv()
        if record.get("event") != "model":
            raise RuntimeError(f"submit failed: {record}")
        return record["digest"]

    def _payload(self, position: int, digest: str) -> Dict[str, Any]:
        rid = self.issued
        self.issued += 1
        return {
            "model": digest,
            "register_values": self.design.vectors[position],
            "id": rid,
            "trace": f"{self.tag}-{rid:07d}",
        }

    def request(self, verify: bool) -> Tuple[str, Dict[str, Any], int]:
        """The next request of one kind: (op, payload, pool position)."""
        k = self.counts[verify]
        self.counts[verify] += 1
        position = pool_index(verify, k) % len(self.design.vectors)
        op = "verify" if verify else "simulate"
        return op, self._payload(position, self.digest), position

    async def one(self, digest: str, vector: Any = None) -> Reply:
        """One simulate (of pool vector 0 unless ``vector`` is given),
        awaited alone."""
        payload = self._payload(0, digest)
        if vector is not None:
            payload["register_values"] = vector
        t0 = now()
        self.conn.send(dict(payload, op="simulate"))
        records = []
        while True:
            record = await self.conn.recv()
            if record.get("id") != payload["id"]:
                continue
            records.append(record)
            if record.get("event") in ("result", "error"):
                return Reply(0, t0, now(), records)

    async def metrics(self) -> Dict[str, Any]:
        """``/v1/metrics`` on a short-lived side connection (so never
        more than two connections are open)."""
        conn = await HttpConn.open(self.server.host, self.server.port)
        try:
            status, data = await conn.get("/v1/metrics")
        finally:
            await conn.close()
        if status != 200:
            raise RuntimeError(f"/v1/metrics answered {status}")
        return parse_prometheus(data.decode("utf-8"))

    # -- the closed loop ----------------------------------------------
    async def load(self, seconds: float = 0.0, count: int = 0) -> List[Reply]:
        """Waves until ``seconds`` pass (or at least ``count`` more
        requests are issued).  The whole window goes out in one write
        and is refilled once every reply is in, so each wave reaches the
        server as one simulate batch and one verify batch of fixed
        size."""
        deadline, stop = now() + seconds, self.issued + count
        replies: List[Reply] = []
        while (self.issued < stop) if count else (now() < deadline):
            pending: Dict[int, Tuple[Reply, str, str]] = {}
            frames = []
            for k in range(WINDOW):
                op, payload, position = self.request(is_verify_position(k))
                frames.append(dict(payload, op=op))
                pending[payload["id"]] = (
                    Reply(position, 0.0, 0.0, []), payload["trace"], op
                )
            t0 = now()
            self.conn.send_many(frames)
            while pending:
                record = await self.conn.recv()
                entry = pending.get(record.get("id"))
                if entry is None:
                    continue
                reply, trace, op = entry
                reply.records.append(record)
                if record.get("event") in ("result", "error"):
                    reply.start, reply.end = t0, now()
                    del pending[record["id"]]
                    replies.append(reply)
                    self.spans.add("client.request", t0, reply.end,
                                   tid=CLIENT_TID, trace=trace, op=op)
        return replies


def outcome(reply: Reply):
    records = reply.records
    if not records or records[-1].get("event") != "result":
        return None, records
    return outcome_of_wire(records), records


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
class Refs:
    """References for each design's request pool and every setup
    submission."""

    def __init__(self, inputs: ServeInputs, corrupt_first: bool):
        deltas = events = transactions = 0
        self.pools = []
        self.edits = []
        for design in inputs.designs:
            ref = Reference(design.model)
            self.pools.append([
                ref.verify(v) if is_verify_position(j) else ref.run(v)
                for j, v in enumerate(design.vectors)
            ])
            deltas += ref.deltas
            events += ref.events
            transactions += ref.transactions
            self.edits.append([
                Reference(model_from_dict(doc)).run(design.vectors[0])
                for doc in design.edit_documents
            ])
        if corrupt_first:
            self.pools[0][0] = corrupt(self.pools[0][0])
        self.sim_totals = (deltas, events, transactions)
        self.fresh = [
            (model_to_dict(model), vector, Reference(model).run(vector))
            for model, vector in inputs.fresh
        ]


def check_replies(
    result: Result, replies: List[Reply], pool: List[Any], what: str
) -> List[Tuple[Reply, dict]]:
    """Gate every reply; returns (reply, result record) of the good ones."""
    good = []
    for reply in replies:
        got, records = outcome(reply)
        ok = got is not None and matches(got, pool[reply.position])
        result.check(ok, f"{what} pool vector {reply.position}: "
                     f"{records[-1] if records else 'no reply'}")
        if ok:
            good.append((reply, records[-1]))
    return good


def check_one(result: Result, reply: Reply, want: Any, what: str) -> None:
    got, records = outcome(reply)
    result.check(got is not None and matches(got, want),
                 f"{what}: {records[-1:]}")


@dataclass
class CycleTimes:
    setup_s: float
    fresh_ms: List[float]
    edit_ms: List[float]
    warm_ms: List[float]
    rss_per_design_mb: float


async def boot_cycle(
    inputs: ServeInputs, refs: Refs, result: Result, spans: Spans,
    scratch: Scratch, cycle: int, live: List[Server],
) -> Tuple[CycleTimes, Session]:
    """Boot on a fresh cache through the first result and a warm-up
    (setup); submit structurally new and edited designs to the running
    server; then restart on the now-warm cache.  Returns the timings
    and a session on the last restarted server."""
    design, pool = inputs.designs[cycle], refs.pools[cycle]
    cache, flight = scratch.sub(f"cache{cycle}"), scratch.sub("flight")
    t0 = now()
    server = Server(cache, flight)
    live.append(server)
    session = Session(server, design, spans, f"c{cycle}")
    await session.connect()
    session.digest = await session.submit(design.document)
    check_replies(result, [await session.one(session.digest)], pool,
                  f"cycle {cycle} first")
    check_replies(result, await session.load(count=WARMUP), pool,
                  f"cycle {cycle} warm-up")
    setup_s = now() - t0

    fresh_ms = []
    for k in range(cycle * FRESH, (cycle + 1) * FRESH):
        document, vector, want = refs.fresh[k]
        f0 = now()
        reply = await session.one(await session.submit(document), vector)
        fresh_ms.append((now() - f0) * 1e3)
        check_one(result, reply, want, f"new design {k}")
    rss0 = proc_status_kb(server.pid, "VmRSS")
    edit_ms = []
    for k, document in enumerate(design.edit_documents):
        e0 = now()
        reply = await session.one(await session.submit(document))
        edit_ms.append((now() - e0) * 1e3)
        check_one(result, reply, refs.edits[cycle][k],
                  f"cycle {cycle} edited design {k}")
    rss_mb = (proc_status_kb(server.pid, "VmRSS") - rss0) / 1024.0 / EDITS

    warm_ms = []
    for j in range(RESTARTS):
        await session.close()
        server.stop()
        live.remove(server)
        server = Server(cache, flight)
        live.append(server)
        session = Session(server, design, spans, f"w{cycle}.{j}")
        await session.connect()
        w0 = now()
        session.digest = await session.submit(design.document)
        reply = await session.one(session.digest)
        warm_ms.append((now() - w0) * 1e3)
        check_replies(result, [reply], pool, f"cycle {cycle} warm start")
    return CycleTimes(setup_s, fresh_ms, edit_ms, warm_ms, rss_mb), session


@dataclass
class Window:
    replies: List[Tuple[Reply, dict]]
    #: from the first request sent to the last reply received
    seconds: float
    server_cpu_s: float
    loadgen_cpu_s: float
    before: Dict[str, Any]
    after: Dict[str, Any]
    peak_rss_mb: float


async def measured_window(
    session: Session, seconds: float, pool: List[Any], result: Result,
    what: str,
) -> Window:
    """Warm the session's lanes, then one closed-loop window bracketed
    by ``/v1/metrics`` and /proc readings; every reply is gated after
    the window, outside the clock."""
    check_replies(result, await session.load(count=WARMUP),
                  pool, f"{what} warm-up")
    before = await session.metrics()
    cpu0, own0 = proc_cpu_s(session.server.pid), time.process_time()
    t0 = now()
    replies = await session.load(seconds=seconds)
    elapsed = now() - t0
    cpu1, own1 = proc_cpu_s(session.server.pid), time.process_time()
    after = await session.metrics()
    peak = proc_status_kb(session.server.pid, "VmHWM") / 1024.0
    good = check_replies(result, replies, pool, what)
    if not good:
        raise RuntimeError(f"{what}: no correct reply")
    return Window(good, elapsed, cpu1 - cpu0, own1 - own0, before, after,
                  peak)


def counter(parsed: Dict[str, Any], name: str, **labels: str) -> float:
    total = 0.0
    for sample in parsed.get(name, {}).get("samples", []):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            total += sample["value"]
    return total


def delta(w: Window, name: str, **labels: str) -> float:
    return counter(w.after, name, **labels) - counter(w.before, name, **labels)


def latencies(w: Window) -> List[float]:
    return [(reply.end - reply.start) * 1e3 for reply, _ in w.replies]


def end_to_end(result: Result, cycles: List[CycleTimes], windows: List[Window]) -> None:
    """Means over the cycles' slices and samples, not medians: the
    host's speed drifts between regimes for seconds at a time, and a
    mean weighs them by how long each lasted where a median jumps
    between them."""
    n = len(cycles)
    smallest = min(len(w.replies) for w in windows)
    total = sum(len(w.replies) for w in windows)
    result.put("setup_s", median(c.setup_s for c in cycles), "s",
               f"median of {n} boots: boot + submit + cold first request "
               f"+ {WARMUP}-request warm-up")
    result.put("throughput_rps",
               mean([len(w.replies) / w.seconds for w in windows]), "1/s",
               f"mean of {n} slice rates, {total} checked replies, "
               f"1 conn x {WINDOW} in flight")
    result.put("latency_p50_ms",
               mean([quantile(latencies(w), 0.5) for w in windows]), "ms",
               f"round trip, mean of {n} slice p50s")
    result.put("latency_p99_ms",
               mean([quantile(latencies(w), 0.99) for w in windows]), "ms",
               f"round trip, mean of {n} slice p99s, >= {smallest} samples "
               f"each (highest supported: {tail_label(smallest)})")
    fresh = [ms for c in cycles for ms in c.fresh_ms]
    edit = [ms for c in cycles for ms in c.edit_ms]
    warm = [ms for c in cycles for ms in c.warm_ms]
    result.put("first_result_fresh_ms", mean(fresh), "ms",
               f"mean of {len(fresh)}: submit a structurally new design + "
               "first reply")
    result.put("first_result_edit_ms", mean(edit), "ms",
               f"mean of {len(edit)}: submit an edited preset + first reply")
    result.put("warm_start_ms", mean(warm), "ms",
               f"mean of {len(warm)}: restart on the warm disk tiers, "
               "submit + first reply")
    result.put("peak_rss_mb", max(w.peak_rss_mb for w in windows), "MB",
               f"server VmHWM, highest of {n} servers")


def per_layer(result: Result, w: Window, cycle: CycleTimes, refs: Refs) -> None:
    records = [record for _, record in w.replies]
    lat = latencies(w)
    n = len(records)
    result.put("serve.transport_ms",
               mean([l - r["queue_ms"] - r["sweep_ms"] for l, r in zip(lat, records)]),
               "ms", "mean of rtt - queue_ms - sweep_ms")
    for stage in ("coalesce", "serialize"):
        count = delta(w, "repro_serve_stage_ms_count", stage=stage)
        total = delta(w, "repro_serve_stage_ms_sum", stage=stage)
        result.put(f"serve.{stage}_ms", total / count if count else 0.0, "ms",
                   f"stage histogram sum/count over {int(count)} observations")
    result.put("serve.queue_ms", mean([r["queue_ms"] for r in records]), "ms",
               "mean result-record queue_ms")
    result.put("serve.sweep_ms", mean([r["sweep_ms"] for r in records]), "ms",
               "mean result-record sweep_ms")
    result.put("serve.sweep_us_per_lane",
               mean([r["sweep_ms"] * 1e3 / r["batch"] for r in records]), "us",
               "mean of sweep_ms / batch")
    result.put("serve.batch_lanes", mean([r["batch"] for r in records]),
               "lanes", "request-weighted mean of result-record batch")
    sweeps = delta(w, "repro_serve_sweeps_total")
    plane = delta(w, "repro_runs_total", backend="compiled-py-batched")
    result.put("serve.plane_share", plane / sweeps if sweeps else 0.0, "ratio",
               f"{int(plane)} plane sweeps / {int(sweeps)} sweeps")
    result.put("serve.server_cpu_ms_per_req", w.server_cpu_s * 1e3 / n, "ms",
               f"server utime+stime / {n} replies")
    result.put("loadgen.cpu_ms_per_req", w.loadgen_cpu_s * 1e3 / n, "ms",
               f"benchmark process CPU / {n} replies")
    result.put("serve.sweeps", sweeps, "count", "repro_serve_sweeps_total diff")
    result.put("serve.rejections", delta(w, "repro_serve_rejections_total"),
               "count", "repro_serve_rejections_total diff")
    result.put("rss.per_design_mb", cycle.rss_per_design_mb, "MB",
               "server VmRSS growth per edited-design submit")
    deltas, events, transactions = refs.sim_totals
    result.put("sim.deltas", deltas, "count",
               f"reference totals over the {POOL}-vector pool")
    result.put("sim.events", events, "count")
    result.put("sim.transactions", transactions, "count")


async def run_async(args: Any, result: Result, spans: Spans) -> None:
    pool = 16 if args.short else POOL
    cycles = 1 if args.short or args.trace else CYCLES
    inputs = ServeInputs(args.seed, cycles, pool, edits=EDITS,
                         fresh=cycles * FRESH)
    refs = Refs(inputs, args.corrupt_reference)
    live: List[Server] = []
    with Scratch("serve-wide-ws") as scratch:
        try:
            if args.trace:
                await traced_run(args, inputs, refs, result, spans, scratch,
                                 live)
                return
            deadline = now() + args.seconds
            timings, windows = [], []
            # wall of the cycles so far outside their measured slices
            overhead = 0.0
            for c in range(cycles):
                c0 = now()
                times, session = await boot_cycle(
                    inputs, refs, result, spans, scratch, c, live
                )
                timings.append(times)
                # Equal slices of what the remaining cycles' set-up
                # (estimated from the cycles so far) leaves of the window.
                per_cycle = (overhead + now() - c0) / (c + 1)
                left = deadline - now() - per_cycle * (cycles - c - 1)
                share = max(left / (cycles - c), MIN_SLICE_S)
                window = await measured_window(
                    session, share, refs.pools[c], result, f"cycle {c} slice"
                )
                windows.append(window)
                overhead += now() - c0 - window.seconds
                await session.close()
                session.server.stop()
                live.remove(session.server)
            end_to_end(result, timings, windows)
        finally:
            for server in live:
                server.stop()


async def traced_run(
    args: Any, inputs: ServeInputs, refs: Refs, result: Result, spans: Spans,
    scratch: Scratch, live: List[Server],
) -> None:
    """Per-layer run: in-process layer calls on this workload's design,
    an untraced window, then a window against a ``--trace-out`` server
    with client spans; the difference is the tracing overhead."""
    design, pool = inputs.designs[0], refs.pools[0]
    spans.enabled = True
    spans.tracks.update({0: "design", 1: "layer calls", 2: "vectors"})
    times, _ref = measure_design(
        "served", design.model, design.vectors[0], design.vectors[1:16],
        scratch.sub("inproc"), result, spans, trace="served-design",
    )
    for metric, value, note in (
        ("plan.digest_ms", times.digest_ms, "timed model_digest"),
        ("plan.lower_ms", times.lower_ms, "timed lower"),
        ("codegen.generate_ms", times.generate_ms, "timed generate_source"),
        ("codegen.build_ms", times.build_ms, "timed resolve_codegen, fresh cache"),
        ("codegen.compile_ms", times.build_ms - times.generate_ms, "build - generate"),
        ("plan.hit_ms", times.plan_hit_ms, "resolve_plan, warm disk tier"),
        ("codegen.hit_ms", times.codegen_hit_ms, "resolve_codegen, warm disk tier"),
        ("compiled.elaborate_ms", times.elaborate_ms, "elaborate(compiled-py)"),
        ("compiled.execute_ms", times.execute_ms, "first run()"),
    ):
        result.put(metric, value, "ms", f"in-process, this workload's design: {note}")
    result.put("codegen.source_bytes", times.source_bytes, "bytes",
               "generate_source output for this workload's design")
    result.put("codegen.hit_ratio", 1.0 if times.build_source == "hit" else 0.0,
               "ratio", f"1 resolution ({times.build_source})")
    result.put("execute.host_us_per_cs",
               median(times.vector_ms) * 1e3 / design.model.cs_max, "us",
               "p50 re-armed run / CS_MAX, in-process")

    spans.enabled = False
    cycle, session = await boot_cycle(inputs, refs, result, spans, scratch, 0,
                                      live)
    plain = await measured_window(session, args.seconds / 2, pool, result,
                                  "untraced window")
    await session.close()
    session.server.stop()
    live.remove(session.server)

    trace_out = scratch.path / "server-trace.json"
    server = Server(scratch.sub("cache0"), scratch.sub("flight"), trace_out)
    live.append(server)
    session = Session(server, design, spans, "t")
    await session.connect()
    session.digest = await session.submit(design.document)
    spans.enabled = True
    spans.tracks[CLIENT_TID] = "client conn"
    traced = await measured_window(session, args.seconds / 2, pool, result,
                                   "traced window")
    spans.enabled = False
    await session.close()
    server.stop()
    live.remove(server)
    with open(trace_out, encoding="utf-8") as handle:
        result.server_events = json.load(handle)["traceEvents"]
    per_layer(result, traced, cycle, refs)
    result.overhead = (
        quantile(latencies(plain), 0.5), quantile(latencies(traced), 0.5),
        "latency p50 ms",
    )


def run(args: Any, result: Result, spans: Spans) -> None:
    asyncio.run(run_async(args, result, spans))
