"""Shared plumbing: paths, statistics, /proc readers, spans, output.

Every number this benchmark reports is host time (or host memory, or an
exact count); simulated time is fixed by the paper -- a run of CS_MAX
control steps is CS_MAX*6 delta cycles -- and is only ever *checked*.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for cache roots, server artifacts and trace files;
#: always inside the checkout.
WORK = ROOT / ".perfbench"


def require_program() -> None:
    """Exit non-zero (without a result line) when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: program sources not found under {SRC}; run from "
            "the root of a repro checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Nothing here may fall back to the default cache under $HOME.
    os.environ["REPRO_PLAN_CACHE"] = str(WORK / "default-cache")


def program_env() -> Dict[str, str]:
    """Environment for subprocesses running the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Scratch:
    """A fresh directory under WORK, removed on close."""

    _seq = 0

    def __init__(self, tag: str) -> None:
        Scratch._seq += 1
        self.path = WORK / f"{tag}-{os.getpid()}-{Scratch._seq}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)

    def sub(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def tail_label(count: int) -> str:
    """The highest of p99/p95/p90/p50 with at least ten samples beyond it."""
    for pct in (99, 95, 90):
        if count * (100 - pct) / 100 >= 10:
            return f"p{pct}"
    return "p50"


# ----------------------------------------------------------------------
# /proc readers (Linux)
# ----------------------------------------------------------------------
def proc_status_kb(pid: Any, field: str) -> float:
    """A ``VmHWM``/``VmRSS``-style field of /proc/<pid>/status, in kB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise KeyError(field)


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """utime + stime of a process, in seconds, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


# ----------------------------------------------------------------------
# spans (recorded in the benchmark's own files, around calls into the
# program; nothing inside src/ is instrumented)
# ----------------------------------------------------------------------
class Spans:
    """In-memory Chrome-trace spans; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool, pid: int = 1, label: str = "perfbench"):
        self.enabled = enabled
        self.pid = pid
        self.label = label
        self.events: List[Dict[str, Any]] = []
        self.tracks: Dict[int, str] = {}

    def add(
        self,
        name: str,
        start: float,
        end: float,
        tid: int = 0,
        trace: Optional[str] = None,
        **args: Any,
    ) -> None:
        if not self.enabled:
            return
        if trace is not None:
            args["trace"] = trace
        event: Dict[str, Any] = {
            "name": name,
            "cat": "perfbench",
            "ph": "X",
            "ts": start * 1e6,
            "dur": max(end - start, 0.0) * 1e6,
            "pid": self.pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def chrome_events(self) -> List[Dict[str, Any]]:
        meta: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": self.pid, "tid": 0,
            "args": {"name": self.label},
        }]
        for tid, label in sorted(self.tracks.items()):
            meta.append({
                "name": "thread_name", "ph": "M", "pid": self.pid,
                "tid": tid, "args": {"name": label},
            })
        return meta + self.events


def write_chrome_trace(
    path: Path, spans: Spans, server_events: Sequence[Dict[str, Any]] = ()
) -> int:
    """Write benchmark spans plus (optionally) the server's exported
    spans as one Chrome trace; returns how many trace ids appear on
    both sides.

    Server spans keep their own pid (0).  Their timestamps are on the
    server tracer's clock, so they are shifted onto the benchmark's
    clock by the smallest offset that starts every server span of a
    trace id no earlier than the client span carrying that id.
    """
    client_start: Dict[str, float] = {}
    for event in spans.events:
        trace = event.get("args", {}).get("trace")
        if trace is not None and trace not in client_start:
            client_start[trace] = event["ts"]
    server_start: Dict[str, float] = {}
    for event in server_events:
        trace = (event.get("args") or {}).get("trace")
        if event.get("ph") == "X" and trace is not None:
            server_start[trace] = min(
                server_start.get(trace, event["ts"]), event["ts"]
            )
    joined = set(client_start) & set(server_start)
    offset = max(
        (client_start[t] - server_start[t] for t in joined), default=0.0
    )
    merged = spans.chrome_events()
    for event in server_events:
        event = dict(event)
        if "ts" in event:
            event["ts"] = event["ts"] + offset
        merged.append(event)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": merged, "displayTimeUnit": "ms"}, handle)
        handle.write("\n")
    return len(joined)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
class Result:
    """Metrics of one workload run plus the correctness tally."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.notes: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        #: traced run only: (untraced, traced, what) of the workload's
        #: primary latency, reported as the tracing overhead
        self.overhead: Optional[tuple] = None
        #: traced serve run only: the server's exported span events
        self.server_events: List[Dict[str, Any]] = []
        #: ``host_loop_ms`` before and after the run
        self.host_ms: tuple = ()

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        if note:
            self.notes[name] = note

    def check(self, ok: bool, what: str) -> None:
        """Count one checked result; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 10:
                self.mismatches.append(what[:300])


def print_table(result: Result) -> None:
    """Every metric by name, value and unit, with how it was taken."""
    print(f"== {result.workload}")
    for name, metric in result.metrics.items():
        value = metric["value"]
        shown = f"{value:.6g}" if value != int(value) else f"{int(value)}"
        note = result.notes.get(name, "")
        print(f"  {name:<28} {shown:>14} {metric['unit']:<8} {note}".rstrip())
    print(f"  checked {result.attempted} results, {result.failed} wrong or "
          "failed")
    if result.host_ms:
        print("  host check (fixed CPU loop, lower = faster): "
              + " -> ".join(f"{ms:.1f} ms" for ms in result.host_ms))
    for what in result.mismatches:
        print(f"  MISMATCH {what}")


def now() -> float:
    return time.perf_counter()


def host_loop_ms() -> float:
    """Wall time of a fixed pure-Python loop.  The host's CPUs are
    shared and their speed drifts; this reading, taken before and after
    a run and printed beside its metrics, shows when a run was slow
    because the host was."""
    t0 = now()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return (now() - t0) * 1e3
