"""Layer-budget benchmark for the repro simulator and its service.

    python3 perfbench/run.py --workload cold-designs --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 -m pytest perfbench -q          # the benchmark's own tests

Workloads (see BENCHMARK.json for why each exists):

* ``cold-designs``  new/edited designs to first result, in-process;
* ``serve-wide-ws`` ~60-op HLS designs over one WebSocket, waves of 64
                    requests, one in four a verify.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced pass (half the window each), prints the per-layer
metrics and the tracing overhead, and writes a Chrome trace under
``.perfbench/``.  ``--workload all`` does both for every workload.

Every result is checked against an in-process ``compiled`` reference;
any mismatch makes the exit status non-zero.  The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    WORK,
    Result,
    Spans,
    host_loop_ms,
    print_table,
    require_program,
    write_chrome_trace,
)

WORKLOADS = ("cold-designs", "serve-wide-ws")


def load_spec() -> dict:
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, args: argparse.Namespace, spec: dict) -> Result:
    result = Result(f"{name} (traced run)" if args.trace else name)
    spans = Spans(enabled=False)
    host_before = host_loop_ms()
    if name == "cold-designs":
        import cold

        cold.run(args, result, spans)
    else:
        import serveload

        serveload.run(args, result, spans)
    result.host_ms = (host_before, host_loop_ms())
    result.put(
        "error_rate", result.failed / max(result.attempted, 1), "ratio",
        f"{result.failed} wrong or failed / {result.attempted} checked",
    )
    if args.trace:
        base, traced, what = result.overhead
        result.put(
            "tracing.overhead_pct", (traced - base) / base * 100.0, "%",
            f"{what}: untraced {base:.4g}, traced {traced:.4g}",
        )
        for metric in spec["per_layer"]:
            if metric["name"] not in result.metrics:
                result.put(metric["name"], 0.0, metric["unit"],
                           "layer not on this workload's path")
        trace_path = WORK / f"trace-{name}-seed{args.seed}.json"
        joined = write_chrome_trace(trace_path, spans, result.server_events)
        print(f"-- chrome trace: {trace_path} ({joined} trace ids joined "
              "with server spans)")
    return result


def select(result: Result, names: list) -> dict:
    missing = [n for n in names if n not in result.metrics]
    if missing:
        raise RuntimeError(f"{result.workload}: no value for {missing}")
    return {n: result.metrics[n] for n in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="smallest inputs and repeats (self-tests)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="gate self-test: falsify one reference result")
    args = parser.parse_args(argv)
    require_program()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    WORK.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        # Every workload untraced (end-to-end) and traced (per-layer).
        runs = [(w, trace) for w in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    metrics = {}
    attempted = failed = 0
    results = []
    for workload, trace in runs:
        result = run_workload(
            workload, argparse.Namespace(**dict(vars(args), trace=trace)), spec
        )
        results.append(result)
        attempted += result.attempted
        failed += result.failed
        names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        prefix = f"{workload}/" if args.workload == "all" else ""
        metrics.update(
            (prefix + n, v) for n, v in select(result, names).items()
        )
    for result in results:
        print_table(result)
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
