"""The repo's benchmark: what users of ``repro`` wait for.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-report|fold-scan|serve-mixed \
        [--seed 1] [--seconds 20] [--trace 0|1]

``--trace 0`` measures the workload and prints every end-to-end metric
of ``BENCHMARK.json``; ``--trace 1`` spends half the window untraced
and half traced, prints every per-layer metric, a per-layer self-time
table and the tracing overhead, and writes the spans as a Chrome
trace-event file under ``.bench_build/perfbench/``.  Either way every
output of the program is checked against an in-process reference, and
the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 1 when any output check failed, 2 when the checkout
holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback

from harness import OUT_DIR, ROOT, env_stamp, have_program
from workloads import WORKLOADS

#: End-to-end metrics, printed by every ``--trace 0`` run.
END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="End-to-end and per-layer benchmark of repro.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed, passed to the program as "
                             "--seed (default: the paper-facing seed 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=32.0,
                        help="intra corpus scale of cold-report and "
                             "fold-scan (32 = 71,680 SEVs)")
    parser.add_argument("--serve-scale", type=float, default=4.0,
                        help="intra corpus scale of the served corpus")
    return parser


def _print_table(title: str, rows) -> None:
    print(f"\n{title}")
    for row in rows:
        print("  " + row)


def _traced(args, outcome, stamp) -> dict:
    """Per-layer metrics of a traced run; writes the Chrome trace."""
    from layers import PER_LAYER, Trace, chrome_trace, layer_metrics, \
        self_time_table

    trace = Trace.load(outcome.span_files)
    metrics = layer_metrics(trace, outcome.imports, outcome.read_ms,
                            outcome.job_s)
    covered = outcome.covered_s(trace)
    metrics["trace.unattributed_s"] = outcome.traced_wall_s - covered
    metrics["trace.overhead_ms"] = (outcome.traced_op_ms
                                    - outcome.untraced_op_ms)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as handle:
        json.dump(chrome_trace(trace, outcome.events,
                               {0: "perfbench client",
                                **outcome.process_names}, stamp), handle)
    for span_file in outcome.span_files:
        span_file.unlink(missing_ok=True)

    _print_table("per-layer metrics (traced half of the window):", [
        f"{name:<34} {metrics[name]:>14.6g} {unit:<9} -> {moves}"
        for name, (unit, _, moves) in PER_LAYER.items()
    ])
    _print_table("self time by layer (traced half):",
                 self_time_table(trace, outcome.traced_ops,
                                 outcome.traced_wall_s,
                                 metrics["trace.unattributed_s"]
                                 ).splitlines())
    print(f"\ntracing overhead: op_ms {outcome.untraced_op_ms:.3f} "
          f"untraced -> {outcome.traced_op_ms:.3f} traced "
          f"({metrics['trace.overhead_ms']:+.3f} ms)")
    print(f"chrome trace: {path}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, (unit, _, _) in PER_LAYER.items()}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not have_program():
        print("perfbench: no program here (src/repro is missing); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # A shell that starts this in the background ignores SIGINT, and
    # children inherit an ignored signal: served processes are stopped
    # with SIGINT, so give it back its default disposition first.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # Stopped from outside, still stop and reap every process started.
    signal.signal(signal.SIGTERM, _terminate)
    # The references are computed in this process, from the same sources.
    sys.path.insert(0, str(ROOT / "src"))
    try:
        outcome = WORKLOADS[args.workload](
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            scale=args.scale, serve_scale=args.serve_scale,
        )
    except Exception:
        traceback.print_exc()
        print(f"perfbench: the {args.workload} workload could not run",
              file=sys.stderr)
        return 1
    outcome.e2e["ok_ratio"] = (
        1.0 - outcome.failed / outcome.attempted if outcome.attempted else 0.0
    )
    stamp = env_stamp(args.workload, args.seed, seconds=args.seconds,
                      trace=args.trace, **outcome.stamp)
    correct = outcome.failed == 0 and outcome.attempted > 0

    print(f"== {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace} ==")
    print("env " + json.dumps(stamp, sort_keys=True))
    label = "untraced half" if args.trace else "measured window"
    _print_table(f"end-to-end metrics ({label}):", [
        f"{name:<14} {outcome.e2e[name]:>14.6g} {unit}"
        for name, unit in END_TO_END.items()
    ])
    _print_table(f"{args.workload} figures:", [
        f"{name:<14} {value:>14.6g} {unit:<5} {note}"
        for name, value, unit, note in outcome.detail
    ] + [f"{'failed_ratio':<14} "
         f"{outcome.failed / max(outcome.attempted, 1):>14.6g} ratio "
         f"{outcome.failed} of {outcome.attempted} operations"])
    for error in outcome.errors[:10]:
        print(f"CHECK FAILED: {error}")

    if args.trace:
        metrics = _traced(args, outcome, stamp)
    else:
        metrics = {name: {"value": outcome.e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w") as handle:
        json.dump({"env": stamp, "detail": outcome.detail,
                   "errors": outcome.errors, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
