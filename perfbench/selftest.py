"""Smoke test of the benchmark at a tiny size.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload measured (``--trace 0``) and traced (``--trace 1``)
on seed 1, and measured again on seed 2, with a 2-second window and
tiny corpora.  Checks that each run prints, as its last line, a result
with every metric ``BENCHMARK.json`` names and its unit, that every
output check passed, that the traced runs wrote a Chrome trace, and
that the benchmark refuses to run where there is no program.  Exits 1
on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from harness import OUT_DIR, ROOT

TINY = ["--seconds", "2", "--scale", "0.25", "--serve-scale", "0.25"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


def _check(condition: bool, message: str, output: str = "") -> None:
    if not condition:
        print(f"FAIL: {message}")
        if output:
            print(output[-3000:])
        sys.exit(1)


def check_run(workload: str, seed: int, trace: int, spec: dict) -> None:
    done = _run(ROOT, "--workload", workload, "--seed", str(seed),
                "--trace", str(trace), *TINY)
    where = f"{workload} seed {seed} trace {trace}"
    output = done.stdout + done.stderr
    _check(done.returncode == 0, f"{where}: exit {done.returncode}", output)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    _check(set(result) == RESULT_KEYS, f"{where}: result keys {set(result)}")
    _check(result["correct"] is True and result["failed"] == 0,
           f"{where}: output checks failed", output)
    _check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{where}: attempted {result['attempted']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {entry["name"]: entry["unit"] for entry in wanted}
    metrics = result["metrics"]
    _check(set(metrics) == set(names),
           f"{where}: metrics differ from BENCHMARK.json: "
           f"{sorted(set(metrics) ^ set(names))}")
    for name, unit in names.items():
        value = metrics[name]
        _check(value["unit"] == unit and isinstance(
            value["value"], (int, float)),
            f"{where}: {name} printed as {value}")
        _check(f"{name}" in done.stdout, f"{where}: {name} not in the table")
        if not trace:
            _check(value["value"] > 0, f"{where}: {name} reads 0")
    if trace:
        path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        with open(path) as handle:
            events = json.load(handle)["traceEvents"]
        _check(any(e["ph"] == "X" and e.get("cat", "").startswith("repro")
                   for e in events), f"{where}: trace has no spans")
        if workload == "serve-mixed":
            _check(metrics["serve.handle_ms"]["value"] > 0
                   and metrics["serve.transport_ms"]["value"] != 0,
                   f"{where}: serve spans missing")
    print(f"ok: {where} ({result['attempted']} operations)")


def check_refuses_without_program() -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, "--workload", "fold-scan", "--seed", "1",
                    "--trace", "0", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    _check(done.returncode != 0 and not last.startswith("{"),
           "runs (or prints a result) where there is no program",
           done.stdout + done.stderr)
    print("ok: refuses to run without a program")


def main() -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    check_refuses_without_program()
    workloads = [entry["name"] for entry in spec["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            check_run(workload, 1, trace, spec)
    for workload in workloads:
        check_run(workload, 2, 0, spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
