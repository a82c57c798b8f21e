"""The fold-scan workload's process under test.

Usage (started by ``run.py``)::

    python perfbench/fold_scan.py --seed S --scale 32 --seconds 20 \
        --setups 3 [--spans OUT.json]

Set-up generates and ingests the seed-S corpus into an in-memory
store, ``--setups`` times.  Then, for ``--seconds``, it sweeps full
intra reports with no result cache over every backend the way the CLI
runs them, checking each report's digest against the per-row
``stream`` reference.  With ``--spans`` the first half of the time is
measured untraced and the second half traced (the tracer installed,
one more traced set-up, spans dumped to OUT.json).

Prints one JSON line: set-up times and, per phase (untraced, traced),
the sweeps, every time with its clock window, so that ``run.py`` can
put it at the reference speed of the probes a tracker pinned to this
process's CPU took meanwhile (see ``speed.py``).  The sharded
backend's worker processes are let onto every CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from harness import BACKEND_JOBS, clock

BACKENDS = tuple(BACKEND_JOBS)


def _setup(seed: int, scale: float):
    """Generate and ingest the corpus; returns (context, store, seconds)."""
    import repro.simulation.generator as generator
    import repro.simulation.scenarios as scenarios
    from repro.runtime import RunContext

    start = time.perf_counter()
    scenario = scenarios.paper_scenario(seed=seed, scale=scale)
    store = generator.IntraSimulator(scenario).run()
    elapsed = time.perf_counter() - start
    context = RunContext(store=store, fleet=scenario.fleet,
                         corpus_seed=scenario.seed)
    return context, store, elapsed


def _report(context, backend: str):
    import repro.runtime as runtime

    jobs, processes = BACKEND_JOBS[backend]
    return runtime.run_intra_report(context, backend=backend, jobs=jobs,
                                    use_processes=processes)


def _sweeps(context, reference: str, seconds: float, phase: dict,
            checks: dict) -> None:
    """Sweep every backend until ``seconds`` have passed.

    Appends one ``{backend: [seconds, start ns, end ns]}`` dict per
    sweep to ``phase["sweeps"]`` and each report's clock window to
    ``phase["windows"]``.
    """
    import repro.faultline.oracle as oracle

    deadline = time.perf_counter() + seconds
    while True:
        sweep = {}
        for backend in BACKENDS:
            window = [clock()]
            start = time.perf_counter()
            report = _report(context, backend)
            raw = time.perf_counter() - start
            window.append(clock())
            phase["windows"].append(window)
            sweep[backend] = [raw, *window]
            checks["attempted"] += 1
            if oracle.report_digest(report) != reference:
                checks["failed"] += 1
                checks["mismatches"].append(backend)
        phase["sweeps"].append(sweep)
        if time.perf_counter() >= deadline:
            return


def _unpin_children() -> None:
    """Let this process's children run on every CPU its parent may use.

    This process runs pinned to the speed tracker's CPU; the sharded
    backend's pool workers, forked from it, inherit that pin, and would
    otherwise share one CPU.
    """
    cpus = os.sched_getaffinity(os.getppid())
    me = str(os.getpid())
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # pid (comm) state ppid ...: comm may hold spaces.
        if stat[stat.rindex(")") + 2:].split()[1] == me:
            os.sched_setaffinity(int(entry), cpus)


def _phase() -> dict:
    return {"sweeps": [], "windows": []}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setups", type=int, default=3)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import repro.faultline.oracle as oracle

    checks = {"attempted": 0, "failed": 0, "mismatches": []}
    untraced, traced = _phase(), _phase()
    #: [[seconds, start ns, end ns], ...]
    setups = []
    outcome = {"untraced": untraced, "traced": traced, "checks": checks}
    context = store = None
    for _ in range(args.setups):
        if store is not None:
            store.close()
        start = clock()
        context, store, elapsed = _setup(args.seed, args.scale)
        setups.append([elapsed, start, clock()])
    outcome["setups"] = setups
    outcome["rows"] = len(store)
    reference = oracle.report_digest(_report(context, "stream"))
    outcome["reference"] = reference
    # One untimed sharded report starts the worker pool, which every
    # later report in this process reuses.
    checks["attempted"] += 1
    if oracle.report_digest(_report(context, "sharded")) != reference:
        checks["failed"] += 1
        checks["mismatches"].append("sharded")
    _unpin_children()

    if args.spans is None:
        _sweeps(context, reference, args.seconds, untraced, checks)
    else:
        _sweeps(context, reference, args.seconds / 2, untraced, checks)
        from tracer import Tracer, install

        tracer = install(Tracer())
        store.close()
        context, store, elapsed = _setup(args.seed, args.scale)
        outcome["traced_setup_s"] = elapsed
        _sweeps(context, reference, args.seconds / 2, traced, checks)
        tracer.enabled = False
        tracer.dump(args.spans)
    store.close()
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
