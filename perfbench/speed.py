"""How fast the host runs the program's kind of work right now.

On a shared host a vCPU alternates between its full speed and states
up to ~1.7x slower (its hardware sibling, caches and memory bandwidth
busy with other tenants), and the share of slow time drifts over tens
of seconds.  Medians of raw wall times of the same CPU-bound operation
then move by ±30% between runs of the same code.

A probe is a fixed mix of the program's kinds of work -- interpreter
loops over dicts, tuple allocation, SQLite inserts and a GROUP BY --
written in the benchmark's own code, so a change to the program moves
it only through the caches it shares with an operation beside it.
:class:`SpeedSeries` times a probe before an operation and
another after it; the reference duration over their mean is the
operation's speed factor, and the operation's duration times that
factor is its duration at the reference speed.  Raw durations are
reported beside the corrected ones.

A :class:`SpeedTracker` does better for operations in a process that
can be pinned to one CPU: a prober process pinned to the same CPU
runs a small probe every :data:`TRACK_EVERY_S` seconds while they run,
so both see the same slow and fast states.  The slow states belong to
one vCPU: probes on the other vCPU did not follow them.  Over 9
cold reports on a 2-vCPU VM the reports' CPU time and the mean probe
beside each correlated at 0.99, and the corrected times varied by 1.4%
where the raw CPU times varied by 7.9% (coefficients of variation).
"""

from __future__ import annotations

import os
import sqlite3
import statistics
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from harness import OUT_DIR, Child, child_env, clock, python_argv

#: Rows the probe inserts and groups.
PROBE_ROWS = 20_000
#: Duration of one probe at the reference speed: a 2.1 GHz vCPU with
#: its sibling idle.
REFERENCE_S = 0.1
#: Rows of the small probe a :class:`SpeedTracker` runs.
TRACK_ROWS = 2_000
#: Its duration at the reference speed beside an operation on the same
#: CPU.  On a 2.1 GHz 2-vCPU VM it took 0.0105 s in a loop, 0.0125 s
#: alone with the tracker's pauses, and 0.013-0.017 s beside a cold
#: report, whose caches it shares; at this value corrected times stay
#: close to the raw ones there.
TRACK_REFERENCE_S = 0.015
#: Pause of a tracker between its probes: it takes about an eighth of
#: the CPU it shares with the operation.
TRACK_EVERY_S = 0.1


def probe_once(clock=time.perf_counter, rows: int = PROBE_ROWS) -> float:
    """Seconds of ``clock`` for one run of the fixed probe.

    Wall time between operations, where it also sees the time the host
    takes the CPU away; CPU time (:func:`time.thread_time`) beside a
    load, where wall time would read the load's share of a CPU as
    slowness.
    """
    start = clock()
    table: dict = {}
    for i in range(rows * 10):
        key = i & 4095
        table[key] = table.get(key, 0) + i
    values = [(i, i * 0.5, f"dev-{i % 977:04d}", i % 7)
              for i in range(rows)]
    con = sqlite3.connect(":memory:")
    try:
        con.execute("CREATE TABLE t (a INTEGER, b REAL, c TEXT, d INTEGER)")
        con.execute("CREATE INDEX t_cd ON t (c, d)")
        con.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", values)
        con.execute("SELECT c, d, COUNT(*), SUM(b) FROM t "
                    "GROUP BY c, d").fetchall()
    finally:
        con.close()
    return clock() - start


class SpeedSeries:
    """Operations timed between probes, each with its own speed factor.

    Call :meth:`start` before the first operation and :meth:`record`
    right after each one: the probe :meth:`record` takes closes this
    operation and opens the next.
    """

    def __init__(self) -> None:
        self._open: Optional[float] = None
        #: (raw seconds or None for a failed operation, speed factor)
        self.samples: List[Tuple[Optional[float], float]] = []

    def start(self) -> None:
        self._open = probe_once()

    def record(self, raw: Optional[float]) -> None:
        if self._open is None:
            self.start()
        closing = probe_once()
        factor = REFERENCE_S / ((self._open + closing) / 2)
        self.samples.append((raw, factor))
        self._open = closing

    def corrected(self) -> List[float]:
        """Durations at the reference speed, failed operations left out."""
        return [raw * factor for raw, factor in self.samples
                if raw is not None]

    @property
    def factor(self) -> float:
        """Mean speed factor over the series (1.0 when empty)."""
        if not self.samples:
            return 1.0
        return statistics.fmean(factor for _, factor in self.samples)


class SpeedTracker:
    """Probes the CPU that operations are pinned to while they run.

    Start operations with ``cpu=tracker.cpu``, keep each one's clock
    window, then :meth:`stop` the tracker and ask :meth:`corrected` for
    their durations at the reference speed.  Each operation takes the
    mean of the probes that started inside its window as its speed.
    """

    def __init__(self) -> None:
        #: The CPU the tracker probes.
        self.cpu = max(os.sched_getaffinity(0))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._path = OUT_DIR / f"speed-{os.getpid()}.txt"
        self._path.unlink(missing_ok=True)
        self._probes: List[Tuple[int, float]] = []
        self._prober = Child(
            python_argv(str(Path(__file__).resolve()), "track",
                        str(self.cpu), str(TRACK_EVERY_S),
                        str(self._path)),
            child_env(),
        )

    def stop(self) -> None:
        """End the prober and read its probes (once)."""
        if self._prober.returncode is not None:
            return
        self._prober.kill()
        self._prober.finish(30.0)
        if self._path.exists():
            with open(self._path) as handle:
                for line in handle:
                    fields = line.split()
                    # The kill may cut the last line short.
                    if line.endswith("\n") and len(fields) == 2:
                        self._probes.append((int(fields[0]),
                                             float(fields[1])))
            self._path.unlink()

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Speed factor of the operation in ``[start_ns, end_ns]``."""
        if not self._probes:
            raise RuntimeError("the speed tracker recorded no probe")
        inside = [took for at, took in self._probes
                  if start_ns <= at <= end_ns]
        if not inside:
            nearest = min(self._probes,
                          key=lambda probe: abs(probe[0] - start_ns))
            inside = [nearest[1]]
        return TRACK_REFERENCE_S / statistics.fmean(inside)

    def corrected(self, ops: Sequence[Tuple[int, int, float]]
                  ) -> List[float]:
        """Durations at the reference speed of ``(start_ns, end_ns,
        seconds)`` operations."""
        return [seconds * self.factor(start, end)
                for start, end, seconds in ops]


def track(cpu: int, every: float, path: str) -> None:
    """Append ``start_ns probe_seconds`` lines to ``path`` until killed.

    Probes run on ``cpu`` only and are timed in CPU time, so the time
    the operation beside them holds the CPU does not count.  Ends by
    itself if the benchmark that started it is gone.
    """
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    with open(path, "w") as out:
        while os.getppid() == parent:
            start = clock()
            took = probe_once(time.thread_time, TRACK_ROWS)
            out.write(f"{start} {took}\n")
            out.flush()
            time.sleep(every)


if __name__ == "__main__":
    # python speed.py track CPU EVERY PATH
    track(int(sys.argv[2]), float(sys.argv[3]), sys.argv[4])
