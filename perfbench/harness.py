"""Process, timing and environment helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from tracer import clock

#: Root of the checkout the benchmark measures.
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
#: Where runs leave traces, results and scratch files (git-ignored).
OUT_DIR = ROOT / ".bench_build" / "perfbench"

#: How the CLI runs each backend when the fold-scan workload reports:
#: the first three without ``--jobs`` (4 in-process jobs), sharded
#: with ``--jobs 2`` (a 2-process pool).
BACKEND_JOBS = {
    "batch": (4, False),
    "stream": (4, False),
    "columnar": (4, False),
    "sharded": (2, True),
}


def have_program() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def scratch_dir(tag: str) -> Path:
    """A fresh directory under :data:`OUT_DIR` (caller removes it)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_DIR))


def child_env(home: Optional[Path] = None) -> Dict[str, str]:
    """Environment of a process under test: the checkout's sources only.

    ``home`` gives the child a fresh HOME, TMPDIR and cache directory,
    so nothing a previous run left behind can make a "cold" run warm.
    A fixed hash seed makes every run of the same inputs lay out its
    dicts and sets the same way: with a random one the wall time of the
    same cold report varied twice as much (9% against 5% coefficient
    of variation over 8 runs on a 2-vCPU VM).
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    if home is not None:
        env["HOME"] = env["TMPDIR"] = str(home)
        env["XDG_CACHE_HOME"] = str(home / ".cache")
    return env


class Child:
    """A process under test, reaped with ``wait4`` for its own peak RSS."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str],
                 cwd: Optional[Path] = None,
                 cpu: Optional[int] = None) -> None:
        self.argv = list(argv)
        self._stderr = tempfile.TemporaryFile(dir=OUT_DIR)
        pin = None
        if cpu is not None:
            def pin() -> None:
                os.sched_setaffinity(0, {cpu})
        self.started_ns = clock()
        self.proc = subprocess.Popen(
            self.argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            preexec_fn=pin,
        )
        self.ended_ns: Optional[int] = None
        self.returncode: Optional[int] = None
        self.maxrss_mb = 0.0
        #: User plus system CPU seconds of the process (once reaped).
        self.cpu_s = 0.0

    def readline(self) -> str:
        return self.proc.stdout.readline()

    def finish(self, timeout: float) -> str:
        """Read the rest of stdout, reap the process, return the output."""
        timer = threading.Timer(timeout, self.kill)
        timer.start()
        try:
            out = self.proc.stdout.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.ended_ns = clock()
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.proc.stdout.close()
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        return out

    def stderr_tail(self, lines: int = 15) -> str:
        """The last lines the process wrote to stderr (once reaped)."""
        self._stderr.seek(0)
        text = self._stderr.read().decode(errors="replace")
        self._stderr.close()
        return "\n".join(text.splitlines()[-lines:])

    def interrupt(self, timeout: float = 60.0) -> str:
        """Stop a long-running command the way Ctrl-C does."""
        if self.returncode is not None:
            return ""
        self._signal(signal.SIGINT)
        return self.finish(timeout)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)

    def _signal(self, signum: int) -> None:
        # os.kill, not Popen.send_signal: that one polls, and a poll
        # that reaps the process leaves finish() nothing to wait4 for.
        if self.returncode is None:
            try:
                os.kill(self.proc.pid, signum)
            except ProcessLookupError:
                pass

    @property
    def wall_s(self) -> float:
        return (self.ended_ns - self.started_ns) / 1e9


def run_child(argv: Sequence[str], env: Dict[str, str],
              cwd: Optional[Path] = None, timeout: float = 150.0,
              cpu: Optional[int] = None):
    """Run a process to its end; ``cpu`` pins it to that CPU."""
    child = Child(argv, env, cwd, cpu)
    try:
        out = child.finish(timeout)
    except BaseException:
        # Interrupted while waiting: do not leave the process behind.
        if child.returncode is None:
            child.kill()
            child.finish(30.0)
        raise
    return child, out


def python_argv(*args: str) -> List[str]:
    return [sys.executable, *args]


_IMPORT_PROBE = (
    "import json, sys, time\n"
    "t = time.perf_counter()\n"
    "import repro.cli\n"
    "t = time.perf_counter() - t\n"
    "print(json.dumps({'s': t, 'modules': len(sys.modules),"
    " 'scipy': int('scipy' in sys.modules)}))\n"
)


def import_probe(cpu: Optional[int] = None) -> dict:
    """``import repro.cli`` in a fresh interpreter.

    Returns the in-process import wall (``s``), the module count and
    whether scipy got loaded, plus the whole process wall (``wall_s``)
    and CPU time (``cpu_s``): the start-up every CLI command pays before
    it does any work.
    """
    home = scratch_dir("import")
    try:
        child, out = run_child(python_argv("-c", _IMPORT_PROBE),
                               child_env(home), cwd=home, cpu=cpu)
    finally:
        shutil.rmtree(home, ignore_errors=True)
    if child.returncode != 0:
        raise RuntimeError("import probe failed:\n" + child.stderr_tail())
    probe = json.loads(out.strip().splitlines()[-1])
    probe["wall_s"] = child.wall_s
    probe["cpu_s"] = child.cpu_s
    probe["window"] = (child.started_ns, child.ended_ns)
    return probe


# -- statistics -----------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values``; 0 with no samples.

    Unlike the median it moves smoothly when the values fall into a few
    modes whose shares hover around one half.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def percentile(values: Sequence[float], pct: int) -> float:
    """``pct``-th percentile (inclusive method); 0 with no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- environment stamp ----------------------------------------------------


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the program's sources: names the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def env_stamp(workload: str, seed: int, **extra) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "max_rss_unit": "MB (ru_maxrss of the process under test)",
        **extra,
    }

