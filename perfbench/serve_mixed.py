"""serve-mixed: keep-alive reads beside back-to-back grid jobs.

``python -m repro serve`` runs in its own process.  One client process
drives it over two persistent HTTP/1.1 connections, both closed loops:

* the **reader** GETs every read endpoint the server lists in ``GET /``,
  in a seeded shuffled order, reshuffled after each pass;
* the **writer** POSTs a 4-cell grid job (seed ``S+i`` for its i-th job,
  so no two are alike), polls ``GET /jobs/<id>`` every
  :data:`POLL_S` seconds until it ends, fetches the artifact, and
  submits the next.

Every report read is checked against the in-process digest of the same
seed and scale; every job's ``summary_digest`` against an in-process
:class:`~repro.scenarios.GridRunner` run of the same parameters.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import BENCH_DIR, Child, child_env, clock, python_argv, scratch_dir
from reference import GRID_AXES, GRID_SCALE

POLL_S = 0.05
#: A job still running this long after the window closes is a failure.
JOB_GRACE_S = 60.0


class Server:
    """One ``repro serve`` process on a free port."""

    def __init__(self, seed: int, scale: float,
                 spans: Optional[Path] = None) -> None:
        self.data_dir = scratch_dir("serve")
        cli = ["serve", "--seed", str(seed), "--scale", str(scale),
               "--port", "0", "--data-dir", str(self.data_dir)]
        if spans is None:
            argv = python_argv("-m", "repro", *cli)
        else:
            argv = python_argv(str(BENCH_DIR / "launch.py"),
                               "--spans", str(spans), "--", *cli)
        self.child = Child(argv, child_env(self.data_dir), cwd=self.data_dir)
        try:
            self.host, self.port = self._await_banner()
            self.setup_s = self._await_healthy()
        except BaseException:
            self.stop()
            raise

    def _await_banner(self) -> Tuple[str, int]:
        timer = threading.Timer(150.0, self.child.kill)
        timer.start()
        try:
            while True:
                line = self.child.readline()
                if not line:
                    raise RuntimeError("server exited before serving:\n"
                                       + self.child.stderr_tail())
                if line.startswith("serving on http://"):
                    address = line.split()[2][len("http://"):]
                    host, port = address.rsplit(":", 1)
                    return host, int(port)
        finally:
            timer.cancel()

    def _await_healthy(self) -> float:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            try:
                conn = self.connect()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                conn.close()
                if response.status == 200:
                    return (clock() - self.child.started_ns) / 1e9
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server never answered /healthz with 200")

    def pin(self, cpu: int) -> None:
        """Pin every thread of the server to ``cpu``.

        Threads and processes it starts later inherit the pin.
        """
        tasks = Path(f"/proc/{self.child.proc.pid}/task")
        for tid in os.listdir(tasks):
            os.sched_setaffinity(int(tid), {cpu})

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def stop(self) -> None:
        self.child.interrupt(timeout=60.0)
        shutil.rmtree(self.data_dir, ignore_errors=True)

    @property
    def maxrss_mb(self) -> float:
        return self.child.maxrss_mb


def _request(conn, method: str, path: str, body: Optional[dict] = None):
    """One request on a kept-alive connection; (status, bytes)."""
    payload = None if body is None else json.dumps(body).encode()
    headers = {} if payload is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def read_paths(server: Server) -> List[str]:
    """Every plain GET endpoint the server's index lists."""
    conn = server.connect()
    try:
        status, body = _request(conn, "GET", "/")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET / answered {status}")
    paths = []
    for entry in json.loads(body)["endpoints"]:
        method, path = entry.split(" ", 1)
        if method == "GET" and "<" not in path and path not in ("/", "/jobs"):
            paths.append(path)
    return paths


class Load:
    """The two closed-loop clients of one measured window."""

    def __init__(self, server: Server, seed: int, paths: List[str],
                 references: Dict[str, str], first_job: int) -> None:
        self.server = server
        self.seed = seed
        self.paths = paths
        self.references = references
        self.next_job = first_job
        self.reads = 0
        self.read_ms: List[float] = []
        self.job_s: List[float] = []
        #: (start ns, end ns) of each completed job
        self.job_windows: List[Tuple[int, int]] = []
        #: (job seed, summary_digest the server published)
        self.jobs: List[Tuple[int, Optional[str]]] = []
        self.read_failures: List[str] = []
        self.job_failures: List[str] = []
        self.events: List[dict] = []
        self._stop = threading.Event()

    def run(self, seconds: float) -> None:
        """Drive both clients for ``seconds``."""
        threads = [threading.Thread(target=self._reader, name="reader"),
                   threading.Thread(target=self._writer, name="writer")]
        for thread in threads:
            thread.start()
        time.sleep(seconds)
        self._stop.set()
        for thread in threads:
            thread.join(JOB_GRACE_S + 30.0)
            if thread.is_alive():
                raise RuntimeError(f"the {thread.name} did not finish")

    # -- reader --------------------------------------------------------

    def _check_read(self, path: str, status: int, body: bytes) -> None:
        if status != 200:
            raise ValueError(f"GET {path} answered {status}")
        head = path.strip("/").split("/")
        if head[0] not in ("reports", "figures", "tables"):
            return
        payload = json.loads(body)
        study = head[1] if head[0] == "reports" else payload["study"]
        if payload["report_digest"] != self.references[study]:
            raise ValueError(f"GET {path}: report_digest differs from the "
                             f"in-process {study} digest")

    def _reader(self) -> None:
        order = random.Random(self.seed)
        conn = self.server.connect()
        try:
            while not self._stop.is_set():
                paths = list(self.paths)
                order.shuffle(paths)
                for path in paths:
                    if self._stop.is_set():
                        break
                    self.reads += 1
                    start = clock()
                    try:
                        status, body = _request(conn, "GET", path)
                    except (OSError, http.client.HTTPException) as exc:
                        self.read_failures.append(f"GET {path}: {exc!r}")
                        conn.close()
                        conn = self.server.connect()
                        continue
                    end = clock()
                    self.read_ms.append((end - start) / 1e6)
                    self.events.append(_event("GET " + path, start, end, 1))
                    try:
                        self._check_read(path, status, body)
                    except (ValueError, KeyError) as exc:
                        self.read_failures.append(str(exc))
        finally:
            conn.close()

    # -- writer --------------------------------------------------------

    def _one_job(self, conn, job_seed: int) -> None:
        params = {"axes": GRID_AXES, "scale": GRID_SCALE, "seed": job_seed}
        start = clock()
        status, body = _request(conn, "POST", "/jobs",
                                {"kind": "grid", "params": params})
        if status != 202:
            raise ValueError(f"POST /jobs answered {status}")
        job_id = json.loads(body)["id"]
        give_up = time.monotonic() + JOB_GRACE_S + 120.0
        while True:
            time.sleep(POLL_S)
            status, body = _request(conn, "GET", f"/jobs/{job_id}")
            if status != 200:
                raise ValueError(f"GET /jobs/{job_id} answered {status}")
            job = json.loads(body)
            if job["status"] in ("done", "failed"):
                break
            if time.monotonic() > give_up:
                raise ValueError(f"{job_id} still {job['status']}")
        end = clock()
        self.events.append(_event(f"grid job seed {job_seed}", start, end, 2))
        if job["status"] == "failed":
            raise ValueError(f"{job_id} failed: {job['error']}")
        self.job_s.append((end - start) / 1e9)
        self.job_windows.append((start, end))
        status, body = _request(conn, "GET", f"/artifacts/{job['artifact']}")
        if status != 200:
            raise ValueError(f"GET /artifacts/{job['artifact']} "
                             f"answered {status}")
        self.jobs.append((job_seed, json.loads(body)["summary_digest"]))

    def _writer(self) -> None:
        conn = self.server.connect()
        try:
            while not self._stop.is_set():
                job_seed = self.seed + self.next_job
                self.next_job += 1
                try:
                    self._one_job(conn, job_seed)
                except (OSError, http.client.HTTPException, ValueError,
                        KeyError) as exc:
                    self.job_failures.append(f"job seed {job_seed}: {exc!r}")
                    self.jobs.append((job_seed, None))
                    conn.close()
                    conn = self.server.connect()
        finally:
            conn.close()


def _event(name: str, start: int, end: int, tid: int) -> dict:
    return {"name": name, "cat": "client", "ph": "X", "pid": 0,
            "tid": tid, "ts": start, "dur": end - start}
