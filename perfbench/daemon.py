"""A real ``reg-cluster serve`` daemon as a subprocess, its /proc
accounting, and a keep-alive HTTP client for its front door."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

_SERVING = re.compile(r"serving on http://([0-9.]+):([0-9]+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class RequestFailed(RuntimeError):
    """A request that still failed after the client's retries."""


class Daemon:
    """One daemon process with a fresh store under ``workdir``, on
    ``cpus``.

    With ``spans_out`` set the daemon runs under ``launcher.py`` and
    writes its spans there on :meth:`stop`.
    """

    def __init__(self, root: Path, workdir: Path, workers: int,
                 cpus: Set[int], spans_out: Optional[Path] = None) -> None:
        self.root = root
        self.cpus = cpus
        self.workdir = workdir
        self.workers = workers
        self.spans_out = spans_out
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Launch and wait for a healthy ``/healthz``; returns seconds."""
        self.workdir.mkdir(parents=True)
        serve = ["serve", "--port", "0", "--store", str(self.workdir / "store"),
                 "--workers", str(self.workers)]
        if self.spans_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        else:
            cmd = [sys.executable, str(self.root / "perfbench" / "launcher.py"),
                   str(self.spans_out), *serve]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                   PYTHONUNBUFFERED="1")
        log_path = self.workdir / "daemon.log"
        began = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.workdir, env=env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                process_group=0,
            )
        # Set right after exec, long before the daemon starts a thread,
        # so every thread and pool worker it starts inherits it.
        os.sched_setaffinity(self.proc.pid, self.cpus)
        deadline = began + timeout
        while not self.port:
            match = _SERVING.search(log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(2))
            elif self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(
                    f"daemon did not start: {log_path.read_text()[-2000:]}"
                )
            else:
                time.sleep(0.002)
        client = Client(self.port)
        try:
            while True:
                try:
                    if client.request("GET", "/healthz")[0] == 200:
                        break
                except RequestFailed:
                    pass
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon never reported healthy")
                time.sleep(0.002)
        finally:
            client.close()
        return time.perf_counter() - began

    # -- /proc ---------------------------------------------------------

    def cpu_seconds(self) -> float:
        """User + system CPU of the daemon and every live descendant,
        plus the reaped children already folded into their parents."""
        assert self.proc is not None
        parent_of: Dict[int, int] = {}
        ticks: Dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            pid = int(entry)
            parent_of[pid] = int(fields[1])
            # utime, stime, cutime, cstime (fields 14-17 of stat(5))
            ticks[pid] = sum(int(value) for value in fields[11:15])
        tree = {self.proc.pid}
        grew = True
        while grew:
            grew = False
            for pid, parent in parent_of.items():
                if parent in tree and pid not in tree:
                    tree.add(pid)
                    grew = True
        return sum(ticks.get(pid, 0) for pid in tree) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """The daemon's high-water resident set (``VmHWM``)."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (the daemon's clean shutdown), then kill whatever is
        left of its process group (pool workers) and wait until every
        member has ended."""
        if self.proc is None:
            return
        group = self.proc.pid
        if self.proc.poll() is None:
            os.kill(group, signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc = None
        deadline = time.perf_counter() + 30
        while group_alive(group):
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError(f"process group {group} did not end")
            time.sleep(0.01)


def group_alive(group: int) -> bool:
    """Whether a process of process group ``group`` is still running
    (a zombie has ended and waits only to be reaped)."""
    return any(pgrp == group and state != "Z"
               for _, state, pgrp, _ in processes())


def processes() -> Iterator[Tuple[int, str, int, int]]:
    """``(pid, state, process group, session)`` of every process."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # fields 3, 5 and 6 of stat(5)
        yield int(entry), fields[0], int(fields[2]), int(fields[3])


class Client:
    """Keep-alive JSON client with bounded retries.

    Not ``repro.service.http.ServiceClient``: that one opens a
    connection per request and JSON-encodes the matrix inside the call,
    which would put client-side encoding into every timed job.  Here
    bodies are encoded before the clock starts.

    Connection failures and 5xx answers are retried; a 429 shed is
    counted in :attr:`shed` and retried after its ``Retry-After``.
    Every round trip is appended to :attr:`trips` as
    ``(start, end)`` wall-clock seconds.
    """

    RETRIES = 3

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.port = port
        self.timeout = timeout
        self.shed = 0
        self.trips: List[Tuple[float, float]] = []
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, Dict[str, Any]]:
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in range(self.RETRIES + 1):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=self.timeout)
            start = time.time()
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                data = response.read()
            except (OSError, http.client.HTTPException) as error:
                self.close()
                if attempt == self.RETRIES:
                    raise RequestFailed(f"{method} {path}: {error}") from None
                time.sleep(0.05 * 2 ** attempt)
                continue
            self.trips.append((start, time.time()))
            if response.getheader("Connection", "").lower() == "close":
                self.close()
            if response.status == 429 or response.status >= 500:
                self.shed += response.status == 429
                if attempt == self.RETRIES:
                    raise RequestFailed(f"{method} {path}: {response.status}")
                time.sleep(min(1.0, float(
                    response.getheader("Retry-After") or 0.05 * 2 ** attempt)))
                continue
            return response.status, json.loads(data.decode("utf-8"))
        raise AssertionError("unreachable")
