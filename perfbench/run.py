"""End-to-end, layer-by-layer benchmark of reg-cluster jobs through a
real daemon's front door.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run launches fresh
``reg-cluster serve`` daemons from ``src/`` (set-up is repeated and its
median reported), drives one workload (``workloads.py``) as a closed
loop for ``--seconds``, checks every result (``verify.py``) outside the
timed loop, stops every process it started and prints, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Times are calibrated to a nominal host speed
(``calibrate.py``); the raw values are printed before the JSON line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first
repeats the untraced loop, then replays the same jobs on a daemon
started by ``launcher.py`` with span wrappers installed, and reports
the per-layer metrics: each job's latency split across the layers, plus
the traced/untraced latency ratio.  ``--small`` shrinks every workload
to seconds for the benchmark's own tests.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from calibrate import NOMINAL_S, probe
from daemon import Client, Daemon, RequestFailed

ROOT = Path(__file__).resolve().parent.parent

#: daemon launches per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: clusters per result page
PAGE = 16
#: a job still unfinished after this many seconds counts as failed
JOB_TIMEOUT = 120.0
#: the long-poll park time the client asks for (the server caps it)
LONG_POLL = 30

#: (metric, unit) printed with ``--trace 0``
END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_s", "s"),
    ("cpu_s_per_job", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


@dataclass
class JobRun:
    op: Any
    client: int
    ok: bool = False
    error: Optional[str] = None
    job_id: Optional[str] = None
    latency: float = 0.0
    window: Tuple[float, float] = (0.0, 0.0)
    trips: List[Tuple[float, float]] = field(default_factory=list)
    shed: int = 0
    #: host-speed probe seconds around the job's round
    host: float = NOMINAL_S
    record: Dict[str, Any] = field(default_factory=dict)
    clusters: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class Loop:
    jobs: List[JobRun]
    cpu_s: float
    rss_mb: float
    #: (seconds, host-speed probe seconds) per set-up
    setup_s: List[Tuple[float, float]]
    spans: List[Dict[str, Any]] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)


def run_job(client: Any, op: Any, index: int) -> JobRun:
    """Submit, long-poll to a terminal state, then page the result."""
    run = JobRun(op, index)
    first_trip, shed = len(client.trips), client.shed
    began, wall = time.perf_counter(), time.time()

    def call(method: str, path: str, body: Optional[bytes] = None) -> Any:
        status, payload = client.request(method, path, body)
        if status >= 400:
            raise RequestFailed(f"{method} {path}: {status} {payload}")
        return payload

    try:
        record = call("POST", op.path, op.body)["job"]
        run.job_id = record["job_id"]
        while record["state"] in ("submitted", "running"):
            if time.perf_counter() - began > JOB_TIMEOUT:
                raise RequestFailed(f"job still {record['state']}")
            record = call("GET", f"/jobs/{run.job_id}?wait={LONG_POLL}"
                          f"&state={record['state']}")["job"]
        run.record = record
        if record["state"] != "done":
            raise RequestFailed(
                f"job ended {record['state']}: {record.get('error')}")
        offset: Optional[int] = 0
        while offset is not None:
            page = call("GET", f"/jobs/{run.job_id}/result"
                        f"?offset={offset}&limit={PAGE}")
            run.clusters.extend(page["clusters"])
            offset = page["page"]["next_offset"]
        run.ok = True
    except (RequestFailed, KeyError, TypeError) as error:
        run.error = f"{type(error).__name__}: {error}"
    run.latency = time.perf_counter() - began
    run.window = (wall, time.time())
    run.trips = client.trips[first_trip:]
    run.shed = client.shed - shed
    return run


def set_up(workload: Any, source: Any, workdir: Path, cpus: Set[int],
           traced: bool, repeats: int) -> Tuple[Daemon, List[Tuple[float, float]]]:
    """Launch ``repeats`` fresh daemons, each running the workload's
    set-up jobs, and time each; the last one stays up."""
    setups: List[Tuple[float, float]] = []
    for attempt in range(repeats):
        last = attempt == repeats - 1
        daemon = Daemon(ROOT, workdir / f"daemon{attempt}", workload.workers,
                        cpus, workdir / "spans.json" if traced and last else None)
        try:
            host = probe(cpus)
            took = daemon.start()
            client = Client(daemon.port)
            began = time.perf_counter()
            for op in source.setup:
                prepared = run_job(client, op, -1)
                if not prepared.ok:
                    raise RuntimeError(f"set-up job failed: {prepared.error}")
            client.close()
            took += time.perf_counter() - began
            setups.append((took, (host + probe(cpus)) / 2))
        except BaseException:
            daemon.stop()
            raise
        if not last:
            daemon.stop()
    return daemon, setups


def drive(workload: Any, source: Any, workdir: Path, seconds: float,
          n_ops: Optional[int], traced: bool, repeats: int) -> Loop:
    """Set a daemon up ``repeats`` times, keep the last, run the loop.

    With ``n_ops`` the loop runs exactly that many jobs; otherwise it
    runs for ``seconds`` and stops at a cycle boundary.  The loop runs
    in rounds of ``workload.round_s`` (at least one job per client);
    between rounds, with no job in flight, the host-speed probe runs
    (``calibrate.py``).
    """
    # A one-worker daemon serving one client gets a CPU of its own and
    # the client the rest; otherwise daemon, pool and clients share
    # every CPU.
    every = os.sched_getaffinity(0)
    cpus = set(every)
    if workload.workers == 1 and workload.clients == 1 and len(every) > 1:
        cpus = {min(every)}
        os.sched_setaffinity(0, every - cpus)
    jobs: List[JobRun] = []
    lock = threading.Lock()
    state = {"next": 0, "done": False}

    def next_op() -> Optional[int]:
        with lock:
            k = state["next"]
            if (k >= n_ops) if n_ops is not None else (
                    time.perf_counter() >= deadline
                    and k % workload.cycle == 0):
                state["done"] = True
            if state["done"]:
                return None
            state["next"] = k + 1
            return k

    def client_loop(client: Client, index: int, round_end: float) -> None:
        # At least one job per round, then more until the round ends.
        while True:
            k = next_op()
            if k is None:
                return
            done = run_job(client, source.op(k), index)
            with lock:
                jobs.append(done)
            if time.perf_counter() >= round_end:
                return

    try:
        daemon, setups = set_up(workload, source, workdir, cpus, traced,
                                repeats)
        try:
            clients = [Client(daemon.port) for _ in range(workload.clients)]
            cpu_before = daemon.cpu_seconds()
            deadline = time.perf_counter() + seconds
            host = probe(cpus)
            while not state["done"]:
                first = len(jobs)
                round_end = time.perf_counter() + workload.round_s
                threads = [threading.Thread(target=client_loop,
                                            args=(client, i, round_end))
                           for i, client in enumerate(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                after = probe(cpus)
                for job in jobs[first:]:
                    job.host = (host + after) / 2
                host = after
            cpu = daemon.cpu_seconds() - cpu_before
            rss = daemon.peak_rss_mb()
            for client in clients:
                client.close()
        finally:
            daemon.stop()
    finally:
        os.sched_setaffinity(0, every)
    loop = Loop(jobs, cpu, rss, setups)
    if traced:
        with open(workdir / "spans.json", encoding="utf-8") as handle:
            dumped = json.load(handle)
        loop.spans, loop.missing = dumped["spans"], dumped["missing"]
    return loop


def check(loop: Loop, verifier: Any) -> int:
    """Verify every completed job; returns how many results were wrong."""
    wrong = 0
    verifier.prime([job.op for job in loop.jobs if job.ok])
    for job in loop.jobs:
        if job.ok:
            errors = verifier.errors(job.op, job.clusters)
            if errors:
                job.ok, job.error = False, "wrong result: " + errors[0]
                wrong += 1
    return wrong


def end_to_end(loop: Loop, calibrated: bool = True) -> Dict[str, float]:
    """The user-visible metrics of one untraced loop.

    Calibrated (the default), every time is scaled to a host where the
    speed probe takes ``NOMINAL_S``; memory is never scaled.
    """
    def scale(host: float) -> float:
        return NOMINAL_S / host if calibrated else 1.0

    ok = [job for job in loop.jobs if job.ok]
    per_client: Dict[int, List[JobRun]] = defaultdict(list)
    for job in loop.jobs:
        per_client[job.client].append(job)
    # Throughput counts only the time a client has a job in flight, so
    # the benchmark's own input generation and probes are excluded.
    busy = {c: sum(j.latency * scale(j.host) for j in runs)
            for c, runs in per_client.items()}
    rate = sum(sum(j.ok for j in runs) / busy[c]
               for c, runs in per_client.items())
    # CPU is read per loop, so it takes the loop's busy-time-weighted scale.
    cpu_scale = sum(busy.values()) / sum(j.latency for j in loop.jobs)
    return {
        "jobs_per_s": rate,
        "job_latency_p50_s": statistics.median(
            j.latency * scale(j.host) for j in ok),
        "cpu_s_per_job": loop.cpu_s * cpu_scale / len(ok),
        "peak_rss_mb": loop.rss_mb,
        "setup_s": statistics.median(t * scale(h) for t, h in loop.setup_s),
    }


def summary_lines(loop: Loop) -> List[str]:
    """Sample counts, the p90 where it has enough samples, failures."""
    latencies = sorted(job.latency for job in loop.jobs if job.ok)
    lines = [f"jobs: {len(loop.jobs)} attempted, {len(latencies)} done and "
             f"correct; failed_ratio "
             f"{(len(loop.jobs) - len(latencies)) / max(1, len(loop.jobs)):g}",
             f"job_latency_p50_s over {len(latencies)} samples; setup_s "
             f"median of {len(loop.setup_s)}; host probe "
             f"{statistics.median(job.host for job in loop.jobs):.4f} s "
             f"(nominal {NOMINAL_S} s)"]
    if len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10)[8]
        lines.append(f"job_latency_p90_s {p90:.6f} s (uncalibrated) over "
                     f"{len(latencies)} samples")
    else:
        lines.append(f"job_latency_p90_s omitted: {len(latencies)} < 100 "
                     f"samples")
    kinds: Dict[str, List[float]] = defaultdict(list)
    for job in loop.jobs:
        if job.ok:
            kinds[job.op.kind].append(job.latency)
    lines.append("uncalibrated median latency by job kind: " + ", ".join(
        f"{kind} {statistics.median(v):.4f} s (n={len(v)})"
        for kind, v in sorted(kinds.items())))
    for job in loop.jobs:
        if not job.ok:
            lines.append(f"failed {job.op.kind} job {job.job_id}: {job.error}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrunken inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so every daemon is still stopped.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no reg-cluster sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from layers import PER_LAYER, layer_metrics
    from verify import Verifier
    from workloads import WORKLOADS, Source

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload].scaled(args.small)
    source = Source(workload, args.seed)
    verifier = Verifier()
    workdir = ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        if not args.trace:
            loop = drive(workload, source, workdir / "run", args.seconds,
                         None, False, SETUP_REPEATS)
            wrong = check(loop, verifier)
            loops = [loop]
        else:
            plain = drive(workload, source, workdir / "plain", args.seconds,
                          None, False, 1)
            loop = drive(workload, source, workdir / "traced", args.seconds,
                         len(plain.jobs), True, 1)
            wrong = check(plain, verifier) + check(loop, verifier)
            loops = [plain, loop]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(each.jobs) for each in loops)
    failed = sum(not job.ok for each in loops for job in each.jobs)
    complete = all(any(job.ok for job in each.jobs) for each in loops)
    for line in summary_lines(loop):
        print(line)
    if not args.trace:
        values = end_to_end(loop) if complete else {}
        units = dict(END_TO_END)
        if complete:
            print("uncalibrated: " + ", ".join(
                f"{name} {value:.6g}"
                for name, value in end_to_end(loop, False).items()))
    else:
        values = layer_metrics(plain, loop, verifier, workload) if complete else {}
        units = dict(PER_LAYER)
        for name, unit in PER_LAYER:
            print(f"{name:34s} {values.get(name, 0.0):16.6f} {unit}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": wrong == 0 and complete,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
