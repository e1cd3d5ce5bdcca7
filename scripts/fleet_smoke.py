"""Fleet smoke test: SIGKILL a worker node mid-job, require a perfect finish.

The distributed counterpart of ``scripts/chaos_smoke.py``
(docs/distributed.md).  One scenario, real processes end to end:

1. Boot a coordinator daemon (``serve --fleet --fleet-no-local``) with a
   short lease TTL, plus **two** ``reg-cluster node`` worker processes.
   The victim node runs under a ``delay-shard`` fault plan so it holds
   every shard it leases long enough to be killed mid-mine; the
   survivor mines at full speed.
2. Submit the paper's running example over HTTP, wait until the victim
   actually holds a lease, start the survivor, then SIGKILL the victim
   — no shutdown handshake, no heartbeat goodbye.
3. Require the lease to be reclaimed after the TTL, the job to finish
   ``done`` with a result *identical* to a direct in-process
   :func:`repro.core.miner.mine_reg_clusters` run, the per-shard
   provenance to name only the two nodes, the job trace to stitch every
   shard span under one trace id, and the ``repro_fleet_*`` reclaim
   counters to have moved.

Exit status 0 on success; prints a unified summary either way.
Used by ``make fleet-smoke`` and the CI ``fleet-smoke`` job.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.miner import mine_reg_clusters
from repro.core.params import MiningParameters
from repro.core.serialize import result_to_dict
from repro.datasets.running_example import load_running_example
from repro.service import ServiceClient
from repro.service.jobs import parameters_to_dict

REPO_ROOT = Path(__file__).resolve().parents[1]
LEASE_TTL = 2.0  # seconds; short so the reclaim fires within the smoke
VICTIM, SURVIVOR = "node-victim", "node-survivor"

# Every shard the victim leases stalls this long before mining — wide
# enough a window to SIGKILL it while the lease is provably held.
VICTIM_FAULTS = json.dumps(
    {"seed": 7, "faults": [{"kind": "delay-shard", "times": 10**6,
                            "delay": 1.5}]}
)


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _child_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(extra)
    return env


def _spawn(argv: list, **env_extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        env=_child_env(**env_extra),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_healthy(client: ServiceClient, timeout: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        health = client.health()
        if health.get("status") == "ok" and health.get("executor_alive"):
            return health
        if time.monotonic() >= deadline:
            raise TimeoutError(f"daemon never became healthy: {health}")
        time.sleep(0.05)


def _wait_for_lease(client: ServiceClient, node_id: str,
                    timeout: float = 60.0) -> None:
    """Block until ``node_id`` holds at least one shard lease."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        nodes = client.fleet_status().get("nodes", {})
        if nodes.get(node_id, {}).get("leases_held", 0) >= 1:
            return
        time.sleep(0.05)
    raise TimeoutError(f"{node_id} never acquired a lease")


def _direct_payload(matrix, params):
    return result_to_dict(
        mine_reg_clusters(
            matrix,
            min_genes=params.min_genes,
            min_conditions=params.min_conditions,
            gamma=params.gamma,
            epsilon=params.epsilon,
        ),
        matrix,
    )


def _counter(metrics: str, name: str) -> float:
    return next(
        (
            float(line.rsplit(" ", 1)[1])
            for line in metrics.splitlines()
            if line.startswith(name + " ")
        ),
        0.0,
    )


def _run(tmp: str, matrix, params, direct) -> int:
    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    store = Path(tmp) / "store"
    traces = Path(tmp) / "traces"
    procs: dict = {}
    try:
        procs["coordinator"] = _spawn([
            "serve", "--host", "127.0.0.1", "--port", str(port),
            "--store", str(store), "--fleet", "--fleet-no-local",
            "--lease-ttl", str(LEASE_TTL), "--trace-dir", str(traces),
        ])
        client = ServiceClient(url, connect_retries=8, retry_backoff=0.25)
        _wait_healthy(client)

        node_argv = ["node", "--coordinator", url, "--poll-interval", "0.05"]
        procs[VICTIM] = _spawn(
            [*node_argv, "--node-id", VICTIM,
             "--cache-dir", str(Path(tmp) / "victim-cache")],
            REPRO_FAULTS=VICTIM_FAULTS,
        )
        record = client.submit_matrix(matrix, parameters_to_dict(params))
        job_id = record["job_id"]
        _wait_for_lease(client, VICTIM)
        # The survivor joins only once the victim holds a lease: a
        # full-speed node started alongside it can drain every shard of
        # the small job before the victim's first poll.
        procs[SURVIVOR] = _spawn(
            [*node_argv, "--node-id", SURVIVOR,
             "--cache-dir", str(Path(tmp) / "survivor-cache")],
        )
        procs[VICTIM].kill()  # SIGKILL: no goodbye, the lease just dies
        print(f"fleet: {VICTIM} SIGKILLed while holding a lease")

        done = client.wait(job_id, timeout=180)
        if done["state"] != "done":
            print(f"fleet: FAIL — job ended {done['state']}: "
                  f"{done.get('error')}")
            return 1
        if client.result(job_id) != direct:
            print("fleet: FAIL — fleet result differs from direct mining")
            return 1

        provenance = done.get("shard_provenance") or {}
        miners = {entry.get("node") for entry in provenance.values()}
        if len(provenance) != matrix.n_conditions:
            print(f"fleet: FAIL — provenance covers {len(provenance)} of "
                  f"{matrix.n_conditions} shards")
            return 1
        if not miners <= {VICTIM, SURVIVOR}:
            print(f"fleet: FAIL — unexpected miners in provenance: {miners}")
            return 1
        if SURVIVOR not in miners:
            print("fleet: FAIL — the surviving node mined nothing")
            return 1

        trace_path = traces / f"{job_id}.trace.jsonl"
        spans = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        trace_ids = {span["trace_id"] for span in spans}
        shard_spans = [span for span in spans if span["name"] == "shard"]
        if len(trace_ids) != 1:
            print(f"fleet: FAIL — trace splintered into {len(trace_ids)} "
                  f"trace ids")
            return 1
        if len(shard_spans) != matrix.n_conditions:
            print(f"fleet: FAIL — {len(shard_spans)} shard spans, expected "
                  f"{matrix.n_conditions}")
            return 1
        span_nodes = {
            span["attributes"].get("node") for span in shard_spans
        }
        if not span_nodes <= {VICTIM, SURVIVOR}:
            print(f"fleet: FAIL — shard spans name foreign nodes: "
                  f"{span_nodes}")
            return 1

        metrics = client.metrics()
        reclaimed = _counter(metrics, "repro_fleet_leases_reclaimed_total")
        if reclaimed < 1:
            print("fleet: FAIL — the dead node's lease was never reclaimed")
            return 1
        granted = _counter(metrics, "repro_fleet_leases_granted_total")
        if granted < 2:
            print(f"fleet: FAIL — only {granted} lease(s) granted for a "
                  f"two-node job")
            return 1
        if 'repro_fleet_shards_completed_total{source="remote"}' not in metrics:
            print("fleet: FAIL — no remote shard completions counted")
            return 1
        if 'repro_jobs_current{state="done"} 1' not in metrics:
            print("fleet: FAIL — done gauge did not move")
            return 1

        print(
            f"fleet: node killed mid-lease, {reclaimed:.0f} lease(s) "
            f"reclaimed; result identical to direct mining "
            f"({len(direct['clusters'])} cluster(s)); "
            f"{len(shard_spans)} shard spans stitched under one trace; "
            f"miners: {sorted(miners)}"
        )
        return 0
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)


def main() -> int:
    matrix = load_running_example()
    params = MiningParameters(
        min_genes=3, min_conditions=5, gamma=0.15, epsilon=0.1
    )
    direct = _direct_payload(matrix, params)
    with tempfile.TemporaryDirectory(prefix="reg-cluster-fleet-") as tmp:
        status = _run(tmp, matrix, params, direct)
    if status == 0:
        print("fleet: OK")
    return status


if __name__ == "__main__":
    sys.exit(main())
