"""The benchmark's own tests (run: ``python -m pytest perfbench``).

They run every workload in its small mode, so they take about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from repro.core.miner import RegClusterMiner  # noqa: E402
from repro.core.params import MiningParameters  # noqa: E402
from repro.core.serialize import cluster_to_dict  # noqa: E402
from daemon import processes  # noqa: E402
from run import JobRun, Loop, check, summary_lines  # noqa: E402
from spans import attribute  # noqa: E402
from verify import Verifier  # noqa: E402
from workloads import WORKLOADS, Source  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_small_mode_emits_every_metric(workload: str, trace: int) -> None:
    result = _run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        # every job's layer self times plus the remainder add up to it
        assert metrics["bench.layer_sum_error_s"] < 1e-6
        assert metrics["service.unattributed_s"] >= 0.0
        layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert layers + metrics["service.unattributed_s"] == pytest.approx(
            metrics["bench.job_latency_mean_s"])
    else:
        assert all(value > 0 for value in metrics.values())


def test_no_process_outlives_a_run() -> None:
    run = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny-jobs",
         "--seed", "4", "--seconds", "1", "--trace", "0", "--small"],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    out, _ = run.communicate(timeout=170)
    assert run.returncode == 0
    assert json.loads(out.strip().splitlines()[-1])["correct"] is True
    # run.py led its own session, so everything it started is in it, and
    # all of it must be gone: not even a zombie waiting for init to reap it.
    assert [(pid, state) for pid, state, _, session in processes()
            if session == run.pid] == []


def test_corrupted_result_counts_as_failure() -> None:
    op = Source(WORKLOADS["tiny-jobs"], 5).op(0)
    matrix = op.matrix()
    mined = RegClusterMiner(matrix, MiningParameters(**op.params)).mine()
    right = [cluster_to_dict(c, matrix) for c in mined.clusters]
    assert right, "a tiny-jobs input must yield clusters"
    corrupted = dict(right[0], p_members=right[0]["p_members"][:-1])
    good = JobRun(op, 0, ok=True, clusters=right)
    bad = JobRun(op, 0, ok=True, clusters=[corrupted, *right[1:]])
    loop = Loop([good, bad], cpu_s=1.0, rss_mb=1.0, setup_s=[1.0])
    assert check(loop, Verifier()) == 1
    assert good.ok and not bad.ok
    assert "failed_ratio 0.5" in summary_lines(loop)[0]


def test_attribution_prefers_the_executor_thread() -> None:
    def span(sid, name, start, end, parent=None):
        return {"id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "trace": "job", "attrs": {}}

    spans = [
        span(-1, "client.request", 0.0, 10.0),
        span(1, "frontdoor.router", 1.0, 9.0),
        span(2, "service.wait", 1.5, 8.5, parent=1),
        span(3, "service.execute", 3.0, 8.0),
        span(4, "rwave.build", 4.0, 6.0, parent=3),
        span(5, "queue.wait", 2.0, 3.0),
    ]
    parts = attribute((0.0, 11.0), spans)
    assert sum(parts.values()) == pytest.approx(11.0)
    assert parts["rwave"] == pytest.approx(2.0)
    assert parts["service"] == pytest.approx(3.0)
    assert parts["scheduling"] == pytest.approx(1.0)
    # transport 2 s + router 1 s + long-poll wake-up 1 s
    assert parts["frontdoor"] == pytest.approx(4.0)
    assert parts["unattributed"] == pytest.approx(1.0)
