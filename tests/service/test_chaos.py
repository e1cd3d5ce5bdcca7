"""Chaos tests: injected faults must be healed or degrade gracefully.

The acceptance bar (docs/robustness.md):

* any single injected shard crash, given one retry, yields a ``done``
  job whose clusters **and statistics** are bit-identical to an
  uninjured run;
* a retry budget of zero yields a ``degraded`` (never ``failed``) job
  listing exactly the killed shard;
* checkpoints make interrupted or degraded jobs resume instead of
  re-mining, and the resumed result is bit-identical;
* cache-write failures and injected 503s are absorbed without losing a
  job or a response.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.miner import (
    MiningTimeout,
    RegClusterMiner,
    mine_reg_clusters,
)
from repro.core.serialize import result_to_dict
from repro.service.http import ServiceClient, ServiceError, serve
from repro.service.jobs import JobState
from repro.service.resilience import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.service.service import MiningService
from repro.service.executor import mine_sharded_outcome

#: Instant retries for tests — determinism comes from the plan, not
#: from real sleeping.
FAST_RETRY = RetryPolicy(max_retries=1, backoff_base=0.0, jitter=0.0)
NO_RETRY = RetryPolicy(max_retries=0, backoff_base=0.0, jitter=0.0)


@pytest.fixture
def reference(running_example, paper_params):
    return mine_reg_clusters(
        running_example,
        min_genes=paper_params.min_genes,
        min_conditions=paper_params.min_conditions,
        gamma=paper_params.gamma,
        epsilon=paper_params.epsilon,
    )


def crash_plan(shard, times=1):
    return FaultPlan(
        [FaultSpec(kind=FaultKind.CRASH_SHARD, shard=shard, times=times)]
    )


class TestExecutorFaultRecovery:
    """mine_sharded_outcome under injected shard faults (in-process)."""

    @pytest.mark.parametrize("shard", range(10))
    def test_any_single_shard_crash_recovers_bit_identically(
        self, running_example, paper_params, reference, shard
    ):
        outcome = mine_sharded_outcome(
            running_example,
            paper_params,
            retry=FAST_RETRY,
            fault_plan=crash_plan(shard),
        )
        assert not outcome.degraded
        assert outcome.failed_attempts == {shard: 1}
        assert outcome.result.clusters == reference.clusters
        assert (
            outcome.result.statistics.as_dict()
            == reference.statistics.as_dict()
        )

    @pytest.mark.parametrize("shard", range(10))
    def test_zero_retry_budget_degrades_listing_exactly_the_shard(
        self, running_example, paper_params, reference, shard
    ):
        outcome = mine_sharded_outcome(
            running_example,
            paper_params,
            retry=NO_RETRY,
            fault_plan=crash_plan(shard, times=10),
        )
        assert outcome.degraded
        assert outcome.missing_shards == [shard]
        assert shard in outcome.shard_errors
        assert "crash-shard" in outcome.shard_errors[shard]
        # The merged survivors: nothing from the lost shard, everything
        # the reference found elsewhere.
        assert all(
            c.chain[0] != shard for c in outcome.result.clusters
        )
        for cluster in reference.clusters:
            if cluster.chain[0] != shard:
                assert cluster in outcome.result.clusters

    def test_exhausted_retries_still_degrade(self, running_example,
                                             paper_params):
        # Two retries, three planned crashes: the shard stays lost and
        # every attempt is accounted for.
        outcome = mine_sharded_outcome(
            running_example,
            paper_params,
            retry=RetryPolicy(max_retries=2, backoff_base=0.0, jitter=0.0),
            fault_plan=crash_plan(4, times=10),
        )
        assert outcome.missing_shards == [4]
        assert outcome.failed_attempts == {4: 3}

    def test_kill_worker_breaks_and_rebuilds_the_pool(
        self, running_example, paper_params, reference
    ):
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.KILL_WORKER, shard=6, times=1)]
        )
        outcome = mine_sharded_outcome(
            running_example,
            paper_params,
            n_workers=2,
            retry=RetryPolicy(max_retries=2, backoff_base=0.0, jitter=0.0),
            fault_plan=plan,
        )
        assert not outcome.degraded
        assert outcome.failed_attempts.get(6) == 1
        assert outcome.result.clusters == reference.clusters
        assert (
            outcome.result.statistics.as_dict()
            == reference.statistics.as_dict()
        )

    def test_delayed_shard_trips_the_timeout(self, running_example,
                                             paper_params):
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.DELAY_SHARD, shard=0, delay=0.3)]
        )
        with pytest.raises(MiningTimeout, match="budget"):
            mine_sharded_outcome(
                running_example,
                paper_params,
                fault_plan=plan,
                timeout=0.05,
            )

    def test_checkpoints_resume_without_re_mining(
        self, running_example, paper_params, reference
    ):
        checkpoints = {}
        first = mine_sharded_outcome(
            running_example,
            paper_params,
            on_shard_complete=lambda shard: checkpoints.__setitem__(
                shard[0], shard
            ),
        )
        assert sorted(checkpoints) == list(range(10))
        # Re-run fully from checkpoints under an always-crash plan: if
        # any shard were re-mined it would crash, so completing proves
        # nothing was.
        resumed = mine_sharded_outcome(
            running_example,
            paper_params,
            retry=NO_RETRY,
            fault_plan=crash_plan(None, times=10),
            completed=checkpoints,
        )
        assert not resumed.degraded
        assert resumed.resumed_shards == list(range(10))
        assert resumed.result.clusters == first.result.clusters
        assert (
            resumed.result.statistics.as_dict()
            == reference.statistics.as_dict()
        )


class TestServiceChaos:
    """MiningService under faults: degraded jobs, resume, best-effort IO."""

    def test_degraded_job_then_clean_resume(self, tmp_path, running_example,
                                            paper_params, reference):
        store = tmp_path / "store"
        victim = reference.clusters[0].chain[0]
        hurt = MiningService(
            store,
            retry=NO_RETRY,
            fault_plan=crash_plan(victim, times=10),
        )
        record = hurt.submit(running_example, paper_params)
        assert hurt.run_pending() == 1
        degraded = hurt.status(record.job_id)
        assert degraded.state is JobState.DEGRADED
        assert degraded.missing_shards == [victim]
        assert degraded.error is not None and "crash-shard" in degraded.error
        payload = hurt.result(record.job_id)
        assert all(
            c["chain"][0] != running_example.condition_names[victim]
            for c in payload["clusters"]
        )
        # The partial payload must never poison the result cache.
        assert hurt.cache.get_result(record.job_id) is None

        # Faults cleared (new daemon, same store): resubmission resumes
        # the surviving shards and re-mines only the lost one.
        healed = MiningService(store)
        again = healed.submit(running_example, paper_params)
        assert again.job_id == record.job_id
        assert again.state is JobState.SUBMITTED
        assert healed.run_pending() == 1
        done = healed.status(record.job_id)
        assert done.state is JobState.DONE
        assert done.resumed_shards == sorted(set(range(10)) - {victim})
        assert healed.result(record.job_id) == result_to_dict(
            reference, running_example
        )
        # Checkpoints are garbage-collected once the job completes.
        assert healed.jobs.load_shards(record.job_id) == {}

    def test_daemon_killed_mid_job_resumes_from_checkpoints(
        self, tmp_path, running_example, paper_params, reference
    ):
        store = tmp_path / "store"
        first = MiningService(store)
        record = first.submit(running_example, paper_params)
        # Simulate a SIGKILL mid-job: the record says running, and some
        # shards had already been checkpointed.
        first.jobs.update(record.job_id, state=JobState.RUNNING)
        for start in range(7):
            shard = RegClusterMiner(running_example, paper_params).mine(
                start_conditions=[start]
            )
            first.jobs.save_shard(
                record.job_id,
                (start, shard.clusters, shard.statistics.as_dict()),
            )

        second = MiningService(store)  # restart re-arms the running job
        assert second.run_pending() == 1
        done = second.status(record.job_id)
        assert done.state is JobState.DONE
        assert done.resumed_shards == list(range(7))
        assert second.result(record.job_id) == result_to_dict(
            reference, running_example
        )

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_torn_record_line_resumes_from_last_complete_record(
        self, running_example, paper_params, reference, cut
    ):
        with tempfile.TemporaryDirectory() as tmp:
            store = Path(tmp) / "store"
            first = MiningService(store)
            record = first.submit(running_example, paper_params)
            running = first.jobs.update(
                record.job_id, state=JobState.RUNNING, started_at=time.time()
            )
            for start in range(7):
                shard = RegClusterMiner(running_example, paper_params).mine(
                    start_conditions=[start]
                )
                first.jobs.save_shard(
                    record.job_id,
                    (start, shard.clusters, shard.statistics.as_dict()),
                )
            # SIGKILL mid-append: the next record's line is cut short.
            line = json.dumps(
                replace(running, state=JobState.DONE).to_dict(),
                sort_keys=True, separators=(",", ":"),
            )
            torn = line[: max(1, int(cut * len(line)))]
            journal = store / "jobs" / f"{record.job_id}.jsonl"
            with open(journal, "a", encoding="ascii") as handle:
                handle.write(torn)
            assert first.jobs.get(record.job_id) == running

            second = MiningService(store)  # re-arms from the last record
            assert second.run_pending() == 1
            done = second.status(record.job_id)
            assert done.state is JobState.DONE
            assert done.resumed_shards == list(range(7))
            assert second.result(record.job_id) == result_to_dict(
                reference, running_example
            )

    def test_cache_write_failure_never_fails_the_job(
        self, tmp_path, running_example, paper_params, reference
    ):
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.CACHE_WRITE_FAIL, times=100)]
        )
        service = MiningService(tmp_path / "store", fault_plan=plan)
        record = service.submit(running_example, paper_params)
        assert service.run_pending() == 1
        done = service.status(record.job_id)
        assert done.state is JobState.DONE
        # Nothing reached the disk cache, yet the result is served.
        assert service.cache.get_result(record.job_id) is None
        assert service.result(record.job_id) == result_to_dict(
            reference, running_example
        )
        assert plan.fired(FaultKind.CACHE_WRITE_FAIL) >= 1

    def test_job_timeout_fails_but_keeps_checkpoints(
        self, tmp_path, running_example, paper_params, reference
    ):
        store = tmp_path / "store"
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.DELAY_SHARD, shard=5, delay=0.4)]
        )
        slow = MiningService(store, job_timeout=0.1, fault_plan=plan)
        record = slow.submit(running_example, paper_params)
        assert slow.run_pending() == 1
        failed = slow.status(record.job_id)
        assert failed.state is JobState.FAILED
        assert failed.error is not None and "budget" in failed.error
        # Shards finished before the deadline were checkpointed.
        saved = slow.jobs.load_shards(record.job_id)
        assert sorted(saved) == list(range(5))

        patient = MiningService(store)  # no timeout, no faults
        again = patient.submit(running_example, paper_params)
        assert again.state is JobState.SUBMITTED
        assert patient.run_pending() == 1
        done = patient.status(record.job_id)
        assert done.state is JobState.DONE
        assert done.resumed_shards == list(range(5))
        assert patient.result(record.job_id) == result_to_dict(
            reference, running_example
        )

    def test_faults_can_be_armed_from_the_environment(
        self, tmp_path, running_example, paper_params, monkeypatch
    ):
        plan = crash_plan(2, times=10)
        monkeypatch.setenv("REPRO_FAULTS", plan.to_json())
        service = MiningService(tmp_path / "store", retry=NO_RETRY)
        record = service.submit(running_example, paper_params)
        service.run_pending()
        done = service.status(record.job_id)
        assert done.state is JobState.DEGRADED
        assert done.missing_shards == [2]


class TestHTTPChaos:
    """Injected 503s and the client's transparent retry."""

    def _serve(self, tmp_path, plan):
        service = MiningService(tmp_path / "store")
        server = serve(service, fault_plan=plan)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[0], server.server_address[1]
        return service, server, thread, f"http://{host}:{port}"

    def test_client_retries_through_injected_503s(self, tmp_path):
        plan = FaultPlan([FaultSpec(kind=FaultKind.HTTP_5XX, times=2)])
        service, server, thread, url = self._serve(tmp_path, plan)
        try:
            client = ServiceClient(
                url, connect_retries=4, retry_backoff=0.01
            )
            assert client.list_jobs() == []
            assert plan.fired(FaultKind.HTTP_5XX) == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.stop()

    def test_retry_budget_zero_surfaces_the_503(self, tmp_path):
        plan = FaultPlan([FaultSpec(kind=FaultKind.HTTP_5XX, times=5)])
        service, server, thread, url = self._serve(tmp_path, plan)
        try:
            client = ServiceClient(url, connect_retries=0)
            with pytest.raises(ServiceError) as info:
                client.list_jobs()
            assert info.value.status == 503
            assert "http-5xx" in info.value.message
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.stop()
