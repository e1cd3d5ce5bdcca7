"""Unit tests for the LRU artifact cache."""

from __future__ import annotations

import json
import pickle
import shutil
import tempfile
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.rwave import RWaveIndex
from repro.matrix.summary import matrix_digest
from repro.service.cache import JOURNAL_SLACK, ArtifactCache, index_key


@pytest.fixture
def cache(tmp_path) -> ArtifactCache:
    return ArtifactCache(tmp_path / "cache")


class _OldLayoutIndex:
    """Pickles as an ``RWaveIndex`` carrying a given ``__dict__`` state,
    the way an index written by an earlier version of the class does."""

    def __init__(self, state):
        self.state = state

    def __reduce__(self):
        return (object.__new__, (RWaveIndex,), self.state)


def _old_layout_states(index):
    """An untagged per-gene-model state and a state with an older tag."""
    untagged = {
        "matrix": index.matrix,
        "gamma": index.gamma,
        "thresholds": index.thresholds,
        "models": index.models,
        "max_up": index.max_up,
        "max_down": index.max_down,
        "_kernel": None,
    }
    return {
        "untagged": untagged,
        "older-tag": {**index.__getstate__(), "layout": 2},
    }


class TestIndexArtifacts:
    def test_round_trip(self, cache, running_example):
        digest = matrix_digest(running_example)
        index = RWaveIndex(running_example, 0.15)
        assert cache.get_index(digest, 0.15) is None
        cache.put_index(digest, 0.15, index)
        again = cache.get_index(digest, 0.15)
        assert again is not None
        assert again.gamma == index.gamma
        assert again.matrix == running_example

    def test_keyed_by_gamma(self, cache, running_example):
        digest = matrix_digest(running_example)
        cache.put_index(digest, 0.15, RWaveIndex(running_example, 0.15))
        assert cache.get_index(digest, 0.3) is None

    def test_corrupt_artifact_is_a_miss(self, cache, running_example):
        digest = matrix_digest(running_example)
        cache.put_index(digest, 0.15, RWaveIndex(running_example, 0.15))
        (entry_name,) = [k for k in cache.keys() if k.startswith("index-")]
        artifact = next(cache.root.glob("index-*.pkl"))
        artifact.write_bytes(b"not a pickle")
        assert cache.get_index(digest, 0.15) is None
        assert entry_name not in cache.keys()

    def test_wrong_type_artifact_is_dropped(self, cache, running_example):
        digest = matrix_digest(running_example)
        cache.put_index(digest, 0.15, RWaveIndex(running_example, 0.15))
        key = index_key(digest, 0.15)
        artifact = cache.root / f"{key}.pkl"
        artifact.write_bytes(pickle.dumps({"not": "an index"}))
        assert cache.get_index(digest, 0.15) is None
        # Dropped on the first miss: the next lookup never re-reads it.
        assert key not in cache.keys()
        assert not artifact.exists()
        assert cache.get_index(digest, 0.15) is None
        assert cache.stats.index_misses == 2

    @pytest.mark.parametrize("which", ["untagged", "older-tag"])
    def test_old_layout_artifact_is_a_miss(self, cache, running_example,
                                           which):
        digest = matrix_digest(running_example)
        index = RWaveIndex(running_example, 0.15)
        cache.put_index(digest, 0.15, index)
        (entry_name,) = [k for k in cache.keys() if k.startswith("index-")]
        state = _old_layout_states(index)[which]
        artifact = next(cache.root.glob("index-*.pkl"))
        artifact.write_bytes(pickle.dumps(_OldLayoutIndex(state)))
        assert cache.get_index(digest, 0.15) is None
        assert entry_name not in cache.keys()
        assert cache.stats.index_misses == 1
        # The rebuilt index replaces the stale artifact.
        cache.put_index(digest, 0.15, RWaveIndex(running_example, 0.15))
        again = cache.get_index(digest, 0.15)
        assert again is not None
        assert (again.max_up == index.max_up).all()

    def test_service_rebuilds_over_old_layout_artifact(
        self, tmp_path, running_example, paper_params
    ):
        from repro.service.jobs import JobState
        from repro.service.service import MiningService

        service = MiningService(tmp_path / "store")
        first = service.submit(running_example, paper_params)
        service.run_pending()
        (artifact,) = service.cache.root.glob("index-*.pkl")
        digest, gamma = first.matrix_digest, paper_params.gamma
        index = service.cache.get_index(digest, gamma)
        artifact.write_bytes(
            pickle.dumps(_OldLayoutIndex(_old_layout_states(index)["untagged"]))
        )
        second = service.submit(
            running_example, paper_params.with_overrides(epsilon=0.3)
        )
        service.run_pending()
        done = service.status(second.job_id)
        assert done.state is JobState.DONE
        assert done.index_cache_hit is False
        assert service.cache.get_index(digest, gamma) is not None

    def test_stats_track_hits_and_misses(self, cache, running_example):
        digest = matrix_digest(running_example)
        cache.get_index(digest, 0.15)
        cache.put_index(digest, 0.15, RWaveIndex(running_example, 0.15))
        cache.get_index(digest, 0.15)
        stats = cache.stats.as_dict()
        assert stats["index_misses"] == 1
        assert stats["index_stores"] == 1
        assert stats["index_hits"] == 1


class TestResultArtifacts:
    def test_round_trip_and_drop(self, cache):
        payload = {"format": "reg-cluster/v1", "clusters": []}
        job_id = "job-" + "a" * 16
        assert cache.get_result(job_id) is None
        cache.put_result(job_id, payload)
        assert cache.get_result(job_id) == payload
        cache.drop_result(job_id)
        assert cache.get_result(job_id) is None

    def test_drop_unknown_is_a_noop(self, cache):
        cache.drop_result("job-" + "b" * 16)


class TestLRUBound:
    def test_eviction_drops_least_recently_used(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=200)
        blob = {"data": "x" * 60}  # ~75 serialized bytes
        cache.put_result("job-" + "1" * 16, blob)
        cache.put_result("job-" + "2" * 16, blob)
        # Touch job-1 so job-2 becomes the LRU entry.
        assert cache.get_result("job-" + "1" * 16) is not None
        cache.put_result("job-" + "3" * 16, blob)
        assert cache.get_result("job-" + "1" * 16) is not None
        assert cache.get_result("job-" + "2" * 16) is None
        assert cache.get_result("job-" + "3" * 16) is not None
        assert cache.stats.evictions == 1
        assert cache.total_bytes() <= 200

    def test_oversized_artifact_still_caches_alone(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=10)
        cache.put_result("job-" + "1" * 16, {"data": "x" * 100})
        assert cache.get_result("job-" + "1" * 16) is not None
        assert len(cache.keys()) == 1

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ArtifactCache(tmp_path, max_bytes=0)


class TestPersistence:
    def test_manifest_survives_reopen(self, tmp_path, running_example):
        digest = matrix_digest(running_example)
        first = ArtifactCache(tmp_path)
        first.put_index(digest, 0.15, RWaveIndex(running_example, 0.15))
        first.put_result("job-" + "c" * 16, {"clusters": []})
        second = ArtifactCache(tmp_path)
        assert second.get_index(digest, 0.15) is not None
        assert second.get_result("job-" + "c" * 16) == {"clusters": []}

    def test_missing_file_pruned_from_manifest(self, tmp_path):
        first = ArtifactCache(tmp_path)
        first.put_result("job-" + "d" * 16, {"clusters": []})
        next(tmp_path.glob("result-*.json")).unlink()
        second = ArtifactCache(tmp_path)
        assert second.get_result("job-" + "d" * 16) is None
        assert not second.keys()


class TestKernelArtifacts:
    """The packed kernel rides inside the index artifact."""

    def test_round_trip(self, cache, running_example):
        digest = matrix_digest(running_example)
        kernel = RWaveIndex(running_example, 0.15).kernel
        cache.put_index(digest, 0.15, RWaveIndex(running_example, 0.15))
        again = cache.get_index(digest, 0.15)
        assert again is not None
        assert again.kernel.shape == kernel.shape
        for last in range(running_example.n_conditions):
            assert (
                again.kernel.up_slice(last) == kernel.up_slice(last)
            ).all()

    def test_keyed_by_gamma(self, cache, running_example):
        digest = matrix_digest(running_example)
        for gamma in (0.15, 0.3):
            cache.put_index(digest, gamma, RWaveIndex(running_example, gamma))
        for gamma in (0.15, 0.3):
            cold = RWaveIndex(running_example, gamma).kernel.packed
            again = cache.get_index(digest, gamma)
            assert again is not None
            assert again.kernel.packed.tobytes() == cold.tobytes()

    def test_shares_the_index_key(self, cache, running_example):
        digest = matrix_digest(running_example)
        cache.put_index(digest, 0.15, RWaveIndex(running_example, 0.15))
        assert list(cache.keys()) == [index_key(digest, 0.15)]
        assert cache.index_keys() == [index_key(digest, 0.15)]

    def test_corrupt_artifact_is_a_miss(self, cache, running_example):
        digest = matrix_digest(running_example)
        index = RWaveIndex(running_example, 0.15)
        cache.put_index(digest, 0.15, index)
        # One gene plane short of the matrix: the loader rejects it.
        state = {**index.__getstate__(), "packed": index.kernel.packed[1:]}
        next(cache.root.glob("index-*.pkl")).write_bytes(
            pickle.dumps(_OldLayoutIndex(state))
        )
        assert cache.get_index(digest, 0.15) is None
        assert not cache.keys()

    def test_stats_track_hits_and_misses(self, cache, running_example):
        digest = matrix_digest(running_example)
        cache.get_index(digest, 0.15)
        cache.put_index(digest, 0.15, RWaveIndex(running_example, 0.15))
        assert cache.get_index(digest, 0.15).kernel is not None
        stats = cache.stats.as_dict()
        assert (stats["index_misses"], stats["index_stores"]) == (1, 1)
        assert stats["index_hits"] == 1
        assert not any(name.startswith("kernel") for name in stats)


def _journal_lines(root):
    path = root / "manifest.jsonl"
    if not path.exists():
        return []
    return [line for line in path.read_text("ascii").splitlines() if line]


class TestJournalReopen:
    """Opening a cache replays its journal and sweeps what it cannot vouch
    for; the journal is then one ``put`` line per live entry."""

    job_a = "job-" + "a" * 16
    job_b = "job-" + "b" * 16

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        first = ArtifactCache(tmp_path)
        first.put_result(self.job_a, {"clusters": [1]})
        first.put_result(self.job_b, {"clusters": [2]})
        assert first.get_result(self.job_a) is not None  # a touch line
        with open(tmp_path / "manifest.jsonl", "a", encoding="ascii") as h:
            h.write('{"op":"drop","key":"result-job-')  # killed mid-append
        second = ArtifactCache(tmp_path)
        assert second.keys() == first.keys()
        assert len(_journal_lines(tmp_path)) == 2  # compacted on open
        assert second.get_result(self.job_b) == {"clusters": [2]}

    def test_unnamed_artifact_file_is_deleted(self, tmp_path):
        ArtifactCache(tmp_path).put_result(self.job_a, {"clusters": []})
        orphan = tmp_path / f"result-{self.job_b}.json"
        orphan.write_text('{"clusters": []}', encoding="utf-8")
        again = ArtifactCache(tmp_path)
        assert not orphan.exists()
        assert again.get_result(self.job_b) is None
        assert again.get_result(self.job_a) == {"clusters": []}

    def test_stale_tmp_file_is_deleted(self, tmp_path):
        ArtifactCache(tmp_path).put_result(self.job_a, {"clusters": []})
        stale = [
            tmp_path / f"result-{self.job_b}.json.tmp",
            tmp_path / "manifest.jsonl.tmp",
        ]
        for path in stale:
            path.write_bytes(b"half")
        again = ArtifactCache(tmp_path)
        assert not any(path.exists() for path in stale)
        assert list(again.keys()) == [f"result-{self.job_a}"]

    def test_legacy_manifest_opens_as_an_empty_cache(self, tmp_path):
        artifact = tmp_path / f"result-{self.job_a}.json"
        artifact.write_text('{"clusters": []}', encoding="utf-8")
        legacy = tmp_path / "manifest.json"
        legacy.write_text(
            '{"entries": {"result-%s": {"file": "%s", "size": 16, '
            '"last_used": 1}}}' % (self.job_a, artifact.name),
            encoding="utf-8",
        )
        cache = ArtifactCache(tmp_path)
        assert cache.keys() == {}
        assert cache.total_bytes() == 0
        assert cache.get_result(self.job_a) is None
        assert not artifact.exists() and not legacy.exists()

    def test_fresh_directory_writes_no_journal(self, tmp_path):
        ArtifactCache(tmp_path)
        assert not (tmp_path / "manifest.jsonl").exists()

    def test_journal_compacts_past_its_bound(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put_result(self.job_a, {"clusters": []})
        cache.put_result(self.job_b, {"clusters": []})
        bound = JOURNAL_SLACK * (2 + 1)
        for __ in range(3 * bound):  # alternate hits: one touch each
            cache.get_result(self.job_a)
            cache.get_result(self.job_b)
            assert len(_journal_lines(tmp_path)) <= bound
        assert len(_journal_lines(tmp_path)) < bound
        assert sorted(ArtifactCache(tmp_path).keys()) == sorted(cache.keys())

    def test_repeated_hits_on_the_newest_entry_append_nothing(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put_result(self.job_a, {"clusters": []})
        for __ in range(5):
            assert cache.get_result(self.job_a) is not None
        assert len(_journal_lines(tmp_path)) == 1


# ----------------------------------------------------------------------
# Stateful model check: the journal-backed cache against a dict + LRU
# ----------------------------------------------------------------------

def _small_matrix(seed):
    from repro.matrix.expression import ExpressionMatrix

    rng = np.random.default_rng(seed)
    return ExpressionMatrix(rng.uniform(0.0, 10.0, size=(3, 6)))


_INDEX_POOL = [
    (matrix_digest(matrix), gamma, RWaveIndex(matrix, gamma))
    for matrix in (_small_matrix(0), _small_matrix(1))
    for gamma in (0.15, 0.3)
]
_INDEX_SIZES = {
    index_key(digest, gamma): len(
        pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
    )
    for digest, gamma, index in _INDEX_POOL
}
_JOB_POOL = ["job-" + c * 16 for c in "0123"]
_PARENTS = [None, "e" * 64, "f" * 64]
#: holds two or three artifacts, so puts keep evicting
_MAX_BYTES = 2 * max(_INDEX_SIZES.values()) + 600


def _result_payload(n):
    return {"format": "reg-cluster/v1", "data": "r" * n}


class CacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="cache-machine-"))
        self.cache = ArtifactCache(self.root, max_bytes=_MAX_BYTES)
        #: key -> (size, parent digest, payload), least recently used first
        self.model: "OrderedDict[str, tuple]" = OrderedDict()
        self.evictions = 0

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def _model_put(self, key, size, parent, payload):
        self.model.pop(key, None)
        self.model[key] = (size, parent, payload)
        total = sum(entry[0] for entry in self.model.values())
        while total > _MAX_BYTES:
            victim = next((k for k in self.model if k != key), None)
            if victim is None:
                break
            total -= self.model.pop(victim)[0]
            self.evictions += 1

    def _model_get(self, key):
        entry = self.model.get(key)
        if entry is not None:
            self.model.move_to_end(key)
        return entry

    @rule(which=st.integers(0, len(_JOB_POOL) - 1), n=st.integers(0, 900))
    def put_result(self, which, n):
        job_id, payload = _JOB_POOL[which], _result_payload(n)
        self.cache.put_result(job_id, payload)
        size = len(json.dumps(payload, sort_keys=True).encode("utf-8"))
        self._model_put(f"result-{job_id}", size, None, payload)

    @rule(which=st.integers(0, len(_INDEX_POOL) - 1),
          parent=st.sampled_from(_PARENTS))
    def put_index(self, which, parent):
        digest, gamma, index = _INDEX_POOL[which]
        self.cache.put_index(digest, gamma, index, parent_digest=parent)
        key = index_key(digest, gamma)
        self._model_put(key, _INDEX_SIZES[key], parent, index)

    @rule(which=st.integers(0, len(_JOB_POOL) - 1))
    def get_result(self, which):
        job_id = _JOB_POOL[which]
        entry = self._model_get(f"result-{job_id}")
        got = self.cache.get_result(job_id)
        assert got == (None if entry is None else entry[2])

    @rule(which=st.integers(0, len(_INDEX_POOL) - 1))
    def get_index(self, which):
        digest, gamma, index = _INDEX_POOL[which]
        entry = self._model_get(index_key(digest, gamma))
        got = self.cache.get_index(digest, gamma)
        assert (got is None) == (entry is None)
        if got is not None:
            assert (got.max_up == index.max_up).all()

    @rule(which=st.integers(0, len(_JOB_POOL) + len(_INDEX_POOL) - 1))
    def drop_artifact(self, which):
        keys = [f"result-{j}" for j in _JOB_POOL] + sorted(_INDEX_SIZES)
        self.cache.drop_artifact(keys[which])
        self.model.pop(keys[which], None)

    @rule()
    def reopen(self):
        self.evictions -= self.cache.stats.evictions
        self.cache = ArtifactCache(self.root, max_bytes=_MAX_BYTES)
        assert len(_journal_lines(self.root)) == len(self.model)

    @invariant()
    def agrees_with_the_model(self):
        assert self.cache.keys() == {
            key: entry[0] for key, entry in self.model.items()
        }
        assert self.cache.total_bytes() == sum(
            entry[0] for entry in self.model.values()
        )
        assert self.cache.stats.evictions == self.evictions
        for parent in _PARENTS[1:]:
            assert self.cache.derived_from(parent) == sorted(
                key for key, entry in self.model.items() if entry[1] == parent
            )
        files = {path.name for path in self.root.iterdir()}
        assert files - {"manifest.jsonl"} == {
            f"{key}.pkl" if key.startswith("index-") else f"{key}.json"
            for key in self.model
        }

    @invariant()
    def journal_stays_within_its_bound(self):
        lines = len(_journal_lines(self.root))
        assert lines <= JOURNAL_SLACK * (len(self.model) + 1)


CacheMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestCacheMachine = CacheMachine.TestCase
