"""Unit tests for the LRU artifact cache."""

from __future__ import annotations

import pickle

import pytest

from repro.core.rwave import RWaveIndex
from repro.matrix.summary import matrix_digest
from repro.service.cache import ArtifactCache, index_key


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
