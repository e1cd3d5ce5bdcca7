"""On-disk LRU cache for expensive mining artifacts.

Two artifact kinds are memoized:

``index``
    A pickled :class:`~repro.core.rwave.RWaveIndex`, keyed by matrix
    content digest + gamma (:func:`index_key`).  The index carries the
    Definition 3.1 tables of every gene, the max-chain tables and the
    bit-packed Eq. 3 regulation kernel the miner's hot path runs on —
    all determined by digest + gamma, and all O(G C^2) comparisons to
    build.  The same index serves *every* parameter setting that
    shares gamma — only MinG/MinC/epsilon change between typical sweep
    jobs.  The pickle holds only the matrix and flat arrays, and
    carries a layout tag: an artifact from another layout is a miss.
``result``
    A completed mining result in the ``reg-cluster/v1`` JSON schema,
    keyed by job id (which already encodes digest + all parameters).

The cache is a directory of artifact files plus ``manifest.jsonl``, an
append-only journal of ``put`` (key, file, size, parent digest),
``touch`` (a hit, so the LRU order survives a reopen) and ``drop`` (an
eviction or removal) lines.  Nothing on the job path renames over an
existing file: on ext4 that rename forces a data flush of tens of
milliseconds, where an append costs microseconds
(``docs/performance.md``, "Persistence").  Opening a cache replays the
journal (skipping a torn tail), prunes entries whose files are gone,
deletes every file no entry names (a stale ``.tmp`` from a crash, or
an artifact of an older store, which is therefore a miss) and rewrites
the journal as a compact snapshot; it is compacted again whenever it
grows past :data:`JOURNAL_SLACK` lines per live entry.  Total bytes
are bounded by evicting least-recently-used entries.  Everything is
guarded by one lock, so HTTP threads and the execution worker can
share an instance.
"""

# The cache lock deliberately serializes artifact/manifest file I/O —
# that is what keeps the LRU accounting and the on-disk state mutually
# consistent; RL303's blocking-I/O-under-lock warning is this class's
# design, not a defect (docs/robustness.md, "Concurrency model").
# reglint: disable-file=RL303

from __future__ import annotations

import json
import os
import pickle
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Union

from repro.core.rwave import RWaveIndex
from repro.service.resilience import FaultKind, FaultPlan

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "DEFAULT_MAX_BYTES",
    "JOURNAL_SLACK",
    "index_key",
]

#: Default size bound: generous for indexes of paper-scale matrices
#: (the 2884x17 yeast index pickles to a few MB).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: The manifest journal is compacted once it holds more than this many
#: lines per live entry (plus one, so an emptied cache compacts too):
#: a long-running daemon's journal stays bounded, and the compaction's
#: rename is paid once per many appends.
JOURNAL_SLACK = 8

_JOURNAL = "manifest.jsonl"


@dataclass
class CacheStats:
    """Hit/miss/store/eviction counters (observable service behaviour)."""

    index_hits: int = 0
    index_misses: int = 0
    index_stores: int = 0
    result_hits: int = 0
    result_misses: int = 0
    result_stores: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "index_hits": self.index_hits,
            "index_misses": self.index_misses,
            "index_stores": self.index_stores,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "result_stores": self.result_stores,
            "evictions": self.evictions,
        }


@dataclass
class _ManifestEntry:
    file: str
    size: int
    #: the parent matrix digest a delta-updated artifact was derived
    #: from (``None`` for cold-built artifacts) — lineage provenance,
    #: surfaced through :meth:`ArtifactCache.derived_from`
    parent_digest: Optional[str] = None

    def put_line(self, key: str) -> Dict[str, Any]:
        line: Dict[str, Any] = {
            "op": "put", "key": key, "file": self.file, "size": self.size,
        }
        if self.parent_digest is not None:
            line["parent_digest"] = self.parent_digest
        return line


def _journal_text(lines: List[Dict[str, Any]]) -> str:
    return "".join(
        json.dumps(line, separators=(",", ":")) + "\n" for line in lines
    )


#: Index keys embed the matrix digest; results do not.
_ARTIFACT_KEY = re.compile(r"^index-([0-9a-f]{64})-gamma-")


def _key_digest(key: str) -> Optional[str]:
    match = _ARTIFACT_KEY.match(key)
    return match.group(1) if match else None


def index_key(matrix_digest: str, gamma: float) -> str:
    """The cache key of an index artifact — doubles as the fleet's
    shard-affinity token: a node advertising this key already holds
    the (matrix, gamma) index and kernel (docs/distributed.md)."""
    return f"index-{matrix_digest}-gamma-{float(gamma)!r}"


def _result_key(job_id: str) -> str:
    return f"result-{job_id}"


class ArtifactCache:
    """LRU-bounded artifact store under one directory.

    Parameters
    ----------
    root:
        Cache directory (created if absent).
    max_bytes:
        Total artifact size bound; least-recently-used entries are
        evicted when an insertion would exceed it.  The entry being
        inserted is never evicted by its own insertion, so a single
        oversized artifact still caches (as the sole entry).
    fault_plan:
        Chaos-testing hook: an active plan with ``cache-write-fail``
        faults makes :meth:`_store` raise :class:`OSError`, simulating
        a full or flaky disk.  ``None`` (production) adds no overhead.
        The service treats cache writes as best-effort, so an injected
        write failure must never fail a job (``docs/robustness.md``).
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        fault_plan: Optional[FaultPlan] = None,
        fault_observer: Optional[Callable[[FaultKind], None]] = None,
    ) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = int(max_bytes)
        self.fault_plan = fault_plan
        #: notified with the :class:`FaultKind` of every fault this
        #: cache fires (metrics seam; the injected error still raises).
        self.fault_observer = fault_observer
        self.stats = CacheStats()
        self._lock = threading.RLock()
        #: live entries, least recently used first
        self._manifest: "OrderedDict[str, _ManifestEntry]" = OrderedDict()
        #: running total of the live entries' sizes
        self._bytes = 0
        #: lines in the journal file (live entries after a compaction)
        self._journal_lines = 0
        #: secondary indexes over the manifest — matrix digest -> keys
        #: of its index artifacts, and parent digest -> keys of
        #: artifacts delta-derived from it.  Maintained on every
        #: insert/evict/drop so lineage lookups never scan the manifest.
        self._by_digest: Dict[str, Set[str]] = {}
        self._by_parent: Dict[str, Set[str]] = {}
        # Construction is single-threaded, but the helpers are shared
        # with locked paths — hold the (reentrant) lock so every
        # mutation of the manifest and its indexes is under it.
        with self._lock:
            self._open_journal()

    # ------------------------------------------------------------------
    # Manifest journal
    # ------------------------------------------------------------------

    @property
    def _journal_path(self) -> Path:
        return self.root / _JOURNAL

    def _open_journal(self) -> None:
        """Replay the journal, drop what it cannot vouch for, compact."""
        try:
            with open(self._journal_path, "rb") as handle:
                for raw in handle:
                    if not raw.strip():
                        continue
                    self._journal_lines += 1
                    try:
                        self._replay(json.loads(raw))
                    except (ValueError, KeyError, TypeError):
                        continue  # a torn tail: the kill mid-append
        except FileNotFoundError:
            pass
        for key, entry in list(self._manifest.items()):
            if not (self.root / entry.file).is_file():
                self._forget(key)
        named = {entry.file for entry in self._manifest.values()}
        named.add(_JOURNAL)
        for path in self.root.iterdir():
            if path.name not in named and path.is_file():
                path.unlink(missing_ok=True)
        if self._journal_lines != len(self._manifest):
            self._compact()

    def _replay(self, line: Dict[str, Any]) -> None:
        op, key = line["op"], str(line["key"])
        if op == "put":
            parent = line.get("parent_digest")
            self._add(key, _ManifestEntry(
                file=str(line["file"]),
                size=int(line["size"]),
                parent_digest=None if parent is None else str(parent),
            ))
        elif op == "touch":
            if key in self._manifest:
                self._manifest.move_to_end(key)
        elif op == "drop":
            self._forget(key)
        else:
            raise ValueError(f"unknown journal op {op!r}")

    def _append(self, lines: List[Dict[str, Any]]) -> None:
        """Append journal lines; compact once the journal outgrows
        :data:`JOURNAL_SLACK` lines per live entry."""
        with open(self._journal_path, "a", encoding="ascii") as handle:
            handle.write(_journal_text(lines))
        self._journal_lines += len(lines)
        if self._journal_lines > JOURNAL_SLACK * (len(self._manifest) + 1):
            self._compact()

    def _compact(self) -> None:
        """Rewrite the journal as one ``put`` line per live entry, in LRU
        order (temp file + rename, so a crash keeps the old journal)."""
        tmp = self.root / f"{_JOURNAL}.tmp"
        tmp.write_text(
            _journal_text(
                [entry.put_line(key) for key, entry in self._manifest.items()]
            ),
            encoding="ascii",
        )
        os.replace(tmp, self._journal_path)
        self._journal_lines = len(self._manifest)

    # ------------------------------------------------------------------
    # Secondary indexes (matrix digest / parent digest -> keys)
    # ------------------------------------------------------------------

    def _index_entry(self, key: str) -> None:
        """Register one manifest entry in the digest/parent indexes."""
        digest = _key_digest(key)
        if digest is not None:
            self._by_digest.setdefault(digest, set()).add(key)
        parent = self._manifest[key].parent_digest
        if parent is not None:
            self._by_parent.setdefault(parent, set()).add(key)

    def _unindex_entry(self, key: str, entry: _ManifestEntry) -> None:
        """Drop one (removed) manifest entry from the secondary indexes."""
        digest = _key_digest(key)
        if digest is not None:
            bucket = self._by_digest.get(digest)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_digest[digest]
        if entry.parent_digest is not None:
            bucket = self._by_parent.get(entry.parent_digest)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_parent[entry.parent_digest]

    def _add(self, key: str, entry: _ManifestEntry) -> None:
        """Insert one key as the most recently used (replacing any old
        entry of that key, whose file is left to the caller)."""
        self._forget(key)
        self._manifest[key] = entry
        self._bytes += entry.size
        self._index_entry(key)

    def _forget(self, key: str) -> Optional[_ManifestEntry]:
        """Remove one key from manifest + indexes (file left to caller)."""
        entry = self._manifest.pop(key, None)
        if entry is not None:
            self._bytes -= entry.size
            self._unindex_entry(key, entry)
        return entry

    def artifacts_for_digest(self, matrix_digest: str) -> List[str]:
        """Cached index keys of one matrix (no manifest scan)."""
        with self._lock:
            return sorted(self._by_digest.get(matrix_digest, ()))

    def derived_from(self, parent_digest: str) -> List[str]:
        """Keys of artifacts delta-derived from ``parent_digest``.

        Children are self-contained: the parent artifact is only an
        input at *build* time, so evicting a parent never invalidates
        the artifacts derived from it — this lookup exists for
        provenance and cache-warming decisions, not liveness.
        """
        with self._lock:
            return sorted(self._by_parent.get(parent_digest, ()))

    # ------------------------------------------------------------------
    # LRU core
    # ------------------------------------------------------------------

    def _bump(self, counter: str) -> None:
        """Increment one :class:`CacheStats` field under the cache lock.

        Counters are written concurrently from HTTP handler threads
        (result lookups) and the executor thread (index reuse);
        an unlocked ``+=`` is a read-modify-write race that loses
        updates (reglint RL301).
        """
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def total_bytes(self) -> int:
        """Bytes currently accounted to cached artifacts."""
        with self._lock:
            return self._bytes

    def _evict_for(self, incoming_key: str) -> List[Dict[str, Any]]:
        """Drop LRU entries until the bound holds (sparing the newcomer);
        returns their journal ``drop`` lines."""
        drops: List[Dict[str, Any]] = []
        while self._bytes > self.max_bytes:
            victim = next(
                (k for k in self._manifest if k != incoming_key), None
            )
            entry = None if victim is None else self._forget(victim)
            if entry is None:
                break
            (self.root / entry.file).unlink(missing_ok=True)
            self.stats.evictions += 1
            drops.append({"op": "drop", "key": victim})
        return drops

    def _store(
        self,
        key: str,
        filename: str,
        data: bytes,
        *,
        parent_digest: Optional[str] = None,
    ) -> None:
        if self.fault_plan is not None and self.fault_plan.fire(
            FaultKind.CACHE_WRITE_FAIL
        ):
            if self.fault_observer is not None:
                self.fault_observer(FaultKind.CACHE_WRITE_FAIL)
            raise OSError(
                f"injected {FaultKind.CACHE_WRITE_FAIL.value} storing {key}"
            )
        with self._lock:
            path = self.root / filename
            tmp = path.with_suffix(path.suffix + ".tmp")
            tmp.write_bytes(data)
            # Rename to a fresh name only: a rename over an existing
            # file flushes its data first on ext4.
            old = self._forget(key)
            if old is not None:
                (self.root / old.file).unlink(missing_ok=True)
            os.replace(tmp, path)
            entry = _ManifestEntry(
                file=filename, size=len(data), parent_digest=parent_digest
            )
            self._add(key, entry)
            self._append([entry.put_line(key)] + self._evict_for(key))

    def _load(self, key: str) -> Optional[bytes]:
        with self._lock:
            entry = self._manifest.get(key)
            if entry is None:
                return None
            try:
                data = (self.root / entry.file).read_bytes()
            except FileNotFoundError:
                self._forget(key)
                self._append([{"op": "drop", "key": key}])
                return None
            if next(reversed(self._manifest)) != key:
                self._manifest.move_to_end(key)
                self._append([{"op": "touch", "key": key}])
            return data

    def keys(self) -> Dict[str, int]:
        """Mapping of cached key -> artifact size in bytes."""
        with self._lock:
            return {k: e.size for k, e in self._manifest.items()}

    # ------------------------------------------------------------------
    # RWave indexes
    # ------------------------------------------------------------------

    def get_index(
        self, matrix_digest: str, gamma: float
    ) -> Optional[RWaveIndex]:
        """A cached index for (digest, gamma), or ``None`` on a miss.

        A corrupt, stale or wrong-type artifact is a miss, not an
        error, and is dropped so later lookups do not re-read it: an
        index pickled under another layout (RWaveIndex's INDEX_LAYOUT
        tag) refuses to load with UnpicklingError, a malformed kernel
        tensor with ValueError, and the caller rebuilds the index and
        stores it again.
        """
        key = index_key(matrix_digest, gamma)
        data = self._load(key)
        index: Optional[RWaveIndex] = None
        if data is not None:
            try:
                loaded = pickle.loads(data)
            except (pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError, ValueError):
                loaded = None
            if isinstance(loaded, RWaveIndex):
                index = loaded
            else:
                self.drop_artifact(key)
        self._bump("index_misses" if index is None else "index_hits")
        return index

    def put_index(
        self,
        matrix_digest: str,
        gamma: float,
        index: RWaveIndex,
        *,
        parent_digest: Optional[str] = None,
    ) -> None:
        """Memoize a built index under (digest, gamma).

        ``parent_digest`` records lineage when the index was
        delta-updated from another matrix's index (docs/incremental.md).
        """
        key = index_key(matrix_digest, gamma)
        data = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
        self._store(key, f"{key}.pkl", data, parent_digest=parent_digest)
        self._bump("index_stores")

    def index_keys(self) -> List[str]:
        """Cache keys of every index artifact currently held.

        The fleet node advertises these in its lease requests so the
        coordinator can route shards of the same (matrix, gamma) back
        to it — the shard-affinity seam (docs/distributed.md).
        """
        with self._lock:
            return sorted(
                key for key in self._manifest if key.startswith("index-")
            )

    # ------------------------------------------------------------------
    # Completed results
    # ------------------------------------------------------------------

    def get_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """A cached ``reg-cluster/v1`` payload for a job id, or ``None``."""
        data = self._load(_result_key(job_id))
        if data is None:
            self._bump("result_misses")
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._bump("result_misses")
            return None
        self._bump("result_hits")
        return dict(payload)

    def put_result(self, job_id: str, payload: Dict[str, Any]) -> None:
        """Memoize a completed result payload under its job id."""
        key = _result_key(job_id)
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._store(key, f"{key}.json", data)
        self._bump("result_stores")

    def drop_result(self, job_id: str) -> None:
        """Forget a cached result (used when a job record is deleted)."""
        self.drop_artifact(_result_key(job_id))

    def drop_artifact(self, key: str) -> None:
        """Evict one artifact by cache key (no-op when absent).

        Safe on any key — including a parent whose delta-derived
        children are still cached: children are self-contained
        (:meth:`derived_from`), so dropping the parent only costs the
        next revision a cold build, never correctness.
        """
        with self._lock:
            entry = self._forget(key)
            if entry is not None:
                (self.root / entry.file).unlink(missing_ok=True)
                self._append([{"op": "drop", "key": key}])
