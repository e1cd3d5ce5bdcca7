"""Correctness of every completed job, checked after the timed loop.

A job's clusters must equal, in order, what an in-process
``RegClusterMiner(matrix, params).mine()`` returns on the same inputs,
and every cluster must pass the Definition 3.2 validator
(``repro.core.validate``).  The reference mines run on a small fork
pool, one task per distinct matrix, so the epsilon points of one matrix
share one cold index.  Fork, not spawn: a spawn pool starts a
multiprocessing resource tracker that outlives the benchmark's process.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.miner import RegClusterMiner
from repro.core.params import MiningParameters
from repro.core.rwave import RWaveIndex
from repro.core.serialize import cluster_from_dict, cluster_to_dict
from repro.core.validate import validation_errors
from repro.matrix.expression import ExpressionMatrix

from workloads import Op

Clusters = List[Dict[str, Any]]


def reference(
    matrix: ExpressionMatrix, points: Sequence[Dict[str, Any]]
) -> Tuple[List[Clusters], int]:
    """In-process results for each parameter point of one matrix, and
    the bytes the matrix's index pickles to (what a spawn pool ships)."""
    index = RWaveIndex(matrix, float(points[0]["gamma"]))
    results = [
        [cluster_to_dict(c, matrix) for c in RegClusterMiner(
            matrix, MiningParameters(**point), index=index).mine().clusters]
        for point in points
    ]
    return results, len(pickle.dumps(index))


class Verifier:
    """Expected results per (matrix, parameters), each mined once."""

    def __init__(self, workers: int = 2) -> None:
        self.workers = workers
        self._expected: Dict[str, Clusters] = {}
        self._pickled: Dict[str, int] = {}

    def prime(self, ops: Sequence[Op]) -> None:
        """Mine the reference result of every op not seen yet."""
        groups: Dict[Tuple[str, float], List[Op]] = {}
        for op in ops:
            if op.key not in self._expected:
                group = groups.setdefault(
                    (op.key[:64], float(op.params["gamma"])), [])
                if all(op.key != other.key for other in group):
                    group.append(op)
        if not groups:
            return
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(min(self.workers, len(groups)),
                                 mp_context=context) as pool:
            futures = [
                (group, pool.submit(reference, group[0].matrix(),
                                    [op.params for op in group]))
                for group in groups.values()
            ]
            for group, future in futures:
                results, pickled = future.result()
                for op, clusters in zip(group, results):
                    self._expected[op.key] = clusters
                    self._pickled[op.key] = pickled

    def errors(self, op: Op, clusters: Clusters) -> List[str]:
        """Why the clusters a job returned are wrong (empty when right)."""
        self.prime([op])
        matrix = op.matrix()
        params = MiningParameters(**op.params)
        found: List[str] = []
        expected = self._expected[op.key]
        if clusters != expected:
            found.append(
                f"{op.kind} job returned {len(clusters)} clusters that differ "
                f"from the {len(expected)} of an in-process mine"
            )
        for entry in clusters:
            try:
                cluster = cluster_from_dict(entry, matrix)
            except (KeyError, ValueError) as error:
                found.append(f"unreadable cluster {entry!r}: {error}")
                continue
            found.extend(validation_errors(matrix, cluster, params))
        return found

    def pickled_index_bytes(self, op: Op) -> int:
        """Bytes the job's index pickles to (computed, not measured)."""
        self.prime([op])
        return self._pickled[op.key]
