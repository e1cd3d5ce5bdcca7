"""The benchmark's workloads and the jobs each one submits.

Every workload is a closed loop: a client sends its next job only after
the previous one has returned its last result page.  Inputs come from
the workload seed only; the daemon sees nothing but the generated
matrices, deltas and parameters.

Out of scope: fleet (multi-node) mining and the Fig. 7 axis points
other than the default point and the 60-condition point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

import numpy as np

from repro.datasets.synthetic import make_synthetic_dataset
from repro.incremental.delta import AppendConditions, apply_delta, delta_to_dict
from repro.matrix.expression import ExpressionMatrix
from repro.matrix.summary import matrix_digest


@dataclass
class Op:
    """One job: its request and what the result must equal."""

    kind: str
    path: str
    body: bytes
    params: Dict[str, Any]
    #: builds the matrix the job mines (for the correctness check)
    matrix: Callable[[], ExpressionMatrix]
    #: identity of (matrix, params): equal keys share one expected result
    key: str


@dataclass
class Workload:
    name: str
    why: str
    genes: int
    conditions: int
    params: Dict[str, Any]
    workers: int
    clients: int
    #: ops per cycle; a run stops only at a cycle boundary, so every
    #: run holds the same mix of operations
    cycle: int = 1
    #: seconds of jobs between two host-speed probes (``calibrate.py``);
    #: 0 probes around every job
    round_s: float = 0.0
    clusters: int = 30
    small: Dict[str, Any] = field(default_factory=dict)

    def scaled(self, small: bool) -> "Workload":
        if not small:
            return self
        return Workload(**{**self.__dict__, **self.small, "small": {}})


def _params(min_genes: int) -> Dict[str, Any]:
    """The Fig. 7 mining point: MinC=6, gamma=0.1, epsilon=0.01."""
    return {"min_genes": min_genes, "min_conditions": 6, "gamma": 0.1,
            "epsilon": 0.01, "max_clusters": None}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "cold-fig7",
            "Fig. 7 default point, fresh matrix per job: the cold path the "
            "RWave index dominates, so an index or artifact change shows here",
            3000, 30, _params(30), workers=1, clients=1,
            small={"genes": 300, "conditions": 12, "clusters": 6,
                   "params": _params(3)},
        ),
        Workload(
            "wide-pool",
            "1000 genes x 60 conditions on a 2-worker pool: search and pool "
            "carry the job over 60 shards, the serial index is a quarter",
            1000, 60, _params(10), workers=2, clients=1,
            small={"genes": 200, "conditions": 16, "clusters": 6,
                   "params": _params(2)},
        ),
        Workload(
            "warm-evolve",
            "revisions, new epsilon points and resubmissions of one mined "
            "base matrix: cache hits, delta builds and puts serve reads",
            3000, 30, _params(30), workers=1, clients=1, cycle=6,
            small={"genes": 300, "conditions": 12, "clusters": 6,
                   "params": _params(3)},
        ),
        Workload(
            "tiny-jobs",
            "2 clients, 100 x 10 matrices: mining takes milliseconds, so "
            "parsing, persist, job-store writes and queueing dominate",
            100, 10, _params(3), workers=1, clients=2, round_s=0.5,
            small={"genes": 60, "conditions": 8, "clusters": 4,
                   "params": _params(2)},
        ),
    )
}


def _matrix_json(matrix: ExpressionMatrix) -> str:
    return json.dumps({
        "values": matrix.values.tolist(),
        "gene_names": list(matrix.gene_names),
        "condition_names": list(matrix.condition_names),
    })


def _job_body(matrix_json: str, params: Dict[str, Any]) -> bytes:
    return (f'{{"matrix": {matrix_json}, '
            f'"parameters": {json.dumps(params)}}}').encode("utf-8")


def _key(digest: str, params: Dict[str, Any]) -> str:
    return digest + json.dumps(params, sort_keys=True)


def _synthetic(w: Workload, seed: int) -> ExpressionMatrix:
    return make_synthetic_dataset(
        n_genes=w.genes, n_conditions=w.conditions, n_clusters=w.clusters,
        seed=seed % 2 ** 31,
    ).matrix


def _fresh_op(w: Workload, seed: int, k: int) -> Op:
    matrix = _synthetic(w, seed * 1_000_003 + k)
    return Op("fresh", "/jobs", _job_body(_matrix_json(matrix), w.params),
              w.params, lambda: matrix, _key(matrix_digest(matrix), w.params))


class EvolveState:
    """The ``warm-evolve`` base matrix, mined during set-up.

    The loop cycles through [floor revision, new epsilon, resubmission,
    uniform revision, new epsilon, resubmission].  Every operation is
    derived from the base, not from the previous operation, so its cost
    does not drift with run length.

    * A revision appends two conditions.  A *floor* delta sets them to
      each gene's minimum, so nothing climbs into them and the planner
      keeps most shards clean; a *uniform* delta draws them from the
      background range and dirties every shard.
    * A new epsilon point reuses the cached index and kernel and mines
      again.
    * A resubmission of the base job is answered from the result cache.
    """

    def __init__(self, w: Workload, seed: int) -> None:
        self.workload = w
        self.seed = seed
        self.base = _synthetic(w, seed)
        self.digest = matrix_digest(self.base)
        self.base_json = _matrix_json(self.base)
        self.base_op = Op("resubmit", "/jobs",
                          _job_body(self.base_json, w.params), w.params,
                          lambda: self.base, _key(self.digest, w.params))

    def op(self, k: int) -> Op:
        step = k % 6
        if step in (2, 5):
            return self.base_op
        if step in (1, 4):
            params = dict(self.workload.params)
            params["epsilon"] = params["epsilon"] + 1e-6 * (k + 1)
            return Op("epsilon", "/jobs", _job_body(self.base_json, params),
                      params, lambda: self.base, _key(self.digest, params))
        rng = np.random.default_rng([self.seed, k])
        if step == 0:
            values = np.repeat(self.base.values.min(axis=1)[None, :], 2, 0)
        else:
            values = rng.uniform(0.0, 10.0, size=(2, self.base.n_genes))
        delta = AppendConditions((f"rev{k}a", f"rev{k}b"), values)
        body = json.dumps({"delta": delta_to_dict(delta),
                           "parameters": self.workload.params})
        child = apply_delta(self.base, delta)
        kind = "floor" if step == 0 else "uniform"
        return Op(kind, f"/matrices/{self.digest}/revisions",
                  body.encode("utf-8"), self.workload.params, lambda: child,
                  _key(matrix_digest(child), self.workload.params))


class Source:
    """The jobs of one run: ``setup`` ops run before timing, then
    ``op(k)`` is the k-th job of the loop.  The same seed gives the same
    jobs."""

    def __init__(self, w: Workload, seed: int) -> None:
        self.setup: List[Op] = []
        if w.name == "warm-evolve":
            state = EvolveState(w, seed)
            self.setup = [state.base_op]
            self.op: Callable[[int], Op] = state.op
        else:
            self.op = lambda k: _fresh_op(w, seed, k)
