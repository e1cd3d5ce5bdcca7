"""repro.incremental — delta-aware mining over evolving matrices.

Expression compendia grow: new arrays (conditions) and genes arrive
over time, and analysts sweep gamma/epsilon grids over one matrix.
This package makes the (matrix, parameters) -> clusters computation a
reusable, delta-updatable artifact instead of a from-scratch job:

* typed matrix deltas and the :class:`MatrixRevision` lineage model
  (:mod:`repro.incremental.delta`), persisted content-addressed by the
  :class:`RevisionStore` (:mod:`repro.incremental.lineage`);
* incremental maintenance of the RWave^gamma index and its packed-bit
  regulation kernel — only new/changed planes are rebuilt, proven
  bit-identical to a cold build (:mod:`repro.incremental.update`);
* the :class:`DirtyShardPlanner`, which maps a delta to the shards
  whose mining inputs actually changed, so a revision job re-mines
  only dirty shards and stitches the rest from its parent
  (:mod:`repro.incremental.planner`);
* batched gamma/epsilon parameter sweeps that build each (matrix,
  gamma) kernel once (:mod:`repro.incremental.sweep`).

See ``docs/incremental.md`` for the lineage model, the shard-reuse
soundness argument, and the sweep API.
"""

from repro.incremental.delta import (
    AppendConditions,
    AppendGenes,
    DropGenes,
    MatrixDelta,
    MatrixRevision,
    apply_delta,
    delta_from_dict,
    delta_to_dict,
)
from repro.incremental.lineage import RevisionStore
from repro.incremental.planner import DirtyShardPlanner, RevisionPlan
from repro.incremental.sweep import (
    MAX_SWEEP_POINTS,
    SweepBatch,
    SweepPoint,
    SweepStore,
    compute_sweep_id,
    expand_grid,
)
from repro.incremental.update import IndexUpdate, update_index

__all__ = [
    "AppendConditions",
    "AppendGenes",
    "DirtyShardPlanner",
    "DropGenes",
    "IndexUpdate",
    "MatrixDelta",
    "MatrixRevision",
    "MAX_SWEEP_POINTS",
    "RevisionPlan",
    "RevisionStore",
    "SweepBatch",
    "SweepPoint",
    "SweepStore",
    "apply_delta",
    "compute_sweep_id",
    "delta_from_dict",
    "delta_to_dict",
    "expand_grid",
    "update_index",
]
