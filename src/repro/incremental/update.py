"""Incremental maintenance of the RWave^gamma index and its kernel.

An :class:`~repro.core.rwave.RWaveIndex` is one artifact: the RWave
tables plus the packed Eq. 3 regulation kernel
(:class:`~repro.core.kernels.RegulationKernel`).  Both are per-gene
structures over float comparisons, which makes delta updates exact
rather than approximate:

* **Gene deltas**: a gene's row of every RWave table and its
  ``(C, ceil(C/8))`` kernel plane depend only on its own row and
  threshold, so ``append_genes`` stacks the parent's rows and planes
  on top of ones built for the new genes only, and ``drop_genes``
  selects the survivors' rows and planes — reused bytes are the
  parent's bytes verbatim, in fresh arrays (the parent index, which may
  be shared through the artifact cache, is never mutated).

* **Appended conditions** change every table row, so the tables are
  rebuilt in one whole-matrix :func:`~repro.core.rwave.rwave_tables`
  pass.  The kernel keeps every old-pair bit of genes whose Eq. 4
  threshold is unchanged (the appended values sit inside the gene's
  existing ``[min, max]``) and computes only the new border
  rows/columns; genes whose threshold moved are repacked cold.

Every computed bit runs the same ``v[a] - v[b] > gamma_g`` float
comparison on the same ``float64`` operands as a cold build, so the
updated index is *byte-identical* to ``RWaveIndex(child, gamma)`` —
asserted by the equivalence suite in ``tests/incremental/test_update.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.typing import NDArray

from repro.core.kernels import RegulationKernel
from repro.core.regulation import gene_thresholds
from repro.core.rwave import RWaveIndex, RWaveTables, rwave_tables
from repro.incremental.delta import (
    AppendConditions,
    AppendGenes,
    DropGenes,
    MatrixDelta,
)
from repro.matrix.expression import ExpressionMatrix

__all__ = ["IndexUpdate", "update_index"]

#: Gene-axis chunk bounding the dense intermediates of the
#: append-conditions repack (same role as the kernel's own pack chunk).
_UPDATE_CHUNK = 512


@dataclass(frozen=True)
class IndexUpdate:
    """A delta-updated index (tables and kernel) plus its reuse accounting."""

    index: RWaveIndex
    #: gene rows of the RWave tables carried over from the parent index
    reused_models: int
    #: gene rows of the RWave tables built fresh
    rebuilt_models: int
    #: kernel planes whose parent bytes (or old-pair bits) were reused
    reused_planes: int
    #: kernel planes packed from scratch (new genes / changed thresholds)
    rebuilt_planes: int


def _kept_gene_indices(
    parent_matrix: ExpressionMatrix, delta: DropGenes
) -> NDArray[np.intp]:
    dropped = set(delta.genes)
    kept = [
        i
        for i, name in enumerate(parent_matrix.gene_names)
        if name not in dropped
    ]
    return np.asarray(kept, dtype=np.intp)


def _check_pair(
    parent_matrix: ExpressionMatrix,
    child_matrix: ExpressionMatrix,
    delta: MatrixDelta,
) -> None:
    """Sanity-check that the child plausibly is parent + delta."""
    if isinstance(delta, AppendConditions):
        expected = (
            parent_matrix.n_genes,
            parent_matrix.n_conditions + len(delta.names),
        )
    elif isinstance(delta, AppendGenes):
        expected = (
            parent_matrix.n_genes + len(delta.names),
            parent_matrix.n_conditions,
        )
    elif isinstance(delta, DropGenes):
        expected = (
            parent_matrix.n_genes - len(delta.genes),
            parent_matrix.n_conditions,
        )
    else:
        raise TypeError(f"unknown delta type {type(delta).__name__}")
    if child_matrix.shape != expected:
        raise ValueError(
            f"child matrix shape {child_matrix.shape} does not match "
            f"parent {parent_matrix.shape} + {delta.kind} delta "
            f"(expected {expected})"
        )


def _append_conditions_packed(
    parent_packed: NDArray[np.uint8],
    child_values: NDArray[np.float64],
    old_thresholds: NDArray[np.float64],
    new_thresholds: NDArray[np.float64],
    n_old: int,
) -> Tuple[NDArray[np.uint8], int, int]:
    """Repack for appended conditions, reusing unchanged-gene old bits."""
    n_genes, n_new = child_values.shape
    width = (n_new + 7) // 8
    packed = np.empty((n_genes, n_new, width), dtype=np.uint8)
    # Exact float equality on purpose: a reused bit must have been
    # computed against the *identical* threshold, or its gene is rebuilt.
    changed = old_thresholds != new_thresholds
    reused = int(n_genes - int(changed.sum()))
    # One-time repack, chunked to bound memory, not a search-time loop.
    for start in range(0, n_genes, _UPDATE_CHUNK):  # reglint: disable=RL106
        stop = min(start + _UPDATE_CHUNK, n_genes)
        block = np.ascontiguousarray(child_values[start:stop])
        thr = new_thresholds[start:stop]
        flip = changed[start:stop]
        up = np.empty((stop - start, n_new, n_new), dtype=bool)
        if bool(flip.any()):
            # Threshold moved: every pair of this gene needs the new
            # cutoff — full rebuild, same expression as the cold pack.
            hot = block[flip]
            diff = hot[:, :, None] - hot[:, None, :]
            up[flip] = diff > thr[flip][:, None, None]
        keep = ~flip
        if bool(keep.any()):
            cold = block[keep]
            limit = thr[keep][:, None, None]
            sub = np.empty((int(keep.sum()), n_new, n_new), dtype=bool)
            sub[:, :n_old, :n_old] = np.unpackbits(
                parent_packed[start:stop][keep], axis=2, count=n_old
            ).astype(bool)
            # Border pairs involving at least one appended condition:
            # same float operands and operand order as the cold pack's
            # full difference tensor, so the bits agree bit-for-bit.
            sub[:, :, n_old:] = (
                cold[:, :, None] - cold[:, None, n_old:]
            ) > limit
            sub[:, n_old:, :n_old] = (
                cold[:, n_old:, None] - cold[:, None, :n_old]
            ) > limit
            up[keep] = sub
        packed[start:stop] = np.packbits(up, axis=2)
    return packed, reused, n_genes - reused


def _check_lineage(
    parent_thresholds: NDArray[np.float64],
    child_thresholds: NDArray[np.float64],
) -> None:
    if not np.array_equal(parent_thresholds, child_thresholds):
        raise ValueError(
            "parent index thresholds disagree with the child matrix; "
            "the parent index does not belong to this lineage"
        )


def update_index(
    parent_index: RWaveIndex,
    child_matrix: ExpressionMatrix,
    delta: MatrixDelta,
) -> IndexUpdate:
    """Delta-update a parent index and its kernel to the child matrix.

    The returned index (same gamma) is byte-identical to
    ``RWaveIndex(child_matrix, parent_index.gamma)`` built cold.
    """
    parent_matrix = parent_index.matrix
    _check_pair(parent_matrix, child_matrix, delta)
    gamma = parent_index.gamma
    child_thresholds = gene_thresholds(child_matrix, gamma)
    parent_packed = parent_index.kernel.packed
    if isinstance(delta, AppendConditions):
        # Every gene row gained values: all sort orders, pointers and
        # chain tables may change, so the tables are rebuilt whole.
        # The kernel keeps the old-pair bits of unchanged-threshold
        # genes and packs only the border pairs.
        packed, reused, rebuilt = _append_conditions_packed(
            parent_packed,
            child_matrix.values,
            parent_index.thresholds,
            child_thresholds,
            parent_matrix.n_conditions,
        )
        tables = rwave_tables(child_matrix.values, child_thresholds)
        reused_models = 0
    elif isinstance(delta, AppendGenes):
        n_old = parent_matrix.n_genes
        _check_lineage(parent_index.thresholds, child_thresholds[:n_old])
        fresh_values = child_matrix.values[n_old:]
        fresh_thresholds = child_thresholds[n_old:]
        fresh = rwave_tables(fresh_values, fresh_thresholds)
        tables = RWaveTables(
            *(
                np.vstack([old, new])
                for old, new in zip(parent_index.tables, fresh)
            )
        )
        packed = np.concatenate(
            [
                parent_packed,
                RegulationKernel(fresh_values, fresh_thresholds).packed,
            ],
            axis=0,
        )
        reused = reused_models = n_old
        rebuilt = child_matrix.n_genes - n_old
    else:
        # DropGenes (``_check_pair`` already rejected unknown kinds).
        kept = _kept_gene_indices(parent_matrix, delta)
        _check_lineage(parent_index.thresholds[kept], child_thresholds)
        tables = RWaveTables(*(table[kept] for table in parent_index.tables))
        packed = parent_packed[kept]
        reused = reused_models = int(kept.shape[0])
        rebuilt = 0
    index = RWaveIndex.from_parts(
        child_matrix,
        gamma,
        thresholds=child_thresholds,
        tables=tables,
        packed=packed,
    )
    return IndexUpdate(
        index=index,
        reused_models=reused_models,
        rebuilt_models=child_matrix.n_genes - reused_models,
        reused_planes=reused,
        rebuilt_planes=rebuilt,
    )
