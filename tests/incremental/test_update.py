"""Delta-updated indexes (tables and kernel) must be bit-identical to
cold builds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import RegulationKernel
from repro.core.regulation import gene_thresholds
from repro.core.rwave import RWaveIndex
from repro.incremental import (
    AppendConditions,
    AppendGenes,
    DropGenes,
    apply_delta,
    update_index,
)
from tests.incremental.conftest import bimodal_matrix

GAMMA = 0.6


def _update_from_cold(parent, child, delta):
    """Delta-update the parent's cold index; return the update."""
    return update_index(RWaveIndex(parent, GAMMA), child, delta)


def _assert_kernels_identical(updated, matrix):
    cold = RegulationKernel(matrix.values, gene_thresholds(matrix, GAMMA))
    assert updated.packed.shape == cold.packed.shape
    assert updated.packed.tobytes() == cold.packed.tobytes()


def _assert_indexes_identical(updated, matrix):
    cold = RWaveIndex(matrix, GAMMA)
    np.testing.assert_array_equal(updated.thresholds, cold.thresholds)
    assert updated.kernel.packed.tobytes() == cold.kernel.packed.tobytes()
    np.testing.assert_array_equal(updated.max_up, cold.max_up)
    np.testing.assert_array_equal(updated.max_down, cold.max_down)
    for mine, theirs in zip(updated.models, cold.models):
        assert mine.order.tolist() == theirs.order.tolist()
        assert mine.max_chain_up.tolist() == theirs.max_chain_up.tolist()
        assert (
            mine.max_chain_down.tolist() == theirs.max_chain_down.tolist()
        )


class TestKernelAppendConditions:
    # Condition counts straddling byte boundaries: the packed axis is
    # ceil(C/8) bytes, so crossing 8 and 16 exercises re-packing where
    # old bits land at new bit offsets.
    @pytest.mark.parametrize("n_old", [5, 7, 8, 9, 16])
    @pytest.mark.parametrize("n_new", [1, 3])
    def test_bit_identical_across_byte_boundaries(self, n_old, n_new):
        parent = bimodal_matrix(9, n_old, seed=n_old)
        rng = np.random.default_rng(n_old * 100 + n_new)
        delta = AppendConditions(
            names=tuple(f"new{i}" for i in range(n_new)),
            values=rng.uniform(0.0, 10.0, size=(n_new, parent.n_genes)),
        )
        child = apply_delta(parent, delta)
        update = _update_from_cold(parent, child, delta)
        _assert_kernels_identical(update.index.kernel, child)
        assert update.reused_planes + update.rebuilt_planes == (
            parent.n_genes
        )

    def test_in_range_append_reuses_every_plane(self):
        parent = bimodal_matrix(8, 10, seed=3)
        # One new value per gene strictly inside its [min, max]: every
        # Eq. 4 threshold is float-identical, so no plane rebuilds cold.
        mid = (
            parent.values.min(axis=1) + parent.values.max(axis=1)
        ) / 2.0
        delta = AppendConditions(names=("mid",), values=mid[None, :])
        child = apply_delta(parent, delta)
        update = _update_from_cold(parent, child, delta)
        assert update.reused_planes == parent.n_genes
        assert update.rebuilt_planes == 0
        _assert_kernels_identical(update.index.kernel, child)

    def test_range_widening_append_rebuilds_that_gene(self):
        parent = bimodal_matrix(6, 9, seed=4)
        new = (
            (parent.values.min(axis=1) + parent.values.max(axis=1)) / 2.0
        )
        new[2] = parent.values[2].max() + 5.0  # widen gene 2's range
        delta = AppendConditions(names=("wide",), values=new[None, :])
        child = apply_delta(parent, delta)
        update = _update_from_cold(parent, child, delta)
        assert update.rebuilt_planes == 1
        assert update.reused_planes == parent.n_genes - 1
        _assert_kernels_identical(update.index.kernel, child)


class TestKernelGeneDeltas:
    def test_append_genes_bit_identical(self):
        parent = bimodal_matrix(7, 9, seed=5)
        delta = AppendGenes(
            names=("a", "b"),
            values=bimodal_matrix(2, 9, seed=6).values,
        )
        child = apply_delta(parent, delta)
        update = _update_from_cold(parent, child, delta)
        assert update.reused_planes == parent.n_genes
        assert update.rebuilt_planes == 2
        _assert_kernels_identical(update.index.kernel, child)

    def test_drop_genes_bit_identical(self):
        parent = bimodal_matrix(8, 9, seed=8)
        delta = DropGenes(
            genes=(parent.gene_names[0], parent.gene_names[5])
        )
        child = apply_delta(parent, delta)
        update = _update_from_cold(parent, child, delta)
        assert update.reused_planes == child.n_genes
        assert update.rebuilt_planes == 0
        _assert_kernels_identical(update.index.kernel, child)

    def test_shape_mismatch_rejected(self):
        parent = bimodal_matrix(6, 8, seed=9)
        other = bimodal_matrix(6, 8, seed=10)
        delta = AppendGenes(names=("x",), values=np.zeros((1, 8)))
        wrong = apply_delta(other, delta)
        with pytest.raises(ValueError):
            _update_from_cold(
                parent, ExpressionMatrix_like_wrong_shape(wrong), delta
            )


def ExpressionMatrix_like_wrong_shape(matrix):
    """A child whose shape does not fit parent + delta."""
    from repro.matrix.expression import ExpressionMatrix

    return ExpressionMatrix(
        np.hstack([matrix.values, matrix.values[:, :1]])
    )


class TestIndexUpdate:
    def test_append_genes_splices_models(self):
        parent = bimodal_matrix(7, 9, seed=11)
        delta = AppendGenes(
            names=("a",), values=bimodal_matrix(1, 9, seed=12).values
        )
        child = apply_delta(parent, delta)
        parent_index = RWaveIndex(parent, GAMMA)
        update = update_index(parent_index, child, delta)
        assert update.reused_models == parent.n_genes
        assert update.rebuilt_models == 1
        _assert_indexes_identical(update.index, child)

    def test_drop_genes_renumbers_survivors(self):
        parent = bimodal_matrix(8, 9, seed=13)
        delta = DropGenes(genes=(parent.gene_names[2],))
        child = apply_delta(parent, delta)
        parent_index = RWaveIndex(parent, GAMMA)
        update = update_index(parent_index, child, delta)
        assert update.reused_models == child.n_genes
        assert [m.gene for m in update.index.models] == list(
            range(child.n_genes)
        )
        # The parent's own models keep their original numbering (the
        # cached parent index must never be mutated).
        assert [m.gene for m in parent_index.models] == list(
            range(parent.n_genes)
        )
        _assert_indexes_identical(update.index, child)

    def test_append_conditions_rebuilds_cold(self):
        parent = bimodal_matrix(6, 8, seed=14)
        rng = np.random.default_rng(15)
        delta = AppendConditions(
            names=("n1",),
            values=rng.uniform(0.0, 10.0, size=(1, parent.n_genes)),
        )
        child = apply_delta(parent, delta)
        update = update_index(RWaveIndex(parent, GAMMA), child, delta)
        assert update.reused_models == 0
        _assert_indexes_identical(update.index, child)

    def test_foreign_parent_rejected(self):
        parent = bimodal_matrix(6, 8, seed=16)
        foreign = bimodal_matrix(6, 8, seed=17)
        delta = AppendGenes(names=("x",), values=np.full((1, 8), 5.0))
        child = apply_delta(parent, delta)
        with pytest.raises(ValueError, match="lineage"):
            update_index(RWaveIndex(foreign, GAMMA), child, delta)
