"""Precomputed regulation-pair kernels (the Eq. 3 relation, materialized).

The miner's innermost operation asks, for a member gene ``g`` and the
chain's last condition ``b``: *which conditions ``a`` satisfy
``Reg(g, a, b) == Up``?* (Eq. 3: ``values[g, a] - values[g, b] >
gamma_g``).  The original hot path re-derived this from raw expression
values at every search node — an O(|members| x C) float subtract/compare
per node.  A :class:`RegulationKernel` instead materializes the whole
ternary relation once per ``(matrix, thresholds)`` pair as the boolean
tensor::

    up[g, a, b]  =  values[g, a] - values[g, b] > gamma_g

bit-packed along the ``b`` axis with :func:`numpy.packbits`, so the full
relation costs ~``G * C^2 / 8`` bytes (a 5000 x 40 matrix packs into one
megabyte).  The two views the search needs are cheap projections:

``up_slice(last)``
    dense ``(G, C)`` boolean ``up[:, :, last]`` — regulation *successor*
    test against a fixed last condition.  Extracting one bit position
    from the packed axis touches ``G * C`` bytes, no full unpack.
``down_slice(last)``
    dense ``(G, C)`` boolean ``up[:, last, :]`` — regulation
    *predecessor* test — one :func:`numpy.unpackbits` over ``G * C / 8``
    packed bytes.

Because the depth-first search revisits the same last condition across
all siblings of a subtree, both projections sit behind a small
per-last-condition LRU cache of dense slices (the time/memory trade-off
is documented in ``docs/performance.md``).

The comparisons here are executed on exactly the same float operands as
the direct Eq. 3 evaluation, so a kernel-backed miner is *bit-identical*
to the unkernelized one — the equivalence suite in
``tests/core/test_kernels.py`` and ``tests/core/test_miner_kernel_equivalence.py``
asserts this on every pinned dataset.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = ["RegulationKernel", "DEFAULT_SLICE_CACHE"]

#: Dense slices kept unpacked per direction.  The depth-first search
#: cycles through every condition as "last" across sibling subtrees, so
#: the default covers all slices of typical expression matrices
#: (C <= 64) outright — each cached slice costs G x C bytes; matrices
#: with more conditions fall back to LRU reuse along the search path.
DEFAULT_SLICE_CACHE = 64

#: Condition pairs compared per packing chunk: genes are packed
#: ``_PACK_PAIRS // C^2`` at a time, so the temporary dense
#: ``(chunk, C, C)`` difference tensor stays near 1 MB of floats for
#: any C.  The kernel is built with the RWave index in the daemon's own
#: process, so these temporaries count toward the daemon's peak RSS.
_PACK_PAIRS = 1 << 17


class RegulationKernel:
    """Bit-packed pairwise regulation relation of every gene.

    Parameters
    ----------
    values:
        Expression matrix, shape ``(n_genes, n_conditions)``.
    thresholds:
        Per-gene regulation thresholds ``gamma_g`` (Eq. 4), shape
        ``(n_genes,)``, all non-negative.
    """

    def __init__(self, values: ArrayLike, thresholds: ArrayLike) -> None:
        data = np.ascontiguousarray(values, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(
                f"values must be a 2-D matrix, got shape {data.shape}"
            )
        per_gene = np.asarray(thresholds, dtype=np.float64)
        if per_gene.shape != (data.shape[0],):
            raise ValueError(
                f"thresholds must have shape ({data.shape[0]},), got "
                f"{per_gene.shape}"
            )
        if np.any(per_gene < 0):
            raise ValueError("thresholds must be non-negative")
        self.n_genes, self.n_conditions = data.shape
        self._packed = self._pack(data, per_gene)
        self._up_cache: "OrderedDict[int, NDArray[np.bool_]]" = OrderedDict()
        self._down_cache: "OrderedDict[int, NDArray[np.bool_]]" = OrderedDict()

    @classmethod
    def from_packed(
        cls, packed: NDArray[np.uint8], *, n_conditions: int
    ) -> "RegulationKernel":
        """Wrap an already-packed relation tensor into a kernel.

        The seam for an :class:`~repro.core.rwave.RWaveIndex` that is
        unpickled or delta-updated (:mod:`repro.incremental.update`): a
        revision job reuses the unchanged planes of its parent's kernel
        and packs only the new/changed ones, then assembles the result
        here without re-deriving any bit.  The caller guarantees the
        bits correspond to Eq. 3 over some ``(values, thresholds)``
        pair — the incremental equivalence suite proves the assembled
        tensor byte-identical to a cold :meth:`_pack` build.
        """
        if n_conditions < 0:
            raise ValueError(
                f"n_conditions must be >= 0, got {n_conditions}"
            )
        tensor = np.ascontiguousarray(packed, dtype=np.uint8)
        expected_width = (n_conditions + 7) // 8
        if (
            tensor.ndim != 3
            or tensor.shape[1] != n_conditions
            or tensor.shape[2] != expected_width
        ):
            raise ValueError(
                f"packed tensor must have shape (G, {n_conditions}, "
                f"{expected_width}), got {tensor.shape}"
            )
        kernel = cls.__new__(cls)
        kernel.n_genes = int(tensor.shape[0])
        kernel.n_conditions = int(n_conditions)
        kernel._packed = tensor
        kernel._up_cache = OrderedDict()
        kernel._down_cache = OrderedDict()
        return kernel

    @property
    def packed(self) -> NDArray[np.uint8]:
        """The packed relation tensor ``(G, C, ceil(C/8))`` (read-only).

        Shared with the kernel — callers must not mutate it.  Exposed
        for delta-updates that reuse unchanged planes verbatim.
        """
        return self._packed

    @staticmethod
    def _pack(
        values: NDArray[np.float64], thresholds: NDArray[np.float64]
    ) -> NDArray[np.uint8]:
        """Build ``packbits(up, axis=2)`` in gene chunks.

        Chunking bounds the dense intermediate at about
        ``_PACK_PAIRS`` floats regardless of the matrix shape.
        """
        n_genes, n_conditions = values.shape
        chunk = max(1, _PACK_PAIRS // max(1, n_conditions * n_conditions))
        packed_width = (n_conditions + 7) // 8
        packed = np.empty(
            (n_genes, n_conditions, packed_width), dtype=np.uint8
        )
        # One-time pack, chunked to bound memory, not a search-time loop.
        for start in range(0, n_genes, chunk):  # reglint: disable=RL106
            stop = min(start + chunk, n_genes)
            block = values[start:stop]
            # Same operands, same order, as the direct Eq. 3 check — the
            # packed bits are bitwise-identical to the float comparison.
            diff = block[:, :, None] - block[:, None, :]
            up = diff > thresholds[start:stop, None, None]
            packed[start:stop] = np.packbits(up, axis=2)
        return packed

    # ------------------------------------------------------------------
    # Projections
    # ------------------------------------------------------------------

    def _check_condition(self, condition: int) -> int:
        if not 0 <= condition < self.n_conditions:
            raise IndexError(
                f"condition {condition} out of range for a kernel over "
                f"{self.n_conditions} conditions"
            )
        return int(condition)

    def _cached(
        self,
        cache: "OrderedDict[int, NDArray[np.bool_]]",
        condition: int,
    ) -> Optional[NDArray[np.bool_]]:
        hit = cache.get(condition)
        if hit is not None:
            cache.move_to_end(condition)
        return hit

    def _remember(
        self,
        cache: "OrderedDict[int, NDArray[np.bool_]]",
        condition: int,
        dense: NDArray[np.bool_],
    ) -> NDArray[np.bool_]:
        if DEFAULT_SLICE_CACHE:
            cache[condition] = dense
            while len(cache) > DEFAULT_SLICE_CACHE:
                cache.popitem(last=False)
        return dense

    def up_slice(self, last: int) -> NDArray[np.bool_]:
        """``(G, C)`` boolean: ``[g, a]`` iff ``Reg(g, a, last) == Up``.

        Row ``g``, column ``a`` is true when condition ``a`` up-regulates
        gene ``g`` relative to ``last`` (Eq. 3).  The returned array is
        shared with the cache — treat it as read-only.
        """
        last = self._check_condition(last)
        hit = self._cached(self._up_cache, last)
        if hit is not None:
            return hit
        byte = self._packed[:, :, last >> 3]
        bit = (byte >> (7 - (last & 7))) & 1
        return self._remember(self._up_cache, last, bit.astype(np.bool_))

    def down_slice(self, last: int) -> NDArray[np.bool_]:
        """``(G, C)`` boolean: ``[g, b]`` iff ``Reg(g, last, b) == Up``.

        Row ``g``, column ``b`` is true when ``last`` up-regulates gene
        ``g`` relative to condition ``b`` — i.e. ``b`` is a regulation
        predecessor of ``last``.  Shared with the cache; read-only.
        """
        last = self._check_condition(last)
        hit = self._cached(self._down_cache, last)
        if hit is not None:
            return hit
        bits = np.unpackbits(
            self._packed[:, last, :], axis=1, count=self.n_conditions
        )
        return self._remember(
            self._down_cache, last, bits.astype(np.bool_)
        )

    def is_up_regulated(self, gene: int, cond_hi: int, cond_lo: int) -> bool:
        """Point query ``Reg(gene, cond_hi, cond_lo) == Up`` (Eq. 3)."""
        cond_hi = self._check_condition(cond_hi)
        cond_lo = self._check_condition(cond_lo)
        byte = int(self._packed[gene, cond_hi, cond_lo >> 3])
        return bool((byte >> (7 - (cond_lo & 7))) & 1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return self.n_genes, self.n_conditions

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed tensor (excludes the slice cache)."""
        return int(self._packed.nbytes)

    def cache_info(self) -> Tuple[int, int]:
        """Currently-cached dense slice counts ``(up, down)``."""
        return len(self._up_cache), len(self._down_cache)

    def clear_cache(self) -> None:
        """Drop every cached dense slice (the packed tensor remains)."""
        self._up_cache.clear()
        self._down_cache.clear()

    def __repr__(self) -> str:
        return (
            f"RegulationKernel(shape={self.n_genes}x{self.n_conditions}, "
            f"packed={self.nbytes} bytes)"
        )

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------

    def __getstate__(self) -> "dict[str, object]":
        """Persist only the packed tensor — dense slices are derived."""
        state = dict(self.__dict__)
        state["_up_cache"] = OrderedDict()
        state["_down_cache"] = OrderedDict()
        return state

    def __setstate__(self, state: "dict[str, object]") -> None:
        self.__dict__.update(state)
