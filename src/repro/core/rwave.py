"""The RWave^gamma model (paper Definition 3.1 and Lemma 3.1).

For one gene, the model is the list of conditions sorted in non-descending
order of expression value, decorated with *regulation pointers*.  A pointer
from tail position ``a`` to head position ``b`` (``a < b``) records a
*bordering* regulated condition-pair: every condition at position ``<= a``
differs from every condition at position ``>= b`` by more than the gene's
regulation threshold, and no other pointer is embedded inside it.  Instead
of the O(n^2) pairwise regulation table, the model stores O(n) pointers
from which Lemma 3.1 recovers every regulation predecessor / successor
with a single binary search.

Construction (:func:`rwave_tables`) runs over a whole matrix at once: one
stable row-wise sort, then one pass over the C sorted positions,
vectorized across every gene, that counts each position's regulation
predecessors.  Because the rows are sorted and ``fl(a - b)`` is monotone
in ``b``, the positions ``q`` with ``v[pos] - v[q] > gamma_g`` (Eq. 3,
evaluated exactly as written) form a prefix, so the count minus one is
the position's *closest* regulation predecessor.  Closest predecessors
are non-decreasing along the scan, so a position heads a pointer exactly
when its closest predecessor exists and differs from the previous
position's — Definition 3.1 (2), no embedded pointer.

The model additionally precomputes, for every position, the length of the
longest regulation chain that can *start* there (climbing up) or *end*
there (equivalently: the longest descending chain starting there).  These
tables implement the paper's MinC pruning (strategy 2).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.analysis.contracts import maybe_check_rwave_index
from repro.core.kernels import RegulationKernel
from repro.core.regulation import gene_thresholds
from repro.matrix.expression import ExpressionMatrix

__all__ = [
    "INDEX_LAYOUT",
    "RegulationPointer",
    "RWaveModel",
    "RWaveIndex",
    "RWaveTables",
    "build_rwave",
    "rwave_tables",
]

#: Version tag of the pickled :class:`RWaveIndex` state.  Bump it when
#: the arrays ``__getstate__`` writes change; a pickle carrying another
#: (or no) tag refuses to load, so cached artifacts rebuild instead of
#: resurfacing in a job with the wrong attributes.
INDEX_LAYOUT = 3


class RWaveTables(NamedTuple):
    """The per-gene RWave^gamma arrays of a set of rows, all ``(G, C)``."""

    #: condition ids of each row sorted in non-descending value order
    order: NDArray[np.intp]
    #: closest regulation predecessor of each *sorted position* (a
    #: position, ``-1`` when there is none): Lemma 3.1's predecessor bound
    closest: NDArray[np.intp]
    #: longest up-chain starting at each *condition id*
    max_up: NDArray[np.intp]
    #: longest down-chain starting at each *condition id*
    max_down: NDArray[np.intp]


def rwave_tables(
    values: NDArray[np.float64], thresholds: NDArray[np.float64]
) -> RWaveTables:
    """Build the RWave^gamma tables of every row of ``values`` at once.

    ``thresholds[g]`` is row ``g``'s regulation threshold (non-negative).
    Costs O(G C^2) float comparisons — the same order as the regulation
    kernel built beside it — with one ``(G, C)`` temporary at a time.
    """
    n_rows, n_conditions = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    sorted_values = np.take_along_axis(values, order, axis=1)
    gamma = thresholds[:, None]
    rows = np.arange(n_rows)
    closest = np.empty((n_rows, n_conditions), dtype=np.intp)
    # Column p + 1 holds position p; column 0 is the zero "no
    # predecessor" sentinel that closest == -1 lands on.
    down = np.zeros((n_rows, n_conditions + 1), dtype=np.intp)
    for pos in range(n_conditions):
        # The regulation predecessors of ``pos`` are a prefix of the
        # sorted row, so counting them gives the closest one.
        regulated = (
            sorted_values[:, pos, None] - sorted_values[:, :pos] > gamma
        )
        closest[:, pos] = np.count_nonzero(regulated, axis=1) - 1
        # Longest descending chain: hop to the closest predecessor.
        down[:, pos + 1] = 1 + down[rows, closest[:, pos] + 1]
    # Column C is the zero "no successor" sentinel.
    up = np.zeros((n_rows, n_conditions + 1), dtype=np.intp)
    for pos in range(n_conditions - 1, -1, -1):
        # Closest successor: the first position whose closest
        # predecessor reaches ``pos`` (closest is non-decreasing).
        successor = np.count_nonzero(closest < pos, axis=1)
        up[:, pos] = 1 + up[rows, successor]
    max_up = np.empty((n_rows, n_conditions), dtype=np.intp)
    max_down = np.empty((n_rows, n_conditions), dtype=np.intp)
    np.put_along_axis(max_up, order, up[:, :n_conditions], axis=1)
    np.put_along_axis(max_down, order, down[:, 1:], axis=1)
    return RWaveTables(order, closest, max_up, max_down)


@dataclass(frozen=True)
class RegulationPointer:
    """A bordering regulation pointer between two *positions* in the order.

    ``tail`` and ``head`` are positions (not condition ids); every
    condition at position ``<= tail`` is a regulation predecessor of every
    condition at position ``>= head``.
    """

    tail: int
    head: int

    def __post_init__(self) -> None:
        if self.tail >= self.head:
            raise ValueError(
                f"pointer tail {self.tail} must precede head {self.head}"
            )


class RWaveModel:
    """RWave^gamma model of a single gene.

    Parameters
    ----------
    row:
        The gene's expression profile (one value per condition).
    threshold:
        The gene's regulation threshold ``gamma_i`` (Eq. 4).
    gene:
        Optional gene index carried along for diagnostics.
    """

    def __init__(
        self,
        row: ArrayLike,
        threshold: float,
        *,
        gene: Optional[int] = None,
    ) -> None:
        profile = np.asarray(row, dtype=np.float64)
        if profile.ndim != 1:
            raise ValueError("an RWave model is built from a single profile")
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        tables = rwave_tables(
            profile[None, :], np.asarray([threshold], dtype=np.float64)
        )
        self._fill(profile, threshold, gene, *(t[0] for t in tables))

    @classmethod
    def _view(cls, index: "RWaveIndex", gene: int) -> "RWaveModel":
        """One gene's model, read off a built index's tables."""
        model = cls.__new__(cls)
        model._fill(
            index.matrix.values[gene],
            float(index.thresholds[gene]),
            gene,
            index.order[gene],
            index.closest[gene],
            index.max_up[gene],
            index.max_down[gene],
        )
        return model

    def _fill(
        self,
        profile: NDArray[np.float64],
        threshold: float,
        gene: Optional[int],
        order: NDArray[np.intp],
        closest: NDArray[np.intp],
        max_up: NDArray[np.intp],
        max_down: NDArray[np.intp],
    ) -> None:
        n = order.shape[0]
        self.gene = gene
        self.threshold = float(threshold)
        #: condition ids sorted in non-descending order of expression value
        self.order: NDArray[np.intp] = order
        #: expression values in sorted order
        self.sorted_values: NDArray[np.float64] = profile[order]
        #: position of each condition id in :attr:`order`
        self.position: NDArray[np.intp] = np.empty(n, dtype=np.intp)
        self.position[order] = np.arange(n, dtype=np.intp)
        # A position heads a pointer when its closest predecessor exists
        # and is new: an equal one would embed the earlier pointer.
        previous = np.concatenate(([-1], closest[:-1]))
        self._heads = np.flatnonzero((closest >= 0) & (closest != previous))
        self._tails = closest[self._heads]
        self.pointers: Tuple[RegulationPointer, ...] = tuple(
            RegulationPointer(tail=int(t), head=int(h))
            for t, h in zip(self._tails, self._heads)
        )
        #: longest up-chain / down-chain from every *position* (including
        #: the position itself)
        self.max_chain_up: NDArray[np.intp] = max_up[order]
        self.max_chain_down: NDArray[np.intp] = max_down[order]

    # ------------------------------------------------------------------
    # Lemma 3.1 queries
    # ------------------------------------------------------------------

    @property
    def n_conditions(self) -> int:
        return self.order.shape[0]

    def predecessor_bound(self, condition: int) -> int:
        """Largest position whose conditions all precede ``condition``.

        Returns ``-1`` when the condition has no regulation predecessor.
        Lemma 3.1: follow the nearest pointer *before* the condition; every
        position up to that pointer's tail is a predecessor.
        """
        pos = int(self.position[condition])
        k = int(np.searchsorted(self._heads, pos, side="right")) - 1
        return int(self._tails[k]) if k >= 0 else -1

    def successor_bound(self, condition: int) -> int:
        """Smallest position whose conditions all succeed ``condition``.

        Returns ``n_conditions`` when the condition has no regulation
        successor.
        """
        pos = int(self.position[condition])
        k = int(np.searchsorted(self._tails, pos, side="left"))
        return int(self._heads[k]) if k < len(self._tails) else self.n_conditions

    def regulation_predecessors(self, condition: int) -> NDArray[np.intp]:
        """All regulation predecessors of ``condition`` (condition ids).

        The ids are returned in model order (non-descending expression).
        """
        bound = self.predecessor_bound(condition)
        return self.order[: bound + 1].copy()

    def regulation_successors(self, condition: int) -> NDArray[np.intp]:
        """All regulation successors of ``condition`` (condition ids)."""
        bound = self.successor_bound(condition)
        return self.order[bound:].copy()

    def is_up_regulated(self, cond_hi: int, cond_lo: int) -> bool:
        """``Reg(i, cond_hi, cond_lo) == Up`` — direct Eq. 3 check."""
        pos_hi = int(self.position[cond_hi])
        pos_lo = int(self.position[cond_lo])
        diff = float(self.sorted_values[pos_hi] - self.sorted_values[pos_lo])
        return diff > self.threshold

    def max_up_from(self, condition: int) -> int:
        """Longest regulation chain starting at ``condition`` going up."""
        return int(self.max_chain_up[self.position[condition]])

    def max_down_from(self, condition: int) -> int:
        """Longest regulation chain starting at ``condition`` going down."""
        return int(self.max_chain_down[self.position[condition]])

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def render(self, condition_names: Optional[Sequence[str]] = None) -> str:
        """ASCII rendering in the style of the paper's Figure 3.

        Conditions appear left-to-right in non-descending value order and
        each pointer is drawn underneath as ``tail --> head``.
        """
        if condition_names is None:
            names = [f"c{j + 1}" for j in range(self.n_conditions)]
        else:
            names = list(condition_names)
        cells = [names[j] for j in self.order]
        widths = [max(len(c), 5) for c in cells]
        header = "  ".join(c.center(w) for c, w in zip(cells, widths))
        values = "  ".join(
            f"{v:.4g}".center(w) for v, w in zip(self.sorted_values, widths)
        )
        lines = [header, values]
        starts = np.concatenate(([0], np.cumsum(np.asarray(widths) + 2)))
        for pointer in self.pointers:
            left = int(starts[pointer.tail] + widths[pointer.tail] // 2)
            right = int(starts[pointer.head] + widths[pointer.head] // 2)
            arrow = [" "] * (starts[-1])
            arrow[left] = "^"
            for k in range(left + 1, right):
                arrow[k] = "-"
            arrow[right - 1] = ">" if right - 1 > left else arrow[right - 1]
            lines.append("".join(arrow).rstrip())
        return "\n".join(lines)

    def __repr__(self) -> str:
        label = f"g{self.gene + 1}" if self.gene is not None else "?"
        return (
            f"RWaveModel(gene={label}, threshold={self.threshold:.4g}, "
            f"pointers={len(self.pointers)})"
        )


def build_rwave(
    matrix: ExpressionMatrix, gene: "int | str", gamma: float
) -> RWaveModel:
    """Build one gene's RWave^gamma model from a matrix (Eq. 4 threshold)."""
    i = matrix.gene_index(gene)
    threshold = float(gene_thresholds(matrix, gamma)[i])
    return RWaveModel(matrix.values[i], threshold, gene=i)


def _checked_thresholds(
    matrix: ExpressionMatrix, thresholds: ArrayLike
) -> NDArray[np.float64]:
    per_gene = np.asarray(thresholds, dtype=np.float64)
    if per_gene.shape != (matrix.n_genes,):
        raise ValueError(
            f"thresholds must have shape ({matrix.n_genes},), got "
            f"{per_gene.shape}"
        )
    if np.any(per_gene < 0):
        raise ValueError("thresholds must be non-negative")
    return per_gene


def _packed_kernel(
    matrix: ExpressionMatrix, packed: NDArray[np.uint8]
) -> RegulationKernel:
    """Wrap a packed ``(G, C, ceil(C/8))`` tensor as ``matrix``'s kernel."""
    kernel = RegulationKernel.from_packed(
        packed, n_conditions=matrix.n_conditions
    )
    if kernel.n_genes != matrix.n_genes:
        raise ValueError(
            f"packed kernel has {kernel.n_genes} gene planes for a "
            f"matrix of {matrix.n_genes} genes"
        )
    return kernel


class RWaveIndex:
    """RWave^gamma tables and regulation kernel of every gene.

    The index holds flat ``(n_genes, n_conditions)`` arrays (see
    :class:`RWaveTables`).  The miner reads two of them, indexed by
    condition *id*:

    ``max_up[g, c]``
        longest regulation chain starting at condition ``c`` climbing up;
    ``max_down[g, c]``
        same, descending;
    and the per-gene thresholds, so chain extension reduces to vectorized
    numpy arithmetic.  :attr:`kernel` is the packed Eq. 3 relation
    (:class:`~repro.core.kernels.RegulationKernel`) over the same values
    and thresholds, built with the tables: both are fully determined by
    ``(matrix, gamma)``, so they are one artifact — cached, pickled to
    pool workers and delta-updated together.  Per-gene
    :class:`RWaveModel` objects (pointers, Lemma 3.1 queries, rendering)
    are views over the same arrays, built on first access through
    :meth:`model` / :attr:`models`.
    """

    def __init__(
        self,
        matrix: ExpressionMatrix,
        gamma: float,
        *,
        thresholds: Optional[ArrayLike] = None,
    ) -> None:
        if thresholds is None:
            per_gene = gene_thresholds(matrix, gamma)
        else:
            per_gene = _checked_thresholds(matrix, thresholds)
        self._assign(
            matrix,
            gamma,
            per_gene,
            rwave_tables(matrix.values, per_gene),
            RegulationKernel(matrix.values, per_gene),
        )
        # Debug-mode Lemma 3.1 invariant checks (repro.analysis.contracts):
        # a no-op unless contracts are enabled for the process.  Run where
        # tables are built or assembled, not on unpickling.
        maybe_check_rwave_index(self)

    def _assign(
        self,
        matrix: ExpressionMatrix,
        gamma: float,
        thresholds: NDArray[np.float64],
        tables: RWaveTables,
        kernel: RegulationKernel,
    ) -> None:
        self.matrix = matrix
        self.gamma = float(gamma)
        self.thresholds: NDArray[np.float64] = thresholds
        self.order: NDArray[np.intp] = tables.order
        self.closest: NDArray[np.intp] = tables.closest
        self.max_up: NDArray[np.intp] = tables.max_up
        self.max_down: NDArray[np.intp] = tables.max_down
        #: the packed Eq. 3 relation over the same values and thresholds
        self.kernel = kernel
        self._views: Dict[int, RWaveModel] = {}

    @classmethod
    def from_parts(
        cls,
        matrix: ExpressionMatrix,
        gamma: float,
        *,
        thresholds: ArrayLike,
        tables: RWaveTables,
        packed: NDArray[np.uint8],
    ) -> "RWaveIndex":
        """Assemble an index from prebuilt tables and kernel planes.

        The delta-update seam (:mod:`repro.incremental.update`): a
        revision that appends or drops genes leaves the surviving
        genes' rows — and therefore their rows of every table and their
        kernel planes — untouched, so an updated index stacks or
        selects them instead of rebuilding every gene.  ``packed`` is
        the ``(G, C, ceil(C/8))`` tensor of
        :attr:`RegulationKernel.packed`.  The caller guarantees the
        parts belong to ``(matrix, gamma)``; the same debug-mode Lemma
        3.1 contract hook as the cold constructor re-checks the tables
        when contracts are enabled.
        """
        per_gene = _checked_thresholds(matrix, thresholds)
        shape = (matrix.n_genes, matrix.n_conditions)
        tables = RWaveTables(
            *(np.asarray(table, dtype=np.intp) for table in tables)
        )
        for name, table in zip(RWaveTables._fields, tables):
            if table.shape != shape:
                raise ValueError(
                    f"{name} table must have shape {shape}, got "
                    f"{table.shape}"
                )
        index = cls.__new__(cls)
        index._assign(
            matrix, gamma, per_gene, tables, _packed_kernel(matrix, packed)
        )
        maybe_check_rwave_index(index)
        return index

    @property
    def tables(self) -> RWaveTables:
        """The index's arrays, in :class:`RWaveTables` order."""
        return RWaveTables(
            self.order, self.closest, self.max_up, self.max_down
        )

    def model(self, gene: "int | str") -> RWaveModel:
        """The RWave model of one gene (built once, then cached)."""
        i = self.matrix.gene_index(gene)
        view = self._views.get(i)
        if view is None:
            # setdefault keeps the first view if two threads race.
            view = self._views.setdefault(i, RWaveModel._view(self, i))
        return view

    @property
    def models(self) -> Tuple[RWaveModel, ...]:
        """Every gene's model, in gene order (diagnostics; the miner
        reads the tables directly)."""
        return tuple(self.model(i) for i in range(len(self)))

    def __len__(self) -> int:
        return self.matrix.n_genes

    def __getstate__(self) -> "dict[str, object]":
        """Pickle the matrix, thresholds, tables and packed kernel.

        The kernel's dense slice caches and the model views are derived
        on demand, so they are not written.
        """
        return {
            "layout": INDEX_LAYOUT,
            "matrix": self.matrix,
            "gamma": self.gamma,
            "thresholds": self.thresholds,
            "tables": tuple(self.tables),
            "packed": self.kernel.packed,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        layout = state.get("layout")
        if layout != INDEX_LAYOUT:
            raise pickle.UnpicklingError(
                f"RWaveIndex pickled with layout {layout!r}; this version "
                f"reads layout {INDEX_LAYOUT}"
            )
        matrix = state["matrix"]
        self._assign(
            matrix,
            state["gamma"],
            state["thresholds"],
            RWaveTables(*state["tables"]),
            _packed_kernel(matrix, state["packed"]),
        )
