"""Property-based tests for the RWave^gamma model (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.contracts import (
    ContractViolation,
    activated,
    check_rwave_index,
    check_rwave_model,
)
from repro.core.rwave import RWaveIndex, RWaveModel, rwave_tables
from repro.matrix.expression import ExpressionMatrix

profiles = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
    min_size=1,
    max_size=14,
)
gammas = st.floats(min_value=0.0, max_value=1.0)


def brute_force_predecessors(row, threshold, condition):
    return {
        b
        for b in range(len(row))
        if row[condition] - row[b] > threshold
    }


def brute_force_longest_up(row, threshold, condition, _cache=None):
    if _cache is None:
        _cache = {}
    if condition in _cache:
        return _cache[condition]
    succs = [
        b for b in range(len(row)) if row[b] - row[condition] > threshold
    ]
    result = 1 + max(
        (brute_force_longest_up(row, threshold, s, _cache) for s in succs),
        default=0,
    )
    _cache[condition] = result
    return result


@given(profiles, gammas)
@settings(max_examples=200, deadline=None)
def test_queries_equal_brute_force(values, gamma):
    row = np.asarray(values, dtype=np.float64)
    threshold = gamma * (row.max() - row.min())
    model = RWaveModel(row, threshold)
    for condition in range(len(row)):
        expected = brute_force_predecessors(row, threshold, condition)
        got = set(model.regulation_predecessors(condition).tolist())
        assert got == expected
        expected_succ = {
            b for b in range(len(row)) if row[b] - row[condition] > threshold
        }
        got_succ = set(model.regulation_successors(condition).tolist())
        assert got_succ == expected_succ


@given(profiles, gammas)
@settings(max_examples=200, deadline=None)
def test_pointer_invariants(values, gamma):
    row = np.asarray(values, dtype=np.float64)
    threshold = gamma * (row.max() - row.min())
    model = RWaveModel(row, threshold)
    sorted_values = model.sorted_values
    previous_tail, previous_head = -1, -1
    for pointer in model.pointers:
        # bordering pair is regulated
        assert (
            sorted_values[pointer.head] - sorted_values[pointer.tail]
            > threshold
        )
        # pointers are strictly ordered on both endpoints (non-embedded)
        assert pointer.tail > previous_tail
        assert pointer.head > previous_head
        previous_tail, previous_head = pointer.tail, pointer.head
        # minimality: the tail is the *closest* predecessor of the head
        if pointer.tail + 1 < pointer.head:
            assert (
                sorted_values[pointer.head] - sorted_values[pointer.tail + 1]
                <= threshold
            )


@given(profiles, gammas)
@settings(max_examples=100, deadline=None)
def test_chain_tables_equal_brute_force(values, gamma):
    row = np.asarray(values, dtype=np.float64)
    threshold = gamma * (row.max() - row.min())
    model = RWaveModel(row, threshold)
    cache = {}
    for condition in range(len(row)):
        assert model.max_up_from(condition) == brute_force_longest_up(
            row, threshold, condition, cache
        )


@given(profiles, gammas)
@settings(max_examples=100, deadline=None)
def test_down_table_is_mirrored_up_table(values, gamma):
    row = np.asarray(values, dtype=np.float64)
    threshold = gamma * (row.max() - row.min())
    model = RWaveModel(row, threshold)
    mirror = RWaveModel(-row, threshold)
    for condition in range(len(row)):
        assert model.max_down_from(condition) == mirror.max_up_from(condition)


@given(profiles, gammas)
@settings(max_examples=200, deadline=None)
def test_order_is_sorted_permutation(values, gamma):
    """Definition 3.1: the model stores a sorted permutation of conditions."""
    row = np.asarray(values, dtype=np.float64)
    threshold = gamma * (row.max() - row.min())
    model = RWaveModel(row, threshold)
    n = len(row)
    assert sorted(model.order.tolist()) == list(range(n))
    assert np.all(np.diff(model.sorted_values) >= 0)
    assert np.array_equal(model.sorted_values, row[model.order])
    # position is the inverse permutation of order
    assert np.all(model.position[model.order] == np.arange(n))


@given(profiles, gammas)
@settings(max_examples=100, deadline=None)
def test_contracts_accept_every_built_model(values, gamma):
    """The Lemma 3.1 contract checker passes on any freshly built model."""
    row = np.asarray(values, dtype=np.float64)
    threshold = gamma * (row.max() - row.min())
    check_rwave_model(RWaveModel(row, threshold))


@given(
    st.lists(profiles.filter(lambda p: len(p) >= 2), min_size=1, max_size=4),
    gammas,
)
@settings(max_examples=50, deadline=None)
def test_contracts_accept_every_built_index(rows, gamma):
    width = min(len(r) for r in rows)
    matrix = ExpressionMatrix([r[:width] for r in rows])
    with activated():
        index = RWaveIndex(matrix, gamma)  # runs maybe_check_rwave_index
    check_rwave_index(index)


def test_contracts_reject_embedded_pointers():
    """An embedded pointer pair must trip the Definition 3.1 check."""
    from repro.core.rwave import RegulationPointer

    model = RWaveModel([1.0, 5.0, 2.0, 9.0], threshold=1.5)
    # sorted values are [1, 2, 5, 9]; both pointers mark regulated pairs,
    # but (1, 2) is embedded inside (0, 3).
    model.pointers = (
        RegulationPointer(tail=0, head=3),
        RegulationPointer(tail=1, head=2),
    )
    with pytest.raises(ContractViolation):
        check_rwave_model(model)


def test_contracts_reject_unsorted_values():
    model = RWaveModel([1.0, 5.0, 2.0, 9.0], threshold=1.5)
    model.sorted_values = model.sorted_values[::-1].copy()
    with pytest.raises(ContractViolation):
        check_rwave_model(model)


# ----------------------------------------------------------------------
# The whole-matrix build against a brute-force per-gene oracle
# ----------------------------------------------------------------------


def oracle_model(row, threshold):
    """Definition 3.1 / Lemma 3.1 of one gene straight from Eq. 3.

    O(C^2) pair checks on Python floats: the stable sort order, the
    bordering non-embedded pointers, every condition's predecessor and
    successor sets, and the longest up/down chain from every condition.
    """
    n = len(row)
    order = sorted(range(n), key=lambda c: (row[c], c))
    values = [row[c] for c in order]

    def regulated(lo, hi):  # positions: hi is up-regulated over lo
        return values[hi] - values[lo] > threshold

    pointers = [
        (tail, head)
        for tail in range(n)
        for head in range(tail + 1, n)
        if regulated(tail, head)
        and not regulated(tail + 1, head)
        and not regulated(tail, head - 1)
    ]
    preds = [{b for b in range(n) if row[c] - row[b] > threshold}
             for c in range(n)]
    succs = [{b for b in range(n) if row[b] - row[c] > threshold}
             for c in range(n)]
    up, down = [1] * n, [1] * n
    for c in sorted(range(n), key=lambda c: -row[c]):
        up[c] = 1 + max((up[b] for b in succs[c]), default=0)
    for c in sorted(range(n), key=lambda c: row[c]):
        down[c] = 1 + max((down[b] for b in preds[c]), default=0)
    return order, pointers, preds, succs, up, down


@st.composite
def gene_batches(draw):
    """Small matrices on a grid of step 1/4 (exact, so ``a - b`` can
    equal the threshold exactly) or 1/10 (inexact, so ``a - threshold``
    and ``a - b`` round differently), with ties, constant rows and
    zero thresholds."""
    n_genes = draw(st.integers(1, 5))
    n_conditions = draw(st.integers(1, 9))
    step = draw(st.sampled_from([0.25, 0.1]))
    level = st.integers(-6, 6)
    rows = draw(st.lists(
        st.one_of(
            st.lists(level, min_size=n_conditions, max_size=n_conditions),
            level.map(lambda v: [v] * n_conditions),
        ),
        min_size=n_genes,
        max_size=n_genes,
    ))
    thresholds = draw(st.lists(
        st.integers(0, 8), min_size=n_genes, max_size=n_genes
    ))
    return (
        np.asarray(rows, dtype=np.float64) * step,
        np.asarray(thresholds, dtype=np.float64) * step,
    )


@given(gene_batches())
@example((np.array([[3.0]]), np.array([0.0])))  # C = 1
@example((np.array([[1.0, 1.0], [2.0, 1.0]]), np.array([0.0, 1.0])))  # C = 2
@example((np.array([[2.0, 2.0, 2.0]]), np.array([0.0])))  # constant row
# a - b == threshold exactly (0.5), which Eq. 3 does not regulate
@example((np.array([[0.0, 0.5, 1.0, 1.0, 1.5]]), np.array([0.5])))
# Rounding edges where the cutoff test ``b < a - threshold`` disagrees
# with Eq. 3's ``a - b > threshold``: 3 * 0.1 - (-0.1) == 0.4 exactly
# (not regulated) although -0.1 < 3 * 0.1 - 0.4; and
# -0.4 - 6 * -0.1 > 0.2 (regulated) although 6 * -0.1 == -0.4 - 0.2.
@example((np.array([[3 * 0.1, -0.1]]), np.array([0.4])))
@example((np.array([[-0.4, 6 * -0.1]]), np.array([0.2])))
@settings(max_examples=300, deadline=None)
def test_batch_build_equals_brute_force_oracle(batch):
    values, thresholds = batch
    index = RWaveIndex(
        ExpressionMatrix(values), 0.0, thresholds=thresholds
    )
    tables = rwave_tables(values, thresholds)
    for table, built in zip(tables, index.tables):
        np.testing.assert_array_equal(table, built)
    for gene, row in enumerate(values.tolist()):
        order, pointers, preds, succs, up, down = oracle_model(
            row, float(thresholds[gene])
        )
        model = index.model(gene)
        assert model.order.tolist() == order
        assert [(p.tail, p.head) for p in model.pointers] == pointers
        for condition in range(len(row)):
            got = model.regulation_predecessors(condition).tolist()
            assert set(got) == preds[condition]
            got = model.regulation_successors(condition).tolist()
            assert set(got) == succs[condition]
        assert index.max_up[gene].tolist() == up
        assert index.max_down[gene].tolist() == down
