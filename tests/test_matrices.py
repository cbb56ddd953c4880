"""Managed matrices: column-sum invariants, products, grouping, selection."""

import pytest

from monotiles import (
    ManagedMatrix,
    ManagedSequence,
    group_matrices,
    positivity_horizon,
    select_subsequence_lemma8,
)
from monotiles.errors import HypothesisError, SelectionExhaustedError

CONST = ManagedMatrix([[2, 1], [1, 2]])


def test_matrix_invariants():
    m = ManagedMatrix([[1, 1, 1], [2, 1, 1], [0, 1, 1]])
    assert (m.rows, m.cols, m.ratio, m.min_entry) == (3, 3, 3, 0)
    assert not m.is_strictly_positive()
    assert m.column(0) == (1, 2, 0)
    assert CONST.is_strictly_positive()


def test_matrix_rejects_ragged_or_unbalanced_input():
    with pytest.raises(ValueError):
        ManagedMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        ManagedMatrix([[1, 2], [1, 3]])  # column sums 2 and 5
    with pytest.raises(ValueError):
        ManagedMatrix([[1, -1], [0, 2]])
    with pytest.raises(ValueError):
        ManagedMatrix([[3, 3]])  # needs at least two rows
    with pytest.raises(ValueError, match="sum to 0"):
        ManagedMatrix([[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="sum to 0"):
        ManagedMatrix.from_json({"rows": 2, "cols": 2, "entries": [0, 0, 0, 0]})


def test_matrix_product_multiplies_ratios():
    sq = CONST.mul(CONST)
    assert sq.entries == ((5, 4), (4, 5))
    assert sq.ratio == CONST.ratio ** 2
    with pytest.raises(ValueError):
        CONST.mul(ManagedMatrix([[1, 1, 1], [2, 1, 1], [0, 1, 1]]))


def test_matrix_json_round_trip():
    m = ManagedMatrix([[1, 1, 1], [2, 1, 1], [0, 1, 1]])
    assert ManagedMatrix.from_json(m.to_json()) == m
    bad = m.to_json()
    bad["ratio"] = 7
    with pytest.raises(ValueError):
        ManagedMatrix.from_json(bad)


def test_sequence_scales_and_products():
    ms = ManagedSequence([CONST] * 4)
    assert [ms.scale(n) for n in range(5)] == [1, 3, 9, 27, 81]
    assert ms.product(1, 2).entries == ((5, 4), (4, 5))
    assert len(ms) == 4
    assert ms[2] == CONST
    with pytest.raises(ValueError):
        ms.product(3, 2)


def test_sequence_rejects_dimension_breaks():
    with pytest.raises(ValueError):
        ManagedSequence([CONST, ManagedMatrix([[1, 1, 1], [2, 1, 1], [0, 1, 1]])])


def test_sequence_json_is_plain_array_at_unit_scale():
    ms = ManagedSequence([CONST] * 2)
    data = ms.to_json()
    assert isinstance(data, list)
    again = ManagedSequence.from_json(data)
    assert again.matrices == ms.matrices
    scaled = ManagedSequence([CONST], base_scale=5)
    data = scaled.to_json()
    assert data["base_scale"] == 5
    assert ManagedSequence.from_json(data).scale(1) == 15


def test_lemma8_selection_steps_by_two():
    ms = ManagedSequence([CONST] * 7)
    assert select_subsequence_lemma8(ms, 2) == [0, 2, 4, 6]
    # every grouped product strictly dominates its column count
    for a, b in [(0, 2), (2, 4), (4, 6)]:
        assert ms.product(a, b - a).min_entry > CONST.cols


def test_lemma8_rejects_hypothesis_violation():
    wide = ManagedMatrix([[1, 0], [0, 1]])  # ratio 1, two columns
    with pytest.raises(HypothesisError):
        select_subsequence_lemma8(ManagedSequence([wide]), 1)


def test_lemma8_exhaustion_on_short_sequence():
    with pytest.raises(SelectionExhaustedError):
        select_subsequence_lemma8(ManagedSequence([CONST]), 2)


def test_group_matrices_takes_products():
    ms = ManagedSequence([CONST] * 6)
    grouped = group_matrices(ms, [0, 2, 4, 6])
    assert [m.entries for m in grouped.matrices] == [((5, 4), (4, 5))] * 3
    assert grouped.scale(3) == ms.scale(6)
    with pytest.raises(ValueError):
        group_matrices(ms, [1, 3])
    with pytest.raises(ValueError):
        group_matrices(ms, [0, 8])


def test_positivity_horizon():
    ms = ManagedSequence([CONST] * 2)
    assert positivity_horizon(ms, 0) == 0
    sparse = ManagedMatrix([[1, 0], [0, 1]])
    assert positivity_horizon(ManagedSequence([sparse] * 3), 0) is None
    with pytest.raises(ValueError):
        positivity_horizon(ms, 5)
