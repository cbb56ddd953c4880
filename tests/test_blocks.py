"""Block families, coset assignments, and the overlap-rigidity check."""

import pytest
from hypothesis import given, strategies as st

from monotiles import (
    Assignment,
    BlockHierarchy,
    FiniteSubset,
    Lattice,
    ManagedMatrix,
    Pattern,
    assignment_from_matrix,
    augment_matrix,
    base_blocks,
    build_hierarchy,
    build_lattice_ladder,
    verify_c3,
)
from monotiles.errors import AugmentationError, DistinctnessError, InfeasibleError
from test_read_path import window_reader
from test_tiling import PROPERTY, assemble_level

TERNARY = ManagedMatrix([[1, 1, 1], [2, 1, 1], [0, 1, 1]])


def _ladder(depth=3):
    return build_lattice_ladder(1, depth)


def test_base_blocks_mark_only_the_identity():
    ladder = _ladder(1)
    fam = base_blocks(3, ladder.levels[0])
    assert [b.symbols for b in fam] == [bytes((1,)), bytes((2,)), bytes((3,))]
    fam_wide = base_blocks(4, ladder.levels[1])
    assert [b.symbols for b in fam_wide] == [bytes((0, 1, 0)), bytes((0, 2, 0)), bytes((0, 3, 0)), bytes((0, 4, 0))]


def test_base_blocks_require_three_symbols():
    ladder = _ladder(1)
    with pytest.raises(ValueError):
        base_blocks(2, ladder.levels[0])


def test_base_blocks_stop_at_one_byte():
    ladder = _ladder(1)
    assert base_blocks(255, ladder.levels[0])[-1].symbols == bytes((255,))
    with pytest.raises(ValueError):
        base_blocks(256, ladder.levels[0])


@PROPERTY
@given(st.lists(st.integers(0, 255), max_size=40))
def test_pattern_symbols_are_bytes_and_json_ints(xs):
    p = Pattern(FiniteSubset(Lattice(1), [(i,) for i in range(len(xs))]), xs)
    assert p.symbols == bytes(xs)
    assert p.to_json()["symbols"] == xs


@pytest.mark.parametrize("bad", [256, -1, True, 1.0, "1"])
def test_pattern_rejects_a_symbol_that_is_no_byte(bad):
    with pytest.raises(ValueError):
        Pattern(_ladder(1).levels[1], [0, bad, 0])


def test_pattern_window_reads_translated_cells():
    ladder = _ladder(2)
    p = Pattern(ladder.levels[2], range(9))
    assert window_reader(p, ladder.levels[1])((3,)) == (6, 7, 8)
    cell = window_reader(p, ladder.levels[0])
    assert cell((-4,)) == (0,)
    with pytest.raises(KeyError):
        cell((5,))


def test_pattern_rejects_mismatched_symbols():
    ladder = _ladder(1)
    with pytest.raises(ValueError):
        Pattern(ladder.levels[1], (1, 2))


def test_assignment_enforces_identity_rule():
    ladder = _ladder(1)
    J = ladder.glue[0]
    Assignment(J, ((2, 1, 3),))
    with pytest.raises(ValueError):
        Assignment(J, ((2, 2, 3),))  # block 2 on the identity coset
    with pytest.raises(ValueError):
        Assignment(J, ((1, 1, 2),))  # block 1 repeated off the identity


def test_assignment_from_matrix_frozen_example():
    ladder = _ladder(1)
    a = assignment_from_matrix(TERNARY, ladder.glue[0])
    assert a.values == ((2, 1, 2), (2, 1, 3), (3, 1, 2))
    assert a.values[0][a.cosets.elements.index((0,))] == 1
    assert a.values[1][a.cosets.elements.index((1,))] == 3


def test_assignment_from_matrix_accepts_consistent_row_count():
    ladder = _ladder(2)
    a = assignment_from_matrix(TERNARY, ladder.glue[0])
    assert a.block_count == 3
    four_rows = ManagedMatrix([[1, 1, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="4 rows but level 1 has 3 blocks"):
        build_hierarchy(ladder, [TERNARY, four_rows])


def test_assignment_from_matrix_rejects_bad_columns():
    ladder = _ladder(1)
    with pytest.raises(InfeasibleError):
        assignment_from_matrix(ManagedMatrix([[2, 1], [1, 2], [0, 0]]), ladder.glue[0])
    with pytest.raises(InfeasibleError):
        assignment_from_matrix(ManagedMatrix([[1, 1], [4, 4]]), ladder.glue[0])


def test_assignment_from_matrix_exhausted_swaps():
    ladder = _ladder(1)
    # three identical columns can only support two distinct assignments here
    same = ManagedMatrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(DistinctnessError):
        assignment_from_matrix(same, ladder.glue[0])


def test_assemble_level_frozen_blocks():
    ladder = _ladder(1)
    fam0 = base_blocks(3, ladder.levels[0])
    a = assignment_from_matrix(TERNARY, ladder.glue[0])
    fam1 = assemble_level(fam0, ladder.glue[0], a)
    assert [b.symbols for b in fam1] == [bytes((2, 1, 2)), bytes((2, 1, 3)), bytes((3, 1, 2))]
    assert fam1[0].support == ladder.levels[1]


def test_assemble_level_detects_coincident_blocks():
    ladder = _ladder(1)
    fam0 = base_blocks(3, ladder.levels[0])
    clash = Assignment(ladder.glue[0], ((2, 1, 3), (2, 1, 3)))
    with pytest.raises(DistinctnessError):
        assemble_level(fam0, ladder.glue[0], clash)


def test_verify_c3_rejects_blocks_on_different_windows():
    ctx = Lattice(1)
    A = FiniteSubset(ctx, [(-1,), (0,), (1,)])
    B = FiniteSubset(ctx, [(5,), (6,), (7,)])
    with pytest.raises(ValueError, match="family blocks must share one support window"):
        verify_c3([Pattern(A, [1, 2, 3]), Pattern(B, [3, 2, 1])])


def test_verify_c3_rejects_an_empty_family():
    with pytest.raises(ValueError, match="family blocks must share one support window"):
        verify_c3([])


def test_verify_c3_passes_on_built_family():
    h = build_hierarchy(_ladder(2), [TERNARY, TERNARY])
    assert verify_c3(h.family(1)).ok
    assert verify_c3(h.family(2)).ok


def test_verify_c3_rejects_constant_block():
    ladder = _ladder(1)
    flat = Pattern(ladder.levels[1], (1, 1, 1))
    report = verify_c3([flat])
    assert not report.ok
    g, k, k2 = report.witness
    assert (k, k2) == (1, 1)
    assert ladder.ctx.decode_json(g) != ladder.ctx.identity()


def test_verify_c3_rejects_duplicate_blocks():
    ladder = _ladder(1)
    twin = Pattern(ladder.levels[1], (2, 1, 3))
    report = verify_c3([twin, twin])
    assert not report.ok
    assert report.witness == [ladder.ctx.encode_json(ladder.ctx.identity()), 1, 2]


def test_verify_c3_rejects_mismatched_window():
    ladder = _ladder(2)
    fam = base_blocks(3, ladder.levels[0]) + [Pattern(ladder.levels[1], (4, 1, 4))]
    with pytest.raises(ValueError, match="family blocks must share one support window"):
        verify_c3(fam)


def _with(h, families=None, assignments=None):
    return BlockHierarchy(h.ladder, families or h.families, assignments or h.assignments)


HIERARCHY_FAULTS = {
    # a later block of family 1 on another window than F_1
    "block-off-its-level": lambda h: _with(h, families=[
        h.families[0], [*h.families[1][:2], Pattern(h.ladder.levels[0], (1,))], *h.families[2:]]),
    "other-cosets": lambda h: _with(h, assignments=[
        Assignment(h.ladder.glue[1], h.assignments[0].values), *h.assignments[1:]]),
    "row-count": lambda h: _with(h, assignments=[
        Assignment(h.assignments[0].cosets, h.assignments[0].values[:2]), *h.assignments[1:]]),
    # block 7 of a family of three blocks
    "entry-beyond-family": lambda h: _with(h, assignments=[
        h.assignments[0], Assignment(h.assignments[1].cosets,
                                     ((*h.assignments[1].values[0][:-1], 7), *h.assignments[1].values[1:]))]),
}


@pytest.mark.parametrize("fault", sorted(HIERARCHY_FAULTS))
def test_hierarchy_rejects_families_and_assignments_that_do_not_fit(fault):
    h = build_hierarchy(_ladder(2), [TERNARY, TERNARY])
    assert _with(h).families == h.families
    with pytest.raises(ValueError):
        HIERARCHY_FAULTS[fault](h)


def test_augment_matrix_frozen_example():
    out = augment_matrix(ManagedMatrix([[5, 4], [4, 5]]))
    assert out.entries == ((1, 1, 1), (4, 4, 3), (4, 4, 5))
    assert out.ratio == 9
    assert out.rows == 3 and out.cols == 3


def test_augment_matrix_needs_large_entries():
    with pytest.raises(AugmentationError):
        augment_matrix(ManagedMatrix([[2, 1], [1, 2]]))


def test_build_hierarchy_depth_and_supports():
    ladder = _ladder(3)
    h = build_hierarchy(ladder, [TERNARY] * 3)
    assert h.depth == 3
    for n in range(4):
        assert len(h.family(n)) == 3
        assert h.family(n)[0].support == ladder.levels[n]
    assert h.x0_patch(1).symbols == bytes((2, 1, 2))
    assert h.x0_patch(0).symbols == bytes((1,))


def test_build_hierarchy_validates_matrix_fit():
    ladder = _ladder(2)
    with pytest.raises(ValueError):
        build_hierarchy(ladder, [TERNARY] * 3)  # deeper than the ladder
    with pytest.raises(ValueError):
        build_hierarchy(ladder, [ManagedMatrix([[1, 1], [4, 4]])])  # ratio 5 vs |J| = 3
    with pytest.raises(ValueError, match="at least one matrix"):
        build_hierarchy(ladder, [])


def test_hierarchy_json_round_trip():
    h = build_hierarchy(_ladder(2), [TERNARY, TERNARY])
    again = BlockHierarchy.from_json(h.to_json())
    assert again.depth == h.depth
    for n in range(h.depth + 1):
        assert again.family(n) == h.family(n)
    assert [a.values for a in again.assignments] == [a.values for a in h.assignments]
