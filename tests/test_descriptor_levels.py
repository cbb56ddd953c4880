"""Descriptor-first levels: boxes, fibred windows and Pruefer subgroups make their cells only when read.

`FiniteSubset._from_shape` keeps a lattice `Box(lo, hi)`, a Heisenberg
window's `Fibres({(a, b): (start, lo, hi)})` or the `Subgroup(N)` of the
Pruefer subgroup {i/N}.  Size, membership, equality, hashing,
tilings, defects and the ladder's JSON answer from that descriptor, and
`elements` is made on its first read.  The oracles are the validating
constructor and `_trusted` copies, whose descriptors are found from their
cells.  The guards check that the realize chain, the scale ladder, the
Pruefer ladder, the Heisenberg composition and JSON leave the levels
unbuilt, in the style of the zero-product tests.
"""

import gc
import itertools
import json
import time
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monotiles import (
    FiniteSubset,
    FolnerLadder,
    Heisenberg,
    InfeasibleError,
    Lattice,
    Pattern,
    Pruefer,
    augment_matrix,
    build_heisenberg_ladder,
    build_hierarchy,
    build_lattice_ladder,
    build_pruefer_ladder,
    check_congruent,
    folner_defect,
    group_ladder,
    group_matrices,
    incidence_from_hierarchy,
    realize_finite_simplex,
    select_subsequence_lemma8,
)
from monotiles import _boxes, compose, folner
from monotiles._boxes import Box, Fibres, Subgroup
from monotiles.pipeline import heisenberg_targets
from shape_views import box_of, fibres_of, subgroup_of
from test_box_paths import boxes
from test_tiling import PROPERTY


def built(F) -> bool:
    """Whether F holds its cells."""
    return "elements" in F.__dict__


def box_cells(lo, hi) -> list:
    return list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))


@st.composite
def lazy_boxes(draw):
    """(lazy box, its cells) for a box of Z^1 to Z^3, off-centre and one-cell boxes included."""
    lo, sides = draw(boxes())
    hi = tuple(a + s - 1 for a, s in zip(lo, sides))
    return FiniteSubset._from_shape(Lattice(len(lo)), Box(lo, hi)), box_cells(lo, hi)


@st.composite
def lazy_subgroups(draw):
    """(lazy subgroup {i/N}, its cells) for N = p**n."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = p ** draw(st.integers(0, 4))
    return FiniteSubset._from_shape(Pruefer(p), Subgroup(n)), [Fraction(i, n) for i in range(n)]


def probes(F) -> tuple[list, list]:
    """(encodings that are elements of F's group, encodings that are not) around F."""
    if isinstance(F.ctx, Lattice):
        lo, hi, _ = box_of(F)
        below, above = tuple(a - 1 for a in lo), tuple(b + 1 for b in hi)
        valid = [lo, hi, below, above, (hi[0] + 1, *lo[1:])]
        return valid, [lo + (0,), lo[:-1], 0, "x", [*lo], tuple(map(float, lo)), (True,) * len(lo)]
    n, p = subgroup_of(F), F.ctx.p
    valid = [Fraction(0), Fraction(n - 1, n), Fraction(1, n * p), Fraction(p - 1, p * n)]
    return valid, [0, "0", (0,), Fraction(1), Fraction(-1, n), Fraction(1, p + 1), 0.5]


@PROPERTY
@given(pair=st.one_of(lazy_boxes(), lazy_subgroups()))
def test_lazy_subsets_answer_like_the_validating_constructor(pair):
    F, cells = pair
    eager = FiniteSubset(F.ctx, cells)
    valid, malformed = probes(F)
    assert len(F) == len(eager)
    for g in valid:
        assert (g in F) == (g in eager) == (g in frozenset(eager.elements))
    for g in malformed:
        assert g not in F and g not in eager
    assert F.encode_json() == eager.encode_json()
    assert repr(F) == repr(eager)
    assert not built(F)
    assert F == eager and eager == F and hash(F) == hash(eager)
    assert F.elements == eager.elements
    # the preset descriptor equals the one found on a `_trusted` copy
    copy = FiniteSubset._trusted(F.ctx, reversed(F.elements))
    assert (box_of(copy), subgroup_of(copy)) == (box_of(F), subgroup_of(F))


@PROPERTY
@given(pair=st.one_of(lazy_boxes(), lazy_subgroups()))
def test_rank_finds_a_cell_by_equality_like_a_search_of_the_cells(pair):
    F, cells = pair
    where = _boxes.rank(F)
    for g in [*cells[:2], *cells[-2:], *itertools.chain(*probes(F))]:
        # floats and bools equal to a cell's coordinates find it, as in a set of the cells
        assert where(g) == next((i for i, c in enumerate(cells) if c == g), None)
    assert not built(F)


CONTEXTS = {"z": Lattice(1), "z2": Lattice(2), "pruefer2": Pruefer(2), "pruefer3": Pruefer(3)}


@st.composite
def made_any_way(draw, kind):
    """(subset, its cells) over CONTEXTS[kind]: a box or subgroup, or such a set
    less one cell, made lazily, by the validating constructor, by `_trusted`,
    or by `_trusted` with its descriptor found."""
    ctx = CONTEXTS[kind]
    if isinstance(ctx, Lattice):
        lo = tuple(draw(st.integers(-1, 1)) for _ in range(ctx.d))
        hi = tuple(a + draw(st.integers(0, 2)) for a in lo)
        cells, lazy = box_cells(lo, hi), lambda: FiniteSubset._from_shape(ctx, Box(lo, hi))
    else:
        n = ctx.p ** draw(st.integers(0, 2))
        cells, lazy = [Fraction(i, n) for i in range(n)], lambda: FiniteSubset._from_shape(ctx, Subgroup(n))
    if len(cells) > 1 and draw(st.booleans()):
        cells, lazy = cells[:-1] if draw(st.booleans()) else cells[1:], None
    how = draw(st.sampled_from(["lazy", "validating", "trusted", "found"] if lazy else
                               ["validating", "trusted", "found"]))
    if how == "lazy":
        return lazy(), cells
    made = FiniteSubset(ctx, cells) if how == "validating" else FiniteSubset._trusted(ctx, cells)
    if how == "found":
        _ = box_of(made), subgroup_of(made)  # found from the cells (or found absent) and cached
    return made, cells


@PROPERTY
@given(kinds=st.tuples(*[st.sampled_from(sorted(CONTEXTS))] * 2), data=st.data())
def test_equality_is_equality_of_group_and_cells_whatever_the_constructor(kinds, data):
    (a, cells_a), (b, cells_b) = (data.draw(made_any_way(k)) for k in kinds)
    same = a.ctx == b.ctx and sorted(cells_a) == sorted(cells_b)
    assert (a == b) == (b == a) == same
    assert (a != b) == (not same)
    if same:
        assert hash(a) == hash(b)


def test_nested_levels_read_after_the_top_hold_the_validating_constructors_cells():
    ladder = build_lattice_ladder(2, 3, 3)
    ladder.levels[-1].elements  # the top first
    for n, F in enumerate(ladder.levels[:-1]):
        r = (3**n - 1) // 2
        assert F.elements == FiniteSubset(F.ctx, box_cells((-r, -r), (r, r))).elements
    # a level read before its top makes its own cells and leaves the top unbuilt
    ladder = build_lattice_ladder(1, 4)
    assert ladder.levels[1].elements == ((-1,), (0,), (1,))
    assert not built(ladder.levels[-1])


def test_grouped_levels_do_not_keep_the_original_top_alive():
    ladder = build_lattice_ladder(1, 6, 5)
    grouped = group_ladder(ladder, [0, 2, 4])
    ladder.levels[-1].elements  # 15,625 cells
    top = weakref.ref(ladder.levels[-1])
    del ladder
    gc.collect()
    assert top() is None
    assert [len(F.elements) for F in grouped.levels] == [1, 25, 625]


def test_the_realize_chain_builds_no_level_above_the_first():
    ladder = build_lattice_ladder(1, 8, 5)
    seq = realize_finite_simplex(3, ladder, Fraction(1, 1000)).sequence
    boundaries = select_subsequence_lemma8(seq, 2)
    grouped = group_matrices(seq, boundaries)
    augmented = [augment_matrix(grouped[i]) for i in range(len(grouped))]
    tiled = group_ladder(ladder, boundaries)
    assert check_congruent(tiled).ok
    h = build_hierarchy(tiled, augmented)
    assert [incidence_from_hierarchy(h, n) for n in range(h.depth)] == augmented
    # sizes, patterns and their hashes answer without cells; base_blocks reads the one cell of level 0
    assert len({Pattern._trusted(F, bytes(len(F))) for F in tiled.levels}) == len(tiled.levels)
    assert [built(F) for F in ladder.levels] == [True] + [False] * 8


def test_the_depth_nine_scale_ladder_builds_and_checks_with_no_cells():
    tracemalloc.start()
    started = time.perf_counter()
    try:
        ladder = build_lattice_ladder(1, 9, 5)
        ok = check_congruent(ladder).ok
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert not any(built(F) for F in ladder.levels)
    # generous bounds: about 0.01 s and well under 1 MB on 2 vCPU, against a
    # 0.3 s and 60 MB target, and building the 1,953,125 top cells takes ~200 MB
    assert elapsed < 3
    assert peak < 60 * 2**20


def test_the_pruefer_ladder_checks_and_measures_defects_with_no_cells():
    ladder = build_pruefer_ladder(2, 12)
    assert check_congruent(ladder).ok
    half, fine = Fraction(1, 2), Fraction(1, 2**13)
    assert [folner_defect(F, half) for F in ladder.levels] == [1] + [0] * 12
    assert [folner_defect(F, fine) for F in ladder.levels] == [1] * 13
    assert [Fraction(3, 8) in F for F in ladder.levels[:5]] == [False, False, False, True, True]
    assert not any(built(F) for F in ladder.levels)


@pytest.mark.parametrize("make", [
    lambda: build_lattice_ladder(2, 3),
    lambda: build_lattice_ladder(1, 4, 5),
    lambda: group_ladder(build_lattice_ladder(1, 5), [0, 2, 3]),
    lambda: build_pruefer_ladder(3, 4),
    # a lower box that sticks out of the top one is encoded on its own
    lambda: FolnerLadder(Lattice(2), [FiniteSubset._from_shape(Lattice(2), Box(lo, hi)) for lo, hi in
                                      [((3, 0), (4, 1)), ((0, 0), (2, 2))]], [FiniteSubset(Lattice(2), [(0, 0)])]),
], ids=["z2", "z-base5", "z-grouped", "pruefer3", "not-nested"])
def test_ladder_json_is_the_eager_encoding_and_builds_nothing(make):
    ladder = make()
    data = ladder.to_json()
    assert not any(built(F) for F in ladder.levels)
    eager = FolnerLadder(ladder.ctx, [FiniteSubset(ladder.ctx, F.elements) for F in make().levels],
                         ladder.glue, ladder.info)
    assert json.dumps(data, sort_keys=True) == json.dumps(eager.to_json(), sort_keys=True)
    assert data["levels"] == [F.encode_json() for F in eager.levels]


def test_the_budget_is_checked_before_any_cell_is_made(monkeypatch):
    made = []
    cells = FiniteSubset._cells
    monkeypatch.setattr(FiniteSubset, "_cells", lambda self: made.append(self) or cells(self))
    monkeypatch.setattr(folner, "MAX_CELLS", 27)
    for build in (lambda: build_lattice_ladder(1, 4), lambda: build_pruefer_ladder(3, 4),
                  lambda: build_lattice_ladder(2, 10**9, 5), lambda: build_pruefer_ladder(2, 10**9)):
        with pytest.raises(InfeasibleError):
            build()
    ladder = build_lattice_ladder(1, 3)
    assert check_congruent(ladder).ok and len(ladder.levels[-1]) == 27
    assert made == []
    assert not any(built(F) for F in ladder.levels)


@st.composite
def fibre_descriptors(draw):
    """A `Fibres` runs dict: runs (a, b, lo..hi) over distinct plane points, in canonical order."""
    points = sorted(draw(st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=8)))
    fibres, start = {}, 0
    for a, b in points:
        lo, run = draw(st.integers(-5, 5)), draw(st.integers(1, 4))
        fibres[a, b] = (start, lo, lo + run - 1)
        start += run
    return fibres


def fibre_cells(fibres) -> list:
    return [(a, b, t) for (a, b), (_, lo, hi) in fibres.items() for t in range(lo, hi + 1)]


def assert_fibred_answers_like_the_validating_constructor(F):
    fibres = fibres_of(F)
    eager = FiniteSubset(F.ctx, fibre_cells(fibres))
    ((a, b), (_, lo, hi)), ((x, y), (_, _, top)) = next(iter(fibres.items())), next(reversed(fibres.items()))
    missing = next((u, 0) for u in itertools.count() if (u, 0) not in fibres)
    inside, beside = [(a, b, lo), (a, b, hi), (x, y, top)], [(a, b, lo - 1), (a, b, hi + 1), (x, y, top + 1)]
    for g in [*inside, *beside, (*missing, lo)]:
        assert (g in F) == (g in eager) == (g in frozenset(eager.elements)) == (g in inside)
    for g in [(a, b), (a, b, lo, 0), [a, b, lo], 0, (float(a), b, lo), (a, b, float(lo)), (True, b, lo)]:
        assert g not in F and g not in eager
    assert len(F) == len(eager)
    assert F.encode_json() == eager.encode_json()
    assert repr(F) == repr(eager)
    # the descriptor found on the eager copy is the preset one, so == compares descriptors
    assert fibres_of(eager) == fibres
    assert F == eager and eager == F and hash(F) == hash(eager)
    assert not built(F)
    assert F.elements == eager.elements
    assert F == FiniteSubset._trusted(F.ctx, reversed(eager.elements))  # cell by cell


@PROPERTY
@given(fibres=fibre_descriptors())
def test_lazy_fibred_windows_answer_like_the_validating_constructor(fibres):
    assert_fibred_answers_like_the_validating_constructor(FiniteSubset._from_shape(Heisenberg(), Fibres(fibres)))


def test_heisenberg_ladder_levels_answer_like_the_validating_constructor():
    levels = [F for n in (2, 3) for F in build_heisenberg_ladder(heisenberg_targets(n)).levels]
    assert len(levels) == 7 and all("_shape" in vars(F) for F in levels)
    for F in levels:
        assert_fibred_answers_like_the_validating_constructor(F)
    # the last run shifted by one: the same size and other cells, unequal by descriptor
    F = levels[-1]
    (a, b), (start, lo, hi) = next(reversed(fibres_of(F).items()))
    other = FiniteSubset._from_shape(F.ctx, Fibres({**fibres_of(F), (a, b): (start, lo + 1, hi + 1)}))
    assert F != other and len(F) == len(other)


def test_the_heisenberg_ladder_builds_checks_and_measures_defects_with_no_cells(monkeypatch):
    planes = []
    lattice = compose.build_lattice_ladder
    monkeypatch.setattr(compose, "build_lattice_ladder", lambda *args: planes.append(lattice(*args)) or planes[-1])
    ladder = build_heisenberg_ladder(heisenberg_targets(3))
    gens = ladder.ctx.generators()
    assert check_congruent(ladder).ok
    defects = [folner_defect(F, g) for F in ladder.levels for g in gens]
    assert not any(built(F) for F in ladder.levels)
    # the plane ladder the composition searched keeps no cells, its top included
    assert len(planes) == 1 and not any(built(F) for F in planes[0].levels)
    assert defects == [folner_defect(FiniteSubset(F.ctx, F.elements), g) for F in ladder.levels for g in gens]


def test_the_heisenberg_targets_4_build_and_check_stay_small():
    tracemalloc.start()
    try:
        ladder = build_heisenberg_ladder(heisenberg_targets(4))
        ok = check_congruent(ladder).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and not any(built(F) for F in ladder.levels)
    # about 1.8 MB on Python 3.11, against 42 MB when the tower and the levels were built
    assert peak < 6 * 2**20
