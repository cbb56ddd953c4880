"""Ladder and hierarchy files load back into their level descriptors.

`FolnerLadder.from_json` infers a box, subgroup or fibred window from a
level's rows and keeps it only when the rows are exactly that shape's
canonical text; any other level goes through the validating constructor.
The oracle is the loader before that change, kept below: every file, intact
or perturbed (rows swapped, duplicated, dropped or off by one, a `true`, a
float, an int in place of a Pruefer string), must load to a ladder equal to
the oracle's cell for cell, or raise the same exception with the same
message.  An intact file loads with no level built.
"""

import copy
import functools
import json

import pytest
from hypothesis import given, strategies as st

from monotiles import (
    BlockHierarchy,
    EncodingError,
    FiniteSubset,
    FolnerLadder,
    Heisenberg,
    Lattice,
    ManagedMatrix,
    Pruefer,
    build_heisenberg_ladder,
    build_hierarchy,
    build_lattice_ladder,
    build_pruefer_ladder,
    check_congruent,
    context_from_descriptor,
)
from monotiles._boxes import Box, Fibres, Subgroup
from monotiles.pipeline import heisenberg_targets
from test_box_paths import boxes
from test_descriptor_levels import built, fibre_descriptors
from test_tiling import PROPERTY


def eager_from_json(data: dict) -> FolnerLadder:
    """The loader before descriptor-first levels: every level and glue set
    through the validating constructor."""
    if not (isinstance(data, dict) and data.keys() - {"info"} == {"group", "levels", "glue"}):
        raise EncodingError("a ladder needs exactly the keys group, levels, glue and optionally info")
    if not all(isinstance(part, list) and all(isinstance(s, list) for s in part)
               for part in (data["levels"], data["glue"])):
        raise EncodingError("ladder levels and glue must be lists of element lists")
    ctx = context_from_descriptor(data["group"])
    levels = [FiniteSubset(ctx, (ctx.decode_json(e) for e in lv)) for lv in data["levels"]]
    glue = [FiniteSubset(ctx, (ctx.decode_json(e) for e in j)) for j in data["glue"]]
    return FolnerLadder(ctx, levels, glue, data.get("info"))


def outcome(load, data):
    """("ok", ladder) or (exception type, message) of load(data)."""
    try:
        return "ok", load(copy.deepcopy(data))
    except Exception as e:  # the two loaders must fail alike, whatever the type
        return type(e), str(e)


@functools.cache
def built_ladder_json(name: str) -> str:
    make = {"z2": lambda: build_lattice_ladder(2, 3), "z-base5": lambda: build_lattice_ladder(1, 4, 5),
            "pruefer3": lambda: build_pruefer_ladder(3, 4),
            "heisenberg": lambda: build_heisenberg_ladder(heisenberg_targets(2))}[name]
    return json.dumps(make().to_json())


@st.composite
def ladder_files(draw):
    """Parsed ladder JSON: a built box, Pruefer or Heisenberg ladder, or one
    level made from a random box, subgroup {i/N} or fibre descriptor."""
    kind = draw(st.sampled_from(["built", "box", "subgroup", "fibres"]))
    if kind == "built":
        return json.loads(built_ladder_json(draw(st.sampled_from(["z2", "z-base5", "pruefer3", "heisenberg"]))))
    if kind == "box":
        lo, sides = draw(boxes())
        F = FiniteSubset._from_shape(Lattice(len(lo)), Box(lo, tuple(a + s - 1 for a, s in zip(lo, sides))))
    elif kind == "subgroup":
        p = draw(st.sampled_from([2, 3, 5]))
        F = FiniteSubset._from_shape(Pruefer(p), Subgroup(p ** draw(st.integers(0, 4))))
    else:
        F = FiniteSubset._from_shape(Heisenberg(), Fibres(draw(fibre_descriptors())))
    return FolnerLadder(F.ctx, [F], []).to_json()


PERTURBATIONS = ("swap", "duplicate", "drop", "true", "float", "off by one", "int zero")


def perturb(data, level: int, how: str, i: int, j: int) -> None:
    """Perturb data["levels"][level] in place at rows i and j (taken modulo its length)."""
    rows = data["levels"][level]
    i, j = i % len(rows), j % len(rows)
    if how == "swap":
        rows[i], rows[j] = rows[j], rows[i]
    elif how == "duplicate":
        rows.insert(j, copy.deepcopy(rows[i]))
    elif how == "drop":
        del rows[i]
    elif isinstance(rows[i], str):  # a Pruefer element
        rows[i] = {"true": True, "float": 0.5, "off by one": rows[i] + "1", "int zero": 0}[how]
    else:
        k = j % len(rows[i])
        rows[i][k] = {"true": True, "float": float(rows[i][k]), "off by one": rows[i][k] + 1,
                      "int zero": 0}[how]


def assert_loads_like_the_oracle(data):
    got, expected = outcome(FolnerLadder.from_json, data), outcome(eager_from_json, data)
    assert got[0] == expected[0], (got, expected)
    if got[0] != "ok":
        assert got[1] == expected[1]
        return
    new, old = got[1], expected[1]
    assert new == old and new.info == old.info
    assert [F.elements for F in new.levels] == [F.elements for F in old.levels]
    assert [J.elements for J in new.glue] == [J.elements for J in old.glue]


@PROPERTY
@given(ladder_files())
def test_an_intact_file_loads_with_no_level_built(data):
    ladder = FolnerLadder.from_json(copy.deepcopy(data))
    assert not any(built(F) for F in ladder.levels)
    assert ladder.to_json() == data
    assert_loads_like_the_oracle(data)


@PROPERTY
@given(ladder_files(), st.data())
def test_a_perturbed_file_loads_or_fails_like_the_validating_loader(data, draw):
    level = draw.draw(st.integers(0, len(data["levels"]) - 1))
    how = draw.draw(st.sampled_from(PERTURBATIONS))
    perturb(data, level, how, draw.draw(st.integers(0, 10**6)), draw.draw(st.integers(0, 10**6)))
    assert_loads_like_the_oracle(data)


def test_the_perturbations_reach_both_outcomes():
    data = json.loads(built_ladder_json("z-base5"))
    for how, outcome_type in [("swap", "ok"), ("true", EncodingError), ("float", EncodingError),
                              ("duplicate", ValueError), ("off by one", ValueError)]:
        perturbed = copy.deepcopy(data)
        perturb(perturbed, 3, how, 7, 40)
        assert outcome(FolnerLadder.from_json, perturbed)[0] == outcome_type, how
        assert_loads_like_the_oracle(perturbed)
    # swapped rows load sorted, through the validating constructor
    swapped = copy.deepcopy(data)
    perturb(swapped, 4, "swap", 0, 1)
    ladder = FolnerLadder.from_json(swapped)
    assert built(ladder.levels[4]) and ladder == FolnerLadder.from_json(data) and check_congruent(ladder).ok


def test_a_pruefer_int_zero_loads_through_the_validating_constructor():
    data = json.loads(built_ladder_json("pruefer3"))
    data["levels"][2][0] = 0
    ladder = FolnerLadder.from_json(data)
    assert built(ladder.levels[2]) and not built(ladder.levels[3])
    assert ladder == FolnerLadder.from_json(json.loads(built_ladder_json("pruefer3")))
    assert_loads_like_the_oracle(data)


def test_a_hierarchy_file_checks_its_supports_without_making_cells(monkeypatch):
    ladder = build_lattice_ladder(1, 4, 5)
    h = build_hierarchy(ladder, [ManagedMatrix([[1, 1, 1], [2, 1, 3], [2, 3, 1]])] * 4)
    data = h.to_json()
    made = []
    cells = FiniteSubset._cells
    monkeypatch.setattr(FiniteSubset, "_cells", lambda self: made.append(self) or cells(self))
    loaded = BlockHierarchy.from_json(copy.deepcopy(data))
    # no level made its cells, not even afresh for `encode_json`
    assert made == [] and not any(built(F) for F in loaded.ladder.levels)
    monkeypatch.undo()
    assert loaded.to_json() == data
    # a `true` for 1 compares equal in Python, but its text differs, as a ladder level's would
    data["families"][1]["support"][3] = [True]
    with pytest.raises(EncodingError, match="^a family support differs from its ladder level$"):
        BlockHierarchy.from_json(copy.deepcopy(data))
    data["families"][1]["support"][3] = [1]
    # a support with its rows swapped differs from its level, though the level would load sorted
    data["families"][2]["support"][:2] = data["families"][2]["support"][1::-1]
    with pytest.raises(EncodingError, match="^a family support differs from its ladder level$"):
        BlockHierarchy.from_json(data)
    # and so does a support that runs on past its level
    data = h.to_json()
    data["families"][1]["support"].append([3])
    with pytest.raises(EncodingError, match="^a family support differs from its ladder level$"):
        BlockHierarchy.from_json(data)


def test_a_subgroup_text_of_another_prime_fails_as_the_validating_loader_does():
    # exactly the text of {i/3}, in a Pruefer-2 file: 1/3 is no element of the group
    data = FolnerLadder(Pruefer(3), [FiniteSubset._from_shape(Pruefer(3), Subgroup(3))], []).to_json()
    data["group"]["p"] = 2
    with pytest.raises(EncodingError, match="^1/3 has a denominator dividing no power of 2$"):
        FolnerLadder.from_json(data)
    assert_loads_like_the_oracle(data)


def test_fibres_out_of_canonical_order_load_sorted():
    # two one-cell fibres swapped: the bisect of the first overshoots, so no shape is inferred
    data = FolnerLadder(Heisenberg(),
                        [FiniteSubset._from_shape(Heisenberg(), Fibres({(0, 0): (0, 0, 0), (1, 0): (1, 5, 5)}))],
                        []).to_json()
    data["levels"][0].reverse()
    ladder = FolnerLadder.from_json(data)
    assert ladder.levels[0].elements == ((0, 0, 0), (1, 0, 5))
    assert_loads_like_the_oracle(data)


@pytest.mark.parametrize("row, k", [(0, 2), (-1, 2), (0, 0), (5, 1)])
def test_a_float_in_a_fibred_level_fails_as_the_validating_loader_does(row, k):
    data = json.loads(built_ladder_json("heisenberg"))
    data["levels"][-1][row][k] = float(data["levels"][-1][row][k])
    with pytest.raises(EncodingError, match="^expected a 3-tuple of ints"):
        FolnerLadder.from_json(data)
    assert_loads_like_the_oracle(data)


def test_a_row_of_another_rank_fails_as_the_validating_loader_does():
    # one row is both the first and the last: a box of two coordinates in Z^1
    data = json.loads(built_ladder_json("z-base5"))
    data["levels"][0] = [[0, 0]]
    with pytest.raises(EncodingError, match=r"^expected a 1-tuple of ints, got \(0, 0\)$"):
        FolnerLadder.from_json(data)
    assert_loads_like_the_oracle(data)


def test_a_float_plane_point_of_a_one_row_fibre_fails_as_the_validating_loader_does():
    # the fibre over (1, 0) is one row, so every row of it carries the float
    ctx = Heisenberg()
    data = FolnerLadder(ctx, [FiniteSubset(ctx, [(0, 0, 0), (1, 0, 5)])], []).to_json()
    data["levels"][0][1][0] = 1.0
    with pytest.raises(EncodingError, match="^expected a 3-tuple of ints"):
        FolnerLadder.from_json(data)
    assert_loads_like_the_oracle(data)
