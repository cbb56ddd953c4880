"""`write_json` streams canonical JSON in pieces through the C encoder.

Its bytes must equal `json.dumps(data, sort_keys=True, separators=(",", ":"))`
plus a newline, the one-shot encoding the artifacts were always pinned to.
The writer differs from `json.dumps` on one point, on purpose: an object key
that is not a `str` raises `TypeError` instead of being turned into a string.
A `FiniteSubset` in the data is written as its `encode_json()`, piece by
piece from its box, fibres or subgroup when it has one, without its cells.
Each closed form of `_text.pieces` (a run's numbers from a table of last
digits, reduced "i/N" strings, cells that are their own JSON) is checked
against the expression the writer used before it, `old_pieces`, and three
CLI ladders that the pinned pipeline digests do not reach keep their bytes.
"""

import hashlib
import json
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from monotiles import (
    Cyclic,
    DirectProduct,
    FiniteSubset,
    Heisenberg,
    Lattice,
    ManagedMatrix,
    Pruefer,
    Rationals,
    build_hierarchy,
    build_lattice_ladder,
)
from monotiles import _text
from monotiles._boxes import Box, Fibres, Subgroup
from monotiles.cli import main
from monotiles.pipeline import DEFAULT_CONFIG, PipelineConfig, run_pipeline, write_json
from shape_views import box_of, fibres_of, subgroup_of
from test_box_paths import boxes, divisors, pruefer_elements
from test_descriptor_levels import box_cells, built, fibre_cells, fibre_descriptors
from test_tiling import PROPERTY

# around the 1,024-item slice length, and several slices with a ragged end
SIZES = (0, 1, 1023, 1024, 1025, 3001)

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200), st.integers(max_value=-2 ** 64),
    st.floats(), st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", "☃", "\U0001F600", "\ud800", "</script>"]),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12,
)
CELLS = st.lists(st.integers(), min_size=1, max_size=3)


def _cycled(n, pool, as_tuple):
    items = [pool[i % len(pool)] for i in range(n)]
    return tuple(items) if as_tuple else items


# lists of the sizes above, their items drawn from a small pool of values
SIZED = st.builds(_cycled, st.sampled_from(SIZES), st.lists(JSON, min_size=1, max_size=4), st.booleans())
# like a ladder's levels: a first level of one cell, later levels of thousands
LEVELS = st.builds(lambda cell, sizes: [[cell]] + [[cell] * n for n in sizes],
                   CELLS, st.lists(st.sampled_from(SIZES[3:]), min_size=1, max_size=3))
DATA = st.one_of(
    JSON, SIZED, LEVELS,
    st.dictionaries(st.text(max_size=3), st.one_of(JSON, SIZED, LEVELS), max_size=3),
    st.lists(st.one_of(SIZED, LEVELS), max_size=3),
)


def canonical(data) -> bytes:
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()


def written(data) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        write_json(data, path)
        return path.read_bytes()


@PROPERTY
@given(DATA)
def test_write_json_is_byte_identical_to_json_dumps(data):
    assert written(data) == canonical(data)


@pytest.mark.parametrize("n", SIZES)
def test_write_json_list_sizes(n):
    cells = [[i] for i in range(n)]
    for data in (cells, list(range(n)), tuple(range(n)), {"levels": [[[0]], cells]}):
        assert written(data) == canonical(data)


@PROPERTY
@given(st.dictionaries(st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(), st.none()),
                       JSON, min_size=1, max_size=3),
       st.sampled_from([lambda d: d, lambda d: [d], lambda d: {"a": [0, d]}]))
def test_write_json_rejects_non_str_keys(data, wrap):
    with pytest.raises(TypeError):
        written(wrap(data))


def test_non_str_key_is_an_error_not_a_converted_key():
    assert json.dumps({1: 2}, sort_keys=True, separators=(",", ":")) == '{"1":2}'
    with pytest.raises(TypeError, match="keys must be str, not int"):
        written({1: 2})


def test_sliced_artifacts_are_canonical(tmp_path):
    # ternary Z to depth 7: the top level has 2,187 cells, so the ladder's
    # levels go through the slicing path, which the default config never takes
    config = PipelineConfig.from_json({**DEFAULT_CONFIG, "ladder": {"route": "lattice", "depth": 7, "base": 3}})
    assert run_pipeline(config, tmp_path).ok
    for name in config.artifacts.values():
        raw = (tmp_path / name).read_bytes()
        assert raw == canonical(json.loads(raw)), name
    assert max(len(level) for level in json.loads((tmp_path / "ladder.json").read_bytes())["levels"]) == 2187


def test_write_json_peak_memory_is_well_below_the_file(tmp_path):
    data = build_lattice_ladder(1, 7, 5).to_json()
    path = tmp_path / "ladder.json"
    tracemalloc.start()
    try:
        write_json(data, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    # one encode call over the whole of "levels" peaks at about 3.6 times the file
    assert peak < size / 3, (peak, size)
    assert path.read_bytes() == canonical(data)


@st.composite
def shaped(draw):
    """(subset, its cells): a box of Z^1 to Z^3 (off-centre and one-cell boxes
    included), a box whose rows hold 4,095 to 4,097 cells, a subgroup {i/N} or
    a fibred window, each made from its descriptor; or a subset with no shape,
    which takes the C-encoder path (over 4,096 cells in some draws)."""
    kind = draw(st.sampled_from(["box", "long rows", "subgroup", "fibres", "no shape"]))
    if kind in ("box", "long rows"):
        lo, sides = draw(boxes(side=2 if kind == "long rows" else 4))
        if kind == "long rows":
            sides = (*sides[:-1], draw(st.sampled_from([4095, 4096, 4097])))
        hi = tuple(a + s - 1 for a, s in zip(lo, sides))
        return FiniteSubset._from_shape(Lattice(len(lo)), Box(lo, hi)), box_cells(lo, hi)
    if kind == "subgroup":
        p = draw(st.sampled_from([2, 3, 5]))
        n = p ** draw(st.integers(0, 6))
        return FiniteSubset._from_shape(Pruefer(p), Subgroup(n)), [Fraction(i, n) for i in range(n)]
    if kind == "fibres":
        fibres = draw(fibre_descriptors())
        return FiniteSubset._from_shape(Heisenberg(), Fibres(fibres)), fibre_cells(fibres)
    cells = [(x,) for x in range(0, 2 * draw(st.sampled_from([2, 100, 4097, 9000])), 2)]
    return FiniteSubset(Lattice(1), cells), cells


@PROPERTY
@given(shaped())
def test_each_shape_writes_the_bytes_of_json_dumps(pair):
    F, cells = pair
    encoding = [F.ctx.encode_json(g) for g in cells]
    pieces = list(_text.pieces(F))
    assert "[" + ",".join(text for _, text in pieces) + "]" == json.dumps(encoding, separators=(",", ":"))
    assert all(1 <= n <= 4096 and len(json.loads(f"[{text}]")) == n for n, text in pieces)
    data = {"level": F, "levels": [F, F]}
    assert written(data) == canonical({"level": encoding, "levels": [encoding] * 2}) == canonical(_text.encoded(data))
    if box_of(F) or fibres_of(F) or subgroup_of(F):
        assert not built(F)
    else:  # no shape: `_shape` was found absent from the cells
        assert box_of(F) is None


def test_empty_subsets_long_lists_of_subsets_and_bytes_are_written_as_lists():
    empty, one = FiniteSubset(Lattice(2), []), FiniteSubset(Lattice(1), [(0,)])
    data = {"empty": empty, "levels": [one, empty] * 600, "none": b"", "symbols": bytes(range(256)) * 9,
            "families": [{"blocks": [b"\x01\x00", b""] * 600}]}
    plain = _text.encoded(data)
    assert written(data) == canonical(plain)
    assert plain["empty"] == [] and plain["levels"][:2] == [[[0]], []] and plain["symbols"][255:257] == [255, 0]


@pytest.mark.parametrize("side, counts", [(4095, [4095]), (4096, [4096]), (4097, [4096, 1]), (9000, [4096, 4096, 808])])
def test_a_long_row_is_written_in_pieces_of_at_most_4096_cells(side, counts):
    for d in (1, 2):
        F = FiniteSubset._from_shape(Lattice(d), Box((-5,) * d, (*(-4,) * (d - 1), side - 6)))
        assert [n for n, _ in _text.pieces(F)] == counts * (2 if d == 2 else 1)
        assert not built(F)


def test_writing_a_ladder_and_a_hierarchy_builds_no_level_and_stays_under_a_megabyte(tmp_path):
    ladder = build_lattice_ladder(1, 7, 5)
    # columns (1, 2, 2), (1, 1, 3) and (1, 3, 1): 5 cosets, three distinct blocks per level
    h = build_hierarchy(ladder, [ManagedMatrix([[1, 1, 1], [2, 1, 3], [2, 3, 1]])] * 6)
    unbuilt = [not built(F) for F in ladder.levels]
    tracemalloc.start()
    try:
        write_json(ladder._artifact(), tmp_path / "ladder.json")
        write_json(h._artifact(), tmp_path / "hier.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # base_blocks reads the one cell of level 0; the writes read none
    assert unbuilt == [False] + [True] * 7 == [not built(F) for F in ladder.levels]
    # about 0.33 MB on Python 3.11; writing each file from its to_json() peaks at about 9 MB
    assert peak < 2**20, peak
    for name, data in (("ladder.json", ladder.to_json()), ("hier.json", h.to_json())):
        assert (tmp_path / name).read_bytes() == canonical(data), name


def old_pieces(F):
    """The pieces as the writer made them before its closed forms: each row's
    numbers by map(str), and every other cell by encode_json, a subgroup's
    Fractions made afresh."""
    shape = F._shape
    if isinstance(shape, (Box, Fibres)):
        for x, run in shape.rows():
            head = "[" + "".join(f"{a:d}," for a in x)
            for part in (run[i:i + 4096] for i in range(0, len(run), 4096)):
                yield len(part), head + ("]," + head).join(map(str, part)) + "]"
        return
    cells = list(shape.cells()) if shape else F.elements
    for i in range(0, len(cells), 4096):
        part = list(map(F.ctx.encode_json, cells[i:i + 4096]))
        yield len(part), json.dumps(part, separators=(",", ":"))[1:-1]


# where a number gains or loses a digit, or its sign
CROSSINGS = [0] + [sign * 10**k for k in range(1, 13) for sign in (1, -1)]


@st.composite
def crossing_runs(draw):
    """A run a..b-1 of up to 9,000 numbers (two piece boundaries) that starts
    up to 300 before 0 or +-10^k, k <= 12, so most runs cross it."""
    a = draw(st.sampled_from(CROSSINGS)) - draw(st.integers(0, 300))
    return range(a, a + draw(st.integers(0, 9000)))


@PROPERTY
@given(crossing_runs(), st.sampled_from(["],[", "],[-7,", "],[1000000000000,-3,"]))
def test_a_run_of_numbers_is_the_join_of_their_strs(run, sep):
    assert _text._numbers(run, sep) == sep.join(map(str, run))


@PROPERTY
@given(crossing_runs(), st.lists(st.tuples(st.integers(-10**12, 10**12), st.integers(1, 2)), max_size=2))
def test_boxes_of_one_to_three_axes_write_the_old_text(run, axes):
    # the other axes: a start anywhere up to 10^12 and one or two cells
    if not run:
        run = range(run.start, run.start + 1)
    lo = (*(a for a, _ in axes), run.start)
    hi = (*(a + s - 1 for a, s in axes), run.stop - 1)
    F = FiniteSubset._from_shape(Lattice(len(lo)), Box(lo, hi))
    assert list(_text.pieces(F)) == list(old_pieces(F))
    assert not built(F)


@PROPERTY
@given(st.sampled_from([2, 3, 5, 6, 10]), st.data())
def test_subgroups_write_the_old_text(p, data):
    # every divisor N of a power of p up to 20,000 cells, so reduced fractions of composite p and pieces past 4,096
    k = max(j for j in range(1, 15) if p**j <= 20_000)
    n = data.draw(st.sampled_from(divisors(p**k)))
    F = FiniteSubset._from_shape(Pruefer(p), Subgroup(n))
    assert list(_text.pieces(F)) == list(old_pieces(F))
    assert not built(F)


INTS = st.one_of(st.integers(-10**12, 10**12), st.integers())
LEAVES = st.one_of(
    st.integers(1, 3).map(lambda d: (Lattice(d), st.tuples(*[INTS] * d))),
    st.just((Heisenberg(), st.tuples(INTS, INTS, INTS))),
    st.integers(1, 7).map(lambda n: (Cyclic(n), st.integers(0, n - 1))),
    st.sampled_from([2, 3, 6]).map(lambda p: (Pruefer(p), pruefer_elements(p))),
    st.just((Rationals(), st.fractions())),
)
# (context, its elements): every kind, and nested direct products of them
CONTEXTS = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(
        lambda parts: (DirectProduct(c for c, _ in parts), st.tuples(*(e for _, e in parts)))),
    max_leaves=5,
)


def _json_cells(ctx):
    """Whether every cell of ctx is its own JSON: products of lattices, Heisenberg and cyclic groups."""
    if isinstance(ctx, DirectProduct):
        return all(map(_json_cells, ctx.factors))
    return isinstance(ctx, (Lattice, Heisenberg, Cyclic))


@PROPERTY
@given(CONTEXTS, st.data())
def test_shapeless_subsets_of_every_kind_write_the_old_text(pair, data):
    ctx, elements = pair
    cells = data.draw(st.lists(elements, unique=True, max_size=12))
    if data.draw(st.booleans()):  # times a line of Z, past the 4,096-cell piece
        ctx = DirectProduct([ctx, Lattice(1)])
        cells = [(g, (i,)) for g in cells for i in range(0, 2 * (4097 // max(1, len(cells)) + 1), 2)]
    F = FiniteSubset(ctx, cells)
    assert ctx.cells_are_json is _json_cells(ctx)
    assert list(_text.pieces(F)) == list(old_pieces(F))
    assert written(F) == canonical(F.encode_json())


def test_a_lattice_subset_spanning_past_sys_maxsize_has_no_box_and_is_written_cell_by_cell():
    cells = [(0, 5), (2**64, -2**70)]  # a bounding box of more than sys.maxsize cells
    F = FiniteSubset(Lattice(2), cells)
    assert box_of(F) is None
    assert written(F) == canonical([list(g) for g in cells])


def test_a_product_with_a_pruefer_factor_encodes_its_cells():
    ctx = DirectProduct([Lattice(1), DirectProduct([Cyclic(2), Pruefer(2)])])
    F = FiniteSubset(ctx, [((0,), (1, Fraction(1, 2))), ((1,), (0, Fraction(0)))])
    assert not ctx.cells_are_json
    assert [text for _, text in _text.pieces(F)] == ['[[0],[1,"1/2"]],[[1],[0,"0"]]']


# sha256 of ladder.json without its trailing newline, from `monotiles folner build` with these
# arguments, taken when the writer still made every number by str and every other cell by
# encode_json: a Z ladder with coordinates up to +-195,312, a Pruefer ladder of composite p = 6
# (7,776 cells at the top), and an abelian-route ladder of Z^2 x Z/4 (26,244 shapeless cells at the top)
CLI_LADDER_SHA256 = {
    "z-base5-depth8": (["--group", '{"kind":"lattice","d":1}', "--depth", "8", "--base", "5"],
                       "fe01d8a1c10c73bbcdf02e5040dddbf7e2482f4096fef71d39700c5c0c75d65b"),
    "pruefer6-depth5": (["--group", '{"kind":"pruefer","p":6}', "--depth", "5"],
                        "912bbd4c8771612b181a94c0c426e7c3d2b4ea788255fe2db8e9012faf719c49"),
    "abelian-z2-c4-depth5": (["--group", '{"kind":"direct_product","factors":[{"kind":"lattice","d":2},'
                                         '{"kind":"cyclic","n":4}]}', "--depth", "5"],
                             "f2727fd8d2cbb1a40fbbee86ff805066ae7be92bace0807bc7ac9bae2a713bc5"),
}


@pytest.mark.parametrize("name", sorted(CLI_LADDER_SHA256))
def test_cli_ladders_keep_their_bytes(name, tmp_path):
    args, digest = CLI_LADDER_SHA256[name]
    assert main(["--out", str(tmp_path), "folner", "build", *args]) == 0
    path = tmp_path / "ladder.json"
    text = path.read_bytes()
    path.unlink()  # 4.27 MB for the Z ladder, which pytest would keep among its recent temporary directories
    assert text.endswith(b"\n") and hashlib.sha256(text[:-1]).hexdigest() == digest
