"""The shape contract: every shape class of `_boxes.SHAPES` answers like the
generic code on its own cells.

For each table entry a strategy draws a group, a shape, an upper shape of the
same class (an enclosing one or an unrelated one) and element encodings.  The
oracles are the validating constructor on the shape's cells, `sorted`, an
enumerate dict, the per-cell product loop of the invariance defect,
`_product_runs` and `json.dumps`.  A table entry without a strategy fails
here, so a new shape class is covered as soon as it is added.
"""

import json
import math

import pytest
from hypothesis import given, strategies as st

from monotiles import Cyclic, DirectProduct, FiniteSubset, Heisenberg, Lattice, Pruefer
from monotiles import _boxes, _text
from monotiles._boxes import SHAPES, Box, Fibres, Product, Subgroup
from test_box_paths import boxes, divisors, pruefer_elements
from test_descriptor_levels import fibre_descriptors
from test_tiling import PROPERTY


def _hi(lo, sides):
    return tuple(a + s - 1 for a, s in zip(lo, sides))


@st.composite
def lattice_cases(draw):
    lo, sides = draw(boxes())
    d = len(lo)
    if draw(st.booleans()):  # an enclosing box, so some translates fit
        grow = [draw(st.tuples(st.integers(0, 2), st.integers(0, 2))) for _ in range(d)]
        upper = Box(tuple(a - g for a, (g, _) in zip(lo, grow)),
                    tuple(b + g for b, (_, g) in zip(_hi(lo, sides), grow)))
    else:
        ulo, usides = draw(boxes(d=d, side=6))
        upper = Box(ulo, _hi(ulo, usides))
    return Lattice(d), Box(lo, _hi(lo, sides)), upper, st.tuples(*[st.integers(-8, 8)] * d)


@st.composite
def heisenberg_cases(draw):
    runs = draw(fibre_descriptors())
    if draw(st.booleans()):  # every fibre lengthened at both ends: the identity's translate fits
        upper, start = {}, 0
        for x, (_, lo, hi) in runs.items():
            lo, hi = lo - draw(st.integers(0, 2)), hi + draw(st.integers(0, 2))
            upper[x], start = (start, lo, hi), start + hi - lo + 1
    else:
        upper = draw(fibre_descriptors())
    return Heisenberg(), Fibres(runs), Fibres(upper), st.tuples(*[st.integers(-3, 3)] * 3)


@st.composite
def pruefer_cases(draw):
    p = draw(st.sampled_from([2, 3, 6]))
    n, m = (draw(st.sampled_from(divisors(p**3))) for _ in range(2))  # n need not divide m
    return Pruefer(p), Subgroup(n), Subgroup(m), pruefer_elements(p, 3)


@st.composite
def cyclic_cases(draw):
    N = draw(st.integers(1, 12))
    n, m = (draw(st.sampled_from(divisors(N))) for _ in range(2))  # n need not divide m
    return Cyclic(N), Subgroup(n, N), Subgroup(m, N), st.integers(0, N - 1)


@st.composite
def direct_product_cases(draw, nested=True):
    """One to three factors of the other kinds, and a nested product among
    them (unless nested is off): sides and orders kept small, so products of
    them stay a few hundred cells."""
    leaves = [lattice_cases(), cyclic_cases(), pruefer_cases(), heisenberg_cases()]
    parts = draw(st.lists(st.one_of(*leaves, *[direct_product_cases(nested=False)] * nested), min_size=1,
                          max_size=3).filter(lambda ps: math.prod(len(shape) for _, shape, _, _ in ps) <= 300))
    ctx = DirectProduct(c for c, _, _, _ in parts)
    return (ctx, Product(tuple(s for _, s, _, _ in parts)), Product(tuple(u for _, _, u, _ in parts)),
            st.tuples(*(e for _, _, _, e in parts)))


CASES = {"lattice": lattice_cases(), "heisenberg3": heisenberg_cases(), "pruefer": pruefer_cases(),
         "cyclic": cyclic_cases(), "direct_product": direct_product_cases()}


def flat(spans):
    return None if spans is None else [q for s in spans for q in s]


def misfit(shape, upper):
    """Whether some subgroup {i/N} (or its cyclic kin) of shape lies in no
    subgroup of upper, N not dividing M: then no translate fits."""
    if isinstance(shape, Product):
        return any(map(misfit, shape.shapes, upper.shapes))
    return isinstance(shape, Subgroup) and len(upper) % len(shape) != 0


@pytest.mark.parametrize("kind", sorted(SHAPES))
@PROPERTY
@given(data=st.data())
def test_each_shape_answers_like_the_generic_code_on_its_cells(kind, data):
    ctx, shape, upper, elements = data.draw(CASES[kind])  # KeyError: a table entry with no strategy
    assert type(shape) is type(upper) is SHAPES[ctx.kind]
    F, U = FiniteSubset._from_shape(ctx, shape), FiniteSubset._from_shape(ctx, upper)
    cells = list(shape.cells())
    eager, eager_upper = FiniteSubset(ctx, cells), FiniteSubset(ctx, upper.cells())
    members = set(cells)
    others = data.draw(st.lists(elements, max_size=8))

    # cells and len
    assert cells == sorted(members) == list(eager.elements)
    assert len(shape) == len(F) == len(cells)

    # in: members, other valid elements and invalid encodings
    for g in cells + others:
        assert shape.contains(g) is (g in members)
        assert (g in F) is (g in members)
    for bad in (True, 1.0, [cells[0]], ctx.encode_json(cells[0])):
        assert bad == cells[0] or bad not in F  # a cyclic cell is its own encoding

    # rank: the closed form, or None for the dict fallback
    where, rank, index = shape.rank(), _boxes.rank(F), {g: q for q, g in enumerate(cells)}
    wrong = [cells[0][:-1], (*cells[0], 0)] if isinstance(cells[0], tuple) else []  # tuples of another length
    for g in cells + others + [True, 1.0] + wrong:
        assert rank(g) == index.get(g)
        assert where is None or where(g) == index.get(g)

    # kept: the per-cell product loop of right_invariance_defect
    K = data.draw(st.lists(elements, max_size=4))
    assert shape.kept(K, ctx) == sum(all(ctx.mul(f, k) in members for k in K) for f in cells)

    # pieces and from_rows, with no cell of F made unless it is a product (no row form, so no reader of
    # rows: the validating constructor loads it and finds its shape from the cells)
    text = json.dumps(eager.encode_json(), separators=(",", ":"))
    parts = list(_text.pieces(F))
    assert "[" + ",".join(t for _, t in parts) + "]" == text and sum(n for n, _ in parts) == len(cells)
    loaded = _text.from_rows(ctx, json.loads(text))
    rows_read = SHAPES[ctx.kind].from_rows(ctx, json.loads(text))
    if isinstance(shape, Product):
        assert rows_read is None and loaded._shape == shape and "elements" in vars(loaded)
    else:
        assert vars(loaded)["_shape"] == shape and "elements" not in vars(loaded)
        assert rows_read == shape
        assert "elements" not in vars(F)

    # ==: cell by cell with the eagerly built subset, then by shape once it is found;
    # a shape found from cells holds exactly those cells
    assert F == eager and eager == F and hash(F) == hash(eager)
    assert type(shape).of(eager.elements, ctx) == shape == eager._shape
    holed = cells[:len(cells) // 2] + cells[len(cells) // 2 + 1:]
    if holed:
        found = type(shape).of(holed, ctx)
        assert found is None or list(found.cells()) == holed
        assert _text.from_rows(ctx, list(map(ctx.encode_json, holed))) == FiniteSubset(ctx, holed)
    assert loaded == eager and eager == loaded and ("elements" not in vars(loaded)) is (rows_read is not None)

    # runs into the upper shape, escaping c included, and by index i
    place, oracle = _boxes.runs(F, U), _boxes._product_runs(eager, eager_upper)
    if shape.runs_in(upper, ctx) is None:  # only subgroups {i/N}, {j/M} with N not dividing M, or products of them
        assert misfit(shape, upper)
    for c in others + [ctx.identity(), *ctx.generators()]:  # unit steps: a translate one past an edge
        assert flat(place(c)) == flat(oracle(c))
    for i, c in enumerate(eager_upper.elements[:40]):
        assert flat(place(c, i)) == flat(oracle(c))
