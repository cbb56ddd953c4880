"""Direct-product windows against their shape-less twins.

An abelian-chain ladder on a direct product finds a `Product` shape on each
level whose factor projections have shapes and multiply to its size.  Its
twin holds the same cells with the shape preset to None, so every answer of
the twin comes from the per-cell products: `_product_runs`, the dict rank and
the generic defect loop.  Congruence certificates, tilings, defect tables,
boundary masses, analysis windows and the witness of a glue set with one
digit moved must be the same on both.  A diagonal generator gives levels
that are no products, and they must have no shape.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from monotiles import (Cyclic, DirectProduct, FiniteSubset, FolnerLadder, Lattice, Pruefer,
                       build_abelian_chain_ladder, check_congruent)
from monotiles.analysis import _windows, boundary_mass_bound
from monotiles._boxes import Product
from monotiles.pipeline import _defect_table
from test_tiling import PROPERTY

TOP = 250  # cells of the top level, so the twins' product loops stay quick


def twin(F):
    return FiniteSubset._preset(F.ctx, elements=F.elements, _shape=None)


def flat(spans):
    return [q for s in spans for q in s]


def chain_ladder(ctx, generators, depth):
    """The abelian-chain ladder, cut to the deepest prefix whose top level holds at most TOP cells."""
    ladder = build_abelian_chain_ladder(ctx, generators, depth)
    while len(ladder.levels[-1]) > TOP:
        ladder = build_abelian_chain_ladder(ctx, generators, ladder.depth - 1)
    return ladder


@st.composite
def ladders(draw):
    """(ladder, whether its levels are products): Z^d x Z/n with its generators
    in a drawn order, a nested product, a Pruefer factor, or a diagonal generator."""
    kind = draw(st.sampled_from(["lattice x cyclic", "nested", "pruefer", "diagonal"]))
    d, n, depth = draw(st.integers(1, 2)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if kind == "lattice x cyclic":
        ctx = DirectProduct([Lattice(d), Cyclic(n)])
        generators = draw(st.permutations(ctx.generators()))
    elif kind == "nested":
        ctx = DirectProduct([Lattice(d), DirectProduct([Cyclic(n), Cyclic(draw(st.integers(1, 3)))])])
        generators = draw(st.permutations(ctx.generators()))
    elif kind == "pruefer":
        p = draw(st.sampled_from([2, 3]))
        ctx = DirectProduct([Lattice(d), Pruefer(p)])
        generators = [*ctx.generators(), ((0,) * d, Fraction(1, p**2))]
    else:
        n = max(n, 2)
        ctx = DirectProduct([Lattice(d), Cyclic(n)])
        units = [u for u, _ in ctx.generators()[::2]]
        generators = [(units[0], 1), *((u, 0) for u in units[1:])]
    return chain_ladder(ctx, generators, depth), kind != "diagonal"


def twin_ladder(ladder):
    return FolnerLadder(ladder.ctx, map(twin, ladder.levels), map(twin, ladder.glue), ladder.info)


@PROPERTY
@given(ladders())
def test_direct_product_ladders_answer_like_their_shapeless_twins(pair):
    ladder, products = pair
    ctx, other = ladder.ctx, twin_ladder(ladder)
    if products:
        assert all(isinstance(F._shape, Product) for F in ladder.levels)
    else:
        assert all(F._shape is None for F in ladder.levels[1:])
    assert all(F._shape is None for F in other.levels)

    assert check_congruent(ladder).to_json() == check_congruent(other).to_json() == {"ok": True, "reason": None,
                                                                                   "witness": None}
    for n in range(ladder.depth):
        assert list(map(flat, ladder.tiling(n))) == list(map(flat, other.tiling(n)))

    generators = ctx.generators()
    assert _defect_table(ladder, generators) == _defect_table(other, generators)
    for g in generators:
        for n in range(ladder.depth + 1):
            assert boundary_mass_bound(ladder, g, n) == boundary_mass_bound(other, g, n)

    for m in range(ladder.depth + 1):
        for n in range(m + 1):
            assert [(i, flat(s)) for i, s in _windows(ladder, n, m)] == \
                   [(i, flat(s)) for i, s in _windows(other, n, m)]


@PROPERTY
@given(ladders(), st.data())
def test_a_moved_glue_digit_fails_alike_on_both(pair, data):
    ladder, _ = pair
    ctx, ident = ladder.ctx, ladder.ctx.identity()
    steps = [n for n, J in enumerate(ladder.glue) if len(J) > 1]
    if not steps:
        return
    n = data.draw(st.sampled_from(steps))
    c = data.draw(st.sampled_from([x for x in ladder.glue[n] if x != ident]))
    g = data.draw(st.sampled_from(ctx.generators()))
    moved = FiniteSubset(ctx, {*ladder.glue[n], ctx.mul(c, g)} - {c})
    glue = ladder.glue[:n] + (moved,) + ladder.glue[n + 1:]
    shaped = FolnerLadder(ctx, ladder.levels, glue)
    plain = FolnerLadder(ctx, map(twin, ladder.levels), map(twin, glue))
    assert check_congruent(shaped).to_json() == check_congruent(plain).to_json()
