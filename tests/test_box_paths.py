"""Box-native index arithmetic against the product loops it replaces.

On a lattice box in canonical order a cell's index is a mixed-radix number,
so `FolnerLadder.tiling`, `analysis._windows`, `folner_defect` and
`right_invariance_defect` compute by rank instead of by group products.  The
product loops stay in the program for other windows; the references below
are those loops, copied.  Each box result must equal its reference, a planted
non-tiling must give the same failed certificate, and windows that are no
box (or live in Pruefer and Heisenberg groups) must take the generic path.
"""

import itertools
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monotiles import (
    Certificate,
    FiniteSubset,
    FolnerLadder,
    Heisenberg,
    Lattice,
    ManagedMatrix,
    build_hierarchy,
    build_lattice_ladder,
    build_pruefer_ladder,
    check_congruent,
    folner_defect,
    return_times,
    right_invariance_defect,
    scan_occurrences,
)
from monotiles.analysis import _windows
from test_tiling import PROPERTY

TERNARY = ManagedMatrix([[1, 1, 1], [2, 1, 1], [0, 1, 1]])
# four cells whose first and last cells span a 2 x 2 box, but whose coordinates span 2 x 9
NOT_A_BOX = [(0, 0), (0, 5), (1, -3), (1, 1)]


def product_tiling(ladder, n):
    """The per-cell product loop of FolnerLadder.tiling."""
    glue, lower, upper = ladder.glue[n], ladder.levels[n], ladder.levels[n + 1]
    where = {g: q for q, g in enumerate(upper.elements)}
    hit = bytearray(len(upper))
    order = array("l")
    for c in glue:
        for f in lower:
            x = ladder.ctx.mul(c, f)
            q = where.get(x)
            if q is None:
                return Certificate.fail(ladder.ctx, "translate-escapes-next-level", (c, f, x), level=n)
            if hit[q]:
                prev = glue.elements[order.index(q) // len(lower)]
                return Certificate.fail(ladder.ctx, "translates-overlap", (prev, c, x), level=n)
            hit[q] = 1
            order.append(q)
    if len(order) != len(upper):
        return Certificate.fail(ladder.ctx, "next-level-not-covered", (upper.elements[hit.index(0)],), level=n)
    return order


def product_check_congruent(ladder):
    ident = ladder.ctx.identity()
    if ident not in ladder.levels[0]:
        return Certificate.fail(ladder.ctx, "identity-missing-in-F0", (ident,), level=0)
    for n, J in enumerate(ladder.glue):
        if ident not in J:
            return Certificate.fail(ladder.ctx, "identity-missing-in-glue", (ident,), level=n)
        tiling = product_tiling(ladder, n)
        if isinstance(tiling, Certificate):
            return tiling
    return Certificate(True)


def product_windows(ladder, n, m):
    index = {g: i for i, g in enumerate(ladder.levels[m].elements)}
    out = []
    for v in ladder.levels[m]:
        row = [index.get(ladder.ctx.mul(v, u)) for u in ladder.levels[n]]
        if None not in row:
            out.append((v, row))
    return out


def product_folner_defect(F, g):
    return Fraction(sum(1 for f in F if F.ctx.mul(f, g) not in F), len(F))


def product_invariance_defect(F, K):
    good = [f for f in F if all(F.ctx.mul(f, k) in F for k in K)]
    return 1 - Fraction(len(good), len(F))


def box(lo, sides):
    cells = itertools.product(*(range(a, a + s) for a, s in zip(lo, sides)))
    return FiniteSubset(Lattice(len(lo)), cells)


@st.composite
def boxes(draw, d=None, side=4, identity=False):
    """(lo, sides) of a box in Z^d, off-centre and one-cell boxes included
    (holding the identity if `identity`)."""
    d = d or draw(st.integers(1, 3))
    sides = draw(st.tuples(*[st.integers(1, side)] * d))
    lo = tuple(draw(st.integers(1 - s, 0) if identity else st.integers(-4, 4)) for s in sides)
    return lo, sides


@st.composite
def box_tilings(draw, identity=False):
    """(lower, upper, glue) with glue + lower = upper: per axis, r consecutive
    multiples of the side starting at t (with the identity in every part if
    `identity`)."""
    lo, sides = draw(boxes(identity=identity))
    reps = draw(st.tuples(*[st.integers(1, 3)] * len(lo)))
    starts = tuple(draw(st.integers(1 - r, 0) if identity else st.integers(-2, 2)) for r in reps)
    digits = itertools.product(*(range(t * s, (t + r) * s, s) for t, r, s in zip(starts, reps, sides)))
    upper = box(tuple(a + t * s for a, t, s in zip(lo, starts, sides)),
                tuple(r * s for r, s in zip(reps, sides)))
    return box(lo, sides), upper, FiniteSubset(Lattice(len(lo)), digits)


def two_levels(lower, upper, glue=None):
    glue = glue if glue is not None else FiniteSubset(lower.ctx, [lower.ctx.identity()])
    return FolnerLadder(lower.ctx, [lower, upper], [glue])


@pytest.fixture
def lattice_muls(monkeypatch):
    """A list that grows by one entry per Lattice.mul call."""
    calls, mul = [], Lattice.mul

    def counted(self, g, h):
        calls.append(1)
        return mul(self, g, h)

    monkeypatch.setattr(Lattice, "mul", counted)
    return calls


def test_box_descriptor_is_mixed_radix():
    F = box((-1, 2, 0), (2, 3, 4))
    lo, hi, strides = F._box
    assert (lo, hi, strides) == ((-1, 2, 0), (0, 4, 3), (12, 4, 1))
    for q, g in enumerate(F.elements):
        assert q == sum((x - a) * s for x, a, s in zip(g, lo, strides))
    assert box((3,), (1,))._box == ((3,), (3,), (1,))


@pytest.mark.parametrize("make", [
    lambda: FiniteSubset(Lattice(2), NOT_A_BOX),
    lambda: FiniteSubset(Lattice(1), [(0,), (2,)]),
    lambda: FiniteSubset(Lattice(2), [g for g in box((0, 0), (3, 3)) if g != (1, 1)]),
    lambda: FiniteSubset(Lattice(1), []),
    lambda: build_pruefer_ladder(2, 3).levels[3],
    lambda: FiniteSubset(Heisenberg(), box((0, 0, 0), (2, 2, 2)).elements),
])
def test_non_boxes_have_no_descriptor(make):
    assert make()._box is None


def test_non_box_windows_take_the_product_loops(lattice_muls):
    F = FiniteSubset(Lattice(2), NOT_A_BOX)
    assert folner_defect(F, (0, 1)) == product_folner_defect(F, (0, 1))
    assert len(lattice_muls) > 0


@PROPERTY
@given(tiling=box_tilings())
def test_box_tiling_equals_the_product_loop(tiling):
    lower, upper, glue = tiling
    assert lower._box and upper._box
    ladder = two_levels(lower, upper, glue)
    order = ladder.tiling(0)
    assert isinstance(order, array)
    assert order == product_tiling(ladder, 0)


@PROPERTY
@given(d=st.integers(1, 3), data=st.data())
def test_box_windows_equal_the_product_loop(d, data):
    ladder = two_levels(box(*data.draw(boxes(d))), box(*data.draw(boxes(d, side=7))))
    assert list(_windows(ladder, 0, 1)) == product_windows(ladder, 0, 1)


@PROPERTY
@given(shape=boxes(side=6), data=st.data())
def test_box_defects_equal_the_product_loops(shape, data):
    F = box(*shape)
    element = st.tuples(*[st.integers(-7, 7)] * len(shape[0]))
    g = data.draw(element)
    K = FiniteSubset(F.ctx, data.draw(st.sets(element, max_size=4)))
    assert folner_defect(F, g) == product_folner_defect(F, g)
    assert right_invariance_defect(F, K) == product_invariance_defect(F, K)


def _planted(kind, lower, upper, glue):
    """A ladder whose only level step fails to tile in the named way, or None
    when the drawn tiling is too small to plant it."""
    ctx, ident = lower.ctx, lower.ctx.identity()
    others = [c for c in glue if c != ident]
    if kind == "escaping-digit" and others:
        far = (others[0][0] + 10**3,) + others[0][1:]
        return two_levels(lower, upper, FiniteSubset(ctx, [c for c in glue if c != others[0]] + [far]))
    if kind == "missing-digit" and others:
        return two_levels(lower, upper, FiniteSubset(ctx, [c for c in glue if c != others[0]]))
    side = lower._box[1][0] - lower._box[0][0] + 1
    if kind == "overlapping-digits" and side > 1:
        # the second translate starts one cell early: it overlaps the first and
        # leaves the last slab uncovered, so the cell count alone still matches
        zeros = (0,) * (len(ident) - 1)
        wider = FiniteSubset(ctx, {ctx.mul(c, f) for c in (ident, (side,) + zeros) for f in lower})
        return two_levels(lower, wider, FiniteSubset(ctx, [ident, (side - 1,) + zeros]))
    if kind == "upper-cell-removed":
        return two_levels(lower, FiniteSubset(ctx, upper.elements[:-1]), glue)
    if kind == "lower-cell-removed" and len(lower) > 1:
        cell = next(f for f in lower if f != ident)
        return two_levels(FiniteSubset(ctx, [f for f in lower if f != cell]), upper, glue)
    return None


@PROPERTY
@given(tiling=box_tilings(identity=True),
       kind=st.sampled_from(["escaping-digit", "missing-digit", "overlapping-digits",
                             "upper-cell-removed", "lower-cell-removed"]))
def test_planted_non_tilings_give_the_product_loop_certificate(tiling, kind):
    ladder = _planted(kind, *tiling)
    if ladder is None:
        return
    cert = check_congruent(ladder)
    assert not cert.ok
    assert cert.to_json() == product_check_congruent(ladder).to_json()


def test_lattice_ladder_checks_without_products(lattice_muls):
    assert check_congruent(build_lattice_ladder(2, 3)).ok
    assert lattice_muls == []


def test_box_scans_and_defects_make_no_products(lattice_muls):
    h = build_hierarchy(build_lattice_ladder(1, 3), [TERNARY] * 3)
    scans = {(n, m): scan_occurrences(h, n, m) for n, m in [(0, 3), (1, 2), (2, 3)]}
    level = build_lattice_ladder(2, 3).levels[2]
    assert folner_defect(level, (1, -2)) == 1 - Fraction(8 * 7, 81)
    assert lattice_muls == []
    for (n, m), scanned in scans.items():
        assert scanned == return_times(h, n, m)
