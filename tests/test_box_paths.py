"""Index arithmetic against the product loops it replaces.

On a lattice box in canonical order a cell's index is a mixed-radix number;
in a fibred Heisenberg window the cells over each plane point are one run of
central coordinates, which the centre shifts along itself; and the Pruefer
subgroup {i/N} holds i/N at index i.  So `_boxes.runs`, which places the
translates for both `FolnerLadder.tiling` and `analysis._windows`, and
`folner_defect` and `right_invariance_defect` compute by rank instead of by
group products.  Other windows take one product per cell.  The references
are plain product loops: the window loop below, the congruence walk of
`test_tiling` and the defect formulas of `test_defect_oracles`.  Each fast
result must equal its reference (windows compared with their spans
flattened), a planted non-tiling must give the same failed certificate, and
windows of none of these shapes must take the generic path.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from monotiles import (
    Certificate,
    FiniteSubset,
    FolnerLadder,
    Heisenberg,
    Lattice,
    ManagedMatrix,
    Pruefer,
    build_abelian_chain_ladder,
    build_heisenberg_ladder,
    build_hierarchy,
    build_lattice_ladder,
    build_pruefer_ladder,
    check_congruent,
    compose_exact_sequence,
    context_from_descriptor,
    folner_defect,
    group_ladder,
    return_times,
    right_invariance_defect,
    scan_occurrences,
)
from monotiles.analysis import _windows
from monotiles.errors import InvarianceUnreachableError
from monotiles._boxes import Box, Fibres
from monotiles.pipeline import heisenberg_targets
from shape_views import box_of, fibres_of, subgroup_of
from test_defect_oracles import (
    _heisenberg_parts as heisenberg_parts,
    reference_folner_defect,
    reference_right_invariance_defect,
)
from test_tiling import PROPERTY, reference_check_congruent, reference_tiling

TERNARY = ManagedMatrix([[1, 1, 1], [2, 1, 1], [0, 1, 1]])
# four cells whose first and last cells span a 2 x 2 box, but whose coordinates span 2 x 9
NOT_A_BOX = [(0, 0), (0, 5), (1, -3), (1, 1)]


def product_tiling(ladder, n):
    """reference_tiling with its violation as FolnerLadder.tiling's failed certificate."""
    found = reference_tiling(ladder, n)
    return found if isinstance(found, list) else Certificate.fail(ladder.ctx, *found, level=n)


def product_windows(ladder, n, m):
    index = {g: i for i, g in enumerate(ladder.levels[m].elements)}
    out = []
    for i, v in enumerate(ladder.levels[m]):
        row = [index.get(ladder.ctx.mul(v, u)) for u in ladder.levels[n]]
        if None not in row:
            out.append((i, row))
    return out


def flat_windows(ladder, n, m):
    """analysis._windows with each window's spans flattened into one row."""
    return [(i, [q for s in spans for q in s]) for i, spans in _windows(ladder, n, m)]


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


def _counter(monkeypatch, name):
    def count(cls):
        calls, method = [], getattr(cls, name)

        def counted(self, *args):
            calls.append(1)
            return method(self, *args)

        monkeypatch.setattr(cls, name, counted)
        return calls

    return count


@pytest.fixture
def muls(monkeypatch):
    """muls(cls) is a list that grows by one entry per cls.mul call from then on."""
    return _counter(monkeypatch, "mul")


@pytest.fixture
def validates(monkeypatch):
    """validates(cls) is a list that grows by one entry per cls.validate call from then on."""
    return _counter(monkeypatch, "validate")


@pytest.fixture
def lattice_muls(muls):
    """A list that grows by one entry per Lattice.mul call."""
    return muls(Lattice)


def test_box_descriptor_is_mixed_radix():
    F = box((-1, 2, 0), (2, 3, 4))
    lo, hi, strides = box_of(F)
    assert (lo, hi, strides) == ((-1, 2, 0), (0, 4, 3), (12, 4, 1))
    for q, g in enumerate(F.elements):
        assert q == sum((x - a) * s for x, a, s in zip(g, lo, strides))
    assert box_of(box((3,), (1,))) == ((3,), (3,), (1,))


@PROPERTY
@given(shape=boxes(), data=st.data())
def test_from_box_equals_the_validating_constructor(shape, data):
    lo, sides = shape
    hi = tuple(a + s - 1 for a, s in zip(lo, sides))
    F = FiniteSubset._from_shape(Lattice(len(lo)), Box(lo, hi))
    assert F.elements == box(lo, sides).elements
    # the preset descriptor equals the one the min/max scan finds
    assert box_of(F) == box_of(FiniteSubset._trusted(F.ctx, reversed(F.elements)))
    # a sub-box of F holds the same cells as its own product
    sub_lo = tuple(data.draw(st.integers(a, b)) for a, b in zip(lo, hi))
    sub_hi = tuple(data.draw(st.integers(a, b)) for a, b in zip(sub_lo, hi))
    G = FiniteSubset._from_shape(F.ctx, Box(sub_lo, sub_hi))
    assert G.elements == box(sub_lo, [b - a + 1 for a, b in zip(sub_lo, sub_hi)]).elements
    assert box_of(G) == box_of(FiniteSubset._trusted(G.ctx, reversed(G.elements)))


@pytest.mark.parametrize("d, depth, base", [(1, 4, 3), (2, 3, 5), (3, 2, 3)])
def test_lattice_levels_are_built_with_their_descriptor(d, depth, base):
    ladder = build_lattice_ladder(d, depth, base)
    ladder.levels[-1].elements  # the top is read first, so the lower levels are read after it
    for F in ladder.levels:
        assert "_shape" in F.__dict__
        assert F.elements == FiniteSubset(F.ctx, F.elements).elements
        assert box_of(F) == box_of(FiniteSubset(F.ctx, F.elements))


@pytest.mark.parametrize("make", [
    lambda: FiniteSubset(Lattice(2), NOT_A_BOX),
    lambda: FiniteSubset(Lattice(1), [(0,), (2,)]),
    lambda: FiniteSubset(Lattice(2), [g for g in box((0, 0), (3, 3)) if g != (1, 1)]),
    lambda: FiniteSubset(Lattice(1), []),
    lambda: build_pruefer_ladder(2, 3).levels[3],
    lambda: FiniteSubset(Heisenberg(), box((0, 0, 0), (2, 2, 2)).elements),
])
def test_non_boxes_have_no_descriptor(make):
    assert box_of(make()) is None


def test_non_box_windows_take_the_product_loops(lattice_muls):
    F = FiniteSubset(Lattice(2), NOT_A_BOX)
    assert folner_defect(F, (0, 1)) == reference_folner_defect(F, (0, 1))
    assert len(lattice_muls) > 0


@PROPERTY
@given(tiling=box_tilings())
def test_box_tiling_equals_the_product_loop(tiling):
    lower, upper, glue = tiling
    assert box_of(lower) and box_of(upper)
    ladder = two_levels(lower, upper, glue)
    runs = ladder.tiling(0)
    assert isinstance(runs, list)
    assert same(runs, product_tiling(ladder, 0))
    # one run per row of the lower box
    assert all(len(spans) == len(lower) // (box_of(lower)[1][-1] - box_of(lower)[0][-1] + 1) for spans in runs)


@PROPERTY
@given(d=st.integers(1, 3), data=st.data())
def test_box_windows_equal_the_product_loop(d, data):
    ladder = two_levels(box(*data.draw(boxes(d))), box(*data.draw(boxes(d, side=7))))
    assert flat_windows(ladder, 0, 1) == product_windows(ladder, 0, 1)


@PROPERTY
@given(shape=boxes(side=6), data=st.data())
def test_box_defects_equal_the_product_loops(shape, data):
    F = box(*shape)
    element = st.tuples(*[st.integers(-7, 7)] * len(shape[0]))
    g = data.draw(element)
    K = FiniteSubset(F.ctx, data.draw(st.sets(element, max_size=4)))
    assert folner_defect(F, g) == reference_folner_defect(F, g)
    assert right_invariance_defect(F, K) == reference_right_invariance_defect(F, K)


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
    side = box_of(lower)[1][0] - box_of(lower)[0][0] + 1
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
    assert cert.to_json() == reference_check_congruent(ladder).to_json()


def test_lattice_ladder_checks_without_products(lattice_muls):
    assert check_congruent(build_lattice_ladder(2, 3)).ok
    assert lattice_muls == []


def test_an_escaping_last_digit_takes_products_for_that_digit_only(lattice_muls):
    ladder = build_lattice_ladder(1, 4)
    # J_3 = {-27, 0, 27}: the translate by 54 starts at 41, beyond F_4 = -40..40
    glue = FiniteSubset(ladder.ctx, [*ladder.glue[3].elements[:-1], (54,)])
    broken = FolnerLadder(ladder.ctx, ladder.levels, ladder.glue[:3] + (glue,))
    want = reference_check_congruent(broken)
    lattice_muls.clear()
    cert = check_congruent(broken)
    assert cert.reason == "translate-escapes-next-level"
    assert cert.to_json() == want.to_json()
    assert len(lattice_muls) <= len(ladder.levels[3])


def test_box_scans_and_defects_make_no_products(lattice_muls):
    h = build_hierarchy(build_lattice_ladder(1, 3), [TERNARY] * 3)
    scans = {(n, m): scan_occurrences(h, n, m) for n, m in [(0, 3), (1, 2), (2, 3)]}
    level = build_lattice_ladder(2, 3).levels[2]
    assert folner_defect(level, (1, -2)) == 1 - Fraction(8 * 7, 81)
    assert lattice_muls == []
    for (n, m), scanned in scans.items():
        assert scanned == return_times(h, n, m)


# ---------------------------------------------------------------------------
# fibred Heisenberg windows and Pruefer subgroups

HEISENBERG = Heisenberg()
heisenberg_elements = st.tuples(*[st.integers(-3, 3)] * 3)


@st.composite
def fibred(draw, gap=False, length=None):
    """A Heisenberg window of runs (a, b, lo..hi) over random plane points, all
    `length` cells long if given; with `gap`, the first fibre (at least three
    cells long) loses its second cell, so the window is no longer fibred."""
    points = draw(st.sets(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=6))
    cells = []
    for a, b in sorted(points):
        lo = draw(st.integers(-4, 4))
        run = length or draw(st.integers(3 if gap and not cells else 1, 5))
        cells += [(a, b, t) for t in range(lo, lo + run)]
    if gap:
        del cells[1]
    return FiniteSubset(HEISENBERG, cells)


def pruefer_elements(p, e=4):
    return st.builds(lambda i, j: Fraction(i % p**j, p**j), st.integers(0, p**e), st.integers(0, e))


def subgroup(p, N):
    return FiniteSubset(Pruefer(p), (Fraction(i, N) for i in range(N)))


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def plant_ladder(kind):
    if kind == "heisenberg":
        return compose_exact_sequence(*heisenberg_parts(6, 4), heisenberg_targets(2))
    return group_ladder(build_pruefer_ladder(3, 4), [0, 1, 3, 4])


def same(got, want):
    """A tiling result agrees with the per-cell walk: its runs, flattened, are
    the walk's order, or both are the same failed certificate."""
    if isinstance(want, Certificate):
        return isinstance(got, Certificate) and got.to_json() == want.to_json()
    return isinstance(got, list) and [q for spans in got for s in spans for q in s] == want


@PROPERTY
@given(gap=st.booleans(), data=st.data())
def test_fibre_defects_equal_the_product_loops(gap, data):
    F = data.draw(fibred(gap))
    assert (fibres_of(F) is None) is gap
    g = data.draw(heisenberg_elements)
    K = FiniteSubset(HEISENBERG, data.draw(st.sets(heisenberg_elements, max_size=4)))
    assert folner_defect(F, g) == reference_folner_defect(F, g)
    assert right_invariance_defect(F, K) == reference_right_invariance_defect(F, K)


@PROPERTY
@given(p=st.sampled_from([2, 3, 6]), data=st.data())
def test_pruefer_defects_equal_the_product_loops(p, data):
    if data.draw(st.booleans()):
        F = subgroup(p, data.draw(st.sampled_from(divisors(p**3))))
    else:
        F = FiniteSubset(Pruefer(p), data.draw(st.sets(pruefer_elements(p, 3), min_size=1, max_size=12)))
    is_subgroup = set(F) == {Fraction(i, len(F)) for i in range(len(F))}
    assert (subgroup_of(F) == len(F)) if is_subgroup else (subgroup_of(F) is None)
    g = data.draw(pruefer_elements(p))
    K = FiniteSubset(F.ctx, data.draw(st.sets(pruefer_elements(p), max_size=4)))
    assert folner_defect(F, g) == reference_folner_defect(F, g)
    assert right_invariance_defect(F, K) == reference_right_invariance_defect(F, K)


TILING_KINDS = ["tiling", "shifted-digit", "missing-digit", "free-digits"]


@PROPERTY
@given(kind=st.sampled_from(TILING_KINDS), data=st.data())
def test_fibre_tiling_equals_the_product_loop(kind, data):
    """Glue digits that tile: plane parts 5 apart, so translates of different
    lower fibres never share a plane point, each stacking `stack` translates
    L apart along the centre over fibres of length L.  Then one digit moves
    along the centre by less than L (an overlap, or an escape) or is dropped
    (a gap), or all digits are drawn freely."""
    L = data.draw(st.integers(1, 4))
    lower = data.draw(fibred(length=L))
    planes = data.draw(st.sets(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), min_size=1, max_size=3))
    stack = data.draw(st.integers(1, 3))
    digits = [(5 * x, 5 * y, z + L * j) for x, y in planes for z in [data.draw(st.integers(-3, 3))]
              for j in range(stack)]
    upper = FiniteSubset(HEISENBERG, (HEISENBERG.mul(c, f) for c in digits for f in lower))
    i = data.draw(st.integers(0, len(digits) - 1))
    if kind == "shifted-digit" and L > 1:
        x, y, z = digits[i]
        digits[i] = (x, y, z + data.draw(st.sampled_from([1, -1])) * data.draw(st.integers(1, L - 1)))
    elif kind == "missing-digit":
        del digits[i]
    elif kind == "free-digits":
        digits = data.draw(st.sets(heisenberg_elements, min_size=1, max_size=4))
    ladder = two_levels(lower, upper, FiniteSubset(HEISENBERG, set(digits)))
    assert fibres_of(upper)
    assert same(ladder.tiling(0), product_tiling(ladder, 0))


@pytest.mark.parametrize("lower, upper", [
    # the second translate starts one cell early: it overlaps the first and
    # leaves the top cell uncovered, so the cell count alone still matches
    (FiniteSubset(HEISENBERG, [(0, 0, 0), (0, 0, 1)]), FiniteSubset(HEISENBERG, [(0, 0, t) for t in range(4)])),
    # both translates are {0, 1/2}, and the coset {1/4, 3/4} stays uncovered
    (subgroup(2, 2), subgroup(2, 4)),
])
def test_translates_that_overlap_and_leave_a_gap_are_caught(lower, upper):
    ladder = two_levels(lower, upper, lower)
    cert = ladder.tiling(0)
    assert cert.reason == "translates-overlap"
    assert same(cert, product_tiling(ladder, 0))


@PROPERTY
@given(p=st.sampled_from([2, 3, 6]), kind=st.sampled_from(TILING_KINDS + ["escaping-digit"]), data=st.data())
def test_cyclic_tiling_equals_the_product_loop(p, kind, data):
    """One representative anywhere in each coset of the lower subgroup in the
    upper one (a tiling); then one of them moves to another coset (an
    overlap and a gap), leaves the upper subgroup or is dropped, or all
    digits and both orders are drawn freely."""
    M = data.draw(st.sampled_from(divisors(p**3)))
    N = data.draw(st.sampled_from(divisors(M)))
    step = M // N
    digits = [Fraction(r + step * data.draw(st.integers(0, N - 1)), M) for r in range(step)]
    i = data.draw(st.integers(0, step - 1))
    if kind == "shifted-digit":
        digits[i] = (digits[i - 1] + Fraction(data.draw(st.integers(0, N - 1)), N)) % 1
    elif kind == "escaping-digit":
        digits[i] = (digits[i] + Fraction(1, M * p)) % 1
    elif kind == "missing-digit":
        del digits[i]
    elif kind == "free-digits":
        M, N = (data.draw(st.sampled_from(divisors(p**3))) for _ in range(2))
        digits = data.draw(st.sets(pruefer_elements(p), min_size=1, max_size=6))
    ladder = two_levels(subgroup(p, N), subgroup(p, M), FiniteSubset(Pruefer(p), set(digits)))
    assert same(ladder.tiling(0), product_tiling(ladder, 0))


@PROPERTY
@given(data=st.data())
def test_windows_built_from_fibres_equal_the_validating_constructor(data):
    F = data.draw(fibred())
    built = FiniteSubset._from_shape(HEISENBERG, Fibres(fibres_of(F)))
    assert built == F
    assert vars(built)["_shape"].runs is fibres_of(F)


def test_heisenberg_ladder_makes_few_products_and_validations(muls, validates):
    targets = heisenberg_targets(3)
    products = muls(Heisenberg)
    validations = [validates(Heisenberg), validates(Lattice)]
    build_heisenberg_ladder(targets)
    # the lifted towers and the commutation certificate take products; the levels take none
    assert len(products) < 10_000
    assert sum(map(len, validations)) < 70
    # no plane level passes the filter of eps = 1/100, so no tower is lifted
    before = len(products)
    with pytest.raises(InvarianceUnreachableError) as raised:
        build_heisenberg_ladder(heisenberg_targets(2, Fraction(1, 100)))
    assert raised.value.achieved is None
    assert len(products) - before < 100


def test_composed_and_pruefer_ladders_tile_like_the_product_loop():
    for ladder in (build_heisenberg_ladder(heisenberg_targets(3)), plant_ladder("pruefer"),
                   build_pruefer_ladder(2, 6)):
        assert all(fibres_of(F) or subgroup_of(F) for F in ladder.levels)
        for n in range(ladder.depth):
            assert same(ladder.tiling(n), product_tiling(ladder, n))


def test_other_shapes_tile_like_the_product_loop():
    """The `_product_runs` fallback: the abelian Z x Z/3 route, a non-box
    level of Z^2 and a non-box level tiling a box of Z."""
    ctx = context_from_descriptor({"kind": "direct_product",
                                   "factors": [{"kind": "lattice", "d": 1}, {"kind": "cyclic", "n": 3}]})
    abelian = build_abelian_chain_ladder(ctx, ctx.generators(), 3)
    plane, line = Lattice(2), Lattice(1)
    not_a_box = two_levels(FiniteSubset(plane, [(0, 0), (0, 5)]),
                           FiniteSubset(plane, [(0, 0), (0, 5), (1, -4), (1, 1)]),
                           FiniteSubset(plane, [(0, 0), (1, -4)]))
    into_a_box = two_levels(FiniteSubset(line, [(0,), (2,)]), box((0,), (4,)), FiniteSubset(line, [(0,), (1,)]))
    for ladder in (abelian, not_a_box, into_a_box):
        for n in range(ladder.depth):
            lower, upper = ladder.levels[n], ladder.levels[n + 1]
            assert not (box_of(lower) and box_of(upper) or fibres_of(lower) or subgroup_of(lower))
            runs = ladder.tiling(n)
            assert isinstance(runs, list)
            assert same(runs, product_tiling(ladder, n))


@PROPERTY
@given(p=st.sampled_from([2, 3]), data=st.data())
def test_pruefer_windows_equal_the_product_loop(p, data):
    inner = data.draw(st.lists(st.integers(1, 4), unique=True).map(sorted))
    ladder = group_ladder(build_pruefer_ladder(p, 5), [0, *inner, 5])
    n = data.draw(st.integers(0, ladder.depth))
    m = data.draw(st.integers(n, ladder.depth))
    assert flat_windows(ladder, n, m) == product_windows(ladder, n, m)


def test_pruefer_windows_outside_the_big_subgroup_do_not_fit():
    # {0, 1/2} does not lie in {0, 1/3, 2/3}: no translate of it fits
    ladder = two_levels(subgroup(6, 2), subgroup(6, 3))
    assert flat_windows(ladder, 0, 1) == product_windows(ladder, 0, 1) == []


def test_fibred_heisenberg_windows_equal_the_product_loop():
    ladder = build_heisenberg_ladder(heisenberg_targets(3))
    for n, m in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]:
        assert flat_windows(ladder, n, m) == product_windows(ladder, n, m)


def test_windows_of_other_shapes_equal_the_product_loop():
    ctx = context_from_descriptor({"kind": "direct_product",
                                   "factors": [{"kind": "lattice", "d": 1}, {"kind": "cyclic", "n": 3}]})
    abelian = build_abelian_chain_ladder(ctx, ctx.generators(), 3)
    assert not any(box_of(F) or fibres_of(F) or subgroup_of(F) for F in abelian.levels)
    not_a_box = two_levels(FiniteSubset(Lattice(2), [(0, 0), (0, 5)]), FiniteSubset(Lattice(2), NOT_A_BOX))
    for ladder in (abelian, not_a_box):
        for n, m in itertools.combinations_with_replacement(range(ladder.depth + 1), 2):
            assert flat_windows(ladder, n, m) == product_windows(ladder, n, m)
    assert [i for i, _ in flat_windows(not_a_box, 0, 1)] == [0]


def test_fibred_windows_make_one_product_per_lower_fibre_and_position(muls):
    ladder = build_heisenberg_ladder(heisenberg_targets(3))
    calls = muls(Heisenberg)
    windows = list(_windows(ladder, 1, 2))
    # 83,253 here; a per-cell loop that stops at the first cell outside makes 615,838
    assert len(calls) < 120_000
    assert len(windows) > 0


def _plant(ladder, n, kind, pick):
    """The ladder with glue digit n changed in the named way, or None when
    this level has no room to plant it."""
    ctx, ident = ladder.ctx, ladder.ctx.identity()
    glue, lower = ladder.glue[n], ladder.levels[n]
    others = [c for c in glue if c != ident]
    if not others:
        return None
    c = others[pick % len(others)]
    if kind in ("fibre-end-moved", "fibre-start-moved"):
        return _moved_fibre_end(ladder, n, kind, pick)
    if kind == "escaping-digit":
        far = (10**3, 0, 0) if isinstance(ctx, Heisenberg) else Fraction(1, ctx.p**12)
        new = [ctx.mul(c, far)]
    elif kind == "missing-digit":
        new = []
    else:  # a lower cell f: the translate f * F_n meets F_n itself
        cells = [f for f in lower if f != ident and f not in glue]
        if not cells:
            return None
        new = [cells[pick % len(cells)]]
    digits = FiniteSubset(ctx, [d for d in glue if d != c] + new)
    return FolnerLadder(ctx, ladder.levels, ladder.glue[:n] + (digits,) + ladder.glue[n + 1:])


def _moved_fibre_end(ladder, n, kind, pick):
    """Level n + 1 with the last cell of one fibre moved to just before the
    next fibre, or that fibre's first cell moved to just after the last
    cell of the one before: still fibred, with the same cell count and the
    same indices, but a translated run now ends (or starts) outside its fibre."""
    upper = ladder.levels[n + 1]
    fibres = list((fibres_of(upper) or {}).items())
    if len(fibres) < 2:
        return None
    ((a, b), (_, _, hi)), ((x, y), (_, lo, _)) = fibres[pick % (len(fibres) - 1):][:2]
    out, into = ((a, b, hi), (x, y, lo - 1)) if kind == "fibre-end-moved" else ((x, y, lo), (a, b, hi + 1))
    moved = FiniteSubset(ladder.ctx, [g for g in upper if g != out] + [into])
    assert fibres_of(moved)
    return FolnerLadder(ladder.ctx, ladder.levels[:n + 1] + (moved,) + ladder.levels[n + 2:], ladder.glue)


@PROPERTY
@given(kind=st.sampled_from(["escaping-digit", "missing-digit", "overlapping-digits",
                             "fibre-end-moved", "fibre-start-moved"]),
       ladder_kind=st.sampled_from(["heisenberg", "pruefer"]), data=st.data())
def test_planted_digits_give_the_product_loop_certificate(kind, ladder_kind, data):
    ladder = plant_ladder(ladder_kind)
    n = data.draw(st.integers(0, ladder.depth - 1))
    broken = _plant(ladder, n, kind, data.draw(st.integers(0, 10**3)))
    if broken is None:
        return
    cert = check_congruent(broken)
    assert not cert.ok
    assert cert.to_json() == reference_check_congruent(broken).to_json()
    if kind == "missing-digit":
        assert cert.reason == "next-level-not-covered"
    elif kind != "overlapping-digits":
        assert cert.reason == "translate-escapes-next-level"


def test_pruefer_subgroup_paths_make_no_products(muls):
    ladder = group_ladder(build_pruefer_ladder(2, 8), [0, 2, 4, 6, 8])
    calls = muls(Pruefer)
    assert check_congruent(ladder).ok
    h = build_hierarchy(ladder, [ManagedMatrix([[1, 1, 1], [2, 2, 1], [1, 1, 2]])] * 4)
    scans = {(n, m): scan_occurrences(h, n, m) for n, m in [(0, 4), (1, 2), (2, 4)]}
    defects = [right_invariance_defect(F, J) for F, J in zip(ladder.levels, ladder.glue)]
    assert folner_defect(ladder.levels[2], Fraction(1, 32)) == 1
    assert calls == []
    assert defects == [1, 1, 1, 1]
    for (n, m), scanned in scans.items():
        assert scanned == return_times(h, n, m)


def test_fibred_defect_makes_at_most_one_product_per_fibre_and_test_element(muls):
    F = plant_ladder("heisenberg").levels[-1]
    K = FiniteSubset(HEISENBERG, HEISENBERG.generators())
    fibres = fibres_of(F)
    calls = muls(Heisenberg)
    defect = right_invariance_defect(F, K)
    assert 0 < len(calls) <= len(fibres) * len(K)
    assert defect == reference_right_invariance_defect(F, K)
