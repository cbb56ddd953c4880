"""Defects and the Heisenberg composition against the formulas they replaced.

`folner_defect` counts the cells f with f g outside F, `right_invariance_defect`
filters the surviving cells by f k in F, and `compose_exact_sequence` keeps
the level its search built.  The references below are the previous code: the
set difference |Fg \\ F|, the intersection of the translates F k^-1, and a
search that rebuilds the chosen level from scratch.  Each must agree exactly.
"""

import hashlib
import itertools
import json
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monotiles import (
    FiniteSubset,
    FolnerLadder,
    Heisenberg,
    Lattice,
    Pruefer,
    build_heisenberg_ladder,
    build_lattice_ladder,
    compose_exact_sequence,
    folner_defect,
    iterated_glue,
    right_invariance_defect,
)
from monotiles import compose
from monotiles.cli import main
from monotiles.errors import InfeasibleError, InvarianceUnreachableError, MonotileError, NotCosetRepsError
from monotiles import groups
from monotiles.groups import product_set
from monotiles.pipeline import heisenberg_targets
from ladder_maps import map_ladder
from shape_views import box_of, fibres_of
from test_tiling import PROPERTY

# sha256 of the canonical JSON of build_heisenberg_ladder(heisenberg_targets(3)),
# written by the code that rebuilt the chosen level and validated every cell
HEISENBERG_3_SHA256 = "c7ecf7a4c9654977dd9b9e91fa77d95bda87469a98d1b226184bad3ade8daabd"
# sha256 of ladder.json without its trailing newline, from
# `monotiles folner build --group '{"kind":"heisenberg3"}' --depth 5`: the only
# default Heisenberg ladder whose search needs plane level 4
HEISENBERG_5_SHA256 = "0f6371bccaafd068e7698032d2cbd7afdc5e0b5d2b7da147aae1a572b1b3b5c1"


def reference_folner_defect(F, g):
    mul = F.ctx.mul
    moved = {mul(f, g) for f in F.elements}
    return Fraction(len(moved - F.as_set), len(F))


def reference_right_invariance_defect(F, K):
    mul, inv = F.ctx.mul, F.ctx.inv
    good = set(F.as_set)
    for k in K:
        k_inv = inv(k)
        good &= {mul(f, k_inv) for f in F.elements}
    return 1 - Fraction(len(good), len(F))


CONTEXTS = {"z": Lattice(1), "z2": Lattice(2), "pruefer2": Pruefer(2), "heisenberg": Heisenberg()}


def elements(ctx):
    if isinstance(ctx, Pruefer):
        return st.builds(lambda k, j: Fraction(k % 2**j, 2**j), st.integers(0, 64), st.integers(0, 5))
    return st.tuples(*[st.integers(-3, 3)] * ctx.d)


@PROPERTY
@given(kind=st.sampled_from(sorted(CONTEXTS)), data=st.data())
def test_defects_equal_the_set_formulas(kind, data):
    ctx = CONTEXTS[kind]
    F = FiniteSubset(ctx, data.draw(st.sets(elements(ctx), min_size=1, max_size=40)))
    K = FiniteSubset(ctx, data.draw(st.sets(elements(ctx), max_size=6)))
    g = data.draw(elements(ctx))
    assert folner_defect(F, g) == reference_folner_defect(F, g)
    assert right_invariance_defect(F, K) == reference_right_invariance_defect(F, K)


def test_defects_equal_the_set_formulas_on_ladder_levels():
    ladder = compose_exact_sequence(*_heisenberg_parts(6, 4), heisenberg_targets(2))
    K = FiniteSubset(ladder.ctx, ladder.ctx.generators())
    for F in ladder.levels:
        assert right_invariance_defect(F, K) == reference_right_invariance_defect(F, K)
        for g in K:
            assert folner_defect(F, g) == reference_folner_defect(F, g)


def reference_compose(sub, quot, section, projection, targets):
    """The previous adaptive search: each chosen level is built again after the
    search, and the glue set goes through the validating constructor."""
    ctx, q_ctx, mul = sub.ctx, quot.ctx, sub.ctx.mul
    towers = [FiniteSubset(ctx, [ctx.identity()])]
    lifted = []
    for J in quot.glue:
        lifted.append([section(d) for d in J])
        towers.append(product_set(FiniteSubset(ctx, lifted[-1]), towers[-1]))
    levels, glue, m_prev, q_prev = [sub.levels[0]], [], 0, 0
    info = {"m_indices": [0], "q_indices": [0], "achieved_defects": []}
    for K, eps in targets:
        projected = FiniteSubset(q_ctx, {projection(k) for k in K})
        best, found = None, None
        for q in range(q_prev, quot.depth + 1):
            if reference_right_invariance_defect(quot.levels[q], projected) > eps / 2:
                continue
            for m in range(m_prev + 1, sub.depth + 1):
                level = product_set(sub.levels[m], towers[q])
                defect = reference_right_invariance_defect(level, K)
                best = defect if best is None else min(best, defect)
                if defect <= eps:
                    found = (m, q, defect)
                    break
            if found:
                break
        if not found:
            raise InvarianceUnreachableError("unreachable", achieved=best)
        m_s, q_s, defect = found
        digits = [ctx.identity()]
        for i in range(q_s - 1, q_prev - 1, -1):
            digits = [mul(e, d) for e in digits for d in lifted[i]]
        step = FiniteSubset(ctx, (mul(c, e) for c in iterated_glue(sub, m_prev, m_s) for e in digits))
        glue.append(step)
        levels.append(product_set(sub.levels[m_s], towers[q_s]))
        m_prev, q_prev = m_s, q_s
        info["m_indices"].append(m_s)
        info["q_indices"].append(q_s)
        info["achieved_defects"].append(str(defect))
    return levels, glue, info


def _heisenberg_parts(center_depth, plane_depth):
    center = map_ladder(build_lattice_ladder(1, center_depth), Heisenberg(), lambda t: (0, 0, t[0]))
    return center, build_lattice_ladder(2, plane_depth), lambda q: (q[0], q[1], 0), lambda g: g[:2]


def _compare_compositions(parts, targets):
    try:
        expected = reference_compose(*parts, targets)
    except InvarianceUnreachableError as exc:
        with pytest.raises(InvarianceUnreachableError) as raised:
            compose_exact_sequence(*parts, targets)
        assert raised.value.achieved == exc.achieved
        return
    ladder = compose_exact_sequence(*parts, targets)
    assert (list(ladder.levels), list(ladder.glue), ladder.info) == expected


def test_composition_equals_the_rebuilding_search():
    _compare_compositions(_heisenberg_parts(6, 4), heisenberg_targets(2))


heisenberg_elements = st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1))


@settings(PROPERTY, max_examples=15)
@given(data=st.data())
def test_composition_equals_the_rebuilding_search_on_random_targets(data):
    targets = []
    for _ in range(data.draw(st.integers(1, 3))):
        K = FiniteSubset(Heisenberg(), data.draw(st.sets(heisenberg_elements, min_size=1, max_size=3)))
        targets.append((K, data.draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(7, 8)]))))
    _compare_compositions(_heisenberg_parts(5, 2), targets)  # most of these targets are met


@pytest.fixture
def product_calls(monkeypatch):
    """The first factor of every product_set call compose_exact_sequence makes from now on."""
    firsts = []

    def spy(A, *factors):
        firsts.append(A)
        return product_set(A, *factors)

    monkeypatch.setattr(compose, "product_set", spy)
    return firsts


def _builds_candidates(firsts, sub):
    """Some level U_m (m >= 1) of the subgroup ladder went through product_set."""
    return any(A is U for A in firsts for U in sub.levels[1:])


def test_single_run_centre_levels_are_built_from_their_fibres(product_calls):
    parts = _heisenberg_parts(6, 4)
    composed = compose_exact_sequence(*parts, heisenberg_targets(2))
    assert not _builds_candidates(product_calls, parts[0])
    for ladder in (composed, build_heisenberg_ladder(heisenberg_targets(3))):
        for F in ladder.levels[1:]:
            rebuilt = FiniteSubset(ladder.ctx, F.elements)
            assert rebuilt == F
            assert "_shape" in vars(F) and fibres_of(F) == fibres_of(rebuilt)


def test_non_interval_centre_falls_back_to_product_set(product_calls):
    center = map_ladder(build_lattice_ladder(1, 5), Heisenberg(), lambda t: (0, 0, 2 * t[0]))
    parts = (center, build_lattice_ladder(2, 3), lambda q: (q[0], q[1], 0), lambda g: g[:2])
    # even central steps: the gaps of (0, 0, 2t) keep the odd ones from ever being met
    window = FiniteSubset(Heisenberg(), [(1, 0, 0), (-1, 0, 0), (0, 0, 2), (0, 0, -2)])
    _compare_compositions(parts, [(window, Fraction(1, 2))] * 2)
    assert _builds_candidates(product_calls, center)


def test_tower_with_a_repeated_plane_point_falls_back_to_product_set():
    ctx = Heisenberg()
    U = FiniteSubset(ctx, [(0, 0, t) for t in range(-1, 2)])
    tower = FiniteSubset(ctx, [(0, 0, 0), (0, 0, 3), (1, 0, 0)])
    K = FiniteSubset(ctx, ctx.generators())
    defect, level = compose._score_candidate(U, tower, K)
    assert level == product_set(U, tower)
    assert defect == reference_right_invariance_defect(level, K)


def test_lattice_composition_falls_back_to_product_set(product_calls):
    ctx = Lattice(3)
    center = map_ladder(build_lattice_ladder(1, 5), ctx, lambda t: (0, 0, t[0]))
    parts = (center, build_lattice_ladder(2, 3), lambda q: (q[0], q[1], 0), lambda g: g[:2])
    window = FiniteSubset(ctx, [(1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)])
    _compare_compositions(parts, [(window, Fraction(1, 2)), (window, Fraction(1, 3))])
    assert _builds_candidates(product_calls, center)


def test_over_budget_candidate_raises_the_product_set_error():
    # the first candidate over MAX_CELLS is a 243-cell centre run over a 3**10-cell tower
    with pytest.raises(InfeasibleError, match="product set would hold 14348907 cells"):
        build_heisenberg_ladder(heisenberg_targets(9))


def test_failing_composition_builds_no_level(monkeypatch):
    parts = _heisenberg_parts(10, 5)  # the parts of build_heisenberg_ladder
    calls, from_shape = [], FiniteSubset._from_shape.__func__

    def counted(cls, ctx, shape):
        calls.append(shape)
        return from_shape(cls, ctx, shape)

    monkeypatch.setattr(FiniteSubset, "_from_shape", classmethod(counted))
    # targets 1..8 are met by fibred levels; target 9 raises before any of them is built
    with pytest.raises(InfeasibleError, match="product set would hold 14348907 cells"):
        compose_exact_sequence(*parts, heisenberg_targets(9))
    assert calls == []


def test_heisenberg_ladder_json_is_unchanged():
    data = build_heisenberg_ladder(heisenberg_targets(3)).to_json()
    text = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(text).hexdigest() == HEISENBERG_3_SHA256


def test_depth_5_heisenberg_ladder_file_is_unchanged(tmp_path):
    # written by the CLI, which streams the levels from their shapes: to_json would make every cell
    assert main(["--out", str(tmp_path), "folner", "build", "--group", '{"kind":"heisenberg3"}', "--depth", "5"]) == 0
    path = tmp_path / "ladder.json"
    text = path.read_bytes()
    path.unlink()  # 63.7 MB, which pytest would keep among its recent temporary directories
    assert text.endswith(b"\n")
    assert hashlib.sha256(text[:-1]).hexdigest() == HEISENBERG_5_SHA256


# `build_heisenberg_ladder` composes over the shortest prefix of its depth-5
# plane ladder that meets the targets.  The oracle composes over the whole
# plane, with the centre, section and projection of the prefix search.


def _outcome(build):
    """build()'s ladder with its info, or the type, message and achieved of its error."""
    try:
        ladder = build()
    except MonotileError as exc:
        return type(exc), str(exc), getattr(exc, "achieved", None)
    return ladder, ladder.info


def _prefix_and_whole_plane(targets):
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compose, "compose_exact_sequence",
                      lambda *args, **kwargs: calls.append((args, kwargs)) or compose_exact_sequence(*args, **kwargs))
        prefix = _outcome(lambda: build_heisenberg_ladder(targets))
    (center, _), kwargs = calls[0]
    whole = _outcome(lambda: compose_exact_sequence(center, build_lattice_ladder(2, 5), kwargs["section"],
                                                    kwargs["projection"], targets))
    return prefix, whole


@pytest.mark.parametrize("depth", range(1, 8))
def test_the_shortest_plane_prefix_composes_like_the_whole_plane(depth):
    prefix, whole = _prefix_and_whole_plane(heisenberg_targets(depth))
    assert prefix == whole
    if depth >= 6:
        assert prefix[0] is InfeasibleError and "product set would hold 14348907 cells" in prefix[1]


@settings(PROPERTY, max_examples=10)
@given(depth=st.integers(1, 6), start=st.sampled_from([1, Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)]),
       step=st.sampled_from([Fraction(9, 10), Fraction(2, 3), Fraction(1, 2)]))
def test_the_shortest_plane_prefix_composes_like_the_whole_plane_on_other_schedules(depth, start, step):
    prefix, whole = _prefix_and_whole_plane(heisenberg_targets(depth, start, step))
    assert prefix == whole


def test_an_unreachable_target_raises_the_whole_planes_error():
    prefix, whole = _prefix_and_whole_plane(heisenberg_targets(2, Fraction(1, 100)))
    assert prefix == whole and prefix[0] is InvarianceUnreachableError and prefix[2] is None


def test_targets_given_once_are_searched_by_every_prefix():
    # targets(5) needs plane level 4, so the prefixes of depth 1 to 3 search the targets first
    targets = heisenberg_targets(5)
    ladder = build_heisenberg_ladder(iter(targets))
    assert ladder.info["q_indices"] == [0, 2, 3, 3, 3, 4]
    assert (ladder, ladder.info) == _outcome(lambda: build_heisenberg_ladder(targets))


# The up-front checks of compose_exact_sequence, which raise before the search
# starts: the section on every top cell, the lifted tower's projection on every
# quotient level (the top one included, which the search below never scores),
# the budget and collisions of every tower level in order (both before any
# projection error), and the commutation of the subgroup with every lift.


def test_a_section_that_fails_at_one_top_cell_is_not_a_section():
    center, plane, section, projection = _heisenberg_parts(6, 4)
    corner = box_of(plane.levels[-1])[1]  # (40, 40), the last top cell
    bent = lambda q: (q[0], q[1] + 1, 0) if q == corner else section(q)
    with pytest.raises(ValueError, match=r"projection\(section\(\(40, 40\)\)\) != \(40, 40\): not a section"):
        compose_exact_sequence(center, plane, bent, projection, heisenberg_targets(2))


@pytest.mark.parametrize("level", [2, 4], ids=["scored-level", "top-level-only"])
def test_a_lift_that_breaks_the_projection_does_not_project(level):
    center, plane, section, projection = _heisenberg_parts(6, 4)
    # the lifted tower's central coordinates grow level by level; this projection
    # moves every cell whose central coordinate passes those of level - 1, so
    # tower levels below `level` still project onto the quotient tiles
    lifted = [FiniteSubset(center.ctx, map(section, J)) for J in plane.glue[:level - 1]]
    tower = product_set(FiniteSubset(center.ctx, [(0, 0, 0)]), *lifted[::-1])
    bound = max(abs(c) for _, _, c in tower)
    bent = lambda g: (g[0] + 1, g[1]) if abs(g[2]) > bound else projection(g)
    # unbent, the search scores the quotient levels 0..3 only
    assert compose_exact_sequence(center, plane, section, projection, heisenberg_targets(2)).info["q_indices"][-1] < 4
    with pytest.raises(ValueError, match="lifted tower does not project onto the quotient tiles"):
        compose_exact_sequence(center, plane, section, bent, heisenberg_targets(2))


def _segments(sizes, glue):
    """A Z^2 ladder whose level n is the segment (0..sizes[n]-1, 0) and whose
    glue J_n is {(x, 0) : x in glue[n]}.  FolnerLadder does not check that
    the glue tiles, so the translates may overlap."""
    ctx = Lattice(2)
    return FolnerLadder(ctx, [FiniteSubset(ctx, [(x, 0) for x in range(n)]) for n in sizes],
                        [FiniteSubset(ctx, [(x, 0) for x in J]) for J in glue])


@pytest.mark.parametrize("quot", [
    # (x, 0, 0) * (x', 0, 0) = (x + x', 0, 0): {0, 1} * {0, 1} hits 1 twice and misses the cell 3
    _segments([1, 2, 4], [[0, 1], [0, 1]]),
    # {0, 2} * {0, 1, 2} marks every cell of {0, 1, 2} before it hits 2 twice
    _segments([1, 3, 3], [[0, 1, 2], [0, 2]]),
], ids=["a-cell-missed", "every-cell-marked"])
def test_a_lifted_tower_with_colliding_products_raises_before_projecting(quot):
    center = _heisenberg_parts(6, 4)[0]
    with pytest.raises(NotCosetRepsError, match="colliding factorizations"):
        compose_exact_sequence(center, quot, lambda q: (*q, 0), lambda g: g[:2], heisenberg_targets(1))


@pytest.mark.parametrize("breaks", [False, True], ids=["projecting", "not-projecting"])
def test_the_tower_budget_is_checked_level_by_level_before_projecting(monkeypatch, breaks):
    center, plane, section, projection = _heisenberg_parts(6, 4)
    monkeypatch.setattr(groups, "MAX_CELLS", 1000)
    monkeypatch.setattr(compose, "MAX_CELLS", 1000)
    # the search would score levels 0..3 only (729 cells); a projection broken
    # from level 2 on still raises the budget error of level 4 first
    bent = lambda g: (g[0] + 1, g[1]) if breaks and g[2] else projection(g)
    with pytest.raises(InfeasibleError, match="product set would hold 6561 cells, over the budget of 1000"):
        compose_exact_sequence(center, plane, section, bent, heisenberg_targets(2))


def test_a_subgroup_that_is_not_central_does_not_commute():
    _, plane, section, projection = _heisenberg_parts(6, 4)
    axis = map_ladder(build_lattice_ladder(1, 6), Heisenberg(), lambda t: (t[0], 0, 0))
    with pytest.raises(ValueError, match="does not commute with lift"):
        compose_exact_sequence(axis, plane, section, projection, heisenberg_targets(2))


def test_a_quotient_ladder_of_non_boxes_composes_like_the_rebuilding_search():
    center, _, section, projection = _heisenberg_parts(6, 4)
    # the shear (x, y) -> (x, x + y) of Z^2 maps the boxes to parallelograms, ranked by dict
    sheared = map_ladder(build_lattice_ladder(2, 4), Lattice(2), lambda g: (g[0], g[0] + g[1]))
    assert not any(box_of(F) for F in sheared.levels[1:])
    _compare_compositions((center, sheared, section, projection), heisenberg_targets(2))
