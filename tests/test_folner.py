"""Ladder builders, congruence checking, and exact defect arithmetic."""

from fractions import Fraction

import pytest

from monotiles import (
    FiniteSubset,
    FolnerLadder,
    Heisenberg,
    Lattice,
    Pruefer,
    Rationals,
    build_abelian_chain_ladder,
    build_heisenberg_ladder,
    build_lattice_ladder,
    build_pruefer_ladder,
    check_congruent,
    compose_exact_sequence,
    extend_virtually,
    folner_defect,
    group_ladder,
    iterated_glue,
    right_invariance_defect,
)
from monotiles.errors import NotCosetRepsError
from monotiles.pipeline import heisenberg_targets
from ladder_maps import map_ladder


def test_lattice_ladder_shapes():
    ladder = build_lattice_ladder(1, 3)
    assert ladder.depth == 3
    assert [len(F) for F in ladder.levels] == [1, 3, 9, 27]
    assert ladder.levels[1].elements == ((-1,), (0,), (1,))
    assert ladder.glue[1].elements == ((-3,), (0,), (3,))
    assert ladder.ratio(0) == ladder.ratio(2) == 3


def test_lattice_ladder_2d():
    ladder = build_lattice_ladder(2, 2)
    assert [len(F) for F in ladder.levels] == [1, 9, 81]
    assert check_congruent(ladder).ok


def test_lattice_ladder_base_5():
    ladder = build_lattice_ladder(1, 2, base=5)
    assert [len(F) for F in ladder.levels] == [1, 5, 25]
    assert ladder.glue[0].elements == ((-2,), (-1,), (0,), (1,), (2,))
    assert check_congruent(ladder).ok


def test_lattice_ladder_rejects_even_base():
    with pytest.raises(ValueError):
        build_lattice_ladder(1, 2, base=4)


def test_folner_defect_frozen_value():
    ladder = build_lattice_ladder(1, 3)
    # nine-point window shifted by 1 leaks exactly one point
    assert folner_defect(ladder.levels[2], (1,)) == Fraction(1, 9)
    assert folner_defect(ladder.levels[2], (0,)) == 0


def test_right_invariance_defect_frozen_value():
    ladder = build_lattice_ladder(1, 3)
    K = FiniteSubset(ladder.ctx, [(1,)])
    assert right_invariance_defect(ladder.levels[1], K) == Fraction(1, 3)
    table = [right_invariance_defect(F, K) for F in ladder.levels]
    assert table == [1, Fraction(1, 3), Fraction(1, 9), Fraction(1, 27)]


def test_check_congruent_passes_on_builder_output():
    report = check_congruent(build_lattice_ladder(1, 4))
    assert report.ok
    assert report.reason is None


def _with_glue(ladder, n, elements):
    glue = list(ladder.glue)
    glue[n] = FiniteSubset(ladder.ctx, elements)
    return FolnerLadder(ladder.ctx, ladder.levels, glue)


def test_check_congruent_reports_identity_missing_in_f0():
    ladder = build_lattice_ladder(1, 2)
    levels = [FiniteSubset(ladder.ctx, [(1,)])] + list(ladder.levels[1:])
    report = check_congruent(FolnerLadder(ladder.ctx, levels, ladder.glue))
    assert (report.ok, report.reason) == (False, "identity-missing-in-F0")


def test_check_congruent_reports_identity_missing_in_glue():
    ladder = build_lattice_ladder(1, 2)
    report = check_congruent(_with_glue(ladder, 0, [(-1,), (1,)]))
    assert (report.ok, report.detail["level"], report.reason) == (False, 0, "identity-missing-in-glue")


def test_check_congruent_reports_escape():
    ladder = build_lattice_ladder(1, 2)
    report = check_congruent(_with_glue(ladder, 1, [(0,), (3,), (9,)]))
    assert (report.ok, report.detail["level"], report.reason) == (False, 1, "translate-escapes-next-level")


def test_check_congruent_reports_overlap():
    ladder = build_lattice_ladder(1, 2)
    report = check_congruent(_with_glue(ladder, 1, [(-3,), (0,), (1,)]))
    assert (report.ok, report.reason) == (False, "translates-overlap")


def test_check_congruent_reports_coverage_gap():
    ladder = build_lattice_ladder(1, 2)
    report = check_congruent(_with_glue(ladder, 1, [(-3,), (0,)]))
    assert (report.ok, report.reason) == (False, "next-level-not-covered")
    assert report.witness == [[2]]


def test_iterated_glue_tiles_levels():
    ladder = build_lattice_ladder(1, 3)
    C = iterated_glue(ladder, 1, 3)
    assert len(C) == len(ladder.levels[3]) // len(ladder.levels[1])
    mul = ladder.ctx.mul
    covered = {mul(c, f) for c in C for f in ladder.levels[1]}
    assert covered == ladder.levels[3].as_set
    assert iterated_glue(ladder, 2, 2).elements == ((0,),)


def test_iterated_glue_rejects_bad_range():
    ladder = build_lattice_ladder(1, 2)
    with pytest.raises(ValueError):
        iterated_glue(ladder, 2, 1)


def test_pruefer_ladder():
    ladder = build_pruefer_ladder(2, 4)
    assert [len(F) for F in ladder.levels] == [1, 2, 4, 8, 16]
    assert ladder.levels[2].as_set == {Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)}
    assert ladder.glue[2].as_set == {Fraction(0), Fraction(1, 8)}
    assert check_congruent(ladder).ok
    # every element has finite order, so shifting a full subgroup moves nothing
    for n in range(1, 5):
        assert folner_defect(ladder.levels[n], Fraction(1, 2)) == 0


def test_pruefer_ladder_odd_prime():
    ladder = build_pruefer_ladder(3, 3)
    assert [len(F) for F in ladder.levels] == [1, 3, 9, 27]
    assert check_congruent(ladder).ok


def test_abelian_chain_ladder_on_rationals():
    ctx = Rationals()
    ladder = build_abelian_chain_ladder(ctx, [Fraction(1), Fraction(1, 2), Fraction(1, 6)], 4)
    assert check_congruent(ladder).ok
    assert ladder.info["quotient_orders"] == [None, 2, 3]
    assert Fraction(1, 6) in ladder.levels[-1]


def test_abelian_chain_ladder_on_lattice():
    ladder = build_abelian_chain_ladder(Lattice(1), [(1,)], 3)
    assert check_congruent(ladder).ok
    assert [len(F) for F in ladder.levels] == [1, 3, 9, 27]


def test_map_ladder_and_extend_virtually():
    doubled = map_ladder(build_lattice_ladder(1, 3), Lattice(1), lambda t: (2 * t[0],))
    reps = FiniteSubset(Lattice(1), [(0,), (1,)])
    extended = extend_virtually(doubled, reps)
    assert check_congruent(extended).ok
    assert [len(F) for F in extended.levels] == [2, 6, 18, 54]


def test_extend_virtually_requires_identity_rep():
    doubled = map_ladder(build_lattice_ladder(1, 2), Lattice(1), lambda t: (2 * t[0],))
    with pytest.raises(NotCosetRepsError):
        extend_virtually(doubled, FiniteSubset(Lattice(1), [(1,), (2,)]))


def test_group_ladder_collapses_levels():
    fine = build_pruefer_ladder(2, 8)
    coarse = group_ladder(fine, [0, 2, 4, 6, 8])
    assert coarse.depth == 4
    assert [coarse.ratio(n) for n in range(4)] == [4, 4, 4, 4]
    assert check_congruent(coarse).ok
    assert coarse.levels[1] == fine.levels[2]


def test_group_ladder_rejects_bad_boundaries():
    fine = build_lattice_ladder(1, 4)
    with pytest.raises(ValueError):
        group_ladder(fine, [3, 1])
    with pytest.raises(ValueError):
        group_ladder(fine, [0, 9])


def test_ladder_json_round_trip():
    grouped = group_ladder(build_lattice_ladder(1, 3), [0, 2, 3])  # carries info
    for ladder in [build_lattice_ladder(2, 2), build_pruefer_ladder(2, 3), grouped]:
        again = FolnerLadder.from_json(ladder.to_json())
        assert again.levels == ladder.levels
        assert again.glue == ladder.glue
        assert again.ctx == ladder.ctx
        assert again.info == ladder.info


def test_compose_exact_sequence_heisenberg_small():
    ctx = Heisenberg()
    center = map_ladder(build_lattice_ladder(1, 6), ctx, lambda t: (0, 0, t[0]))
    plane = build_lattice_ladder(2, 4)
    ladder = compose_exact_sequence(
        center, plane,
        section=lambda q: (q[0], q[1], 0),
        projection=lambda g: (g[0], g[1]),
        targets=heisenberg_targets(2),
    )
    assert ladder.depth == 2
    assert check_congruent(ladder).ok
    convenience = build_heisenberg_ladder(heisenberg_targets(2))  # center depth 10, plane depth 5
    assert convenience.levels == ladder.levels


def test_heisenberg_ladder_defects_meet_targets():
    targets = heisenberg_targets(2)
    ladder = build_heisenberg_ladder(targets)
    for n, (window, eps) in enumerate(targets, start=1):
        assert right_invariance_defect(ladder.levels[n], window) <= eps
