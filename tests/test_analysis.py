"""Addresses, occurrence scans, tower partitions, and boundary masses."""

import json
from fractions import Fraction

import pytest

from monotiles import (
    Certificate,
    CylinderId,
    ManagedMatrix,
    Pattern,
    boundary_mass_bound,
    build_hierarchy,
    build_lattice_ladder,
    build_pruefer_ladder,
    check_partitions,
    iterated_glue,
    return_times,
    scan_occurrences,
    syndeticity_window,
)
from address_oracle import address
from test_tiling import reassemble

TERNARY = ManagedMatrix([[1, 1, 1], [2, 1, 1], [0, 1, 1]])


def _hierarchy(depth=3):
    ladder = build_lattice_ladder(1, depth)
    return build_hierarchy(ladder, [TERNARY] * depth)


def test_address_frozen_examples():
    ladder = build_lattice_ladder(1, 3)
    a = address(ladder, (4,), 0, 2)
    assert a.digits == ((3,), (1,))
    assert a.residual == (0,)
    assert (a.low, a.high) == (0, 2)
    b = address(ladder, (-2,), 0, 2)
    assert b.digits == ((-3,), (1,))
    assert b.residual == (0,)


def test_address_reassembles_exactly():
    ladder = build_lattice_ladder(1, 3)
    for v in ladder.levels[3]:
        a = address(ladder, v, 0, 3)
        assert reassemble(ladder, a) == v
        partial = address(ladder, v, 1, 3)
        assert len(partial.digits) == 2
        assert partial.residual in ladder.levels[1]


def test_cylinder_id_validation():
    CylinderId(0, 1)
    with pytest.raises(ValueError):
        CylinderId(-1, 1)
    with pytest.raises(ValueError):
        CylinderId(0, 0)


def test_return_times_match_iterated_glue():
    h = _hierarchy()
    for n in range(3):
        for m in range(n + 1, 4):
            assert return_times(h, n, m) == iterated_glue(h.ladder, n, m)


def test_scan_matches_return_times():
    h = _hierarchy()
    for n in range(3):
        for m in range(n + 1, 4):
            occ = scan_occurrences(h, n, m)
            assert occ == return_times(h, n, m)
            assert len(occ) * len(h.ladder.levels[n]) == len(h.ladder.levels[m])


def test_scan_accepts_explicit_patch():
    h = _hierarchy()
    occ = scan_occurrences(h, 0, 2, patch=h.x0_patch(2))
    assert occ == return_times(h, 0, 2)


def test_check_partitions_passes():
    h = _hierarchy()
    rep = check_partitions(h, 0, 2)
    assert rep.ok
    assert rep.detail["levels"] == [0, 2]
    assert (rep.detail["interior"], rep.detail["tiles"], rep.detail["refinements"]) == (9, 9, 9)
    rep = check_partitions(h, 1, 3)
    assert rep.ok
    assert (rep.detail["interior"], rep.detail["tiles"], rep.detail["refinements"]) == (25, 9, 9)


def test_check_partitions_adjacent_levels_skip_refinement():
    h = _hierarchy()
    rep = check_partitions(h, 1, 2)
    assert rep.ok
    assert rep.detail["refinements"] == 0


def test_check_partitions_rejects_bad_levels():
    h = _hierarchy()
    with pytest.raises(ValueError):
        check_partitions(h, 2, 2)
    with pytest.raises(ValueError):
        check_partitions(h, 0, 9)


def test_check_partitions_detects_one_symbol_mutation():
    h = _hierarchy()
    p = h.x0_patch(2)
    symbols = list(p.symbols)
    spot = p.support.elements.index((3,))
    symbols[spot] = symbols[spot] % 3 + 1
    rep = check_partitions(h, 0, 2, patch=Pattern(p.support, symbols))
    assert not rep.ok
    assert rep.reason is not None


def test_boundary_mass_bound_lattice():
    ladder = build_lattice_ladder(1, 3)
    masses = [boundary_mass_bound(ladder, (1,), n) for n in range(4)]
    assert masses == [1, Fraction(1, 3), Fraction(1, 9), Fraction(1, 27)]


def test_boundary_mass_bound_lattice_2d():
    ladder = build_lattice_ladder(2, 2)
    # a unit shift leaks one full face of the box
    assert boundary_mass_bound(ladder, (1, 0), 1) == Fraction(3, 9)
    assert boundary_mass_bound(ladder, (1, 0), 2) == Fraction(9, 81)


def test_boundary_mass_bound_pruefer_vanishes():
    ladder = build_pruefer_ladder(2, 3)
    for n in range(4):
        for g in ladder.levels[n]:
            assert boundary_mass_bound(ladder, g, n) == 0


def test_syndeticity_window_frozen_values():
    h = _hierarchy()
    rep = syndeticity_window(h, CylinderId(0, 1), 3)
    assert rep.ok
    assert Certificate.from_json(json.loads(json.dumps(rep.to_json()))) == rep
    assert rep.detail["levels"] == [1, 3]
    assert rep.detail["visits"] == 9
    assert rep.detail["covered"]
    assert rep.detail["gap_radius"] == 1


def test_syndeticity_window_higher_cylinder():
    h = _hierarchy()
    rep = syndeticity_window(h, CylinderId(1, 1), 3)
    assert rep.ok
    assert (rep.detail["visits"], rep.detail["covered"], rep.detail["gap_radius"]) == (3, True, 4)


def test_syndeticity_window_rejects_shallow_target():
    h = _hierarchy()
    with pytest.raises(ValueError):
        syndeticity_window(h, CylinderId(1, 1), 2)
