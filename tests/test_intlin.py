"""Integer lattice membership and exact rational coordinates."""

from fractions import Fraction

import pytest

from monotiles._intlin import ZModule


def test_membership_in_rectangular_span():
    mod = ZModule(2, [(2, 0), (0, 3)])
    assert mod.minimal_multiple((4, 3)) == 1
    assert mod.minimal_multiple((-2, 6)) == 1
    assert mod.minimal_multiple((1, 0)) != 1
    assert mod.minimal_multiple((2, 1)) != 1


def test_rational_coordinates():
    mod = ZModule(2, [(2, 0), (0, 3)])
    assert mod.rational_coords((1, 0)) == [Fraction(1, 2), Fraction(0)]
    assert mod.rational_coords((3, 3)) == [Fraction(3, 2), Fraction(1)]
    thin = ZModule(2, [(1, 1)])
    assert thin.rational_coords((2, 3)) is None


def test_minimal_multiple():
    mod = ZModule(2, [(2, 0), (0, 3)])
    assert mod.minimal_multiple((1, 1)) == 6
    assert mod.minimal_multiple((2, 3)) == 1
    assert mod.minimal_multiple((1, 0)) == 2
    thin = ZModule(2, [(1, 1)])
    assert thin.minimal_multiple((1, 2)) is None


def test_incremental_basis_reduction():
    mod = ZModule(2)
    mod.add((4, 0))
    mod.add((6, 0))
    assert mod.minimal_multiple((2, 0)) == 1  # gcd closure
    assert mod.minimal_multiple((1, 0)) != 1
    assert len(mod.basis()) == 1
    with pytest.raises(ValueError):
        mod.add((1, 2, 3))
