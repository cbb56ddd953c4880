"""Group contexts, finite subsets, and descriptor round-trips."""

from fractions import Fraction

import pytest

from monotiles import (
    Cyclic,
    DirectProduct,
    FiniteSubset,
    Heisenberg,
    Lattice,
    Pruefer,
    Rationals,
    context_from_descriptor,
    product_set,
    standard_generators,
)
from monotiles.errors import NotCosetRepsError, UnsupportedGroupError


def test_lattice_law():
    ctx = Lattice(2)
    assert ctx.identity() == (0, 0)
    assert ctx.mul((1, 2), (3, -5)) == (4, -3)
    assert ctx.inv((1, 2)) == (-1, -2)
    assert ctx.mul((1, 2), ctx.inv((1, 2))) == ctx.identity()


def test_lattice_rejects_bad_dimension():
    with pytest.raises(ValueError):
        Lattice(0)


def test_cyclic_law():
    ctx = Cyclic(5)
    assert ctx.mul(3, 4) == 2
    assert ctx.inv(3) == 2
    assert ctx.mul(3, ctx.inv(3)) == 0


def test_heisenberg_law_is_noncommutative():
    ctx = Heisenberg()
    x, y = (1, 0, 0), (0, 1, 0)
    assert ctx.mul(x, y) == (1, 1, 1)
    assert ctx.mul(y, x) == (1, 1, 0)
    # commutator [x, y] generates the center
    comm = ctx.mul(ctx.mul(x, y), ctx.mul(ctx.inv(x), ctx.inv(y)))
    assert comm == (0, 0, 1)


def test_heisenberg_inverse():
    ctx = Heisenberg()
    for g in [(2, -1, 3), (0, 0, 1), (-4, 5, -7)]:
        assert ctx.mul(g, ctx.inv(g)) == (0, 0, 0)
        assert ctx.mul(ctx.inv(g), g) == (0, 0, 0)


def test_heisenberg_associativity_sample():
    ctx = Heisenberg()
    a, b, c = (1, 2, 0), (-1, 1, 3), (2, -2, -1)
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


def test_pruefer_reduces_mod_one():
    ctx = Pruefer(2)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert ctx.mul(half, half) == 0
    assert ctx.mul(half, quarter) == Fraction(3, 4)
    assert ctx.inv(quarter) == Fraction(3, 4)
    assert ctx.identity() == 0


def test_pruefer_rejects_wrong_denominator():
    ctx = Pruefer(2)
    with pytest.raises(ValueError):
        ctx.validate(Fraction(1, 3))


def test_rationals_law():
    ctx = Rationals()
    assert ctx.mul(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert ctx.inv(Fraction(2, 7)) == Fraction(-2, 7)


def test_direct_product_componentwise():
    ctx = DirectProduct([Lattice(1), Cyclic(3)])
    assert ctx.identity() == ((0,), 0)
    assert ctx.mul(((2,), 1), ((-1,), 2)) == ((1,), 0)
    assert ctx.inv(((2,), 1)) == ((-2,), 2)


def test_finite_subset_sorts_canonically():
    ctx = Lattice(1)
    F = FiniteSubset(ctx, [(2,), (0,), (-1,)])
    assert F.elements == ((-1,), (0,), (2,))
    assert len(F) == 3
    assert (0,) in F
    assert (5,) not in F


def test_finite_subset_rejects_duplicates():
    ctx = Lattice(1)
    with pytest.raises(ValueError):
        FiniteSubset(ctx, [(1,), (1,)])


def test_finite_subset_as_set_is_plain_set():
    ctx = Lattice(1)
    F = FiniteSubset(ctx, [(0,), (1,)])
    assert F.as_set == {(0,), (1,)}


def test_finite_subset_translate_and_invert():
    ctx = Lattice(1)
    F = FiniteSubset(ctx, [(0,), (1,)])
    assert FiniteSubset(ctx, (ctx.mul((3,), f) for f in F)).elements == ((3,), (4,))
    assert FiniteSubset(ctx, (ctx.mul(f, (3,)) for f in F)).elements == ((3,), (4,))
    assert FiniteSubset(ctx, (ctx.inv(f) for f in F)).elements == ((-1,), (0,))


def test_product_set_union_and_uniqueness():
    ctx = Lattice(1)
    A = FiniteSubset(ctx, [(0,), (1,)])
    B = FiniteSubset(ctx, [(0,), (2,)])
    assert product_set(A, B).as_set == {(0,), (1,), (2,), (3,)}
    assert product_set(A).elements == A.elements
    with pytest.raises(NotCosetRepsError):
        product_set(A, A)  # 0 + 1 = 1 + 0


def test_standard_generators():
    assert set(standard_generators(Lattice(2))) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    hgens = standard_generators(Heisenberg())
    assert len(hgens) == 6
    assert (0, 0, 1) in hgens
    assert standard_generators(Pruefer(3)) == [Fraction(1, 3)]


def test_descriptor_round_trip():
    for ctx in [Lattice(3), Cyclic(4), Heisenberg(), Pruefer(5), Rationals(),
                DirectProduct([Lattice(1), Cyclic(2)])]:
        again = context_from_descriptor(ctx.descriptor())
        assert again == ctx


def test_descriptor_rejects_unknown_kind():
    with pytest.raises(UnsupportedGroupError):
        context_from_descriptor({"kind": "free_group", "rank": 2})


def test_json_encoding_round_trip():
    ctx = Pruefer(2)
    g = Fraction(3, 8)
    assert ctx.decode_json(ctx.encode_json(g)) == g
    lat = Lattice(2)
    assert lat.decode_json(lat.encode_json((4, -1))) == (4, -1)
