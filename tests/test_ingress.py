"""Validation at ingress: trusted construction and strict file loaders.

Builders, `product_set`, `iterated_glue` and `group_ladder` build their
subsets through the internal `FiniteSubset._trusted`, which only sorts.
The validating public constructor is the oracle: every level and glue set
they return must equal its re-validated copy.  The JSON loaders of
hierarchies, managed matrices, managed sequences and certificates are
strict, so random or mutated JSON may only raise `ValueError` subclasses.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monotiles import (
    Assignment,
    BlockHierarchy,
    Certificate,
    Cyclic,
    DirectProduct,
    FiniteSubset,
    FolnerLadder,
    Lattice,
    ManagedMatrix,
    ManagedSequence,
    Pattern,
    Pruefer,
    SimplexPoint,
    build_abelian_chain_ladder,
    build_hierarchy,
    build_lattice_ladder,
    build_pruefer_ladder,
    group_ladder,
    iterated_glue,
)
from monotiles.errors import EncodingError, NotCosetRepsError
from monotiles.groups import product_set
from test_tiling import PROPERTY

TERNARY = ManagedMatrix([[1, 1, 1], [2, 1, 1], [0, 1, 1]])


def assert_revalidates(*subsets):
    for S in subsets:
        assert S == FiniteSubset(S.ctx, S.elements)


def assert_ladder_revalidates(ladder):
    assert_revalidates(*ladder.levels, *ladder.glue)


@PROPERTY
@given(d=st.integers(1, 3), depth=st.integers(0, 3), base=st.sampled_from([3, 5, 7]))
def test_lattice_ladder_equals_validated_construction(d, depth, base):
    if base**(depth * d) > 30_000:
        depth = 1
    assert_ladder_revalidates(build_lattice_ladder(d, depth, base))


@PROPERTY
@given(p=st.integers(2, 7), depth=st.integers(0, 4))
def test_pruefer_ladder_equals_validated_construction(p, depth):
    assert_ladder_revalidates(build_pruefer_ladder(p, depth))


@PROPERTY
@given(kind=st.sampled_from(["z", "z2", "pruefer"]), data=st.data())
def test_group_ladder_and_iterated_glue_equal_validated_construction(kind, data):
    ladder = {"z": lambda: build_lattice_ladder(1, 5),
              "z2": lambda: build_lattice_ladder(2, 3),
              "pruefer": lambda: build_pruefer_ladder(2, 8)}[kind]()
    bounds = sorted(data.draw(st.sets(st.integers(0, ladder.depth), min_size=1)))
    assert_ladder_revalidates(group_ladder(ladder, bounds))
    n = data.draw(st.integers(0, ladder.depth))
    m = data.draw(st.integers(n, ladder.depth))
    assert_revalidates(iterated_glue(ladder, n, m))


def _elements(ctx):
    if isinstance(ctx, Pruefer):
        return st.builds(lambda k, j: Fraction(k % 2**j, 2**j), st.integers(0, 64), st.integers(0, 5))
    if isinstance(ctx, Cyclic):
        return st.integers(0, ctx.n - 1)
    return st.tuples(*[st.integers(-4, 4)] * ctx.d)


@PROPERTY
@given(ctx=st.sampled_from([Lattice(1), Lattice(2), Pruefer(2), Cyclic(6)]), data=st.data())
def test_product_set_equals_validated_construction(ctx, data):
    A = FiniteSubset(ctx, data.draw(st.sets(_elements(ctx), min_size=1, max_size=12)))
    B = FiniteSubset(ctx, data.draw(st.sets(_elements(ctx), min_size=1, max_size=12)))
    products = [ctx.mul(a, b) for a in A for b in B]
    if len(set(products)) < len(products):
        with pytest.raises(NotCosetRepsError):
            product_set(A, B)
        return
    assert_revalidates(product_set(A, B))
    assert set(product_set(A, B)) == set(products)


ABELIAN_CHAINS = [
    (Lattice(1), [(1,)]),
    (Lattice(2), [(1, 0), (0, 1)]),
    (Lattice(2), [(2, 0), (1, 0), (0, 1)]),
    (DirectProduct([Lattice(1), Cyclic(3)]), [((1,), 0), ((0,), 1)]),
    (Cyclic(12), [4, 2, 1]),
    (Pruefer(2), [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]),
]


@PROPERTY
@given(chain=st.sampled_from(ABELIAN_CHAINS), depth=st.integers(0, 4))
def test_abelian_chain_ladder_equals_validated_construction(chain, depth):
    ctx, gens = chain
    assert_ladder_revalidates(build_abelian_chain_ladder(ctx, gens, depth))


def test_pruefer_ladder_with_composite_parameter_round_trips():
    # 2/4 reduces to 1/2, which lies in Z[1/4]/Z; the validator once rejected it
    ladder = build_pruefer_ladder(4, 2)
    assert FolnerLadder.from_json(ladder.to_json()) == ladder
    with pytest.raises(EncodingError):
        Pruefer(4).decode_json("1/3")


def test_public_constructor_still_validates():
    with pytest.raises(EncodingError):
        FiniteSubset(Lattice(2), [(0, 0), (0, 1.5)])
    with pytest.raises(EncodingError):
        FiniteSubset(Pruefer(2), [Fraction(1, 3)])
    with pytest.raises(ValueError, match="duplicate"):
        FiniteSubset(Lattice(1), [(0,), (1,), (0,)])
    with pytest.raises(ValueError, match="odd integer"):
        build_lattice_ladder(1, 2, base=5.0)


# each used to pass through int() (or not be checked at all) and be accepted
NON_INT_INPUTS = {
    "pattern-float-and-str": lambda F, J: Pattern(F, [1.9, "2"]),
    "pattern-bools": lambda F, J: Pattern(F, [True, False]),
    "matrix-floats": lambda F, J: ManagedMatrix([[1.9, 2], [2, 1.9]]),
    "simplex-scale-float": lambda F, J: SimplexPoint(["1/2", "1/2"], 1.9),
    "assignment-floats": lambda F, J: Assignment(J, ((2.5, 1, 3.0),)),
}


@pytest.mark.parametrize("name", sorted(NON_INT_INPUTS))
def test_public_constructors_require_exact_ints(name):
    ladder = build_lattice_ladder(1, 1)
    pair = FiniteSubset(Lattice(1), [(0,), (1,)])
    with pytest.raises(ValueError):
        NON_INT_INPUTS[name](pair, ladder.glue[0])


# ---------------------------------------------------------------------------
# strict loaders

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

LOADERS = {
    "hierarchy": (BlockHierarchy.from_json,
                  build_hierarchy(build_lattice_ladder(1, 2), [TERNARY] * 2).to_json()),
    "sequence": (ManagedSequence.from_json, ManagedSequence([TERNARY] * 2).to_json()),
    "scaled-sequence": (ManagedSequence.from_json, ManagedSequence([TERNARY] * 2, base_scale=3).to_json()),
    "matrix": (ManagedMatrix.from_json, TERNARY.to_json()),
    "certificate": (Certificate.from_json,
                    Certificate.fail(Lattice(1), "translates-overlap", [(0,), 2], level=1).to_json()),
}


def _load(loader, doc):
    try:
        loader(doc)
    except ValueError:
        pass


def _mutate(doc, data):
    """Replace one node of a JSON document, reached by a drawn path, with random JSON."""
    if isinstance(doc, (list, dict)) and doc and data.draw(st.booleans()):
        keys = list(range(len(doc))) if isinstance(doc, list) else sorted(doc)
        key = data.draw(st.sampled_from(keys))
        out = list(doc) if isinstance(doc, list) else dict(doc)
        out[key] = _mutate(doc[key], data)
        return out
    if isinstance(doc, dict) and doc and data.draw(st.booleans()):
        dropped = data.draw(st.sampled_from(sorted(doc)))
        return {k: v for k, v in doc.items() if k != dropped}
    return data.draw(json_values)


@settings(PROPERTY, max_examples=150)
@given(name=st.sampled_from(sorted(LOADERS)), doc=json_values)
def test_loaders_raise_only_value_errors_on_random_json(name, doc):
    _load(LOADERS[name][0], doc)


@settings(PROPERTY, max_examples=150)
@given(name=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_loaders_raise_only_value_errors_on_mutated_documents(name, data):
    loader, valid = LOADERS[name]
    _load(loader, _mutate(json.loads(json.dumps(valid)), data))


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loaders_round_trip(name):
    loader, valid = LOADERS[name]
    assert loader(valid).to_json() == valid


HIERARCHY = LOADERS["hierarchy"][1]
FAMILY = HIERARCHY["families"][1]


@pytest.mark.parametrize("doc", [
    {k: v for k, v in HIERARCHY.items() if k != "families"},
    {**HIERARCHY, "assignments": 5},
    {**HIERARCHY, "extra": 1},
    {**HIERARCHY, "families": [HIERARCHY["families"][0], {**FAMILY, "blocks": []}]},
    {**HIERARCHY, "families": [HIERARCHY["families"][0], {"blocks": FAMILY["blocks"]}]},
    {**HIERARCHY, "families": [HIERARCHY["families"][0], {**FAMILY, "support": [[0]]}]},
    {**HIERARCHY, "families": [HIERARCHY["families"][0], {**FAMILY, "blocks": [["1"] * 3]}]},
    {**HIERARCHY, "families": HIERARCHY["families"] * 3, "assignments": HIERARCHY["assignments"] * 2},
    {**HIERARCHY, "assignments": [[[1, True, 2]]]},
])
def test_hierarchy_loader_rejects_malformed_documents(doc):
    with pytest.raises(EncodingError):
        BlockHierarchy.from_json(doc)


@pytest.mark.parametrize("loader, doc", [
    (ManagedSequence.from_json, {"matrices": 5}),
    (ManagedSequence.from_json, [1]),
    (ManagedSequence.from_json, {"matrices": [], "base_scale": "2"}),
    (ManagedSequence.from_json, {"matrices": [], "extra": 1}),
    (ManagedMatrix.from_json, {"rows": 2, "cols": 2, "entries": [1, 1, 1, 1], "extra": 0}),
    (ManagedMatrix.from_json, {"rows": 2, "cols": 2, "entries": [1, 1, 1, 1.0]}),
    (ManagedMatrix.from_json, {"rows": 2, "cols": "2", "entries": [1, 1, 1, 1]}),
    (ManagedMatrix.from_json, {"rows": 2, "cols": 2, "entries": [1, 1, 1, 1], "ratio": None}),
    (ManagedMatrix.from_json, {"rows": 2, "entries": [1, 1, 1, 1]}),
])
def test_matrix_loaders_reject_malformed_documents(loader, doc):
    with pytest.raises(EncodingError):
        loader(doc)


@pytest.mark.parametrize("doc", [
    {},
    [],
    {"ok": "yes", "reason": None, "witness": None},
    {"ok": 1, "reason": None, "witness": None},
    {"ok": False, "reason": 5, "witness": None},
    {"ok": False, "reason": "r", "witness": {"g": 1}},
    {"ok": True, "witness": None},
])
def test_certificate_loader_rejects_malformed_documents(doc):
    with pytest.raises(EncodingError):
        Certificate.from_json(doc)
