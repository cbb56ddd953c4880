"""Per-kind context methods against the type-switch implementations they replace.

`GroupContext.generators`, `coordinates` and `relations` each used to be one
`isinstance` ladder over the group kinds.  The ladders are kept here as
references, and random direct products of Z^d, Z/n, Pruefer and Q must give
the same answers, including the quotient orders that the abelian chain
ladder computes from them.  Descriptors must round-trip and reject any
added or missing key; element decoding raises only EncodingError.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from monotiles import (
    Cyclic,
    DirectProduct,
    GroupContext,
    Heisenberg,
    Lattice,
    Pruefer,
    Rationals,
    context_from_descriptor,
)
from monotiles._intlin import ZModule
from monotiles.errors import EncodingError, UnsupportedGroupError
from monotiles.folner import _quotient_order

PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# references: the type-switch implementations the context methods replace


def reference_flatten(ctx: GroupContext, g) -> list[Fraction]:
    if isinstance(ctx, (Cyclic, Pruefer, Rationals)):
        return [Fraction(g)]
    if isinstance(ctx, Lattice):
        return [Fraction(x) for x in g]
    if isinstance(ctx, DirectProduct):
        out: list[Fraction] = []
        for f, part in zip(ctx.factors, g):
            out.extend(reference_flatten(f, part))
        return out
    raise UnsupportedGroupError(f"no abelian coordinates for group kind {ctx.kind!r}")


def reference_relation_vectors(ctx: GroupContext) -> list[list[Fraction]]:
    dim = len(reference_flatten(ctx, ctx.identity()))

    def walk(c: GroupContext, offset: int, out: list) -> int:
        if isinstance(c, Cyclic):
            vec = [Fraction(0)] * dim
            vec[offset] = Fraction(c.n)
            out.append(vec)
            return offset + 1
        if isinstance(c, Pruefer):
            vec = [Fraction(0)] * dim
            vec[offset] = Fraction(1)
            out.append(vec)
            return offset + 1
        if isinstance(c, Rationals):
            return offset + 1
        if isinstance(c, Lattice):
            return offset + c.d
        if isinstance(c, DirectProduct):
            for f in c.factors:
                offset = walk(f, offset, out)
            return offset
        raise UnsupportedGroupError(f"no abelian coordinates for group kind {c.kind!r}")

    rels: list[list[Fraction]] = []
    walk(ctx, 0, rels)
    return rels


def reference_standard_generators(ctx: GroupContext) -> list:
    if isinstance(ctx, Lattice):
        gens = []
        for i in range(ctx.d):
            unit = tuple(1 if j == i else 0 for j in range(ctx.d))
            gens += [unit, ctx.inv(unit)]
        return gens
    if isinstance(ctx, Cyclic):
        return [1 % ctx.n] if ctx.n > 1 else []
    if isinstance(ctx, Heisenberg):
        gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        return [g for pair in ((g, ctx.inv(g)) for g in gens) for g in pair]
    if isinstance(ctx, Pruefer):
        return [Fraction(1, ctx.p)]
    if isinstance(ctx, Rationals):
        return [Fraction(1)]
    if isinstance(ctx, DirectProduct):
        gens = []
        ident = ctx.identity()
        for i, f in enumerate(ctx.factors):
            for g in reference_standard_generators(f):
                parts = list(ident)
                parts[i] = g
                gens.append(tuple(parts))
        return gens
    raise UnsupportedGroupError(f"no generator family for {ctx!r}")


def reference_quotient_order(ctx: GroupContext, generators, g) -> int | None:
    dim = len(reference_flatten(ctx, ctx.identity()))
    target = reference_flatten(ctx, g)
    module = [reference_flatten(ctx, h) for h in generators] + reference_relation_vectors(ctx)
    scale = math.lcm(*(x.denominator for vec in module + [target] for x in vec))
    zm = ZModule(dim)
    for vec in module:
        zm.add([int(x * scale) for x in vec])
    return zm.minimal_multiple([int(x * scale) for x in target])


# ---------------------------------------------------------------------------
# strategies

ABELIAN_FACTORS = st.one_of(
    st.integers(1, 3).map(Lattice),
    st.integers(1, 6).map(Cyclic),
    st.integers(2, 5).map(Pruefer),
    st.just(Rationals()),
)
ABELIAN = st.recursive(ABELIAN_FACTORS, lambda kids: st.lists(kids, min_size=1, max_size=3).map(DirectProduct),
                       max_leaves=5)

ANY = st.recursive(st.one_of(ABELIAN_FACTORS, st.just(Heisenberg())),
                   lambda kids: st.lists(kids, min_size=1, max_size=3).map(DirectProduct), max_leaves=5)


def elements(ctx: GroupContext):
    if isinstance(ctx, Lattice):
        return st.tuples(*[st.integers(-6, 6)] * ctx.d)
    if isinstance(ctx, Cyclic):
        return st.integers(0, ctx.n - 1)
    if isinstance(ctx, Pruefer):
        return st.integers(0, 3).flatmap(
            lambda e: st.integers(0, ctx.p**e - 1).map(lambda k: Fraction(k, ctx.p**e)))
    if isinstance(ctx, Rationals):
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    return st.tuples(*(elements(f) for f in ctx.factors))


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-8, 8), st.floats(allow_nan=False),
              st.text(alphabet="0123456789/- ", max_size=6),
              st.sampled_from(["1/0", "0/0", "1/2", "3/4", "-1/3", "abc", "inf", "nan", ""])),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=6)


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(ctx=ABELIAN, data=st.data())
def test_coordinates_relations_and_generators_match_the_type_switches(ctx, data):
    g = data.draw(elements(ctx))
    assert ctx.coordinates(g) == reference_flatten(ctx, g)
    assert ctx.relations() == reference_relation_vectors(ctx)
    assert ctx.generators() == reference_standard_generators(ctx)


@PROPERTY
@given(ctx=ABELIAN, data=st.data())
def test_quotient_order_matches_the_reference_oracle(ctx, data):
    subgroup = data.draw(st.lists(elements(ctx), max_size=3))
    g = data.draw(elements(ctx))
    assert _quotient_order(ctx, subgroup, g) == reference_quotient_order(ctx, subgroup, g)


@PROPERTY
@given(ctx=ANY)
def test_generators_match_and_non_abelian_kinds_have_no_coordinates(ctx):
    assert ctx.generators() == reference_standard_generators(ctx)
    try:
        expected = reference_flatten(ctx, ctx.identity())
    except UnsupportedGroupError:
        with pytest.raises(UnsupportedGroupError, match="no abelian coordinates"):
            ctx.coordinates(ctx.identity())
    else:
        assert ctx.coordinates(ctx.identity()) == expected


@PROPERTY
@given(ctx=ANY)
def test_descriptor_round_trips_and_needs_exactly_its_keys(ctx):
    desc = json.loads(json.dumps(ctx.descriptor()))
    assert context_from_descriptor(desc) == ctx
    for key in desc:
        with pytest.raises(UnsupportedGroupError):
            context_from_descriptor({k: v for k, v in desc.items() if k != key})
    with pytest.raises(UnsupportedGroupError):
        context_from_descriptor({**desc, "extra": 1})


@pytest.mark.parametrize("desc", [
    {"kind": "lattice", "d": True},
    {"kind": "lattice", "d": "1"},
    {"kind": "cyclic", "n": True},
    {"kind": "pruefer", "p": 2.0},
    {"kind": "direct_product", "factors": 5},
    {"kind": "direct_product", "factors": [{"kind": "lattice"}]},
    {"kind": "finite_extension", "base": {"kind": "lattice", "d": 1}, "ambient": {"kind": "lattice", "d": 1},
     "embed": 5, "coset_reps": [[0]]},
    {"kind": ["lattice"]},
])
def test_descriptor_rejects_wrong_json_types(desc):
    with pytest.raises(UnsupportedGroupError):
        context_from_descriptor(desc)


def test_constructors_reject_bool():
    for cls in (Lattice, Cyclic, Pruefer):
        with pytest.raises(ValueError):
            cls(True)


@PROPERTY
@given(ctx=ANY, obj=JSON_VALUES)
def test_decode_json_raises_only_encoding_errors(ctx, obj):
    try:
        g = ctx.decode_json(obj)
    except EncodingError:
        return
    ctx.validate(g)
    assert ctx.decode_json(ctx.encode_json(g)) == g


def test_decode_json_rejects_bool_and_bad_rationals():
    for ctx, obj in [(Cyclic(3), True), (Rationals(), True), (Pruefer(2), False), (Lattice(1), [True]),
                     (Pruefer(2), "1/0"), (Rationals(), "1/0"), (Rationals(), 0.5),
                     (DirectProduct([Lattice(1), Cyclic(3)]), 5)]:
        with pytest.raises(EncodingError):
            ctx.decode_json(obj)
