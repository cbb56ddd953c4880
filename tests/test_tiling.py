"""Tiling runs against per-cell reference implementations.

Blocks, incidence recounts, tower labels and congruence certificates all
read the cached runs of `FolnerLadder.tiling`.  Each property here compares
one of them with the direct per-cell computation (one group product and one
dict lookup per cell) on small Z, Z^2, Pruefer-2 and Heisenberg ladders; the
address oracle (`address_oracle.py`) reads its digits off the per-cell walk
`reference_tiling`.
Failed certificates must also survive a JSON round trip with decodable
witnesses.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from monotiles import (
    Assignment,
    BlockHierarchy,
    Certificate,
    FiniteSubset,
    FolnerLadder,
    Lattice,
    ManagedMatrix,
    Pattern,
    base_blocks,
    build_heisenberg_ladder,
    build_hierarchy,
    build_lattice_ladder,
    build_pruefer_ladder,
    check_congruent,
    check_partitions,
    group_ladder,
    incidence_from_hierarchy,
    verify_c3,
)
from monotiles.blocks import _assemble
from monotiles.errors import DistinctnessError, NotCosetRepsError
from monotiles.groups import product_set
from monotiles.pipeline import heisenberg_targets
from address_oracle import address, reference_tiling

PROPERTY = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])

TERNARY = ManagedMatrix([[1, 1, 1], [2, 1, 1], [0, 1, 1]])

# an element outside every level of the ladder of that kind
FAR = {"z": (10**6,), "z2": (10**6, 0), "pruefer2": Fraction(1, 2**20), "heisenberg": (0, 0, 10**6)}


@lru_cache(maxsize=None)
def ladder_of(kind: str) -> FolnerLadder:
    if kind == "z":
        return build_lattice_ladder(1, 3, base=5)  # ratio 5, 125 cells
    if kind == "z2":
        return build_lattice_ladder(2, 3)  # ratio 9, 729 cells
    if kind == "pruefer2":
        return group_ladder(build_pruefer_ladder(2, 7), [0, 1, 3, 5, 7])  # ratios 2, 4, 4, 4
    return build_heisenberg_ladder(heisenberg_targets(2))  # 1, 729, 19683 cells


def digit_maps(ladder: FolnerLadder) -> list[dict]:
    """Per level, the map from each cell c * f of F_{n+1} to its glue digit c."""
    mul = ladder.ctx.mul
    return [{mul(c, f): c for c in ladder.glue[n] for f in ladder.levels[n]}
            for n in range(ladder.depth)]


digit_maps_of = lru_cache(maxsize=None)(lambda kind: digit_maps(ladder_of(kind)))


ladder_kinds = st.sampled_from(sorted(FAR))


def reference_assemble(family, cosets, assignment):
    """Per-cell assembly: one product and one index lookup per glued cell."""
    base = family[0].support
    support = product_set(cosets, base)
    idx = {g: i for i, g in enumerate(support.elements)}
    mul = cosets.ctx.mul
    out = []
    for row in assignment.values:
        symbols = [0] * len(support)
        for c, choice in zip(cosets.elements, row):
            for v, s in zip(base.elements, family[choice - 1].symbols):
                symbols[idx[mul(c, v)]] = s
        out.append(Pattern(support, symbols))
    return out


def walk_assemble(family, ladder, n, assignment):
    """Assembly through the per-cell walk: the lower blocks joined along each
    row, then written cell by cell at the walk's canonical indices."""
    order = reference_tiling(ladder, n)
    out = []
    for row in assignment.values:
        symbols = [0] * len(order)
        for q, s in zip(order, chain.from_iterable(family[v - 1].symbols for v in row)):
            symbols[q] = s
        out.append(Pattern(ladder.levels[n + 1], symbols))
    return out


def walk_incidence(h, n):
    """The incidence recount through the per-cell walk: each level-(n+1) block
    read in glue order and cut into |J_n| pieces of |F_n| symbols."""
    order, size = reference_tiling(h.ladder, n), len(h.ladder.levels[n])
    lookup = {tuple(b.symbols): i for i, b in enumerate(h.family(n))}
    counts = [[0] * len(h.family(n + 1)) for _ in h.family(n)]
    for k, block in enumerate(h.family(n + 1)):
        glued = tuple(block.symbols[q] for q in order)
        for j, c in enumerate(h.ladder.glue[n]):
            i = lookup.get(glued[j * size:(j + 1) * size])
            if i is None:
                raise ValueError(f"block {k + 1} carries an unknown level-{n} block at coset {c!r}")
            counts[i][k] += 1
    return ManagedMatrix(counts)


def outcome(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


def assemble_level(family, cosets, assignment):
    """The library's tiled assembly over the two-level ladder (F, J * F)."""
    base = family[0].support
    ladder = FolnerLadder(cosets.ctx, [base, product_set(cosets, base)], [cosets])
    return _assemble(family, ladder, 0, assignment)


def reassemble(ladder, addr):
    """The product of an address's digits, then its residual."""
    out = ladder.ctx.identity()
    for c in (*addr.digits, addr.residual):
        out = ladder.ctx.mul(out, c)
    return out


def reference_violation(ladder):
    """The first congruence violation as (level, reason, raw witness
    elements), or None."""
    ident = ladder.ctx.identity()
    if ident not in ladder.levels[0]:
        return 0, "identity-missing-in-F0", (ident,)
    for n, J in enumerate(ladder.glue):
        if ident not in J:
            return n, "identity-missing-in-glue", (ident,)
        found = reference_tiling(ladder, n)
        if not isinstance(found, list):
            return (n, *found)
    return None


def reference_check_congruent(ladder) -> Certificate:
    found = reference_violation(ladder)
    if found is None:
        return Certificate(True)
    n, reason, witness = found
    return Certificate.fail(ladder.ctx, reason, witness, level=n)


def round_trip(cert: Certificate) -> Certificate:
    return Certificate.from_json(json.loads(json.dumps(cert.to_json())))


def reference_address(ladder, maps, v, n, m):
    """Digits read off per-level maps from each cell to its glue digit."""
    mul, inv = ladder.ctx.mul, ladder.ctx.inv
    digits = []
    for i in range(m - 1, n - 1, -1):
        c = maps[i][v]
        digits.append(c)
        v = mul(inv(c), v)
    return tuple(digits), v


def draw_matrix(data, rows: int, ratio: int) -> ManagedMatrix:
    """A managed matrix with row 1 all ones and every column summing to ratio."""
    columns = []
    for _ in range(data.draw(st.integers(2, 3))):
        rest, col = ratio - 1, [1]
        for _ in range(rows - 2):
            col.append(data.draw(st.integers(0, rest)))
            rest -= col[-1]
        columns.append(col + [rest])
    return ManagedMatrix([[col[i] for col in columns] for i in range(rows)])


def draw_hierarchy(data, kinds=ladder_kinds):
    ladder = ladder_of(data.draw(kinds))
    rows = data.draw(st.integers(3, 4))
    matrices = []
    for n in range(ladder.depth):
        matrices.append(draw_matrix(data, rows, ladder.ratio(n)))
        rows = matrices[-1].cols
    try:
        return build_hierarchy(ladder, matrices), matrices
    except DistinctnessError:
        assume(False)


@PROPERTY
@given(st.data())
def test_tiled_blocks_match_per_cell_assembly(data):
    h, _ = draw_hierarchy(data)
    for n in range(h.depth):
        ref = reference_assemble(h.family(n), h.ladder.glue[n], h.assignments[n])
        assert h.family(n + 1) == ref == walk_assemble(h.family(n), h.ladder, n, h.assignments[n])
        assert assemble_level(h.family(n), h.ladder.glue[n], h.assignments[n]) == ref


@PROPERTY
@given(st.data())
def test_incidence_recount_equals_matrix_and_sees_one_flip(data):
    h, matrices = draw_hierarchy(data)
    for n in range(h.depth):
        assert incidence_from_hierarchy(h, n) == walk_incidence(h, n) == matrices[n]
    n = data.draw(st.integers(0, h.depth - 1))
    k = data.draw(st.integers(0, len(h.family(n + 1)) - 1))
    block = h.family(n + 1)[k]
    cell = data.draw(st.integers(0, len(block.symbols) - 1))
    symbols = list(block.symbols)
    symbols[cell] += 1
    families = [list(f) for f in h.families]
    families[n + 1][k] = Pattern(block.support, symbols)
    mutated = BlockHierarchy(h.ladder, families, h.assignments)
    got = outcome(incidence_from_hierarchy, mutated, n)
    assert got == outcome(walk_incidence, mutated, n)
    assert got != matrices[n]
    assert not isinstance(got, str) or "unknown" in got


@PROPERTY
@given(ladder_kinds, st.data())
def test_address_matches_digit_map_and_reassembles(kind, data):
    ladder = ladder_of(kind)
    m = data.draw(st.integers(0, ladder.depth))
    n = data.draw(st.integers(0, m))
    for v in ladder.levels[m]:
        a = address(ladder, v, n, m)
        assert (a.digits, a.residual) == reference_address(ladder, digit_maps_of(kind), v, n, m)
        assert reassemble(ladder, a) == v


def corrupt(ladder: FolnerLadder, kind: str, data) -> FolnerLadder:
    levels, glue = list(ladder.levels), list(ladder.glue)
    n = data.draw(st.integers(0, ladder.depth - 1))
    how = data.draw(st.sampled_from(["drop-cell", "add-cell", "move-digit", "drop-lower"]))
    ctx = ladder.ctx
    if how == "drop-cell":
        cells = levels[n + 1].elements
        gone = data.draw(st.sampled_from(cells))
        levels[n + 1] = FiniteSubset(ctx, (g for g in cells if g != gone))
    elif how == "add-cell":
        levels[n + 1] = FiniteSubset(ctx, levels[n + 1].elements + (FAR[kind],))
    elif how == "move-digit":
        J = glue[n].elements
        old = data.draw(st.sampled_from(J))
        new = ctx.mul(data.draw(st.sampled_from(J)), data.draw(st.sampled_from(levels[n].elements)))
        assume(new not in J)
        glue[n] = FiniteSubset(ctx, [new if c == old else c for c in J])
    else:
        cells = levels[n].elements
        gone = data.draw(st.sampled_from(cells))
        levels[n] = FiniteSubset(ctx, (g for g in cells if g != gone))
    return FolnerLadder(ctx, levels, glue)


@PROPERTY
@given(ladder_kinds, st.data())
def test_check_congruent_reports_first_violation_like_per_cell_loop(kind, data):
    broken = corrupt(ladder_of(kind), kind, data)
    cert = check_congruent(broken)
    assert cert == reference_check_congruent(broken)
    assert round_trip(cert) == cert
    found = reference_violation(broken)
    decoded = [broken.ctx.decode_json(w) for w in cert.witness or []]
    assert decoded == (list(found[2]) if found else [])


@PROPERTY
@given(st.data())
def test_partition_and_c3_certificates_round_trip(data):
    # Heisenberg windows make the exhaustive checks too slow for a property
    h, _ = draw_hierarchy(data, st.sampled_from(["pruefer2", "z", "z2"]))
    ctx = h.ladder.ctx
    passed = check_partitions(h, 0, h.depth)
    assert passed.ok and round_trip(passed) == passed
    patch = h.x0_patch(h.depth)
    symbols = list(patch.symbols)
    symbols[data.draw(st.integers(0, len(symbols) - 1))] += 1
    flipped = check_partitions(h, 0, h.depth, Pattern(patch.support, symbols))
    assert not flipped.ok and round_trip(flipped) == flipped
    assert ctx.decode_json(flipped.witness[0]) in patch.support
    level = data.draw(st.integers(0, h.depth - 1))
    family = h.family(level)
    k = data.draw(st.integers(0, len(family) - 1))
    twin = verify_c3(family + [family[k]])
    assert twin == Certificate.fail(ctx, "translated blocks agree on their overlap",
                                    (ctx.identity(), k + 1, len(family) + 1))
    assert round_trip(twin) == twin


def test_every_violation_reason_is_reached():
    ladder = build_lattice_ladder(1, 2)
    ctx = ladder.ctx
    F1, F2 = ladder.levels[1], ladder.levels[2]
    cases = {
        "translate-escapes-next-level": [F1, FiniteSubset(ctx, F2.elements[1:])],
        "next-level-not-covered": [F1, FiniteSubset(ctx, F2.elements + ((99,),))],
    }
    for reason, (lower, upper) in cases.items():
        broken = FolnerLadder(ctx, [ladder.levels[0], lower, upper], ladder.glue)
        report = check_congruent(broken)
        assert (report.reason, report.detail["level"]) == (reason, 1)
        assert report == reference_check_congruent(broken)
        with pytest.raises(NotCosetRepsError):
            build_hierarchy(broken, [TERNARY] * 2)
    overlap = FolnerLadder(ctx, ladder.levels, [ladder.glue[0], FiniteSubset(ctx, [(-3,), (0,), (1,)])])
    report = check_congruent(overlap)
    assert report.reason == "translates-overlap"
    assert report == reference_check_congruent(overlap)


def test_one_cell_level():
    ctx = Lattice(1)
    point = FiniteSubset(ctx, [(0,)])
    three = FiniteSubset(ctx, [(-1,), (0,), (1,)])
    ladder = FolnerLadder(ctx, [point, point, three], [point, three])
    assert check_congruent(ladder).ok
    assert ladder.tiling(0) == [[range(0, 1)]]
    fam0 = base_blocks(3, point)
    one = Assignment(point, ((1,),))
    assert assemble_level(fam0, point, one) == reference_assemble(fam0, point, one) == [Pattern(point, (1,))]
    for v in three:
        a = address(ladder, v, 0, 2)
        assert (a.digits, a.residual) == reference_address(ladder, digit_maps(ladder), v, 0, 2)
