"""The hierarchy read path against the exhaustive implementations it replaced.

`verify_c3` narrows still-agreeing block pairs cell by cell outward from the
identity and stops early; `scan_occurrences`, `check_partitions` and
`syndeticity_window` read every window through the index spans that
`_boxes.runs` places, one slice of the patch per span;
the lattice gap radius is a ring search; `boundary_mass_bound` counts cells
directly.  Each reference below is the previous code, kept as an oracle, and
every certificate must equal the oracle's exactly, failures included.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monotiles import (
    Assignment,
    BlockHierarchy,
    Certificate,
    CylinderId,
    FiniteSubset,
    FolnerLadder,
    Lattice,
    ManagedMatrix,
    Pattern,
    base_blocks,
    boundary_mass_bound,
    build_hierarchy,
    build_lattice_ladder,
    build_pruefer_ladder,
    check_congruent,
    check_partitions,
    group_ladder,
    incidence_from_hierarchy,
    return_times,
    scan_occurrences,
    syndeticity_window,
    verify_c3,
)
from monotiles.analysis import _gap_radius
from monotiles.errors import NotCosetRepsError
from address_oracle import address, predicted_block, reference_tiling
from test_box_paths import _counter
from test_tiling import (FAR, PROPERTY, draw_hierarchy, ladder_of, outcome, reference_check_congruent,
                         walk_assemble, walk_incidence)

TERNARY = ManagedMatrix([[1, 1, 1], [2, 1, 1], [0, 1, 1]])
QUATERNARY = ManagedMatrix([[1, 1, 1], [2, 2, 1], [1, 1, 2]])  # columns sum to 4
NONARY = ManagedMatrix([[1, 1, 1], [4, 3, 2], [4, 5, 6]])  # columns sum to 9
C3_WINDOW = 729  # largest window the exhaustive oracle runs on


def reference_verify_c3(family) -> Certificate:
    """Every g, every pair, the whole overlap list built before comparing."""
    base = family[0].support
    ctx = base.ctx
    mul = ctx.mul
    ident = ctx.identity()
    values = [{g: s for g, s in zip(base.elements, b.symbols)} for b in family]
    for g in base.elements:
        overlap = [v for v in base.elements if mul(g, v) in base]
        if not overlap:
            continue
        for k, vk in enumerate(values, start=1):
            for k2, vk2 in enumerate(values, start=1):
                if g == ident and k == k2:
                    continue
                if all(vk[mul(g, v)] == vk2[v] for v in overlap):
                    return Certificate.fail(ctx, "translated blocks agree on their overlap", (g, k, k2))
    return Certificate(True)


def window_reader(patch, base):
    """c -> symbols of the patch read along the translated window c * base, in base order."""
    mul, index = patch.support.ctx.mul, cell_index(patch)
    return lambda c: tuple(patch.symbols[index[mul(c, v)]] for v in base.elements)


def cell_index(patch) -> dict:
    return {g: i for i, g in enumerate(patch.support.elements)}


def reference_testable(ladder, n, m) -> list:
    mul = ladder.ctx.mul
    big = ladder.levels[m].as_set
    base = ladder.levels[n].elements
    return [v for v in ladder.levels[m] if all(mul(v, u) in big for u in base)]


def reference_occurrences(h, n, m, patch) -> dict:
    base = h.ladder.levels[n]
    lookup = {tuple(b.symbols): k for k, b in enumerate(h.family(n), start=1)}
    read = window_reader(patch, base)
    found = {}
    for v in reference_testable(h.ladder, n, m):
        k = lookup.get(read(v))
        if k is not None:
            found[v] = k
    return found


def reference_check_partitions(h, n, m, patch) -> Certificate:
    ladder = h.ladder
    mul = ladder.ctx.mul
    ident = ladder.ctx.identity()
    occ = reference_occurrences(h, n, m, patch)
    returns = return_times(h, n, m)
    fail = lambda reason, witness: Certificate.fail(
        ladder.ctx, reason, witness, levels=[n, m], interior=0, tiles=0, refinements=0)
    if set(occ) != returns.as_set:
        return fail("scanned occurrences disagree with glue products", (next(iter(set(occ) ^ returns.as_set)),))
    claims: dict = {}
    for r, k in occ.items():
        for u in ladder.levels[n]:
            claims.setdefault(mul(r, u), []).append((u, k))
    interior = reference_testable(ladder, n, m)
    for v in interior:
        got = claims.get(v, [])
        if len(got) != 1:
            return fail(f"interior position claimed {len(got)} times", (v,))
        addr = address(ladder, v, n, m)
        want = (addr.residual, predicted_block(h, addr))
        if got[0] != want:
            return fail("claim disagrees with address prediction", (v, list(got[0]), list(want)))
    refinements = 0
    if m > n + 1:
        occ_up = reference_occurrences(h, n + 1, m, patch)
        returns_up = return_times(h, n + 1, m)
        if set(occ_up) != returns_up.as_set:
            off = set(occ_up) ^ returns_up.as_set
            return fail("level-(n+1) occurrences disagree with glue products", (next(iter(off)),))
        for r, k_up in occ_up.items():
            for c in ladder.glue[n]:
                pos = mul(r, c)
                k_obs = occ.get(pos)
                a = h.assignments[n]
                expected = a.values[k_up - 1][a.cosets.elements.index(c)]
                if k_obs is None:
                    return fail("refined tile carries no block", (pos,))
                if k_obs != expected:
                    return fail("refinement disagrees with assignment", (pos, k_obs, expected))
                if (k_obs == 1) != (c == ident):
                    return fail("first block must sit exactly on the identity coset", (pos, k_obs))
                refinements += 1
    return Certificate(True, detail={"levels": [n, m], "interior": len(interior),
                                     "tiles": len(returns), "refinements": refinements})


def reference_gap(visits, window) -> int:
    """Sup-norm distance to the nearest visit, minimised over every visit."""
    return max(min(max(abs(a - b) for a, b in zip(v, r)) for r in visits) for v in window)


def reference_syndeticity(h, cylinder, m) -> Certificate:
    n = cylinder.level + 1
    ladder = h.ladder
    mul = ladder.ctx.mul
    patch = h.x0_patch(m)
    target = h.family(cylinder.level)[0]
    read = window_reader(patch, ladder.levels[cylinder.level])
    visits = [v for v in reference_testable(ladder, cylinder.level, m) if read(v) == tuple(target.symbols)]
    fail = lambda reason, witness: Certificate.fail(
        ladder.ctx, reason, witness, levels=[n, m], visits=len(visits), covered=False, gap_radius=None)
    visit_set = set(visits)
    for r in return_times(h, n, m):
        if r not in visit_set:
            return fail("tiling position is not a cylinder visit", (r,))
    covered = {mul(r, u) for r in visits for u in ladder.levels[n]}
    big = ladder.levels[m].as_set
    if not big <= covered:
        return fail("window not covered by visit translates", (next(iter(big - covered)),))
    gap = reference_gap(visits, ladder.levels[m]) if isinstance(ladder.ctx, Lattice) else None
    return Certificate(True, detail={"levels": [n, m], "visits": len(visits), "covered": True,
                                     "gap_radius": gap})


def reference_boundary_mass(ladder, g, n) -> Fraction:
    F = ladder.levels[n]
    shifted = {ladder.ctx.mul(f, g) for f in F}
    return Fraction(sum(1 for f in F if f not in shifted), len(F))


def small_families(h):
    return [h.family(n) for n in range(h.depth + 1) if len(h.ladder.levels[n]) <= C3_WINDOW]


C3_PROPERTY = settings(PROPERTY, max_examples=12)


@C3_PROPERTY
@given(st.data())
def test_verify_c3_equals_exhaustive_oracle_on_built_families(data):
    h, _ = draw_hierarchy(data)
    for family in small_families(h):
        cert = verify_c3(family)
        assert cert.ok and cert.to_json() == reference_verify_c3(family).to_json()


def translate_of(block: Pattern, g, filler: int) -> Pattern:
    """Symbols of block read at g * v where that stays inside the window."""
    support = block.support
    mul, index = support.ctx.mul, cell_index(block)
    return Pattern(support, [block.symbols[index[mul(g, v)]] if mul(g, v) in support else filler
                             for v in support])


@C3_PROPERTY
@given(st.data())
def test_verify_c3_equals_exhaustive_oracle_on_planted_failures(data):
    h, _ = draw_hierarchy(data, st.sampled_from(["pruefer2", "z", "z2"]))
    family = list(data.draw(st.sampled_from(small_families(h)[1:])))
    support = family[0].support
    k = data.draw(st.integers(0, len(family) - 1))
    how = data.draw(st.sampled_from(["duplicate", "constant", "translate"]))
    if how == "duplicate":
        family.insert(data.draw(st.integers(0, len(family))), family[k])
    elif how == "constant":
        family[k] = Pattern(support, [data.draw(st.integers(0, 4))] * len(support))
    else:
        other = data.draw(st.sampled_from([i for i in range(len(family)) if i != k]))
        g = data.draw(st.sampled_from(support.elements))
        family[k] = translate_of(family[other], g, data.draw(st.integers(0, 4)))
    cert = verify_c3(family)
    assert not cert.ok
    assert cert.to_json() == reference_verify_c3(family).to_json()


@PROPERTY
@given(st.sampled_from(["z", "z2", "pruefer2", "heisenberg"]), st.data())
def test_verify_c3_equals_exhaustive_oracle_on_one_cell_windows(kind, data):
    ladder = ladder_of(kind)
    cell = data.draw(st.sampled_from(ladder.levels[1].elements))
    symbols = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    family = [Pattern(FiniteSubset(ladder.ctx, [cell]), [s]) for s in symbols]
    cert = verify_c3(family)
    assert cert.to_json() == reference_verify_c3(family).to_json()
    # a lone cell off the identity has no overlap with any translate
    assert cert.ok == (cell != ladder.ctx.identity() or len(set(symbols)) == len(symbols))


@PROPERTY
@given(st.data())
def test_scans_and_partitions_equal_window_oracles(data):
    h, _ = draw_hierarchy(data, st.sampled_from(["pruefer2", "z", "z2"]))
    for m in range(1, h.depth + 1):
        for n in range(m):
            ref = reference_occurrences(h, n, m, h.x0_patch(m))
            assert scan_occurrences(h, n, m) == FiniteSubset(h.ladder.ctx, ref)
    n = data.draw(st.integers(0, h.depth - 1))
    patch = h.x0_patch(h.depth)
    assert check_partitions(h, n, h.depth) == reference_check_partitions(h, n, h.depth, patch)
    symbols = list(patch.symbols)
    symbols[data.draw(st.integers(0, len(symbols) - 1))] += data.draw(st.integers(1, 2))
    flipped = Pattern(patch.support, symbols)
    cert = check_partitions(h, n, h.depth, flipped)
    assert not cert.ok
    assert cert == reference_check_partitions(h, n, h.depth, flipped)


def partition_hierarchy(kind: str):
    """Ternary Z with 27 cells, Z^2 with ratio 9 and 729 cells, or Pruefer-2
    with ratio 4 and 256 cells.  The glue orders of the last two are not the
    canonical orders."""
    if kind == "z":
        return build_hierarchy(build_lattice_ladder(1, 3), [TERNARY] * 3)
    if kind == "z2":
        return build_hierarchy(build_lattice_ladder(2, 3), [NONARY] * 3)
    return build_hierarchy(group_ladder(build_pruefer_ladder(2, 8), [0, 2, 4, 6, 8]), [QUATERNARY] * 4)


def with_assignment_fault(h, level: int):
    """h with one entry of block 1's row at `level`, the first off the identity
    coset, naming another lower block; the Assignment invariants still hold."""
    a = h.assignments[level]
    ident = a.cosets.ctx.identity()
    j = next(j for j, c in enumerate(a.cosets) if c != ident)
    row = list(a.values[0])
    row[j] = 3 if row[j] == 2 else 2
    assignments = list(h.assignments)
    assignments[level] = Assignment(a.cosets, (tuple(row), *a.values[1:]))
    return BlockHierarchy(h.ladder, h.families, assignments)


@pytest.mark.parametrize("kind", ["z", "z2", "pruefer2"])
def test_planted_assignment_fault_fails_like_the_address_oracle(kind):
    h = partition_hierarchy(kind)
    m, patch = h.depth, h.x0_patch(h.depth)
    for level in range(m):
        planted = with_assignment_fault(h, level)
        for n in range(m):
            cert = check_partitions(planted, n, m, patch)
            assert cert.to_json() == reference_check_partitions(planted, n, m, patch).to_json()
            # labels below the planted level follow the wrong block; above it they never read it
            assert cert.ok == (n > level)
            assert cert.ok or cert.reason == "claim disagrees with address prediction"


def planted_digit(ladder, kind: str, how: str):
    """The ladder with the last digit of its top glue step replaced: by the
    first digit times the last cell of the level below (an overlap), or by
    the last digit times a far element (an escape)."""
    n, ctx = ladder.depth - 1, ladder.ctx
    J, F = ladder.glue[n].elements, ladder.levels[n].elements
    new = ctx.mul(J[0], F[-1]) if how == "overlap" else ctx.mul(J[-1], FAR[kind])
    return FolnerLadder(ctx, ladder.levels, ladder.glue[:n] + (FiniteSubset(ctx, [*J[:-1], new]),))


@pytest.mark.parametrize("kind", ["z2", "pruefer2"])
def test_non_identity_glue_orders_build_and_fail_like_the_walk(kind):
    h = partition_hierarchy(kind)
    ladder, m = h.ladder, h.depth
    assert any(reference_tiling(ladder, n) != list(range(len(ladder.levels[n + 1]))) for n in range(m))
    matrices = [incidence_from_hierarchy(h, n) for n in range(m)]
    for n in range(m):
        assert h.family(n + 1) == walk_assemble(h.family(n), ladder, n, h.assignments[n])
        assert matrices[n] == walk_incidence(h, n)
    for how, reason in [("overlap", "translates-overlap"), ("escape", "translate-escapes-next-level")]:
        broken = planted_digit(ladder, kind, how)
        cert = check_congruent(broken)
        assert cert.reason == reason
        assert cert.to_json() == reference_check_congruent(broken).to_json()
        with pytest.raises(NotCosetRepsError):
            build_hierarchy(broken, matrices)
    # one flipped symbol in the top patch: the recount and the partitions fail as the walk says
    patch = h.x0_patch(m)
    symbols = list(patch.symbols)
    symbols[len(symbols) // 3] += 1
    flipped = Pattern(patch.support, symbols)
    mutated = BlockHierarchy(ladder, [*h.families[:m], [flipped, *h.families[m][1:]]], h.assignments)
    recount = outcome(incidence_from_hierarchy, mutated, m - 1)
    assert recount != matrices[m - 1]
    assert recount == outcome(walk_incidence, mutated, m - 1)
    for n in range(m):
        cert = check_partitions(h, n, m, flipped)
        assert not cert.ok
        assert cert.to_json() == reference_check_partitions(h, n, m, flipped).to_json()


def test_partitions_report_a_miscount_before_reading_labels_of_a_ladder_that_does_not_tile():
    ctx = Lattice(1)
    cells = lambda *xs: FiniteSubset(ctx, [(x,) for x in xs])
    F0, F1, F2 = cells(0), cells(-1, 0, 1), cells(*range(-4, 5))
    # J_1 + F_1 misses 2..4, so F_2 has no glue order; J_1 + J_0 = -3..2 leaves -4 unclaimed
    ladder = FolnerLadder(ctx, [F0, F1, F2], [cells(0, 1, 2), cells(-3, 0)])
    patch = Pattern(F2, [0, 1, 2, 1, 1, 3, 1, 0, 0])
    h = BlockHierarchy(ladder, [base_blocks(3, F0), [Pattern(F1, [1, 0, 2]), Pattern(F1, [1, 0, 3])], [patch]],
                       [Assignment(ladder.glue[0], ((1, 2, 2), (1, 2, 3))), Assignment(ladder.glue[1], ((2, 1),))])
    cert = check_partitions(h, 0, 2)
    assert cert.reason == "interior position claimed 0 times"
    assert cert.to_json() == reference_check_partitions(h, 0, 2, patch).to_json()


@pytest.mark.parametrize("n, m", [(0, 6), (6, 7)])
def test_partitions_of_the_729_cell_window_equal_the_oracle(n, m):
    # at (6, 7) the residual labels index the 729 cells of F_6: past one byte
    h = build_hierarchy(build_lattice_ladder(1, 7), [TERNARY] * 7)
    cert = check_partitions(h, n, m)
    assert cert.ok
    assert cert.to_json() == reference_check_partitions(h, n, m, h.x0_patch(m)).to_json()


@pytest.mark.parametrize("kind", ["z", "pruefer2"])
def test_partitions_make_no_products_beyond_return_times(kind, monkeypatch):
    h = partition_hierarchy(kind)
    calls = _counter(monkeypatch, "mul")(type(h.ladder.ctx))
    assert check_partitions(h, 0, h.depth).ok
    used = len(calls)
    return_times(h, 0, h.depth), return_times(h, 1, h.depth)
    assert 0 < used <= len(calls) - used


@PROPERTY
@given(st.data())
def test_syndeticity_equals_window_and_gap_oracles(data):
    h, _ = draw_hierarchy(data, st.sampled_from(["z", "z2"]))
    for cylinder, m in [(CylinderId(0, 1), 2), (CylinderId(0, 1), 3), (CylinderId(1, 1), 3)]:
        assert syndeticity_window(h, cylinder, m) == reference_syndeticity(h, cylinder, m)


def test_syndeticity_gap_radius_four_equals_oracle():
    h = build_hierarchy(build_lattice_ladder(1, 3), [TERNARY] * 3)
    for cylinder, m in [(CylinderId(0, 1), 2), (CylinderId(0, 1), 3), (CylinderId(1, 1), 3)]:
        assert syndeticity_window(h, cylinder, m) == reference_syndeticity(h, cylinder, m)
    assert syndeticity_window(h, CylinderId(1, 1), 3).detail["gap_radius"] == 4


def test_syndeticity_leaves_no_cached_set_on_the_ladder():
    h = build_hierarchy(build_lattice_ladder(1, 3), [TERNARY] * 3)
    cert = syndeticity_window(h, CylinderId(1, 1), 3)
    assert "as_set" not in vars(h.ladder.levels[3])
    assert cert == reference_syndeticity(h, CylinderId(1, 1), 3)


@PROPERTY
@given(st.integers(1, 2), st.data())
def test_ring_search_gap_equals_min_over_visits(d, data):
    ladder = build_lattice_ladder(d, 2)
    window = ladder.levels[data.draw(st.integers(1, 2))]
    visits = set(data.draw(st.lists(st.sampled_from(window.elements), min_size=1, max_size=6)))
    assert _gap_radius(visits, window) == reference_gap(visits, window)


def test_boundary_mass_equals_right_translate_formula():
    for kind in ("z", "z2", "pruefer2", "heisenberg"):
        ladder = ladder_of(kind)
        for g in ladder.ctx.generators():
            for n in range(ladder.depth + 1):
                assert boundary_mass_bound(ladder, g, n) == reference_boundary_mass(ladder, g, n)
