"""Scaled simplex points, nesting certificates, and simplex realization."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import event, find, given, settings, strategies as st

from monotiles import (
    Certificate,
    ManagedMatrix,
    ManagedSequence,
    SimplexApproximant,
    SimplexPoint,
    approximate_limit,
    build_hierarchy,
    build_lattice_ladder,
    check_nesting,
    hull_contains,
    incidence_from_hierarchy,
    push,
    realize_finite_simplex,
    standard_vertices,
    tail_cluster_diameters,
)
from monotiles.errors import InfeasibleError
from monotiles.simplex import _eliminate, _fourier_motzkin

CONST = ManagedMatrix([[2, 1], [1, 2]])
TERNARY = ManagedMatrix([[1, 1, 1], [2, 1, 1], [0, 1, 1]])


def test_simplex_point_validation():
    SimplexPoint([Fraction(1, 6), Fraction(1, 6)], 3)
    with pytest.raises(ValueError):
        SimplexPoint([Fraction(1, 2), Fraction(1, 2)], 3)  # sums to 1, not 1/3
    with pytest.raises(ValueError):
        SimplexPoint([Fraction(3, 2), Fraction(-1, 2)], 1)
    with pytest.raises(ValueError):
        SimplexPoint([Fraction(1)], 0)


def test_simplex_point_distance_and_json():
    a = SimplexPoint([Fraction(1, 2), Fraction(1, 2)], 1)
    b = SimplexPoint([Fraction(1, 4), Fraction(3, 4)], 1)
    assert a.l1_distance(b) == Fraction(1, 2)
    assert a.to_json() == {"coordinates": ["1/2", "1/2"], "scale": 1}


def test_standard_vertices():
    verts = standard_vertices(3, 9)
    assert len(verts) == 3
    assert verts[1].coordinates == (0, Fraction(1, 9), 0)


def test_push_frozen_example():
    z = SimplexPoint([Fraction(1, 6), Fraction(1, 6)], 3)
    out = push(CONST, z)
    assert out.coordinates == (Fraction(1, 2), Fraction(1, 2))
    assert out.scale == 1


def test_push_requires_compatible_scale():
    with pytest.raises(ValueError):
        push(CONST, SimplexPoint([Fraction(1, 4), Fraction(1, 4)], 2))
    with pytest.raises(ValueError):
        push(TERNARY, SimplexPoint([Fraction(1, 3), Fraction(0)], 3))


def test_push_preserves_scale_on_random_points():
    rng = random.Random(7)
    for _ in range(50):
        w = [rng.randrange(20) for _ in range(2)]
        total = sum(w) or 1
        z = SimplexPoint([Fraction(v, total * 9) for v in (w if sum(w) else [1, 0])], 9)
        out = push(CONST, z)
        assert out.scale == 3
        assert sum(out.coordinates) == Fraction(1, 3)


def hull_diameter(approximant):
    """Largest pairwise L1 distance among the vertex images."""
    verts = approximant.vertices
    return max((a.l1_distance(b) for i, a in enumerate(verts) for b in verts[i + 1:]), default=Fraction(0))


def test_approximate_limit_vertices():
    ms = ManagedSequence([CONST] * 3)
    ap = approximate_limit(ms, 0, 1)
    assert ap.vertices[0].coordinates == (Fraction(2, 3), Fraction(1, 3))
    assert hull_diameter(ap) == Fraction(2, 3)
    deep = approximate_limit(ms, 0, 3)
    assert hull_diameter(deep) == Fraction(2, 27)  # shrinks by 1/3 per level
    with pytest.raises(ValueError):
        approximate_limit(ms, 0, 4)


def test_hull_contains_both_methods():
    verts = standard_vertices(3, 1)
    center = SimplexPoint([Fraction(1, 3)] * 3, 1)
    assert hull_contains(verts, center) == (True, "barycentric")
    # four outer points force the elimination fallback
    ok, method = hull_contains(verts + [center], verts[0])
    assert ok and method == "fourier-motzkin"
    shifted = [SimplexPoint([Fraction(2, 3), Fraction(1, 3), 0], 1),
               SimplexPoint([Fraction(1, 3), Fraction(2, 3), 0], 1),
               SimplexPoint([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)], 1)]
    outside = hull_contains(shifted, verts[0])
    assert outside[0] is False
    a, b = SimplexPoint([Fraction(2, 3), Fraction(1, 3)], 1), SimplexPoint([Fraction(1, 3), Fraction(2, 3)], 1)
    for outer, z in [([a, b, b], SimplexPoint([1, 0], 1)),  # a free column, and the corner needs lam_b = -1
                     (verts[:2], verts[2])]:  # e_2 is off the span of e_0 and e_1: a row left over reads 0 = 1
        assert hull_contains(outer, z) == fraction_hull_contains(outer, z) == (False, "fourier-motzkin")


def test_check_nesting_to_depth_six():
    ms = ManagedSequence([CONST] * 7)
    for d in range(1, 7):
        cert = check_nesting(ms, 0, d)
        assert cert.ok
        assert Certificate.from_json(json.loads(json.dumps(cert.to_json()))) == cert
        assert cert.detail["method"] == "barycentric"
        assert (cert.detail["level"], cert.detail["depth"]) == (0, d)
        # construction coefficients are the matrix columns over the ratio
        for row in cert.detail["coefficients"]:
            coeffs = [Fraction(c) for c in row]
            assert sum(coeffs) == 1
            assert all(c >= 0 for c in coeffs)


def test_check_nesting_switches_to_fourier_motzkin_on_equal_columns():
    # two equal columns give two equal outer vertices: no unique barycentric solution
    ms = ManagedSequence([ManagedMatrix([[2, 2, 1], [1, 1, 2]]), ManagedMatrix([[1, 0, 2], [1, 2, 0], [1, 1, 1]])])
    cert = check_nesting(ms, 0, 1)
    assert cert.ok and cert.detail["method"] == "fourier-motzkin"
    assert cert.detail["coefficients"] == [["1/3", "1/3", "1/3"], ["0", "2/3", "1/3"], ["2/3", "0", "1/3"]]
    assert cert.to_json() == fraction_check_nesting(ms, 0, 1).to_json()


# Oracles: the Fraction arithmetic that hull_contains, approximate_limit and
# check_nesting used before they moved to integers.

def _reduce(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Gauss-Jordan over the rationals: ([rows | rhs] reduced, pivot columns),
    or None when the system is inconsistent."""
    m, k = len(rows), len(rows[0]) if rows else 0
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(k):
        r = len(pivots)
        piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        lead = aug[r][col]
        aug[r] = [x / lead for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
    if any(aug[i][k] != 0 for i in range(len(pivots), m)):
        return None
    return aug, pivots


def _fourier_motzkin_feasible(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Exact feasibility of rows * lam = rhs with lam >= 0, by elimination.

    Equalities are reduced first; the surviving nonnegativity constraints on
    the free variables are then eliminated one variable at a time.
    """
    k = len(rows[0])
    reduced = _reduce(rows, rhs)
    if reduced is None:
        return False
    aug, pivots = reduced
    free = [c for c in range(k) if c not in pivots]
    # express lam_col >= 0 as an inequality over the free variables:
    # sum(coef_f * t_f) <= const  rewritten as (coefs, const) meaning coefs . t <= const
    inequalities: list[tuple[list[Fraction], Fraction]] = []
    row_of = dict(zip(pivots, aug))
    for col in range(k):
        if col in row_of:
            inequalities.append(([row_of[col][f] for f in free], row_of[col][k]))
        else:
            inequalities.append(([Fraction(-1) if f == col else Fraction(0) for f in free], Fraction(0)))
    for _ in range(len(free)):
        lowers, uppers, rest = [], [], []
        for coefs, const in inequalities:
            a, tail = coefs[0], coefs[1:]
            if a > 0:
                uppers.append(([t / a for t in tail], const / a))
            elif a < 0:
                lowers.append(([t / a for t in tail], const / a))
            else:
                rest.append((tail, const))
        new = rest
        for lc, lb in lowers:
            for uc, ub in uppers:
                new.append(([u - v for u, v in zip(uc, lc)], ub - lb))
        inequalities = new
    return all(const >= 0 for coefs, const in inequalities)


def fraction_solve(rows, rhs):
    """Gaussian elimination over the rationals; None when no unique solution."""
    k = len(rows[0]) if rows else 0
    reduced = _reduce(rows, rhs)
    if reduced is None or len(reduced[1]) < k:
        return None  # inconsistent or underdetermined
    return [reduced[0][i][k] for i in range(k)]


def fraction_hull_contains(outer, z):
    k = len(z)
    rows = [[v.coordinates[i] for v in outer] for i in range(k)]
    rows.append([Fraction(1)] * len(outer))
    rhs = [z.coordinates[i] for i in range(k)] + [Fraction(1)]
    sol = fraction_solve(rows, rhs)
    if sol is not None:
        return all(c >= 0 for c in sol), "barycentric"
    return _fourier_motzkin_feasible(rows, rhs), "fourier-motzkin"


def fraction_approximate_limit(ms, n, d):
    prod = ms.product(n, d)
    return SimplexApproximant(n, d, tuple(push(prod, z) for z in standard_vertices(prod.cols, ms.scale(n + d))))


def fraction_check_nesting(ms, n, d):
    outer = fraction_approximate_limit(ms, n, d)
    inner = fraction_approximate_limit(ms, n, d + 1)
    link = ms[n + d]
    coeffs = []
    method = "barycentric"
    fail = lambda reason, j, method: Certificate(
        False, reason, [j], {"level": n, "depth": d, "method": method, "coefficients": []})
    for j, vertex in enumerate(inner.vertices):
        lam = [Fraction(link.entries[i][j], link.ratio) for i in range(link.rows)]
        combo = [sum(l * v.coordinates[i] for l, v in zip(lam, outer.vertices)) for i in range(len(vertex))]
        if tuple(combo) != vertex.coordinates:
            return fail("vertex is not the matrix combination of the outer vertices", j, method)
        member, how = fraction_hull_contains(outer.vertices, vertex)
        if how != "barycentric":
            method = how
        if not member:
            return fail("vertex lies outside the outer hull", j, how)
        coeffs.append([str(c) for c in lam])
    return Certificate(True, detail={"level": n, "depth": d, "method": method, "coefficients": coeffs})


ORACLE = settings(max_examples=150, deadline=None)


@st.composite
def linear_systems(draw):
    """(rows, rhs): 1-5 columns and one row fewer to two rows more, of signed
    rationals with mixed denominators.  rhs is rows times a signed solution,
    one entry of it moved at times; a column is repeated at times."""
    k = draw(st.integers(1, 5))
    m = draw(st.integers(max(1, k - 1), k + 2))
    entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 4, 6]))
    rows = [[draw(entry) for _ in range(k)] for _ in range(m)]
    if k > 1 and draw(st.integers(0, 3)) == 0:
        a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        for row in rows:
            row[b] = row[a]
    x = [draw(entry) for _ in range(k)]
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    if draw(st.integers(0, 3)) == 0:
        rhs[draw(st.integers(0, m - 1))] += draw(entry)
    return rows, rhs


@ORACLE
@given(linear_systems())
def test_integer_solve_equals_fraction_solve(system):
    """The integer system over its pivots is the Fraction one, and both readings agree with the oracle."""
    rows, rhs = system
    aug, pivots = _eliminate(rows, rhs)
    reduced, sol, r = _reduce(rows, rhs), fraction_solve(rows, rhs), len(pivots)
    consistent = not any(row[-1] for row in aug[r:])
    assert consistent == (reduced is not None)
    if not consistent:
        event("a row left over reads 0 = nonzero")
        return
    assert pivots == reduced[1]
    assert len({row[p] for row, p in zip(aug, pivots)}) <= 1  # every pivot ends equal to the determinant
    assert [[Fraction(x, row[p]) for x in row] for row, p in zip(aug, pivots)] == reduced[0][:r]
    if sol is not None:
        event("barycentric")
        assert all(row[-1] * row[p] >= 0 for row, p in zip(aug, pivots)) == all(c >= 0 for c in sol)
    else:
        event("fourier-motzkin")
        assert _fourier_motzkin(aug, pivots) == _fourier_motzkin_feasible(rows, rhs)


@st.composite
def hull_cases(draw):
    """(outer, z) at one scale: 1-5 coordinates, 1-6 outer points with
    repeats, and z a random point (mostly outside) or a convex combination."""
    k, scale = draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 3, 12]))

    def point():
        w = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k).filter(any))
        return SimplexPoint([Fraction(x, sum(w) * scale) for x in w], scale)

    outer = [point() for _ in range(draw(st.just(k) | st.integers(1, 6)))]
    if len(outer) < 6 and draw(st.integers(0, 2)) == 0:
        repeats = st.lists(st.integers(0, len(outer) - 1), min_size=1, max_size=6 - len(outer))
        outer += [outer[i] for i in draw(repeats)]
    if draw(st.booleans()):
        return outer, point()
    lam = draw(st.lists(st.integers(0, 5), min_size=len(outer), max_size=len(outer)).filter(any))
    return outer, SimplexPoint([sum(l * v.coordinates[i] for l, v in zip(lam, outer)) / sum(lam)
                                for i in range(k)], scale)


@ORACLE
@given(hull_cases())
def test_hull_contains_equals_the_fraction_oracle(case):
    outer, z = case
    answer = hull_contains(outer, z)
    event(f"{answer[1]}: {answer[0]}")
    assert answer == fraction_hull_contains(outer, z)


@pytest.mark.parametrize("method", ["barycentric", "fourier-motzkin"])
@pytest.mark.parametrize("inside", [True, False])
def test_hull_cases_reach_both_methods_and_answers(method, inside):
    find(hull_cases(), lambda case: hull_contains(*case) == (inside, method), settings=settings(database=None))


@st.composite
def managed_chains(draw):
    """2-4 managed matrices of 2-4 rows and columns chained by shape, each
    column a random split of the matrix's ratio, and a base scale."""
    dims = draw(st.lists(st.integers(2, 4), min_size=3, max_size=5))
    matrices = []
    for rows, cols in zip(dims, dims[1:]):
        ratio = draw(st.integers(1, 5))
        splits = [draw(st.lists(st.integers(0, rows - 1), min_size=ratio, max_size=ratio)) for _ in range(cols)]
        matrices.append(ManagedMatrix([[s.count(i) for s in splits] for i in range(rows)]))
    return ManagedSequence(matrices, base_scale=draw(st.integers(1, 3)))


@ORACLE
@given(managed_chains())
def test_nesting_and_limits_equal_the_fraction_oracle(ms):
    for n in range(len(ms)):
        for d in range(1, len(ms) - n + 1):
            assert approximate_limit(ms, n, d).to_json() == fraction_approximate_limit(ms, n, d).to_json()
            if n + d < len(ms):
                assert check_nesting(ms, n, d).to_json() == fraction_check_nesting(ms, n, d).to_json()


def test_tail_cluster_diameters_shrink_geometrically():
    ms = ManagedSequence([CONST] * 7)
    per_depth = [max(tail_cluster_diameters(ms, 0, d)) for d in range(1, 7)]
    assert per_depth == [Fraction(1, 3 ** d) for d in range(1, 7)]
    assert all(a > b for a, b in zip(per_depth, per_depth[1:]))


def test_tail_cluster_diameters_need_near_diagonal_shape():
    ms = ManagedSequence([ManagedMatrix([[3, 0], [0, 3]])] * 2)
    with pytest.raises(ValueError):
        tail_cluster_diameters(ms, 0, 2)


@pytest.mark.parametrize("n, d", [(-1, 1), (5, 0)])
def test_tail_cluster_diameters_need_a_level_of_the_sequence(n, d):
    ms = ManagedSequence([CONST] * 5)
    with pytest.raises(ValueError, match=f"level {n} outside sequence of length 5"):
        tail_cluster_diameters(ms, n, d)


def test_realize_finite_simplex_on_ternary_ladder():
    ladder = build_lattice_ladder(1, 5)
    result = realize_finite_simplex(2, ladder, Fraction(1, 100))
    assert result.depth == 5
    assert [m.entries for m in result.sequence.matrices] == [((2, 1), (1, 2))] * 5
    assert tuple(result.diameters) == (Fraction(1, 243), Fraction(1, 243))
    assert max(result.diameters) <= Fraction(1, 100)
    assert list(result.diameters) == tail_cluster_diameters(result.sequence, 0, result.depth)


def test_realize_finite_simplex_needs_room():
    ladder = build_lattice_ladder(1, 3)
    with pytest.raises(InfeasibleError):
        realize_finite_simplex(3, ladder, Fraction(1, 10))  # ratio 3 < d + 1


def test_realize_rejects_degenerate_requests():
    ladder = build_lattice_ladder(1, 3)
    with pytest.raises(ValueError):
        realize_finite_simplex(1, ladder, Fraction(1, 10))
    with pytest.raises(ValueError):
        realize_finite_simplex(2, ladder, Fraction(0))
    for count in (2.9, 3.0, "3", True, Fraction(3)):  # the count is an exact int, never rounded or parsed
        with pytest.raises(ValueError, match="int count"):
            realize_finite_simplex(count, ladder, Fraction(1, 10))


def test_realize_takes_an_exact_tolerance():
    ladder = build_lattice_ladder(1, 5)
    for tolerance in (True, 0.01, "1/100"):  # no bool as 1, no float at its binary value, no parsing
        with pytest.raises(ValueError, match="int or Fraction tolerance"):
            realize_finite_simplex(2, ladder, tolerance)
    assert realize_finite_simplex(2, ladder, 1).depth == 1
    assert realize_finite_simplex(2, ladder, Fraction(1, 100)).depth == 5


def test_incidence_round_trip():
    ladder = build_lattice_ladder(1, 2)
    h = build_hierarchy(ladder, [TERNARY] * 2)
    for n in range(2):
        assert incidence_from_hierarchy(h, n) == TERNARY
    with pytest.raises(ValueError):
        incidence_from_hierarchy(h, 2)
