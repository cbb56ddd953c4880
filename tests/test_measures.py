"""Scaled simplex points, nesting certificates, and simplex realization."""

import json
import random
from fractions import Fraction

import pytest

from monotiles import (
    Certificate,
    ManagedMatrix,
    ManagedSequence,
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
    assert result.approximant.level == 0


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


def test_incidence_round_trip():
    ladder = build_lattice_ladder(1, 2)
    h = build_hierarchy(ladder, [TERNARY] * 2)
    for n in range(2):
        assert incidence_from_hierarchy(h, n) == TERNARY
    with pytest.raises(ValueError):
        incidence_from_hierarchy(h, 2)
