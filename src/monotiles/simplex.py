"""Exact finite-depth approximation of the invariant-measure simplex.

Scaled simplex points are pushed down managed matrix sequences; approximants
are the vertex images of deep standard simplices, certified to nest both by
the construction identity and by an independent exact hull-membership test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import _boxes
from ._frozen import frozen
from .blocks import BlockHierarchy
from .errors import InfeasibleError
from .folner import FolnerLadder, _tiled
from .groups import Certificate
from .matrices import ManagedMatrix, ManagedSequence

__all__ = [
    "SimplexPoint", "SimplexApproximant", "RealizationResult", "push", "standard_vertices",
    "approximate_limit", "hull_contains", "check_nesting", "tail_cluster_diameters", "realize_finite_simplex",
    "incidence_from_hierarchy",
]


@frozen
class SimplexPoint:
    """Nonnegative rational coordinates summing to exactly 1/scale."""

    coordinates: tuple
    scale: int

    def __init__(self, coordinates, scale: int):
        coords = tuple(Fraction(c) for c in coordinates)
        if type(scale) is not int or scale < 1:
            raise ValueError(f"scale must be a positive int, got {scale!r}")
        if any(c < 0 for c in coords):
            raise ValueError("coordinates must be nonnegative")
        if sum(coords) != Fraction(1, scale):
            raise ValueError(f"coordinates sum to {sum(coords)}, expected 1/{scale}")
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "scale", scale)

    def __len__(self) -> int:
        return len(self.coordinates)

    def l1_distance(self, other: "SimplexPoint") -> Fraction:
        if len(other) != len(self):
            raise ValueError("dimension mismatch")
        return sum(abs(a - b) for a, b in zip(self.coordinates, other.coordinates))

    def to_json(self) -> dict:
        return {"coordinates": [str(c) for c in self.coordinates], "scale": self.scale}


def standard_vertices(k: int, scale: int) -> list[SimplexPoint]:
    """The k corners e_j / scale of the scaled simplex."""
    if k < 1:
        raise ValueError("need at least one coordinate")
    unit = Fraction(1, scale)
    return [SimplexPoint(tuple(unit if i == j else Fraction(0) for i in range(k)), scale)
            for j in range(k)]


def push(m: ManagedMatrix, z: SimplexPoint) -> SimplexPoint:
    """Exact image of a scaled simplex point one level down the sequence."""
    if len(z) != m.cols:
        raise ValueError(f"point has {len(z)} coordinates, matrix has {m.cols} columns")
    if z.scale % m.ratio != 0:
        raise ValueError(f"scale {z.scale} not divisible by column sum {m.ratio}")
    coords = tuple(sum(row[j] * z.coordinates[j] for j in range(m.cols)) for row in m.entries)
    return SimplexPoint(coords, z.scale // m.ratio)


@frozen
class SimplexApproximant:
    """Vertex images of a depth-d standard simplex pushed down to one level."""

    level: int
    depth: int
    vertices: tuple

    def to_json(self) -> dict:
        return {"level": self.level, "depth": self.depth,
                "vertices": [v.to_json() for v in self.vertices]}


def approximate_limit(ms: ManagedSequence, n: int, d: int) -> SimplexApproximant:
    """Push the standard vertices of the level-(n+d) simplex down to level n."""
    if d < 1:
        raise ValueError("depth must be at least 1")
    if n < 0 or n + d > len(ms):
        raise ValueError(f"levels {n}..{n + d} exceed sequence length {len(ms)}")
    prod = ms.product(n, d)
    deep_scale = ms.scale(n + d)
    verts = tuple(push(prod, z) for z in standard_vertices(prod.cols, deep_scale))
    return SimplexApproximant(n, d, verts)


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


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination over the rationals; None when no unique solution."""
    k = len(rows[0]) if rows else 0
    reduced = _reduce(rows, rhs)
    if reduced is None or len(reduced[1]) < k:
        return None  # inconsistent or underdetermined
    return [reduced[0][i][k] for i in range(k)]


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


def hull_contains(outer: Sequence[SimplexPoint], z: SimplexPoint) -> tuple[bool, str]:
    """Exact convex-hull membership: barycentric solve, falling back to elimination."""
    k = len(z)
    rows = [[v.coordinates[i] for v in outer] for i in range(k)]
    rows.append([Fraction(1)] * len(outer))
    rhs = [z.coordinates[i] for i in range(k)] + [Fraction(1)]
    # scale mismatch between outer and z is a caller error
    for v in outer:
        if v.scale != z.scale or len(v) != k:
            raise ValueError("hull test needs points at one scale and dimension")
    sol = _solve_exact(rows, rhs)
    if sol is not None:
        return all(c >= 0 for c in sol), "barycentric"
    return _fourier_motzkin_feasible(rows, rhs), "fourier-motzkin"


def check_nesting(ms: ManagedSequence, n: int, d: int) -> Certificate:
    """Certify approximate_limit(n, d+1) lies in the hull of approximate_limit(n, d).

    The convex coefficients come from the connecting matrix columns; they
    are verified exactly and then reconfirmed by an independent
    hull-membership test that never looks at the construction.  detail
    carries level, depth, method and the coefficients as "p/q" strings; a
    failure's witness is [j], the inner vertex that breaks the nesting.
    """
    outer = approximate_limit(ms, n, d)
    inner = approximate_limit(ms, n, d + 1)
    link = ms[n + d]
    coeffs = []
    method = "barycentric"
    fail = lambda reason, j, method: Certificate(
        False, reason, [j], {"level": n, "depth": d, "method": method, "coefficients": []})
    for j, vertex in enumerate(inner.vertices):
        lam = [Fraction(link.entries[i][j], link.ratio) for i in range(link.rows)]
        combo = [sum(l * v.coordinates[i] for l, v in zip(lam, outer.vertices))
                 for i in range(len(vertex))]
        if tuple(combo) != vertex.coordinates:
            return fail("vertex is not the matrix combination of the outer vertices", j, method)
        member, how = hull_contains(outer.vertices, vertex)
        if how != "barycentric":
            method = how
        if not member:
            return fail("vertex lies outside the outer hull", j, how)
        coeffs.append([str(c) for c in lam])
    return Certificate(True, detail={"level": n, "depth": d, "method": method, "coefficients": coeffs})


def _near_diagonal_count(m: ManagedMatrix) -> int | None:
    """Block count d when m = diag(ratio - d + 1) + ones off-diagonal, else None."""
    if m.rows != m.cols:
        return None
    d = m.rows
    diag = m.ratio - (d - 1)
    if diag < 1:
        return None
    if any(m.entries[i][j] != (diag if i == j else 1) for i in range(d) for j in range(d)):
        return None
    return d


def tail_cluster_diameters(ms: ManagedSequence, n: int, d: int) -> list[Fraction]:
    """Exact L1 diameter of each vertex tail cluster past depth d.

    Requires the near-diagonal shape from level n onward: every vertex image
    then moves along a straight segment toward the common barycenter, so the
    diameter of {depth >= d image of vertex j} telescopes to the exact value
    (2/scale) * (k-1)/k * prod (ratio_t - k)/ratio_t.
    """
    if not 0 <= n < len(ms):
        raise ValueError(f"level {n} outside sequence of length {len(ms)}")
    if d < 0 or n + d > len(ms):
        raise ValueError(f"levels {n}..{n + d} exceed sequence length {len(ms)}")
    k = ms[n].rows
    shrink = Fraction(2 * (k - 1), k * ms.scale(n))
    for t in range(n, len(ms)):
        if _near_diagonal_count(ms[t]) != k:
            raise ValueError(f"matrix {t} is not near-diagonal on {k} blocks")
        if t < n + d:
            shrink *= Fraction(ms[t].ratio - k, ms[t].ratio)
    return [shrink] * k


@frozen
class RealizationResult:
    """A managed sequence whose limit has the requested extreme points."""

    sequence: ManagedSequence
    approximant: SimplexApproximant
    diameters: tuple
    depth: int


def realize_finite_simplex(num_extreme: int, ladder: FolnerLadder, tolerance) -> RealizationResult:
    """Near-diagonal managed sequence over the ladder with num_extreme limit points.

    Each matrix is diag(ratio - num_extreme + 1) with ones elsewhere.  The
    returned depth is the least one whose tail clusters have exact diameter
    at most the tolerance; the ladder must be deep enough and every ratio at
    least num_extreme + 1.
    """
    d = int(num_extreme)
    if d < 2:
        raise ValueError(f"need at least 2 extreme points, got {d}")
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if ladder.depth < 1:
        raise InfeasibleError("ladder has no glue steps to build matrices over")
    base_scale = len(ladder.levels[0])
    matrices = []
    diam = Fraction(2 * (d - 1), d * base_scale)
    for t in range(ladder.depth):
        if matrices and diam <= tolerance:
            break  # an approximant needs at least one matrix
        r = ladder.ratio(t)
        if r < d + 1:
            raise InfeasibleError(
                f"level-{t} index ratio {r} too small for {d} extreme points (need >= {d + 1})")
        matrices.append(ManagedMatrix(
            tuple(tuple(r - (d - 1) if i == j else 1 for j in range(d)) for i in range(d))))
        diam *= Fraction(r - d, r)
    if diam > tolerance:
        raise InfeasibleError(
            f"ladder depth {ladder.depth} only reaches cluster diameter {diam} > {tolerance}")
    depth = len(matrices)
    seq = ManagedSequence(matrices, base_scale=base_scale)
    approx = approximate_limit(seq, 0, depth)
    diams = tail_cluster_diameters(seq, 0, depth)
    return RealizationResult(seq, approx, tuple(diams), depth)


def incidence_from_hierarchy(h: BlockHierarchy, n: int) -> ManagedMatrix:
    """Recount which level-n block sits on each glue coset of each level-(n+1) block."""
    if not 0 <= n < h.depth:
        raise ValueError(f"need a level in 0..{h.depth - 1}, got {n}")
    fam_low, fam_high, runs = h.family(n), h.family(n + 1), _tiled(h.ladder, n)
    lookup = {b.symbols: i for i, b in enumerate(fam_low)}
    counts = [[0] * len(fam_high) for _ in fam_low]
    for k, block in enumerate(fam_high):
        for c, spans in zip(h.ladder.glue[n], runs):
            i = lookup.get(_boxes.read(block.symbols, spans))
            if i is None:
                raise ValueError(f"block {k + 1} carries an unknown level-{n} block at coset {c!r}")
            counts[i][k] += 1
    return ManagedMatrix(tuple(tuple(row) for row in counts))
