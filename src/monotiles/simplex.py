"""Exact finite-depth approximation of the invariant-measure simplex.

Approximants are the vertex images of deep standard simplices, read off the matrix
products, and certified to nest by the construction identity and by an independent
exact hull-membership test."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import _boxes
from ._frozen import frozen
from ._intlin import unique_solution_nonnegative
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


def _columns(prod: ManagedMatrix, scale: int) -> tuple:
    """The columns of prod over scale: the images of the corners e_j / scale."""
    return tuple(SimplexPoint(tuple(Fraction(row[j], scale) for row in prod.entries), scale // prod.ratio)
                 for j in range(prod.cols))


def approximate_limit(ms: ManagedSequence, n: int, d: int) -> SimplexApproximant:
    """Push the standard vertices of the level-(n+d) simplex down to level n
    (ms.product raises ValueError unless d >= 1 and levels n..n+d exist)."""
    return SimplexApproximant(n, d, _columns(ms.product(n, d), ms.scale(n + d)))


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


def hull_contains(outer: Sequence[SimplexPoint], z: SimplexPoint) -> tuple[bool, str]:
    """Exact convex-hull membership: integer barycentric solve, falling back to elimination."""
    k = len(z)
    # scale mismatch between outer and z is a caller error
    if any(v.scale != z.scale or len(v) != k for v in outer):
        raise ValueError("hull test needs points at one scale and dimension")
    rows = [[v.coordinates[i] for v in outer] for i in range(k)] + [[Fraction(1)] * len(outer)]
    rhs = [*z.coordinates, Fraction(1)]
    inside = unique_solution_nonnegative(rows, rhs)
    if inside is not None:
        return inside, "barycentric"
    return _fourier_motzkin_feasible(rows, rhs), "fourier-motzkin"


def check_nesting(ms: ManagedSequence, n: int, d: int) -> Certificate:
    """Certify approximate_limit(n, d+1) lies in the hull of approximate_limit(n, d).

    The convex coefficients come from the connecting matrix columns; they
    are verified exactly and then reconfirmed by an independent
    hull-membership test that never looks at the construction.  detail
    carries level, depth, method and the coefficients as "p/q" strings; a
    failure's witness is [j], the inner vertex that breaks the nesting.
    """
    prod, link, scale = ms.product(n, d), ms.product(n + d, 1), ms.scale(n + d)
    outer, r = _columns(prod, scale), link.ratio
    coeffs = []
    method = "barycentric"
    fail = lambda reason, j, method: Certificate(
        False, reason, [j], {"level": n, "depth": d, "method": method, "coefficients": []})
    for j, vertex in enumerate(_columns(prod.mul(link), scale * r)):
        col = link.column(j)
        # vertex_i = sum_l (col_l / r) * prod[i][l] / scale, cross-multiplied
        if any(c.numerator * scale * r != sum(a * b for a, b in zip(col, row)) * c.denominator
               for c, row in zip(vertex.coordinates, prod.entries)):
            return fail("vertex is not the matrix combination of the outer vertices", j, method)
        member, how = hull_contains(outer, vertex)
        if how != "barycentric":
            method = how
        if not member:
            return fail("vertex lies outside the outer hull", j, how)
        coeffs.append([str(Fraction(x, r)) for x in col])
    return Certificate(True, detail={"level": n, "depth": d, "method": method, "coefficients": coeffs})


def _near_diagonal(k: int, ratio: int) -> ManagedMatrix:
    """diag(ratio - k + 1) with ones off the diagonal, on k blocks."""
    return ManagedMatrix(tuple(tuple(ratio - (k - 1) if i == j else 1 for j in range(k)) for i in range(k)))


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
        if ms[t].ratio < k or ms[t] != _near_diagonal(k, ms[t].ratio):
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
        matrices.append(_near_diagonal(d, r))
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
