"""Exact finite-depth approximation of the invariant-measure simplex.

Approximants are the vertex images of deep standard simplices, read off the matrix
products, and certified to nest by the construction identity and by an independent
exact hull-membership test."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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


def _columns(prod: ManagedMatrix, scale: int) -> tuple:
    """The columns of prod over scale: the images of the corners e_j / scale."""
    return tuple(SimplexPoint(tuple(Fraction(row[j], scale) for row in prod.entries), scale // prod.ratio)
                 for j in range(prod.cols))


def approximate_limit(ms: ManagedSequence, n: int, d: int) -> SimplexApproximant:
    """Push the standard vertices of the level-(n+d) simplex down to level n
    (ms.product raises ValueError unless d >= 1 and levels n..n+d exist)."""
    return SimplexApproximant(n, d, _columns(ms.product(n, d), ms.scale(n + d)))


def _eliminate(rows: list[list[Fraction]], rhs: list[Fraction]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss-Montante) of [rows | rhs]: (aug, pivot columns).

    Each row is scaled to integers by the lcm of its own denominators, and each
    update divides exactly by the previous pivot.  A column with no pivot left
    is skipped.  Every pivot row ends with one nonzero D (the determinant of the
    scaled pivot block, up to sign) at its pivot and 0 at the other pivots; the
    rows past the pivots are 0 on the left.
    """
    k, aug, prev, pivots = len(rows[0]), [], 1, []
    for row in ([*row, b] for row, b in zip(rows, rhs)):
        den = lcm(*(x.denominator for x in row))
        aug.append([x.numerator * (den // x.denominator) for x in row])
    for col in range(k):
        r = len(pivots)
        piv = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        top = aug[r]
        p = top[col]
        aug = [row if row is top else [(p * x - row[col] * y) // prev for x, y in zip(row, top)] for row in aug]
        prev = p
        pivots.append(col)
    return aug, pivots


def _fourier_motzkin(aug: list[list[int]], pivots: list[int]) -> bool:
    """Whether the consistent reduced system of _eliminate has a solution lam >= 0.

    Pivot row i reads lam_p = (rhs_i - sum_f aug[i][f] t_f) / D over the free
    columns f, so lam_p >= 0 reads D * sum_f aug[i][f] t_f <= D * rhs_i.  These
    and t_f >= 0 are kept as (coefs, const), meaning coefs . t <= const.  Each
    free column is eliminated by combining every lower bound with every upper
    bound by positive integer multipliers.
    """
    free = [c for c in range(len(aug[0]) - 1) if c not in pivots]
    ineqs = [([row[p] * row[f] for f in free], row[p] * row[-1]) for row, p in zip(aug, pivots)]
    ineqs += [([-1 if f == g else 0 for g in free], 0) for f in free]
    for _ in free:
        lowers = [(-c[0], c[1:], b) for c, b in ineqs if c[0] < 0]
        uppers = [(c[0], c[1:], b) for c, b in ineqs if c[0] > 0]
        ineqs = [(c[1:], b) for c, b in ineqs if not c[0]] + [
            ([ua * x + la * y for x, y in zip(lt, ut)], ua * lb + la * ub)
            for la, lt, lb in lowers for ua, ut, ub in uppers]
    return all(b >= 0 for _, b in ineqs)


def hull_contains(outer: Sequence[SimplexPoint], z: SimplexPoint) -> tuple[bool, str]:
    """Exact convex-hull membership from one fraction-free elimination of the barycentric system.

    With a pivot in every column, "barycentric" reads the signs of the unique solution
    lam_j = aug[j][-1] / D; else "fourier-motzkin" decides whether some lam >= 0 solves
    it.  A row left over that reads 0 = nonzero means no solution at all.
    """
    k = len(z)
    # scale mismatch between outer and z is a caller error
    if any(v.scale != z.scale or len(v) != k for v in outer):
        raise ValueError("hull test needs points at one scale and dimension")
    rows = [[v.coordinates[i] for v in outer] for i in range(k)] + [[Fraction(1)] * len(outer)]
    aug, pivots = _eliminate(rows, [*z.coordinates, Fraction(1)])
    if any(row[-1] for row in aug[len(pivots):]):
        return False, "fourier-motzkin"
    if len(pivots) < len(outer):
        return _fourier_motzkin(aug, pivots), "fourier-motzkin"
    return all(row[-1] * row[p] >= 0 for row, p in zip(aug, pivots)), "barycentric"


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
    diameters: tuple
    depth: int


def realize_finite_simplex(num_extreme: int, ladder: FolnerLadder, tolerance) -> RealizationResult:
    """Near-diagonal managed sequence over the ladder with num_extreme limit points.

    Each matrix is diag(ratio - num_extreme + 1) with ones elsewhere.  The
    returned depth is the least one whose tail clusters have exact diameter
    at most the tolerance; the ladder must be deep enough and every ratio at
    least num_extreme + 1.
    """
    d = num_extreme
    if type(d) is not int or d < 2:
        raise ValueError(f"need an int count of at least 2 extreme points, got {d!r}")
    if type(tolerance) not in (int, Fraction) or tolerance <= 0:
        raise ValueError(f"need a positive int or Fraction tolerance, got {tolerance!r}")
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
    return RealizationResult(ManagedSequence(matrices, base_scale=base_scale), (diam,) * d, len(matrices))


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
