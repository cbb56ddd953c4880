"""Finite-scale dynamical checks on block hierarchies.

Return-time sets are computed twice: algebraically from glue digits and
independently by sliding-window scans over the distinguished patch.  Tower
partition checks (tiling exactness and refinement) work on canonical indices
of the level-m window: each cell's claimed (offset, block) must equal its
tower label, read off the tiling runs and assignments, so single-symbol
corruption is always detected.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from operator import add

from . import _boxes
from ._frozen import frozen
from .blocks import BlockHierarchy, Pattern
from .folner import FolnerLadder, _tiled, folner_defect, iterated_glue
from .groups import Certificate, FiniteSubset, Lattice

__all__ = [
    "CylinderId", "return_times", "scan_occurrences", "check_partitions", "boundary_mass_bound",
    "syndeticity_window",
]


@frozen
class CylinderId:
    """Names the clopen set of configurations reading block k in window n."""

    level: int
    block_index: int

    def __post_init__(self):
        if self.level < 0 or self.block_index < 1:
            raise ValueError(f"bad cylinder ({self.level}, {self.block_index})")


def return_times(h: BlockHierarchy, n: int, m: int) -> FiniteSubset:
    """Positions whose level-n window tiles level m: all glue-digit products."""
    return iterated_glue(h.ladder, n, m)


def _windows(ladder: FolnerLadder, n: int, m: int):
    """Yield (i, spans) for each position v = F_m[i] whose translated window
    v * F_n lies inside F_m: spans are the ranges of canonical indices in F_m
    of its cells v * u, in F_n order, as `_boxes.runs` places them."""
    place = _boxes.runs(ladder.levels[n], ladder.levels[m])
    for i, v in enumerate(ladder.levels[m].elements):
        spans = place(v, i)
        if spans is not None:
            yield i, spans


def _occurrences(h: BlockHierarchy, n: int, m: int, patch: Pattern | None):
    """Yield (i, spans, k) per testable position: its index i in F_m, its
    window spans, and the index k of the level-n block the window reads (0
    for none), by raw window comparison."""
    if patch is None:
        patch = h.x0_patch(m)
    if patch.support != h.ladder.levels[m]:
        raise ValueError(f"patch not supported on ladder level {m}")
    lookup = {b.symbols: k for k, b in enumerate(h.family(n), start=1)}
    for i, spans in _windows(h.ladder, n, m):
        yield i, spans, lookup.get(_boxes.read(patch.symbols, spans), 0)


def scan_occurrences(h: BlockHierarchy, n: int, m: int, patch: Pattern | None = None) -> FiniteSubset:
    """All positions where some level-n block occurs in the level-m patch.

    Pure pattern matching, no glue algebra; the independent counterpart of
    return_times.  An explicit patch substitutes for the built one, which
    lets corruption tests rescan mutated windows.
    """
    if not 0 <= n < m <= h.depth:
        raise ValueError(f"need 0 <= n < m <= {h.depth}, got n={n}, m={m}")
    cells = h.ladder.levels[m].elements
    return FiniteSubset._trusted(h.ladder.ctx, (cells[i] for i, _, k in _occurrences(h, n, m, patch) if k))


def _labels(h: BlockHierarchy, n: int, m: int) -> tuple[list, list]:
    """Per canonical cell of F_m: the level-n block that the assignments
    place on its tile of the distinguished patch (block 1 of level m), and
    the cell's residual index in F_n.  Block k of level n carries k and the
    residual on each cell; a block one level up glues the labels of the
    blocks its assignment row names, as its symbols were glued."""
    ladder, size = h.ladder, len(h.ladder.levels[n])
    labels = [([k] * size, range(size)) for k in range(1, len(h.family(n)) + 1)]
    for i, assignment in enumerate(h.assignments[n:m], start=n):
        runs, upper = _tiled(ladder, i), len(ladder.levels[i + 1])
        labels = [(_boxes.write(runs, [labels[v - 1][0] for v in row], [0] * upper),
                   _boxes.write(runs, [labels[v - 1][1] for v in row], [0] * upper)) for row in assignment.values]
    return labels[0]


def check_partitions(h: BlockHierarchy, n: int, m: int, patch: Pattern | None = None) -> Certificate:
    """Verify the tower partition properties on the level-m patch.

    First part: every interior position (translated level-n window inside
    the level-m window) lies in exactly one scanned block occurrence, and
    the claiming pair (offset, block index) equals the cell's label (its
    residual in F_n and the block its tile carries).  Second part, when
    m > n + 1: each level-(n+1) tile refines into level-n tiles exactly as
    its assignment prescribes, with block 1 on the identity coset and
    nowhere else.  Both parts work on canonical indices of F_m; witnesses
    are cells.  detail carries levels [n, m] and the interior, tile and
    refinement counts (zero on failure).
    """
    if not 0 <= n < m <= h.depth:
        raise ValueError(f"need 0 <= n < m <= {h.depth}, got n={n}, m={m}")
    ladder = h.ladder
    ident = ladder.ctx.identity()
    cells, base = ladder.levels[m].elements, ladder.levels[n].elements

    interior, occ = [], {}
    count, offset, block = [0] * len(cells), [0] * len(cells), [0] * len(cells)
    for i, spans, k in _occurrences(h, n, m, patch):
        interior.append(i)
        if k:
            occ[cells[i]] = k
            for t, q in enumerate(chain.from_iterable(spans)):
                count[q] += 1
                offset[q], block[q] = t, k
    returns = return_times(h, n, m)
    fail = lambda reason, witness: Certificate.fail(
        ladder.ctx, reason, witness, levels=[n, m], interior=0, tiles=0, refinements=0)

    if off := set(occ) ^ returns.as_set:
        return fail("scanned occurrences disagree with glue products", (next(iter(off)),))

    labels = None
    for i in interior:
        if count[i] != 1:
            return fail(f"interior position claimed {count[i]} times", (cells[i],))
        # built lazily: labels need levels n..m to tile, and a miscount is reported without them
        blocks, residual = labels = labels or _labels(h, n, m)
        if offset[i] != residual[i] or block[i] != blocks[i]:
            return fail("claim disagrees with address prediction",
                        (cells[i], [base[offset[i]], block[i]], [base[residual[i]], blocks[i]]))

    refinements = 0
    if m > n + 1:
        occ_up = {cells[i]: ([*chain.from_iterable(spans)], k)
                  for i, spans, k in _occurrences(h, n + 1, m, patch) if k}
        returns_up = return_times(h, n + 1, m)
        if off := set(occ_up) ^ returns_up.as_set:
            return fail("level-(n+1) occurrences disagree with glue products", (next(iter(off)),))
        # digit j puts the identity of F_n at position e of its runs
        glue, e = ladder.glue[n].elements, base.index(ident)
        heads = [[*chain.from_iterable(spans)][e] for spans in _tiled(ladder, n)]
        for row_up, k_up in occ_up.values():
            for j, expected in enumerate(h.assignments[n].values[k_up - 1]):
                pos = cells[row_up[heads[j]]]
                k_obs = occ.get(pos)
                if k_obs is None:
                    return fail("refined tile carries no block", (pos,))
                if k_obs != expected:
                    return fail("refinement disagrees with assignment", (pos, k_obs, expected))
                if (k_obs == 1) != (glue[j] == ident):
                    return fail("first block must sit exactly on the identity coset", (pos, k_obs))
                refinements += 1

    return Certificate(True, detail={"levels": [n, m], "interior": len(interior),
                                     "tiles": len(returns), "refinements": refinements})


def boundary_mass_bound(ladder: FolnerLadder, g, n: int) -> Fraction:
    """Exact |F_n \\ F_n g| / |F_n|: invariant-measure mass of the level-n shell.

    f lies outside F_n g exactly when f g^-1 lies outside F_n: the Folner
    defect of g^-1.
    """
    if not 0 <= n <= ladder.depth:
        raise ValueError(f"need 0 <= n <= {ladder.depth}, got n={n}")
    ladder.ctx.validate(g)
    return folner_defect(ladder.levels[n], ladder.ctx.inv(g))


def _gap_radius(visits: set, window: FiniteSubset) -> int:
    """Largest sup-norm distance from a cell of a Z^d window to its nearest
    visit: each cell searches the rings |x| = 0, 1, 2, ... around itself,
    which ends once the visit translates are known to cover the window."""
    rings: list[list[tuple]] = []
    gap = 0
    for v in window:
        rho = 0
        while True:
            if rho == len(rings):
                box = product(range(-rho, rho + 1), repeat=len(v))
                rings.append([o for o in box if max(map(abs, o)) == rho])
            if any(tuple(map(add, v, o)) in visits for o in rings[rho]):
                break
            rho += 1
        gap = max(gap, rho)
    return gap


def syndeticity_window(h: BlockHierarchy, cylinder: CylinderId, m: int) -> Certificate:
    """Check that visits to the first-block cylinder cover the level-m window.

    The cylinder must name block 1 one level below the tiling level n.
    Every tiling position is a visit (each block starts with block 1), and
    the visit translates by F_n must cover F_m.  For integer-lattice groups
    the largest observed gap radius is reported in the sup norm.  detail
    carries levels [n, m], visits, covered and gap_radius.
    """
    if cylinder.block_index != 1:
        raise ValueError("syndeticity mechanism applies to the first-block cylinder")
    n = cylinder.level + 1
    if not 1 <= n < m <= h.depth:
        raise ValueError(f"need cylinder level + 1 < m <= {h.depth}")
    ladder = h.ladder
    mul = ladder.ctx.mul
    patch = h.x0_patch(m)
    target = h.family(cylinder.level)[0]
    cells = ladder.levels[m].elements
    visits = [cells[i] for i, spans in _windows(ladder, cylinder.level, m)
              if _boxes.read(patch.symbols, spans) == target.symbols]
    visit_set = set(visits)
    fail = lambda reason, witness: Certificate.fail(
        ladder.ctx, reason, witness, levels=[n, m], visits=len(visits), covered=False, gap_radius=None)

    returns = return_times(h, n, m)
    for r in returns:
        if r not in visit_set:
            return fail("tiling position is not a cylinder visit", (r,))

    base = ladder.levels[n]
    # a set local to the call: the cached as_set would stay on the level for its lifetime
    uncovered = set(cells) - {mul(r, u) for r in visits for u in base}
    if uncovered:
        return fail("window not covered by visit translates", (next(iter(uncovered)),))

    gap = _gap_radius(visit_set, ladder.levels[m]) if isinstance(ladder.ctx, Lattice) else None
    return Certificate(True, detail={"levels": [n, m], "visits": len(visits), "covered": True,
                                     "gap_radius": gap})
