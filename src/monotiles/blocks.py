"""Hierarchical block families glued along a congruent Folner ladder.

Level-0 blocks are symbol spikes at the identity; level n+1 blocks are
concatenations of level-n blocks over the glue cosets, with the first block
always placed on the identity coset and never elsewhere.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Sequence

from . import _boxes, _text
from ._frozen import frozen
from .errors import (AugmentationError, DistinctnessError, EncodingError, InfeasibleError,
                     RenderUnsupportedError)
from .folner import FolnerLadder, _tiled
from .groups import Certificate, FiniteSubset, Lattice
from .matrices import ManagedMatrix

__all__ = [
    "Pattern", "Assignment", "BlockHierarchy", "base_blocks", "assignment_from_matrix", "build_hierarchy",
    "verify_c3", "augment_matrix", "render_pattern",
]


class Pattern:
    """A finitely supported symbol pattern: a window plus one symbol per cell,
    held as bytes over the alphabet 0..255."""

    __slots__ = ("support", "symbols")

    def __init__(self, support: FiniteSubset, symbols: Sequence[int]):
        symbols = tuple(symbols)
        if any(type(s) is not int for s in symbols):
            raise ValueError("symbols must be ints, not bools, floats or strings")
        if len(symbols) != len(support):
            raise ValueError(f"{len(support)} cells but {len(symbols)} symbols")
        if symbols and not 0 <= min(symbols) <= max(symbols) <= 255:
            raise ValueError("symbols must lie in 0..255 (one byte each)")
        self.support = support
        self.symbols = bytes(symbols)

    @classmethod
    def _trusted(cls, support: FiniteSubset, symbols: bytes) -> "Pattern":
        """Internal constructor for one already validated symbol byte per cell
        (bytes, not a bytearray: families hash their symbols)."""
        self = object.__new__(cls)
        self.support, self.symbols = support, symbols
        return self

    def __eq__(self, other) -> bool:
        return (isinstance(other, Pattern) and self.support == other.support
                and self.symbols == other.symbols)

    def __hash__(self) -> int:
        return hash((self.support, self.symbols))

    def __repr__(self) -> str:
        return f"Pattern({len(self.support)} cells)"

    def to_json(self) -> dict:
        return {"support": self.support.encode_json(), "symbols": list(self.symbols)}


@frozen
class Assignment:
    """Per-block maps from glue cosets to lower-level block indices (1-based)."""

    cosets: FiniteSubset
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        ident = self.cosets.ctx.identity()
        for k, row in enumerate(self.values, start=1):
            if len(row) != len(self.cosets):
                raise ValueError(f"assignment {k} covers {len(row)} of {len(self.cosets)} cosets")
            for c, v in zip(self.cosets.elements, row):
                if type(v) is not int:
                    raise ValueError(f"assignment {k} has a non-int block index {v!r}")
                if c == ident and v != 1:
                    raise ValueError(f"assignment {k} must place block 1 on the identity coset")
                if c != ident and v < 2:
                    raise ValueError(f"assignment {k} places block {v} on non-identity coset {c!r}")

    @property
    def block_count(self) -> int:
        return len(self.values)

    def to_json(self) -> list:
        return [list(row) for row in self.values]


def base_blocks(k0: int, F0: FiniteSubset) -> list[Pattern]:
    """Level-0 blocks: symbol k at the identity, 0 elsewhere, for k = 1..k0."""
    if not 3 <= k0 <= 255:
        raise ValueError(f"need 3 to 255 base blocks (symbols are bytes), got k0 = {k0}")
    ident = F0.ctx.identity()
    if ident not in F0:
        raise ValueError("base window must contain the identity")
    return [Pattern(F0, tuple(k if g == ident else 0 for g in F0.elements)) for k in range(1, k0 + 1)]


def assignment_from_matrix(mtilde: ManagedMatrix, cosets: FiniteSubset) -> Assignment:
    """Deterministic coset assignment realizing the prescribed incidence counts.

    Column k of the matrix fixes how many cosets receive each lower block
    index inside output block k; row 1 must be identically 1 (the identity
    coset).  Cosets are traversed in canonical order and indices dispensed
    in nondecreasing order, then duplicate outputs are separated by the
    lexicographically first value swap that restores distinctness.
    """
    ident = cosets.ctx.identity()
    if ident not in cosets:
        raise InfeasibleError("glue cosets must contain the identity")
    ident_pos = cosets.elements.index(ident)
    maps: list[list[int]] = []
    for k in range(mtilde.cols):
        col = mtilde.column(k)
        if col[0] != 1:
            raise InfeasibleError(f"column {k + 1} assigns {col[0]} cosets to block 1; must be exactly 1")
        if sum(col) != len(cosets):
            raise InfeasibleError(f"column {k + 1} sums to {sum(col)} but there are {len(cosets)} cosets")
        # indices 2, 3, ... dispensed in order, col[idx - 1] of each, to the non-identity cosets
        dispensed = (idx for idx in range(2, mtilde.rows + 1) for _ in range(col[idx - 1]))
        maps.append([1 if c == ident else next(dispensed) for c in cosets.elements])

    swap_positions = [i for i in range(len(cosets)) if i != ident_pos]
    final: list[tuple[int, ...]] = []
    for k, row in enumerate(maps):
        candidate = tuple(row)
        if candidate in final:
            for a, b in combinations(swap_positions, 2):
                swapped = list(row)
                swapped[a], swapped[b] = row[b], row[a]
                if row[a] != row[b] and tuple(swapped) not in final:
                    candidate = tuple(swapped)
                    break
            else:
                raise DistinctnessError(f"cannot separate assignment column {k + 1} from earlier ones")
        final.append(candidate)
    return Assignment(cosets, tuple(final))


def _assemble(family: Sequence[Pattern], ladder: FolnerLadder, n: int,
              assignment: Assignment) -> list[Pattern]:
    """Level-(n+1) blocks: along each assignment row, lower block v is written
    into its glue digit's runs of F_{n+1}."""
    runs, upper = _tiled(ladder, n), ladder.levels[n + 1]
    out = [Pattern._trusted(upper, bytes(_boxes.write(runs, [family[v - 1].symbols for v in row],
                                                      bytearray(len(upper))))) for row in assignment.values]
    for (i, a), (j, b) in combinations(enumerate(out, start=1), 2):
        if a == b:
            raise DistinctnessError(f"assembled blocks {i} and {j} coincide")
    return out


def _visiting_order(base: FiniteSubset, index: dict) -> list[int]:
    """Canonical indices of the window's cells, breadth-first from the
    identity over the group's generators, then the cells never reached."""
    ctx = base.ctx
    gens = ctx.generators()
    start = index.get(ctx.identity())
    order = [] if start is None else [start]
    reached = set(order)
    for i in order:  # grows while it is read: a queue
        for s in gens:
            j = index.get(ctx.mul(base.elements[i], s))
            if j is not None and j not in reached:
                reached.add(j)
                order.append(j)
    return order + [i for i in range(len(index)) if i not in reached]


def verify_c3(family: Sequence[Pattern]) -> Certificate:
    """Check that block translates never agree on window overlaps.

    For every g in the window and every pair (k, k'): agreement of block k
    shifted by g with block k' on the full overlap forces g = identity and
    k = k'.  Exhaustive over g and pairs, exact, and early-exiting: per g the
    still-agreeing pairs are narrowed one overlap cell at a time, outward
    from the identity, until none is left.  A failure's witness is
    [g, k, k'], the first g in canonical order and its first agreeing pair.
    The family must be non-empty and live on one window (else ValueError).
    """
    if not family or any(b.support != family[0].support for b in family):
        raise ValueError("family blocks must share one support window")
    base = family[0].support
    ctx = base.ctx
    mul = ctx.mul
    ident = ctx.identity()
    cells = base.elements
    index = {g: i for i, g in enumerate(cells)}
    visit = [(cells[i], i) for i in _visiting_order(base, index)]
    rows = [b.symbols for b in family]
    pairs = [(a, b, k, k2) for k, a in enumerate(rows, start=1) for k2, b in enumerate(rows, start=1)]
    distinct = [p for p in pairs if p[2] != p[3]]
    for g in cells:
        alive = distinct if g == ident else pairs
        seen = False
        for v, i in visit:
            j = index.get(mul(g, v))
            if j is None:
                continue
            seen = True
            alive = [p for p in alive if p[0][j] == p[1][i]]
            if not alive:
                break
        if seen and alive:
            return Certificate.fail(ctx, "translated blocks agree on their overlap", (g, *alive[0][2:]))
    return Certificate(True)


def augment_matrix(m: ManagedMatrix) -> ManagedMatrix:
    """Split off a duplicated leading column so row 1 becomes identically 1.

    Output is (rows+1) x (cols+1): columns 1 and 2 both read
    (1, M(1,1)-1, M(2,1), ...), and column k+1 reads (1, M(1,k)-1, M(2,k), ...).
    Column sums are preserved.
    """
    if m.min_entry <= m.cols:
        raise AugmentationError(
            f"augmentation needs every entry > {m.cols} (the column count); min entry is {m.min_entry}")
    cols = []
    for j in [0] + list(range(m.cols)):
        col = m.column(j)
        cols.append((1, col[0] - 1) + col[1:])
    return ManagedMatrix(tuple(tuple(col[i] for col in cols) for i in range(m.rows + 1)))


class BlockHierarchy:
    """Block families for every ladder level, plus the assignments that glued them.

    Construction checks (else ValueError) that every block of family n lies
    on F_n, and that assignment n is indexed by J_n, has one row per block of
    family n + 1 and names only blocks 1..len(family n)."""

    def __init__(self, ladder: FolnerLadder, families: Sequence[Sequence[Pattern]],
                 assignments: Sequence[Assignment]):
        if len(families) != len(assignments) + 1:
            raise ValueError(f"{len(families)} families need {len(families) - 1} assignments")
        if len(families) > len(ladder.levels):
            raise ValueError("hierarchy deeper than its ladder")
        self.ladder = ladder
        self.families = [list(f) for f in families]
        self.assignments = list(assignments)
        for n, fam in enumerate(self.families):
            if not fam or any(b.support != ladder.levels[n] for b in fam):
                raise ValueError(f"family {n} not supported on ladder level {n}")
        for n, (a, lower, upper) in enumerate(zip(self.assignments, self.families, self.families[1:])):
            if a.cosets != ladder.glue[n] or len(a.values) != len(upper):
                raise ValueError(f"assignment {n} needs one row per block of family {n + 1}, indexed by J_{n}")
            if any(not 1 <= v <= len(lower) for row in a.values for v in row):
                raise ValueError(f"assignment {n} names a block beyond the {len(lower)} of family {n}")

    @property
    def depth(self) -> int:
        return len(self.families) - 1

    def family(self, n: int) -> list[Pattern]:
        if not 0 <= n <= self.depth:
            raise ValueError(f"level {n} outside 0..{self.depth}")
        return self.families[n]

    def x0_patch(self, n: int) -> Pattern:
        """The level-n patch of the distinguished configuration (block 1)."""
        return self.family(n)[0]

    def _artifact(self) -> dict:
        """The JSON layout, with each family's support left as its ladder level
        (family n lies on level n) and each block as its symbol bytes, which
        `write_json` writes in pieces."""
        return {"ladder": self.ladder._artifact(),
                "families": [{"support": F, "blocks": [b.symbols for b in fam]}
                             for F, fam in zip(self.ladder.levels, self.families)],
                "assignments": [a.to_json() for a in self.assignments]}

    def to_json(self) -> dict:
        return _text.encoded(self._artifact())

    @staticmethod
    def from_json(data: dict) -> "BlockHierarchy":
        """Inverse of to_json: exactly ladder, families ({support, blocks} objects) and
        assignments (int rows per level), else EncodingError."""
        if not (isinstance(data, dict) and data.keys() == {"ladder", "families", "assignments"}
                and isinstance(data["families"], list) and _nested_ints(data["assignments"], 3)
                and all(isinstance(fam, dict) and fam.keys() == {"support", "blocks"}
                        and fam["blocks"] and _nested_ints(fam["blocks"], 2) for fam in data["families"])):
            raise EncodingError("a hierarchy needs exactly ladder, families and assignments, with int blocks")
        ladder = FolnerLadder.from_json(data["ladder"])
        fams, rows = data["families"], data["assignments"]
        if len(fams) > len(ladder.levels) or len(rows) > ladder.depth:
            raise EncodingError("hierarchy deeper than its ladder")
        if not all(_text.is_text_of(F, fam["support"]) for F, fam in zip(ladder.levels, fams)):
            raise EncodingError("a family support differs from its ladder level")
        families = [[Pattern(F, sym) for sym in fam["blocks"]] for F, fam in zip(ladder.levels, fams)]
        assignments = [Assignment(J, tuple(map(tuple, a))) for J, a in zip(ladder.glue, rows)]
        return BlockHierarchy(ladder, families, assignments)


def _nested_ints(x, depth: int) -> bool:
    """Whether x is a list nested `depth` deep with int leaves (JSON booleans excluded)."""
    if depth == 0:
        return type(x) is int
    return isinstance(x, list) and all(_nested_ints(y, depth - 1) for y in x)


def build_hierarchy(ladder: FolnerLadder, matrices: Sequence[ManagedMatrix]) -> BlockHierarchy:
    """Assemble a hierarchy from incidence matrices over a congruent ladder;
    the first matrix's row count is the number of base blocks."""
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one matrix")
    if len(matrices) > ladder.depth:
        raise ValueError(f"{len(matrices)} matrices exceed ladder depth {ladder.depth}")
    families = [base_blocks(matrices[0].rows, ladder.levels[0])]
    assignments = []
    for n, m in enumerate(matrices):
        if m.rows != len(families[n]):
            raise ValueError(f"matrix {n} has {m.rows} rows but level {n} has {len(families[n])} blocks")
        if m.ratio != len(ladder.glue[n]):
            raise ValueError(f"matrix {n} columns sum to {m.ratio} but |J_{n}| = {len(ladder.glue[n])}")
        assignment = assignment_from_matrix(m, ladder.glue[n])
        assignments.append(assignment)
        families.append(_assemble(families[n], ladder, n, assignment))
    return BlockHierarchy(ladder, families, assignments)


def render_pattern(p: Pattern, mode: str = "text") -> str:
    """Deterministic rendering; text mode needs a rank-1 interval or rank-2 box
    support, read in canonical (x-major) order as one row per first coordinate."""
    if mode == "json":
        return json.dumps(p.to_json(), sort_keys=True, separators=(",", ":"))
    if mode != "text":
        raise ValueError(f"unknown render mode {mode!r}")
    ctx = p.support.ctx
    if not isinstance(ctx, Lattice) or ctx.d not in (1, 2):
        raise RenderUnsupportedError(f"text rendering needs a rank-1 or rank-2 lattice, got {ctx!r}")
    box = p.support._shape  # a Box or None on a lattice
    if box is None:
        shape = "a contiguous interval" if ctx.d == 1 else "a full box"
        raise RenderUnsupportedError(f"support is not {shape}")
    width = box.strides[0] if ctx.d == 2 else len(p.symbols)
    return "\n".join(" ".join(map(str, p.symbols[i:i + width])) for i in range(0, len(p.symbols), width))
