"""Shapes, the closed forms of a window: a full box of Z^d (`Box`), a fibred
Heisenberg window (`Fibres`) or a Pruefer subgroup {i/N} (`Subgroup`).
`SHAPES` maps a context's kind to the one shape class its subsets can have,
and a `FiniteSubset` has at most one shape, its `_shape`.  Each shape
answers for its cells, size, membership of a validated element, rank, runs
into an upper shape of its class, kept count, JSON rows, the candidate it
reads from parsed rows, and equality.  `runs` (where the translates c * lower
land in upper, by canonical index) and `rank` ask the shape, else fall back
to one product per cell and a dict of the cells.  `read` and `write` move
block symbols (bytes) and tower labels along such runs."""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from fractions import Fraction
from itertools import product, repeat

from ._frozen import frozen

_EMPTY = (0, 1, 0)  # (start, lo, hi) of a missing fibre: no central coordinate fits


def _none(self):  # a shape's answer where it has no closed form: the caller falls back
    return None


@frozen
class Box:
    """The full box lo..hi of Z^d.  Its canonical (lexicographic) order is
    mixed radix: the cell lo + x has index sum(x_k * strides_k)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        sides = [b - a + 1 for a, b in zip(self.lo, self.hi)]
        self.__dict__["strides"] = tuple(math.prod(sides[k + 1:]) for k in range(len(sides)))

    @classmethod
    def of(cls, cells) -> Box | None:  # from all cells' min and max per axis, not the first and last
        axes = [operator.itemgetter(k) for k in range(len(cells[0]))]
        box = cls(tuple(min(map(axis, cells)) for axis in axes), tuple(max(map(axis, cells)) for axis in axes))
        # its size by strides, not len(): a span past sys.maxsize is no box, not an OverflowError
        return box if box.strides[0] * (box.hi[0] - box.lo[0] + 1) == len(cells) else None

    @classmethod
    def from_rows(cls, ctx, rows: list) -> Box | None:  # from the first row, the last row and the length
        box = cls(tuple(rows[0]), tuple(rows[-1]))
        return box if len(box.lo) == len(box.hi) == ctx.d and len(box) == len(rows) else None

    def __len__(self) -> int:
        return math.prod(b - a + 1 for a, b in zip(self.lo, self.hi))

    def cells(self):
        return product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))

    def contains(self, g) -> bool:
        return all(map(operator.le, self.lo, g)) and all(map(operator.le, g, self.hi))

    def rank(self):  # one lookup per axis; a coordinate off the box adds -len, so the sum is negative
        n, axes = len(self), [dict(zip(range(a, b + 1), range(0, (b - a + 1) * s, s)))
                              for a, b, s in zip(self.lo, self.hi, self.strides)]

        def index(g):
            if type(g) is tuple and len(g) == len(axes) and (r := sum(map(dict.get, axes, g, repeat(-n)))) >= 0:
                return r
        return index

    def runs_in(self, upper: Box, mul):
        """Each row of c + lower is a run from rank(c + f) = c . strides +
        rank(f), f its first cell, and c . strides = i + ulo . strides when i
        is given: no products, no cell read.  c + lower fits exactly when
        ulo - lo <= c <= uhi - hi."""
        lo, hi, ulo, strides = self.lo, self.hi, upper.lo, upper.strides
        low, high = tuple(map(operator.sub, ulo, lo)), tuple(map(operator.sub, upper.hi, hi))
        origin, run = sum(map(operator.mul, ulo, strides)), hi[-1] - lo[-1] + 1
        rows = product(*(range(a - o, b - o + 1) for a, b, o in zip(lo[:-1], hi[:-1], ulo)))
        starts = [sum(map(operator.mul, x, strides)) + lo[-1] - ulo[-1] for x in rows]

        def place(c, i=None):
            if not (all(map(operator.le, low, c)) and all(map(operator.le, c, high))):
                return None
            shift = sum(map(operator.mul, c, strides)) if i is None else i + origin
            return [range(q, q + run) for q in map(shift.__add__, starts)]
        return place

    def kept(self, K, mul) -> int:  # each column of K, with 0 appended, shrinks its side by its spread
        columns = zip(*K, (0,) * len(self.lo))
        return math.prod(max(0, b - a + 1 - max(col) + min(col)) for a, b, col in zip(self.lo, self.hi, columns))

    def rows(self):  # (x, run): the run along the last axis under each point x of the others
        lo, hi = self.lo, self.hi
        return zip(product(*(range(a, b + 1) for a, b in zip(lo[:-1], hi[:-1]))), repeat(range(lo[-1], hi[-1] + 1)))


@frozen
class Fibres:
    """A Heisenberg window whose cells over each plane point (a, b) are one
    run (a, b, lo..hi) at canonical indices start..: runs[a, b] = (start, lo, hi)."""

    runs: dict

    @classmethod
    def of(cls, cells, probe=tuple) -> Fibres | None:
        """The fibres of sorted cells (tuples, or lists parsed from JSON with
        probe=list) by one bisect per fibre; None if one is no run, or none."""
        runs, start = {}, 0
        while start < len(cells):
            a, b, lo = cells[start]
            end = bisect_right(cells, probe((a, b, math.inf)), start)
            hi = cells[end - 1][2]
            if hi - lo != end - 1 - start:
                return None
            runs[a, b], start = (start, lo, hi), end
        return cls(runs) if runs else None

    @classmethod
    def from_rows(cls, ctx, rows: list) -> Fibres | None:
        return cls.of(rows, list)

    rank = _none  # no closed-form rank

    def __len__(self) -> int:  # the last fibre's start and length
        start, lo, hi = next(reversed(self.runs.values()))
        return start + hi - lo + 1

    def cells(self):
        return ((a, b, t) for (a, b), (_, lo, hi) in self.runs.items() for t in range(lo, hi + 1))

    def contains(self, g) -> bool:
        _, lo, hi = self.runs.get(g[:2], _EMPTY)
        return lo <= g[2] <= hi

    def runs_in(self, upper: Fibres, mul):
        """The centre shifts a fibre along itself, c * (a, b, t) = c * (a, b, lo)
        + (0, 0, t - lo), so each translated fibre is one product and a run of
        indices in the upper fibre over the same plane point."""
        heads = [((a, b, lo), hi - lo + 1) for (a, b), (_, lo, hi) in self.runs.items()]

        def place(c, i=None):
            out = []
            for f, run in heads:
                x, y, z = mul(c, f)
                start, tlo, thi = upper.runs.get((x, y), _EMPTY)
                if z < tlo or z + run - 1 > thi:
                    return None
                out.append(range(start + z - tlo, start + z - tlo + run))
            return out
        return place

    def kept(self, K, mul) -> int:
        """(a, b, t) * k = (a, b, lo) * k + (0, 0, t - lo): per fibre and k one
        product, and the kept t form the intersection of the shifted intervals."""
        count = 0
        for (a, b), (_, lo, hi) in self.runs.items():
            low, high = lo, hi
            for k in K:
                x, y, z = mul((a, b, lo), k)
                _, tlo, thi = self.runs.get((x, y), _EMPTY)
                low, high = max(low, lo + tlo - z), min(high, lo + thi - z)
                if low > high:
                    break
            count += max(0, high - low + 1)
        return count

    def rows(self):  # (x, run): the central coordinates over each plane point x
        return ((x, range(a, b + 1)) for x, (_, a, b) in self.runs.items())


@frozen
class Subgroup:
    """The Pruefer subgroup {i/n : 0 <= i < n}, whose i-th cell is i/n."""

    n: int

    @classmethod
    def of(cls, cells) -> Subgroup | None:  # n distinct cells whose denominators divide n
        n = len(cells)
        return cls(n) if all(n % g.denominator == 0 for g in cells) else None

    @classmethod
    def from_rows(cls, ctx, rows: list) -> Subgroup:  # of the rows' length n, if n divides a power of p
        ctx.validate(Fraction(len(rows) - 1, len(rows)))
        return cls(len(rows))

    def __len__(self) -> int:
        return self.n

    def cells(self):
        return map(Fraction, range(self.n), repeat(self.n))

    def contains(self, g) -> bool:
        return self.n % g.denominator == 0

    def runs_in(self, upper: Subgroup, mul):
        """c + i/n has rank (c * m + i * m/n) mod m in {j/m}, if n | m (else
        None): the coset of c * m modulo m/n, from c * m up, then from below."""
        n, m = self.n, upper.n
        if m % n:
            return None
        step = m // n

        def place(c, i=None):
            if m % c.denominator:
                return None
            r = c.numerator * (m // c.denominator)
            return [range(r, m, step), range(r % step, r, step)]
        return place

    def kept(self, K, mul) -> int:  # f + k stays in the subgroup exactly when k does
        return self.n if all(self.n % k.denominator == 0 for k in K) else 0

    rank = rows = _none  # no closed-form rank, no row form


SHAPES = {"lattice": Box, "heisenberg3": Fibres, "pruefer": Subgroup}  # context kind -> shape class


def runs(lower, upper):
    """A function that maps c (and i, when the caller knows c = upper[i]) to
    the canonical indices of c * lower in upper, as a list of ranges in the
    order of lower, or to None when a cell falls outside upper: by the lower
    shape's `runs_in` into an upper shape of its class, else by products."""
    shape = lower._shape
    place = shape and type(shape) is type(upper._shape) and shape.runs_in(upper._shape, upper.ctx.mul)
    return place or _product_runs(lower, upper)


def read(symbols: bytes, spans) -> bytes:
    """The symbols at the indices of spans, in span order: one slice per span."""
    return b"".join(symbols[s.start:s.stop:s.step] for s in spans)


def write(runs: list, pieces, out):
    """The inverse of `read` over a tiling: out (a bytearray, or a list for
    entries above 255) with pieces[j] written along runs[j], one slice per span."""
    for piece, spans in zip(pieces, runs):
        t = 0
        for s in spans:
            out[s.start:s.stop:s.step] = piece[t:t + len(s)]
            t += len(s)
    return out


def rank(F):
    """A function from a cell to its canonical index in F or None, matching by ==
    as a set of F's cells would: the shape's closed form, else a dict lookup."""
    shape = F._shape
    return shape and shape.rank() or {g: q for q, g in enumerate(F._cells())}.get


def _product_runs(lower, upper):
    """One product per cell, ranked in upper by `rank`; cells whose indices
    follow each other join one run."""
    mul, cells, where = upper.ctx.mul, lower.elements, rank(upper)

    def place(c, i=None):
        out = []
        for f in cells:
            q = where(mul(c, f))
            if q is None:
                return None
            if out and out[-1].stop == q:
                out[-1] = range(out[-1].start, q + 1)
            else:
                out.append(range(q, q + 1))
        return out
    return place
