"""Where the translates c * lower land in upper, by canonical index, for the
tiling (c a glue digit) and the analysis windows (c a cell of upper).  By
rank when the order has a closed form: full boxes of Z^d (mixed radix,
`FiniteSubset._box`), fibred Heisenberg windows (one run of central
coordinates per plane point, `FiniteSubset._fibres`) and Pruefer subgroups
{i/N} (`FiniteSubset._cyclic`, the i-th cell is i/N); else by one product
per cell.  `read` and `write` move block symbols (bytes) and tower labels
along such runs.  `kept` answers on those three shapes only, else None."""

from __future__ import annotations

import math
import operator
from itertools import repeat

from .groups import _row_starts

_EMPTY = (0, 1, 0)  # (start, lo, hi) of a missing fibre: no central coordinate fits


def runs(lower, upper):
    """A function that maps c (and i, when the caller knows c = upper[i]) to
    the canonical indices of c * lower in upper, as a list of ranges in the
    order of lower, or to None when a cell falls outside upper.  By rank when
    both windows are boxes, both are fibred, or both are Pruefer subgroups
    {i/N} and {j/M} with N | M; else one product per cell."""
    if lower._box and upper._box:
        return _box_runs(lower, upper)
    if lower._fibres and upper._fibres:
        return _fibre_runs(lower, upper)
    if lower._cyclic and upper._cyclic and upper._cyclic % lower._cyclic == 0:
        return _cyclic_runs(lower._cyclic, upper._cyclic)
    return _product_runs(lower, upper)


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


def kept(F, K) -> int | None:
    """|{f in F : f * k in F for every k in K}| on a box, fibred window or
    subgroup F, else None."""
    if F._box:
        return _box_kept(F._box, K)
    if F._fibres:
        return _fibre_kept(F.ctx.mul, F._fibres, K)
    if F._cyclic:
        # f + k stays in the subgroup exactly when k does
        return len(F) if all(F._cyclic % k.denominator == 0 for k in K) else 0
    return None


def _box_runs(lower, upper):
    """Each row of c + lower (along the last axis) is a run of indices from
    rank(c + f) = c . strides + rank(f), f its first cell: no products, and
    c . strides = i + ulo . strides when i is given.  c + lower fits exactly
    when ulo - lo <= c <= uhi - hi.  The ranks of the rows' first cells come
    from the two descriptors, so no cell is read."""
    (lo, hi, _), (ulo, uhi, strides) = lower._box, upper._box
    run = hi[-1] - lo[-1] + 1
    low, high = tuple(map(operator.sub, ulo, lo)), tuple(map(operator.sub, uhi, hi))
    origin = sum(map(operator.mul, ulo, strides))
    starts = _row_starts(lower._box, upper._box)

    def place(c, i=None):
        if not (all(map(operator.le, low, c)) and all(map(operator.le, c, high))):
            return None
        shift = sum(map(operator.mul, c, strides)) if i is None else i + origin
        return [range(q, q + run) for q in map(shift.__add__, starts)]
    return place


def _fibre_runs(lower, upper):
    """The centre shifts a fibre along itself, c * (a, b, t) = c * (a, b, lo)
    + (0, 0, t - lo), so each translated fibre is one product and a run of
    indices in the upper fibre over the same plane point."""
    mul, fibres = upper.ctx.mul, upper._fibres
    heads = [((a, b, lo), hi - lo + 1) for (a, b), (_, lo, hi) in lower._fibres.items()]

    def place(c, i=None):
        out = []
        for f, run in heads:
            x, y, z = mul(c, f)
            start, tlo, thi = fibres.get((x, y), _EMPTY)
            if z < tlo or z + run - 1 > thi:
                return None
            out.append(range(start + z - tlo, start + z - tlo + run))
        return out
    return place


def _cyclic_runs(n: int, m: int):
    """c + i/N has rank (c * M + i * M/N) mod M in {j/M}: the ranks of c + lower
    are the coset of c * M modulo M/N, from c * M up and then from below."""
    step = m // n

    def place(c, i=None):
        if m % c.denominator:
            return None
        r = c.numerator * (m // c.denominator)
        return [range(r, m, step), range(r % step, r, step)]
    return place


def rank(F):
    """A function from a cell to its canonical index in F or None, matching by ==
    as a set of F's cells would: one lookup per axis on a box, else in a dict."""
    if not F._box:
        return {g: q for q, g in enumerate(F._cells())}.get
    n, axes = len(F), [dict(zip(range(a, b + 1), range(0, (b - a + 1) * s, s))) for a, b, s in zip(*F._box)]

    def index(g):  # a coordinate off the box adds -n, so the sum is negative
        if type(g) is tuple and len(g) == len(axes) and (r := sum(map(dict.get, axes, g, repeat(-n)))) >= 0:
            return r
    return index


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


def _box_kept(box: tuple, K) -> int:
    """Axis by axis: each column of K, with 0 appended, shrinks the side by
    its spread."""
    lo, hi, _ = box
    columns = zip(*K, (0,) * len(lo))
    return math.prod(max(0, b - a + 1 - max(col) + min(col)) for a, b, col in zip(lo, hi, columns))


def _fibre_kept(mul, fibres: dict, K) -> int:
    """(a, b, t) * k = (a, b, lo) * k + (0, 0, t - lo): per fibre and k one
    product, and the kept t form the intersection of the shifted intervals.
    Reads only the fibres, so a window can be scored before it is built."""
    count = 0
    for (a, b), (_, lo, hi) in fibres.items():
        low, high = lo, hi
        for k in K:
            x, y, z = mul((a, b, lo), k)
            _, tlo, thi = fibres.get((x, y), _EMPTY)
            low, high = max(low, lo + tlo - z), min(high, lo + thi - z)
            if low > high:
                break
        count += max(0, high - low + 1)
    return count

