"""Index arithmetic on full boxes of Z^d, in the mixed radix of `FiniteSubset._box`;
callers keep their product loops for every other window."""

from __future__ import annotations

import math
import operator
from array import array


def tiling(glue, lower, upper) -> array | None:
    """FolnerLadder.tiling on two boxes, or None when the translates escape,
    overlap or leave a gap.  Each row of c + lower (along the last axis) is a
    run of indices from rank(c + f), f its first cell."""
    (lo, hi, _), (ulo, uhi, strides) = lower._box, upper._box
    run = hi[-1] - lo[-1] + 1
    ones = b"\x01" * run
    starts = [sum(map(operator.mul, f, strides)) for f in lower.elements[::run]]
    hit = bytearray(len(upper))
    order = array("l")
    for c in glue:
        if any(a + x < u or b + x > v for x, a, b, u, v in zip(c, lo, hi, ulo, uhi)):
            return None
        base = sum((x - u) * s for x, u, s in zip(c, ulo, strides))
        for q in map(base.__add__, starts):
            if hit.find(1, q, q + run) >= 0:
                return None
            hit[q:q + run] = ones
            order.extend(range(q, q + run))
    return order if len(order) == len(upper) else None


def kept(box: tuple, K) -> int:
    """|{f in box : f + k in box for every k in K}|, axis by axis: each column
    of K, with 0 appended, shrinks the side by its spread."""
    lo, hi, _ = box
    columns = zip(*K, (0,) * len(lo))
    return math.prod(max(0, b - a + 1 - max(col) + min(col)) for a, b, col in zip(lo, hi, columns))


def windows(small, big):
    """analysis._windows when both windows are boxes: the window at the i-th
    cell v of big is the row i + offsets, kept when v + small lies inside big."""
    (lo, hi, _), (blo, bhi, strides) = small._box, big._box
    offsets = [sum(map(operator.mul, u, strides)) for u in small.elements]
    low, high = tuple(map(operator.sub, blo, lo)), tuple(map(operator.sub, bhi, hi))
    for i, v in enumerate(big.elements):
        if all(map(operator.le, low, v)) and all(map(operator.le, v, high)):
            yield v, [i + o for o in offsets]
