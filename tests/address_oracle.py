"""Coset addresses: a per-cell digit expansion across ladder levels and the
block the assignments place at the addressed tile.  `check_partitions`
reads the same facts from its tower labels; the tests keep this walk as
their oracle.  Digits come from `reference_tiling`, the per-cell product
walk of a glue step, so the oracle shares no code with the library.
"""

from bisect import bisect_left
from dataclasses import dataclass


@dataclass(frozen=True)
class CosetAddress:
    """Digit expansion of a window element across ladder levels.

    digits run top-down (levels m-1, ..., n); the residual lies in the
    level-n window, and the element is the product of the digits, then the
    residual.
    """

    digits: tuple
    residual: object
    low: int
    high: int


def reference_tiling(ladder, n):
    """The per-cell product walk of F_{n+1} = J_n * F_n: the canonical indices
    of F_{n+1}'s cells in glue order (cell J_n[j] * F_n[i] at position
    j * |F_n| + i), or the first violation as (reason, raw witness elements)."""
    glue, lower, upper = ladder.glue[n], ladder.levels[n], ladder.levels[n + 1]
    where = {g: q for q, g in enumerate(upper.elements)}
    hit = bytearray(len(upper))
    order = []
    for c in glue:
        for f in lower:
            x = ladder.ctx.mul(c, f)
            q = where.get(x)
            if q is None:
                return "translate-escapes-next-level", (c, f, x)
            if hit[q]:
                return "translates-overlap", (glue.elements[order.index(q) // len(lower)], c, x)
            hit[q] = 1
            order.append(q)
    if len(order) != len(upper):
        return "next-level-not-covered", (upper.elements[hit.index(0)],)
    return order


_POSITIONS: dict = {}  # id(ladder) -> (ladder, {level i: glue position of each cell of F_{i+1}})


def _position(ladder, i: int, q: int) -> int:
    """Glue position j * |F_i| + r of the canonical cell q of F_{i+1}, read off
    the walk (cached per ladder and level)."""
    _, levels = _POSITIONS.setdefault(id(ladder), (ladder, {}))
    if i not in levels:
        order = reference_tiling(ladder, i)
        if not isinstance(order, list):
            raise ValueError(f"glue {i} does not tile level {i + 1}: {order[0]}")
        levels[i] = {cell: p for p, cell in enumerate(order)}
    return levels[i][q]


def address(ladder, v, n: int, m: int) -> CosetAddress:
    """Unique glue digits c_{m-1}, ..., c_n and residual with v = product * residual."""
    if not 0 <= n <= m <= ladder.depth:
        raise ValueError(f"need 0 <= n <= m <= {ladder.depth}, got n={n}, m={m}")
    if v not in ladder.levels[m]:
        raise ValueError(f"{v!r} lies outside level {m}")
    q = bisect_left(ladder.levels[m].elements, v)
    digits = []
    for i in range(m - 1, n - 1, -1):
        j, q = divmod(_position(ladder, i, q), len(ladder.levels[i]))
        digits.append(ladder.glue[i].elements[j])
    return CosetAddress(tuple(digits), ladder.levels[n].elements[q], n, m)


def predicted_block(h, addr: CosetAddress) -> int:
    """Block index the assignments place at the addressed tile of the patch."""
    k = 1
    for level, c in zip(range(addr.high - 1, addr.low - 1, -1), addr.digits):
        a = h.assignments[level]
        k = a.values[k - 1][a.cosets.elements.index(c)]
    return k
