"""Coset addresses: a per-cell digit expansion across ladder levels and the
block the assignments place at the addressed tile.  `check_partitions`
reads the same facts from its tower labels; the tests keep this walk as
their oracle.
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


def address(ladder, v, n: int, m: int) -> CosetAddress:
    """Unique glue digits c_{m-1}, ..., c_n and residual with v = product * residual."""
    if not 0 <= n <= m <= ladder.depth:
        raise ValueError(f"need 0 <= n <= m <= {ladder.depth}, got n={n}, m={m}")
    if v not in ladder.levels[m]:
        raise ValueError(f"{v!r} lies outside level {m}")
    q = bisect_left(ladder.levels[m].elements, v)
    digits = []
    for i in range(m - 1, n - 1, -1):
        j, q = divmod(ladder.glue_order(i)[1][q], len(ladder.levels[i]))
        digits.append(ladder.glue[i].elements[j])
    return CosetAddress(tuple(digits), ladder.levels[n].elements[q], n, m)


def predicted_block(h, addr: CosetAddress) -> int:
    """Block index the assignments place at the addressed tile of the patch."""
    k = 1
    for level, c in zip(range(addr.high - 1, addr.low - 1, -1), addr.digits):
        a = h.assignments[level]
        k = a.values[k - 1][a.cosets.elements.index(c)]
    return k
