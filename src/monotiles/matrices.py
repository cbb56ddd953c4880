"""Managed incidence matrices: nonnegative integer matrices with constant column sums."""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable, Sequence

from ._frozen import frozen
from .errors import EncodingError, HypothesisError, SelectionExhaustedError

__all__ = [
    "ManagedMatrix", "ManagedSequence", "select_subsequence_lemma8", "group_matrices", "positivity_horizon",
]


@frozen
class ManagedMatrix:
    """A rows x cols nonnegative integer matrix whose columns all sum to one positive `ratio`."""

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = tuple(tuple(row) for row in entries)
        if any(type(x) is not int for r in rows for x in r):
            raise ValueError("managed matrix entries must be ints")
        if not rows or not rows[0]:
            raise ValueError("managed matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("managed matrix rows have unequal lengths")
        if len(rows) < 2 or width < 2:
            raise ValueError("managed matrix needs at least 2 rows and 2 columns")
        if any(x < 0 for r in rows for x in r):
            raise ValueError("managed matrix entries must be nonnegative")
        sums = {sum(rows[i][j] for i in range(len(rows))) for j in range(width)}
        if len(sums) != 1:
            raise ValueError(f"column sums differ: {sorted(sums)}")
        if 0 in sums:
            raise ValueError("managed matrix columns sum to 0")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def ratio(self) -> int:
        return sum(self.entries[i][0] for i in range(self.rows))

    @property
    def min_entry(self) -> int:
        return min(x for row in self.entries for x in row)

    def is_strictly_positive(self) -> bool:
        return self.min_entry > 0

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def mul(self, other: "ManagedMatrix") -> "ManagedMatrix":
        """Matrix product self @ other; column sums multiply."""
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return ManagedMatrix(
            tuple(
                tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                      for j in range(other.cols))
                for i in range(self.rows)
            )
        )

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "ratio": self.ratio,
                "entries": [x for row in self.entries for x in row]}

    @staticmethod
    def from_json(data: dict) -> "ManagedMatrix":
        """Inverse of to_json: exactly rows, cols and a flat entries list and an
        optional ratio, all ints, else EncodingError."""
        if not (isinstance(data, dict) and data.keys() - {"ratio"} == {"rows", "cols", "entries"}
                and isinstance(data["entries"], list) and all(
                    type(x) is int for x in (data["rows"], data["cols"], data.get("ratio", 0), *data["entries"]))):
            raise EncodingError("a matrix needs exactly int rows, cols, entries (a list) and optionally ratio")
        rows, cols, flat = data["rows"], data["cols"], data["entries"]
        if len(flat) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(flat)}")
        m = ManagedMatrix(tuple(tuple(flat[i * cols + j] for j in range(cols)) for i in range(rows)))
        if "ratio" in data and m.ratio != data["ratio"]:
            raise ValueError(f"declared ratio {data['ratio']} but columns sum to {m.ratio}")
        return m


class ManagedSequence:
    """A chained sequence of managed matrices M_n mapping level n+1 data to level n."""

    def __init__(self, matrices: Sequence[ManagedMatrix], base_scale: int = 1):
        self.matrices = list(matrices)
        if base_scale < 1:
            raise ValueError("base scale must be a positive integer")
        self.base_scale = base_scale
        for a, b in zip(self.matrices, self.matrices[1:]):
            if a.cols != b.rows:
                raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} then {b.rows}x{b.cols}")

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, n: int) -> ManagedMatrix:
        return self.matrices[n]

    def scale(self, n: int) -> int:
        """The simplex scale p_n = p_0 * ratio_0 * ... * ratio_{n-1}."""
        return self.base_scale * math.prod(m.ratio for m in self.matrices[:n])

    def product(self, n: int, depth: int) -> ManagedMatrix:
        """M_n * M_{n+1} * ... * M_{n+depth-1}."""
        if depth < 1:
            raise ValueError("product depth must be >= 1")
        if n < 0 or n + depth > len(self.matrices):
            raise ValueError(f"product range {n}..{n + depth} exceeds sequence length {len(self.matrices)}")
        return reduce(ManagedMatrix.mul, self.matrices[n:n + depth])

    def to_json(self):
        arr = [m.to_json() for m in self.matrices]
        if self.base_scale == 1:
            return arr
        return {"base_scale": self.base_scale, "matrices": arr}

    @staticmethod
    def from_json(data) -> "ManagedSequence":
        """Inverse of to_json: a list of matrices, or an object of exactly matrices
        (a list) and an optional int base_scale, else EncodingError."""
        base_scale = 1
        if isinstance(data, dict) and data.keys() - {"base_scale"} == {"matrices"}:
            data, base_scale = data["matrices"], data.get("base_scale", 1)
        if not (isinstance(data, list) and type(base_scale) is int):
            raise EncodingError("a sequence needs a list of matrices and optionally an int base_scale")
        return ManagedSequence([ManagedMatrix.from_json(m) for m in data], base_scale=base_scale)


def select_subsequence_lemma8(ms: ManagedSequence, bound) -> list[int]:
    """Greedy-minimal grouping boundaries n_0 = 0 < n_1 < ... for a managed sequence.

    Requires the growth hypothesis cols(M_n) <= bound * ratio(M_n) for every n.
    Each returned consecutive pair (n_i, n_{i+1}) satisfies: every entry of
    M_{n_i} * ... * M_{n_{i+1}-1} strictly exceeds the grouped column count.
    """
    for n, m in enumerate(ms.matrices):
        if m.cols > bound * m.ratio:
            raise HypothesisError(
                f"matrix {n} has {m.cols} columns but ratio {m.ratio}; "
                f"violates cols <= {bound} * ratio")
    boundaries = [0]
    while boundaries[-1] < len(ms):
        start = boundaries[-1]
        product = None
        for end in range(start + 1, len(ms) + 1):
            product = ms.matrices[end - 1] if product is None else product.mul(ms.matrices[end - 1])
            if product.min_entry > product.cols:
                boundaries.append(end)
                break
        else:
            if len(boundaries) == 1:
                raise SelectionExhaustedError("no admissible grouping boundary within the sequence")
            break  # certified prefix ends here; trailing matrices stay ungrouped
    return boundaries


def group_matrices(ms: ManagedSequence, boundaries: Sequence[int]) -> ManagedSequence:
    """Collapse a managed sequence along grouping boundaries by taking products."""
    bounds = list(boundaries)
    if bounds[:1] != [0] or bounds != sorted(set(bounds)) or bounds[-1] > len(ms):
        raise ValueError(f"boundaries must be increasing, start at 0 and stay within {len(ms)}")
    grouped = [ms.product(a, b - a) for a, b in zip(bounds, bounds[1:])]
    return ManagedSequence(grouped, base_scale=ms.base_scale)


def positivity_horizon(ms: ManagedSequence, n: int) -> int | None:
    """Least m >= n with M_n * ... * M_m strictly positive, or None in this prefix."""
    if not 0 <= n < len(ms):
        raise ValueError(f"level {n} outside sequence of length {len(ms)}")
    product = None
    for m in range(n, len(ms)):
        product = ms.matrices[m] if product is None else product.mul(ms.matrices[m])
        if product.is_strictly_positive():
            return m
    return None
