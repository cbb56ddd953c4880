"""Exact integer/rational linear algebra for subgroup membership."""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, x, y) with g = gcd(a, b) = x*a + y*b, g >= 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class ZModule:
    """The Z-span of integer vectors, kept as an echelon basis."""

    def __init__(self, dim: int, vectors=()):
        self.dim = dim
        self._basis: dict[int, list[int]] = {}  # pivot index -> vector
        for v in vectors:
            self.add(v)

    def add(self, vector) -> None:
        v = [int(x) for x in vector]
        if len(v) != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {len(v)}")
        while True:
            piv = next((i for i, x in enumerate(v) if x), None)
            if piv is None:
                return
            if piv not in self._basis:
                if v[piv] < 0:
                    v = [-x for x in v]
                self._basis[piv] = v
                return
            b = self._basis[piv]
            g, x, y = _xgcd(b[piv], v[piv])
            fb, fv = b[piv] // g, v[piv] // g
            merged = [x * bb + y * vv for bb, vv in zip(b, v)]
            v = [fb * vv - fv * bb for bb, vv in zip(b, v)]
            self._basis[piv] = merged

    def basis(self) -> list[list[int]]:
        return [self._basis[p] for p in sorted(self._basis)]

    def rational_coords(self, vector) -> list[Fraction] | None:
        """Coordinates of vector over the basis in Q, or None if outside the Q-span."""
        v = [Fraction(x) for x in vector]
        coords = []
        for piv in sorted(self._basis):
            b = self._basis[piv]
            q = v[piv] / b[piv]
            coords.append(q)
            v = [x - q * bx for x, bx in zip(v, b)]
        if any(v):
            return None
        return coords

    def minimal_multiple(self, vector) -> int | None:
        """Least k >= 1 with k*vector in the module, or None if no such k."""
        coords = self.rational_coords(vector)
        if coords is None:
            return None
        return lcm(*(c.denominator for c in coords))
