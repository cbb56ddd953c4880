"""Construction and verification of congruent right Folner ladders.

A ladder is a finite prefix (F_0, ..., F_N) of a right Folner sequence
together with glue sets J_n such that {c * F_n : c in J_n} partitions
F_{n+1}.  All verification is exact; defects are Fractions.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence

from . import _boxes, _text
from ._frozen import frozen
from ._intlin import ZModule
from .errors import EncodingError, InfeasibleError, NotCosetRepsError
from .groups import (MAX_CELLS, Certificate, FiniteSubset, GroupContext, Lattice, Pruefer, context_from_descriptor,
                     product_set)

__all__ = [
    "FolnerLadder", "right_invariance_defect", "folner_defect", "check_congruent", "iterated_glue",
    "build_lattice_ladder", "build_pruefer_ladder", "build_abelian_chain_ladder", "extend_virtually",
    "group_ladder",
]


@frozen
class FolnerLadder:
    """A finite congruent-ladder prefix: levels F_n and glue sets J_n.  Its
    `info` (a dict or None) is no field, so equality and hash leave it out."""

    ctx: GroupContext
    levels: tuple[FiniteSubset, ...]
    glue: tuple[FiniteSubset, ...]

    def __init__(self, ctx, levels, glue, info=None):
        levels = tuple(levels)
        glue = tuple(glue)
        if not levels:
            raise ValueError("a ladder needs at least one level")
        if len(glue) != len(levels) - 1:
            raise ValueError(f"{len(levels)} levels need {len(levels) - 1} glue sets, got {len(glue)}")
        if any(s.ctx != ctx for s in itertools.chain(levels, glue)):
            raise ValueError("ladder parts built over a different group context")
        self.__dict__.update(ctx=ctx, levels=levels, glue=glue, info=info, _tilings={})

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def _step(self, n: int) -> None:
        if not 0 <= n < self.depth:
            raise ValueError(f"need 0 <= n < {self.depth}, got n={n}")

    def ratio(self, n: int) -> int:
        """Index ratio |F_{n+1}| / |F_n| (exact; raises if non-integral)."""
        self._step(n)
        size_next, size = len(self.levels[n + 1]), len(self.levels[n])
        if size_next % size:
            raise ValueError(f"|F_{n + 1}| = {size_next} is not a multiple of |F_{n}| = {size}")
        return size_next // size

    def tiling(self, n: int) -> "list[list[range]] | Certificate":
        """Where F_{n+1} = J_n * F_n puts each translate, or its first violation.

        runs[j] lists the ranges of canonical indices in F_{n+1} of J_n[j] * F_n,
        in F_n order, as `_boxes.runs` places them.  A digit that escapes F_{n+1}
        or meets an earlier digit's runs is walked with one product per cell,
        which names the first offending cell.  An escape, an overlap or an
        uncovered cell comes back as a failed Certificate."""
        self._step(n)
        if n in self._tilings:
            return self._tilings[n]
        glue, lower, upper = self.glue[n], self.levels[n], self.levels[n + 1]
        mul, place = self.ctx.mul, _boxes.runs(lower, upper)
        hit = bytearray(len(upper))
        runs = []
        for c in glue:
            spans = place(c)
            if spans is not None and not any(1 in hit[s.start:s.stop:s.step] for s in spans):
                for s in spans:
                    hit[s.start:s.stop:s.step] = b"\x01" * len(s)
                runs.append(spans)
                continue
            where = _boxes.rank(upper)
            for f in lower:
                q = where(x := mul(c, f))
                if q is None:
                    return Certificate.fail(self.ctx, "translate-escapes-next-level", (c, f, x), level=n)
                if hit[q]:
                    prev = next(d for d, spans in zip(glue, runs) if any(q in s for s in spans))
                    return Certificate.fail(self.ctx, "translates-overlap", (prev, c, x), level=n)
        if 0 in hit:
            return Certificate.fail(self.ctx, "next-level-not-covered", (upper.elements[hit.index(0)],), level=n)
        self._tilings[n] = runs
        return runs

    def _artifact(self) -> dict:
        """The ladder's JSON layout, its levels and glue left as subsets:
        `write_json` writes those piece by piece from their shapes."""
        data = {"group": self.ctx.descriptor(), "levels": self.levels, "glue": self.glue}
        return data if self.info is None else {**data, "info": self.info}

    def to_json(self) -> dict:
        """The ladder as JSON: `_artifact` with each subset encoded."""
        return _text.encoded(self._artifact())

    @staticmethod
    def from_json(data: dict) -> "FolnerLadder":
        """Inverse of to_json: exactly group, levels and glue (lists of element
        lists) and an optional info, else EncodingError.  A level whose rows are
        exactly the text of a box, fibred window or subgroup loads into
        that shape (`_text.from_rows`), making no cell."""
        if not (isinstance(data, dict) and data.keys() - {"info"} == {"group", "levels", "glue"}):
            raise EncodingError("a ladder needs exactly the keys group, levels, glue and optionally info")
        if not all(isinstance(part, list) and all(isinstance(s, list) for s in part)
                   for part in (data["levels"], data["glue"])):
            raise EncodingError("ladder levels and glue must be lists of element lists")
        ctx = context_from_descriptor(data["group"])
        levels = [_text.from_rows(ctx, lv) for lv in data["levels"]]
        glue = [FiniteSubset(ctx, (ctx.decode_json(e) for e in j)) for j in data["glue"]]
        return FolnerLadder(ctx, levels, glue, data.get("info"))


def _tiled(ladder: FolnerLadder, n: int) -> list[list[range]]:
    """ladder.tiling(n) for a step that must tile: NotCosetRepsError on a
    failed certificate."""
    runs = ladder.tiling(n)
    if isinstance(runs, Certificate):
        raise NotCosetRepsError(f"glue {n} does not tile level {n + 1}: {runs.reason}")
    return runs


def right_invariance_defect(F: FiniteSubset, K: FiniteSubset) -> Fraction:
    """1 - |{g in F : gK subset of F}| / |F|, exactly (by the `kept` of F's
    shape, else one product per cell and k)."""
    if len(F) == 0:
        raise ValueError("invariance defect of the empty window is undefined")
    if F.ctx != K.ctx:
        raise ValueError("window and test set live in different groups")
    if shape := F._shape:
        return 1 - Fraction(shape.kept(K.elements, F.ctx.mul), len(F))
    # a set local to the call: the cached F.as_set would stay on F for its lifetime
    mul, cells, good = F.ctx.mul, set(F.elements), F.elements
    for k in K:
        good = [f for f in good if mul(f, k) in cells]
        if not good:
            break
    return 1 - Fraction(len(good), len(F))


def folner_defect(F: FiniteSubset, g) -> Fraction:
    """|Fg \\ F| / |F| for one group element g: the share of f in F with fg
    outside F, which is the invariance defect of {g}."""
    if len(F) == 0:
        raise ValueError("Folner defect of the empty window is undefined")
    F.ctx.validate(g)
    return right_invariance_defect(F, FiniteSubset._trusted(F.ctx, [g]))


def check_congruent(ladder: FolnerLadder) -> Certificate:
    """Verify the congruent-ladder axioms exactly, reporting the first failure
    and its level in detail["level"]."""
    ident = ladder.ctx.identity()
    if ident not in ladder.levels[0]:
        return Certificate.fail(ladder.ctx, "identity-missing-in-F0", (ident,), level=0)
    for n, J in enumerate(ladder.glue):
        if ident not in J:
            return Certificate.fail(ladder.ctx, "identity-missing-in-glue", (ident,), level=n)
        tiling = ladder.tiling(n)
        if isinstance(tiling, Certificate):
            return tiling
    return Certificate(True)


def iterated_glue(ladder: FolnerLadder, n: int, m: int) -> FiniteSubset:
    """All products c_{m-1} * ... * c_n of glue digits; tiles F_m by F_n-translates."""
    if not 0 <= n <= m <= ladder.depth:
        raise ValueError(f"need 0 <= n <= m <= {ladder.depth}, got n={n}, m={m}")
    return product_set(FiniteSubset._trusted(ladder.ctx, [ladder.ctx.identity()]), *ladder.glue[n:m][::-1])


# ---------------------------------------------------------------------------
# builders


def _check_budget(base: int, exponent: int) -> None:
    """Raise InfeasibleError before a top level of base**exponent cells over
    MAX_CELLS is built.  For base >= 2 an exponent of MAX_CELLS.bit_length()
    or more always exceeds it, so a huge depth never builds the power."""
    if exponent >= MAX_CELLS.bit_length() or base**exponent > MAX_CELLS:
        raise InfeasibleError(f"top level would hold {base}**{exponent} cells, over the budget of {MAX_CELLS}")


def build_lattice_ladder(d: int, depth: int, base: int = 3) -> FolnerLadder:
    """Centered base**n boxes in Z^d with digit glue {k * base**n}^d."""
    if d < 1:
        raise ValueError("lattice rank must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if type(base) is not int or base < 3 or base % 2 == 0:
        raise ValueError("box base must be an odd integer >= 3")
    ctx = Lattice(d)
    _check_budget(base, depth * d)
    digits = range(-(base // 2), base // 2 + 1)
    glue = [FiniteSubset._trusted(ctx, itertools.product([k * base**n for k in digits], repeat=d))
            for n in range(depth)]
    levels = [FiniteSubset._from_shape(ctx, _boxes.Box((-r,) * d, (r,) * d))
              for r in ((base**n - 1) // 2 for n in range(depth + 1))]
    return FolnerLadder(ctx, levels, glue)


def build_pruefer_ladder(p: int, depth: int) -> FolnerLadder:
    """Subgroup windows {m / p**n} of the Pruefer p-group."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ctx = Pruefer(p)
    _check_budget(p, depth)
    levels = [FiniteSubset._from_shape(ctx, _boxes.Subgroup(p**n)) for n in range(depth + 1)]
    glue = [FiniteSubset._trusted(ctx, (Fraction(j, p ** (n + 1)) for j in range(p))) for n in range(depth)]
    return FolnerLadder(ctx, levels, glue)


def _quotient_order(ctx: GroupContext, subgroup: Sequence, g) -> int | None:
    """Order of g modulo the subgroup generated by `subgroup` in an abelian
    context: least k >= 1 with g^k inside, else None."""
    target = ctx.coordinates(g)
    module = [ctx.coordinates(h) for h in subgroup] + ctx.relations()
    # clear denominators jointly so the query becomes integral
    scale = math.lcm(*(x.denominator for vec in module + [target] for x in vec))
    zm = ZModule(len(target))
    for vec in module:
        zm.add([int(x * scale) for x in vec])
    return zm.minimal_multiple([int(x * scale) for x in target])


def build_abelian_chain_ladder(ctx: GroupContext, generators: Sequence, depth: int) -> FolnerLadder:
    """Congruent ladder for an abelian group presented by a generator chain.

    Follows the inductive cyclic-quotient scheme: each stage adjoins one
    generator, absorbing a finite quotient in a single glue step or opening
    a growing centered power window for an infinite quotient.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ident = ctx.identity()
    ctx.coordinates(ident)  # rejects non-abelian contexts up front
    mul, inv = ctx.mul, ctx.inv
    consumed = list(generators)[:depth]
    for g in consumed:
        ctx.validate(g)
    quotient_orders = [_quotient_order(ctx, consumed[:i], g) for i, g in enumerate(consumed)]
    if depth > len(consumed) and None not in quotient_orders:
        # every level past the last generator is a copy of it: bound the ladder's total cells
        sizes = list(itertools.accumulate(quotient_orders, operator.mul, initial=1))
        total = sum(sizes) + (depth - len(consumed)) * sizes[-1]
        if total > MAX_CELLS:
            raise InfeasibleError(f"a ladder of depth {depth} would hold {total} cells, "
                                  f"over the budget of {MAX_CELLS}")
    levels = [FiniteSubset(ctx, [ident])]
    glue = []
    jumps: list = []  # per infinite direction g, its next digit g^(3^w)
    for n in range(1, depth + 1):
        step_sets: list[list] = []
        for i, jump in enumerate(jumps):
            # ternary growth: window [-(3^w - 1)/2 .. +] gains one digit
            step_sets.append([inv(jump), ident, jump])
            jumps[i] = mul(mul(jump, jump), jump)
        if n <= len(consumed):
            g, order = consumed[n - 1], quotient_orders[n - 1]
            if order is None:
                step_sets.append([inv(g), ident, g])
                jumps.append(mul(mul(g, g), g))
            elif order > 1:
                step_sets.append(list(itertools.accumulate([g] * (order - 1), mul, initial=ident)))
        step = product_set(FiniteSubset(ctx, [ident]), *(FiniteSubset(ctx, part) for part in step_sets))
        glue.append(step)
        levels.append(product_set(step, levels[-1]))
    info = {"generators": [ctx.encode_json(g) for g in consumed], "quotient_orders": quotient_orders}
    return FolnerLadder(ctx, levels, glue, info)


def extend_virtually(base: FolnerLadder, coset_reps: FiniteSubset) -> FolnerLadder:
    """Ladder U_n * R for a finite-index extension with transversal R."""
    if coset_reps.ctx != base.ctx:
        raise ValueError("coset representatives live in a different group context")
    if base.ctx.identity() not in coset_reps:
        raise NotCosetRepsError("transversal must contain the identity")
    levels = [product_set(U, coset_reps) for U in base.levels]
    info = {"extension_reps": coset_reps.encode_json()}
    return FolnerLadder(base.ctx, levels, base.glue, info)


def group_ladder(ladder: FolnerLadder, boundaries: Sequence[int]) -> FolnerLadder:
    """Subsequence ladder along increasing level boundaries, with product glue."""
    bounds = list(boundaries)
    if len(bounds) < 1 or bounds != sorted(set(bounds)):
        raise ValueError(f"boundaries must be strictly increasing, got {bounds!r}")
    if bounds[0] < 0 or bounds[-1] > ladder.depth:
        raise ValueError(f"boundaries {bounds!r} leave the built range 0..{ladder.depth}")
    levels = [ladder.levels[b] for b in bounds]
    glue = [iterated_glue(ladder, a, b) for a, b in zip(bounds, bounds[1:])]
    return FolnerLadder(ladder.ctx, levels, glue, {"boundaries": bounds})
