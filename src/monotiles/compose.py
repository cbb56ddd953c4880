"""Congruent ladders composed along a central exact sequence: central
subgroup windows times the section-lifted tile tower of a quotient ladder."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Sequence

from . import _boxes
from .errors import InfeasibleError, InvarianceUnreachableError
from .folner import FolnerLadder, build_lattice_ladder, iterated_glue, right_invariance_defect
from .groups import MAX_CELLS, FiniteSubset, Heisenberg, product_set

__all__ = ["compose_exact_sequence", "build_heisenberg_ladder"]


def compose_exact_sequence(
    ladder_sub: FolnerLadder,
    ladder_quot: FolnerLadder,
    section: Callable,
    projection: Callable,
    targets: Sequence[tuple[FiniteSubset, Fraction]],
) -> FolnerLadder:
    """Compose subgroup and quotient ladders through a section of G -> Q.

    Level s is U_{m_s} * That_{q_s}, where That is the section-lifted tile
    tower of the quotient ladder.  Indices are chosen adaptively: q_s is the
    least index (not below q_{s-1}) whose quotient tile passes the projected
    defect filter at eps_s / 2, and m_s the least index above m_{s-1} whose
    composed level meets the full (K_s, eps_s) target.  The quotient index
    may stall; the subgroup index strictly increases.

    The section, the tower's projection and the commutation of the subgroup
    windows with every lift are checked up front, on every level.  The tower
    is checked as a stream: the projections of level q's products must hit
    each cell of F_q once, else the level is rebuilt by product_set and
    compared as sets.  The search builds a tower when it first scores it.  A
    Heisenberg candidate whose U_m is one central run is scored from its fibre
    runs (`_score_candidate`); others go through product_set.  Chosen levels
    are made once every target is met.
    """
    ctx, q_ctx = ladder_sub.ctx, ladder_quot.ctx
    ident = ctx.identity()
    if section(q_ctx.identity()) != ident:
        raise ValueError("section must send the quotient identity to the group identity")
    for q in ladder_quot.levels[-1]._cells():  # made afresh, so no quotient level keeps cells
        if projection(section(q)) != q:
            raise ValueError(f"projection(section({q!r})) != {q!r}: not a section")

    # lifted tile tower over the quotient ladder
    lifted = [FiniteSubset(ctx, (section(d) for d in J)) for J in ladder_quot.glue]
    one = FiniteSubset(ctx, [ident])
    tower = functools.cache(lambda q: product_set(lifted[q - 1], tower(q - 1)) if q else one)
    products, failed = [ident], []
    for q, (q_level, digits) in enumerate(zip(ladder_quot.levels, [[ident], *lifted])):
        if (size := math.prod(map(len, lifted[:q]))) > MAX_CELLS:
            raise InfeasibleError(f"product set would hold {size} cells, over the budget of {MAX_CELLS}")
        products = itertools.starmap(ctx.mul, itertools.product(digits, products))
        products = list(products) if q < ladder_quot.depth else products  # the top's are counted, not kept
        hits, rank = bytearray(len(q_level)), _boxes.rank(q_level)
        for r in map(rank, map(projection, products)):
            if r is None or hits[r]:
                break
            hits[r] = 1
        if size != len(q_level) or 0 in hits:
            failed.append((q_level, tower(q)))  # product_set raises NotCosetRepsError on a collision
    if any({projection(g) for g in t} != set(F._cells()) for F, t in failed):
        raise ValueError("lifted tower does not project onto the quotient tiles")

    # commutation certificate: subgroup windows must commute with every lift
    sub_elems = set(itertools.chain(ladder_sub.levels[0]._cells(), *ladder_sub.glue))
    lift_elems = {d for digits in lifted for d in digits}
    for u, t in itertools.product(sub_elems, lift_elems):
        if ctx.mul(u, t) != ctx.mul(t, u):
            raise ValueError(f"subgroup element {u!r} does not commute with lift {t!r}; "
                             "composition needs a central subgroup")

    m_prev, q_prev, chosen = 0, 0, []
    for s, (K, eps) in enumerate(targets, start=1):
        if K.ctx != ctx:
            raise ValueError("invariance target lives in the wrong group")
        projected = FiniteSubset(q_ctx, {projection(k) for k in K})
        best = found = None
        for q in range(q_prev, ladder_quot.depth + 1):
            if right_invariance_defect(ladder_quot.levels[q], projected) > eps / 2:
                continue
            for m in range(m_prev + 1, ladder_sub.depth + 1):
                defect, level = _score_candidate(ladder_sub.levels[m], tower(q), K)
                best = defect if best is None else min(best, defect)
                if defect <= eps:
                    found = (m, q, defect, level)
                    break
            if found:
                break
        if not found:
            raise InvarianceUnreachableError(
                f"no indices meet target {s} (eps = {eps}) within the given ladders", achieved=best)
        chosen.append(found)
        m_prev, q_prev = found[:2]

    # every target is met: only now build the chosen levels and their glue
    m_indices, q_indices = [0, *(c[0] for c in chosen)], [0, *(c[1] for c in chosen)]
    levels = [ladder_sub.levels[0], *(FiniteSubset._from_shape(ctx, c[3]) if isinstance(c[3], _boxes.Fibres)
                                      else c[3] for c in chosen)]
    glue = [product_set(iterated_glue(ladder_sub, m, m_s), *lifted[q:q_s][::-1])
            for m, m_s, q, q_s in zip(m_indices, m_indices[1:], q_indices, q_indices[1:])]
    info = {"m_indices": m_indices, "q_indices": q_indices, "achieved_defects": [str(c[2]) for c in chosen]}
    return FolnerLadder(ctx, levels, glue, info)


def _score_candidate(U: FiniteSubset, tower: FiniteSubset, K: FiniteSubset):
    """(defect, level) of the candidate U * tower against K.

    When U is one central Heisenberg run (0, 0, lo..hi), (0, 0, z) * (a, b, c)
    = (a, b, c + z) makes each tower cell one fibre of the level, in the
    tower's order, if the tower's plane points are distinct.  The level is
    then scored from those `Fibres` and comes back as that shape, to be made
    a subset only if chosen; else it is built by product_set."""
    shape = U._shape
    if isinstance(shape, _boxes.Fibres) and shape.runs.keys() == {(0, 0)}:
        _, lo, hi = shape.runs[0, 0]
        run = hi - lo + 1
        if (size := len(tower) * run) > MAX_CELLS:
            raise InfeasibleError(f"product set would hold {size} cells, over the budget of {MAX_CELLS}")
        fibres = {(a, b): (i * run, c + lo, c + hi) for i, (a, b, c) in enumerate(tower.elements)}
        if len(fibres) == len(tower):
            level = _boxes.Fibres(fibres)
            return 1 - Fraction(level.kept(K.elements, U.ctx.mul), size), level
    level = product_set(U, tower)
    return right_invariance_defect(level, K), level


# Depth of heisenberg3's central Z ladder: each target takes a strictly deeper level of it.
CENTER_DEPTH = 10


def build_heisenberg_ladder(targets: Sequence[tuple[FiniteSubset, Fraction]]) -> FolnerLadder:
    """Compose the central Z ladder (depth CENTER_DEPTH) with the shortest prefix
    of heisenberg3's Z^2 quotient ladder (depth 5) that meets the targets.  A
    prefix's search visits the whole plane's (q, m) pairs in the same order and
    stops only where q would leave it, so it returns the whole plane's ladder."""
    ctx, targets = Heisenberg(), list(targets)  # each prefix searches the targets afresh
    # the central levels (0, 0, -h..h), h = (3**n - 1) / 2, and digits {k * 3**n}: valid by construction
    center = FolnerLadder(
        ctx,
        [FiniteSubset._from_shape(ctx, _boxes.Fibres({(0, 0): (0, (1 - 3**n) // 2, (3**n - 1) // 2)}))
         for n in range(CENTER_DEPTH + 1)],
        [FiniteSubset._trusted(ctx, [(0, 0, -(3**n)), (0, 0, 0), (0, 0, 3**n)]) for n in range(CENTER_DEPTH)])
    plane = build_lattice_ladder(2, 5)
    for depth in range(1, plane.depth + 1):
        prefix = FolnerLadder(plane.ctx, plane.levels[:depth + 1], plane.glue[:depth])
        try:
            return compose_exact_sequence(center, prefix, section=lambda q: (q[0], q[1], 0),
                                          projection=lambda g: (g[0], g[1]), targets=targets)
        except InvarianceUnreachableError:
            if depth == plane.depth:
                raise
