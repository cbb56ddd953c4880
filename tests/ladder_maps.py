"""`map_ladder`: push a ladder through an injective homomorphism into another
group context.  The library builds no ladder this way; the tests use it to
embed a `Z` ladder in the centre of Heisenberg and compare the composition
built on it with the library's own centre ladder.
"""

from monotiles import FiniteSubset, FolnerLadder


def map_ladder(ladder, new_ctx, fn):
    """The ladder with every cell of its levels and glue replaced by fn(cell),
    validated in new_ctx; ValueError if fn is not multiplicative on a glue pair."""
    mul = new_ctx.mul
    for J in ladder.glue:
        for a in J:
            for b in J:
                if fn(ladder.ctx.mul(a, b)) != mul(fn(a), fn(b)):
                    raise ValueError(f"map is not multiplicative on glue pair ({a!r}, {b!r})")
    levels = [FiniteSubset(new_ctx, (fn(g) for g in F)) for F in ladder.levels]
    glue = [FiniteSubset(new_ctx, (fn(g) for g in J)) for J in ladder.glue]
    return FolnerLadder(new_ctx, levels, glue, ladder.info)
