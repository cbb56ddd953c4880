"""n-ary `product_set` against the product loops it replaced, and the cell budget.

`iterated_glue` and the glue steps of `compose_exact_sequence` each ran their
own product loop; both now call `product_set(A, *factors)`, which checks its
size against `MAX_CELLS` before it multiplies and always requires distinct
products.  The references below are the previous loops.  On random lattice,
Pruefer and composed Heisenberg ladders they must agree with the new code,
the n-ary product must equal the pairwise chain, and a planted collision must
raise `NotCosetRepsError`.
"""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from monotiles import (
    Cyclic,
    FiniteSubset,
    FolnerLadder,
    Heisenberg,
    Lattice,
    build_abelian_chain_ladder,
    build_lattice_ladder,
    build_pruefer_ladder,
    compose_exact_sequence,
    iterated_glue,
)
from monotiles import folner, groups
from monotiles.errors import InfeasibleError, InvarianceUnreachableError, NotCosetRepsError
from monotiles.groups import product_set
from test_defect_oracles import _heisenberg_parts as heisenberg_parts, heisenberg_elements
from test_tiling import PROPERTY


def reference_iterated_glue(ladder, n, m):
    """The previous loop: all products c_{m-1} * ... * c_n, left to right."""
    mul = ladder.ctx.mul
    acc = [ladder.ctx.identity()]
    for i in range(m - 1, n - 1, -1):
        acc = [mul(a, c) for a in acc for c in ladder.glue[i]]
    unique = set(acc)
    if len(unique) != len(acc):
        raise NotCosetRepsError(f"glue products between levels {n} and {m} collide")
    return FiniteSubset(ladder.ctx, unique)


def reference_compose_step(sub, quot, section, m_prev, m_s, q_prev, q_s):
    """The previous glue step of the composition: C * (lifted digits q_s-1 .. q_prev)."""
    ctx = sub.ctx
    mul = ctx.mul
    lifted_digits = [[section(d) for d in J] for J in quot.glue]
    digit_products = [ctx.identity()]
    for i in range(q_s - 1, q_prev - 1, -1):
        digit_products = [mul(e, d) for e in digit_products for d in lifted_digits[i]]
    C = reference_iterated_glue(sub, m_prev, m_s)
    step = {mul(c, e) for c in C for e in digit_products}
    if len(step) != len(C) * len(digit_products):
        raise NotCosetRepsError("composed glue digits collide")
    return FiniteSubset(ctx, step)


@st.composite
def ladders(draw):
    """A small lattice, Pruefer or composed Heisenberg ladder; a composition
    comes with its parts, or None when its random targets are unreachable."""
    kind = draw(st.sampled_from(["lattice", "pruefer", "heisenberg"]))
    if kind == "lattice":
        return build_lattice_ladder(draw(st.integers(1, 2)), draw(st.integers(0, 3)),
                                    draw(st.sampled_from([3, 5]))), None
    if kind == "pruefer":
        return build_pruefer_ladder(draw(st.sampled_from([2, 3, 5])), draw(st.integers(0, 4))), None
    parts = heisenberg_parts(draw(st.integers(3, 5)), 2)
    targets = [(FiniteSubset(Heisenberg(), draw(st.sets(heisenberg_elements, min_size=1, max_size=3))),
                draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(7, 8)])))
               for _ in range(draw(st.integers(1, 3)))]
    try:
        return compose_exact_sequence(*parts, targets), parts
    except InvarianceUnreachableError:
        return None, None


@settings(PROPERTY, max_examples=40)
@given(drawn=ladders())
def test_iterated_glue_equals_the_previous_loop(drawn):
    ladder, _ = drawn
    if ladder is None:
        return
    for n in range(ladder.depth + 1):
        for m in range(n, ladder.depth + 1):
            assert iterated_glue(ladder, n, m) == reference_iterated_glue(ladder, n, m)


@settings(PROPERTY, max_examples=40)
@given(drawn=ladders())
def test_composed_glue_equals_the_previous_step_loop(drawn):
    ladder, parts = drawn
    if parts is None:
        return
    sub, quot, section, _ = parts
    m, q = ladder.info["m_indices"], ladder.info["q_indices"]
    for s, J in enumerate(ladder.glue):
        assert J == reference_compose_step(sub, quot, section, m[s], m[s + 1], q[s], q[s + 1])


@settings(PROPERTY, max_examples=40)
@given(drawn=ladders(), data=st.data())
def test_n_ary_product_equals_the_pairwise_chain(drawn, data):
    ladder, _ = drawn
    if ladder is None or ladder.depth == 0:
        return
    small = [F for F in ladder.glue + ladder.levels[:2] if len(F) <= 30]  # 3 factors stay in the budget
    factors = data.draw(st.lists(st.sampled_from(small), min_size=1, max_size=3))
    try:
        pairwise = reduce(product_set, factors)
    except NotCosetRepsError:
        with pytest.raises(NotCosetRepsError):
            product_set(*factors)
        return
    assert product_set(*factors) == pairwise


@settings(PROPERTY, max_examples=40)
@given(drawn=ladders(), data=st.data())
def test_planted_collision_raises(drawn, data):
    ladder, _ = drawn
    glue = [J for J in (ladder.glue if ladder is not None else ()) if 1 < len(J) <= 30]
    if not glue:
        return
    # J holds the identity e and some c != e, so e * c = c * e in J * J
    J = data.draw(st.sampled_from(glue))
    others = data.draw(st.lists(st.sampled_from(glue), max_size=2))
    with pytest.raises(NotCosetRepsError):
        product_set(*others, J, J)
    doubled = FolnerLadder(ladder.ctx, [ladder.levels[0]] * 3, [J, J])
    with pytest.raises(NotCosetRepsError):
        reference_iterated_glue(doubled, 0, 2)
    with pytest.raises(NotCosetRepsError):
        iterated_glue(doubled, 0, 2)


def test_product_set_checks_the_budget_before_multiplying(monkeypatch):
    ctx = Lattice(1)
    calls = []
    ctx.mul = lambda g, h: calls.append(1) or Lattice.mul(ctx, g, h)
    A = FiniteSubset(ctx, [(0,), (1,)])
    B = FiniteSubset(ctx, [(0,), (2,), (4,), (6,)])
    monkeypatch.setattr(groups, "MAX_CELLS", 8)
    assert len(product_set(A, B)) == 8
    calls.clear()
    with pytest.raises(InfeasibleError, match="24 cells"):
        product_set(A, B, FiniteSubset(ctx, [(0,), (8,), (16,)]))
    assert calls == []


def test_builders_check_the_budget_before_allocating(monkeypatch):
    with pytest.raises(InfeasibleError, match=r"3\*\*24 cells"):
        build_lattice_ladder(3, 8)
    with pytest.raises(InfeasibleError):
        build_pruefer_ladder(2, 10**9)  # rejected without building 2**(10**9)
    monkeypatch.setattr(folner, "MAX_CELLS", 27)
    assert len(build_lattice_ladder(1, 3).levels[-1]) == 27
    assert len(build_pruefer_ladder(3, 3).levels[-1]) == 27
    with pytest.raises(InfeasibleError):
        build_lattice_ladder(1, 4)
    with pytest.raises(InfeasibleError):
        build_pruefer_ladder(3, 4)


def test_stalled_abelian_chain_checks_the_budget_before_building(monkeypatch):
    # past its last generator a chain with finite quotients repeats its last level
    def no_products(self, g, h):  # building would take about 20 minutes and tens of GB
        raise AssertionError("a level was built before the budget check")

    with monkeypatch.context() as patch:
        patch.setattr(Cyclic, "mul", no_products)
        with pytest.raises(InfeasibleError, match="300000001 cells"):
            build_abelian_chain_ladder(Cyclic(3), [1], 10**8)
    monkeypatch.setattr(folner, "MAX_CELLS", 13)  # 1 + 3 cells, then three copies of 3
    assert len(build_abelian_chain_ladder(Cyclic(3), [1], 4).levels) == 5
    with pytest.raises(InfeasibleError, match="16 cells"):
        build_abelian_chain_ladder(Cyclic(3), [1], 5)
    with pytest.raises(InfeasibleError):
        build_abelian_chain_ladder(Cyclic(3), [], 13)
    # no copies: 1 + 3 + 6 + 12 cells, which only the per-level budget bounds
    assert len(build_abelian_chain_ladder(Cyclic(12), [4, 2, 1], 3).levels[-1]) == 12
    # an infinite quotient keeps growing, so its levels are no copies
    assert len(build_abelian_chain_ladder(Lattice(1), [(1,)], 3).levels[-1]) == 27


def test_composition_stops_at_the_budget(monkeypatch):
    # a central shift passes the quotient filter at q = 0 and needs 3**5 = 243 central cells
    targets = [(FiniteSubset(Heisenberg(), [(0, 0, 1)]), Fraction(1, 100))]
    assert len(compose_exact_sequence(*heisenberg_parts(8, 2), targets).levels[-1]) == 243
    monkeypatch.setattr(groups, "MAX_CELLS", 100)
    with pytest.raises(InfeasibleError, match="243 cells"):
        compose_exact_sequence(*heisenberg_parts(8, 2), targets)
