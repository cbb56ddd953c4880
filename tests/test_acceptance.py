"""Acceptance gate: nine end-to-end checks with exact arithmetic and budgets.

Each test prints one summary line (visible with -s); times are wall-clock
and asserted against the stated budget where one applies.
"""

import random
import time
from fractions import Fraction

from monotiles import (
    ManagedMatrix,
    ManagedSequence,
    Pattern,
    SimplexPoint,
    assignment_from_matrix,
    augment_matrix,
    boundary_mass_bound,
    build_heisenberg_ladder,
    build_hierarchy,
    build_lattice_ladder,
    build_pruefer_ladder,
    check_congruent,
    check_nesting,
    check_partitions,
    folner_defect,
    group_ladder,
    group_matrices,
    incidence_from_hierarchy,
    push,
    realize_finite_simplex,
    return_times,
    scan_occurrences,
    select_subsequence_lemma8,
    standard_generators,
    tail_cluster_diameters,
    verify_c3,
)
from monotiles.cli import main
from monotiles.pipeline import heisenberg_targets

TERNARY = ManagedMatrix([[1, 1, 1], [2, 1, 1], [0, 1, 1]])
PRUEFER_STEP = ManagedMatrix([[1, 1, 1], [2, 2, 1], [1, 1, 2]])
CONST = ManagedMatrix([[2, 1], [1, 2]])

_cache: dict = {}


def _ladders() -> dict:
    """The four congruence-suite ladders, built once per session."""
    if "ladders" not in _cache:
        _cache["ladders"] = {
            "lattice1": build_lattice_ladder(1, 6),
            "lattice2": build_lattice_ladder(2, 4),
            "pruefer2": build_pruefer_ladder(2, 8),
            "heisenberg": build_heisenberg_ladder(heisenberg_targets(3)),
        }
    return _cache["ladders"]


def _lattice_hierarchy():
    if "lattice_hierarchy" not in _cache:
        ladder = build_lattice_ladder(1, 3)
        _cache["lattice_hierarchy"] = build_hierarchy(ladder, [TERNARY] * 3)
    return _cache["lattice_hierarchy"]


def _pruefer_hierarchy():
    if "pruefer_hierarchy" not in _cache:
        coarse = group_ladder(build_pruefer_ladder(2, 8), [0, 2, 4, 6, 8])
        _cache["pruefer_hierarchy"] = build_hierarchy(coarse, [PRUEFER_STEP] * 4)
    return _cache["pruefer_hierarchy"]


def _line(num: int, label: str, started: float) -> None:
    print(f"criterion {num} ({label}): PASS in {time.perf_counter() - started:.2f}s")


def test_criterion_1_congruence_suite():
    started = time.perf_counter()
    for name, ladder in _ladders().items():
        report = check_congruent(ladder)
        assert report.ok, f"{name}: {report.reason} at level {report.detail['level']}"
    heis = _ladders()["heisenberg"]
    assert heis.depth == 3
    assert [len(F) for F in heis.levels] == [1, 729, 19683, 59049]
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _line(1, "congruence suite", started)


def test_criterion_2_folner_defect_decay():
    started = time.perf_counter()
    for name, ladder in _ladders().items():
        for g in standard_generators(ladder.ctx):
            defects = [folner_defect(F, g) for F in ladder.levels]
            assert all(a >= b for a, b in zip(defects, defects[1:])), (name, g, defects)
    top = _ladders()["lattice1"].levels[-1]
    for g in standard_generators(_ladders()["lattice1"].ctx):
        assert folner_defect(top, g) <= Fraction(1, 9)
    _line(2, "defect decay", started)


def test_criterion_3_overlap_rigidity_brute_force():
    started = time.perf_counter()
    h = _lattice_hierarchy()
    for level in range(h.depth + 1):
        report = verify_c3(h.family(level))
        assert report.ok, f"level {level}: witness {report.witness}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    _line(3, "overlap rigidity", started)


def test_criterion_3_overlap_rigidity_at_depth_8():
    h = build_hierarchy(build_lattice_ladder(1, 8), [TERNARY] * 8)
    assert len(h.ladder.levels[8]) == 6561
    started = time.perf_counter()
    for level in range(h.depth + 1):
        report = verify_c3(h.family(level))
        assert report.ok, f"level {level}: witness {report.witness}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    _line(3, "overlap rigidity at 6,561 cells", started)


def test_criterion_4_oracle_equivalence():
    started = time.perf_counter()
    for h in (_lattice_hierarchy(), _pruefer_hierarchy()):
        for n in range(3):
            for m in range(n + 1, 4):
                algebraic = return_times(h, n, m)
                scanned = scan_occurrences(h, n, m)
                assert scanned.elements == algebraic.elements, (n, m)
                ratio = len(h.ladder.levels[m]) // len(h.ladder.levels[n])
                assert len(algebraic) == ratio, (n, m)
    _line(4, "oracle equivalence", started)


def test_criterion_5_tower_partitions_and_mutation():
    started = time.perf_counter()
    h = _lattice_hierarchy()
    for n in (0, 1):
        for m in (2, 3):
            report = check_partitions(h, n, m)
            assert report.ok, f"({n}, {m}): {report.reason}"
    patch = h.x0_patch(3)
    symbols = list(patch.symbols)
    spot = patch.support.elements.index((5,))  # interior cell away from the identity
    symbols[spot] = symbols[spot] % 3 + 1
    mutated = check_partitions(h, 0, 3, patch=Pattern(patch.support, symbols))
    assert not mutated.ok
    _line(5, "tower partitions", started)


def test_criterion_6_boundary_mass():
    started = time.perf_counter()
    lattice = build_lattice_ladder(1, 3)
    for n in range(4):
        assert boundary_mass_bound(lattice, (1,), n) == Fraction(1, 3 ** n)
    assert boundary_mass_bound(lattice, (1,), 3) <= Fraction(1, 27)
    pruefer = build_pruefer_ladder(2, 8)
    for n in range(pruefer.depth + 1):
        for g in pruefer.levels[n]:
            assert boundary_mass_bound(pruefer, g, n) == 0
    _line(6, "boundary mass", started)


def test_criterion_7_managed_limit_suite():
    started = time.perf_counter()
    rng = random.Random(20240817)
    for _ in range(1000):
        scale = 3 * rng.randrange(1, 50)
        a, b = rng.randrange(0, 1000), rng.randrange(1, 1000)
        total = a + b
        z = SimplexPoint((Fraction(a, total * scale), Fraction(b, total * scale)), scale)
        out = push(CONST, z)
        assert out.scale * CONST.ratio == z.scale
        assert sum(out.coordinates) == Fraction(1, out.scale)
    ms = ManagedSequence([CONST] * 7)
    diameters = []
    for depth in range(1, 7):
        cert = check_nesting(ms, 0, depth)
        assert cert.ok, f"depth {depth}: {cert.witness}"
        diameters.append(max(tail_cluster_diameters(ms, 0, depth)))
    assert all(a > b for a, b in zip(diameters, diameters[1:]))
    boundaries = select_subsequence_lemma8(ms, 2)
    assert boundaries == [0, 2, 4, 6]
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    _line(7, "managed limits", started)


def test_criterion_8_realization_round_trip():
    started = time.perf_counter()
    ladder = build_lattice_ladder(1, 8, base=5)
    result = realize_finite_simplex(3, ladder, Fraction(1, 1000))
    assert all(d <= Fraction(1, 1000) for d in result.diameters)
    seq = result.sequence
    boundaries = select_subsequence_lemma8(seq, 2)
    assert boundaries == [0, 2, 4, 6, 8]
    grouped = group_matrices(seq, boundaries)
    augmented = [augment_matrix(grouped[i]) for i in range(len(grouped))]
    tiled = group_ladder(ladder, boundaries)
    assert check_congruent(tiled).ok
    for n, m in enumerate(augmented):
        assignment = assignment_from_matrix(m, tiled.glue[n])
        assert assignment.block_count == m.cols
    h = build_hierarchy(tiled, augmented)
    for n in range(h.depth):
        assert incidence_from_hierarchy(h, n) == augmented[n]
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _line(8, "realization round-trip", started)


def test_criterion_9_pipeline_determinism(tmp_path, capsys):
    started = time.perf_counter()
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["--out", str(first), "pipeline", "run"]) == 0
    assert main(["--out", str(second), "pipeline", "run"]) == 0
    capsys.readouterr()
    names = ("ladder.json", "matrices.json", "hier.json", "report.json")
    for name in names:
        a, b = (first / name).read_bytes(), (second / name).read_bytes()
        assert a == b, f"{name} differs between runs"
        assert a.endswith(b"\n")
    _line(9, "pipeline determinism", started)
