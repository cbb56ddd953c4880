"""The four benchmark workloads and their seeded inputs.

Each workload is one closed-loop pass in a single thread: it makes the calls
a user of `monotiles` would make, timing each through a `Recorder`, and
checks every certificate and oracle comparison it gets back.  The seed picks
only free content of fixed size (matrix choices, shifts, mutation cells);
no size depends on it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from monotiles import (
    BlockHierarchy,
    CylinderId,
    ManagedMatrix,
    Pattern,
    PipelineConfig,
    assignment_from_matrix,
    augment_matrix,
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
    realize_finite_simplex,
    return_times,
    run_pipeline,
    scan_occurrences,
    select_subsequence_lemma8,
    standard_generators,
    syndeticity_window,
    verify_c3,
)
from monotiles.pipeline import STAGES, heisenberg_targets

HERE = Path(__file__).resolve().parent

# realize: the criterion-8 chain.  Its level-1 blocks are 4 blocks of 5**2 cells.
REALIZE_TOL = Fraction(1, 1000)
REALIZE_LEVEL1 = (4, 25)

# verify: a ternary Z hierarchy of depth 6 (729 cells) plus a Pruefer-2
# hierarchy grouped at step 2 to depth 4 (256 cells).  Depth 7 (2,187 cells)
# takes ~10 s a pass, too few passes per run to keep the median steady.
VERIFY_DEPTH = 6
PRUEFER_STEP = ManagedMatrix([[1, 1, 1], [2, 2, 1], [1, 1, 2]])

# ladders: Z^2 to depth 5, Pruefer-2 to depth 12, Heisenberg targets(3).
# Z^2 depth 6 and targets(4) would make a pass ~7 s instead of ~3 s.
Z2_DEPTH = 5
PRUEFER_DEPTH = 12
HEISENBERG_TARGETS = 3

# pipeline: the base-5 lattice config stops at depth 7 (a 0.78 MB ladder.json);
# realize already covers depth 8, and a depth-8 config triples the pass.
PIPELINE_CONFIGS = {
    "lattice5": {
        "ladder": {"route": "lattice", "depth": 7, "base": 5},
        "k0": 4,
        "matrices": {"realize": {"extreme_points": 3, "tolerance": "1/200"}},
        "hierarchy_depth": 2,
        "analysis": {"pairs": [[0, 1], [0, 2], [1, 2]], "kr": [[0, 2]],
                     "boundary_levels": list(range(8))},
    },
    "pruefer3": {"group": {"kind": "pruefer", "p": 3},
                 "ladder": {"route": "pruefer", "depth": 8}},
    "abelian": {"group": {"kind": "direct_product",
                          "factors": [{"kind": "lattice", "d": 1}, {"kind": "cyclic", "n": 3}]},
                "ladder": {"route": "abelian", "depth": 6}},
    "default": {},
}
ARTIFACTS = ("ladder.json", "matrices.json", "hier.json", "report.json")


def ternary_matrices() -> list[ManagedMatrix]:
    """3x3 managed matrices with row 1 all ones and column sums 3 that build.

    Each column is (1, a, 2 - a).  The assignment for a = 0 or a = 2 has a
    single arrangement over the three cosets and a = 1 has two, so distinct
    assignment rows exist exactly when a = 0 and a = 2 each occur at most
    once and a = 1 at most twice.
    """
    out = []
    for cols in itertools.product(range(3), repeat=3):
        if cols.count(0) <= 1 and cols.count(2) <= 1 and cols.count(1) <= 2:
            out.append(ManagedMatrix([[1, 1, 1], list(cols), [2 - a for a in cols]]))
    return out


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "realize":
        blocks, cells = REALIZE_LEVEL1
        return {"mutation": (rng.randrange(blocks), rng.randrange(cells))}
    if workload == "verify":
        choices = ternary_matrices()
        half = (3**VERIFY_DEPTH - 1) // 2
        offset = rng.choice([p for p in range(-half, half + 1) if p != 0])
        return {"matrices": [rng.choice(choices) for _ in range(VERIFY_DEPTH)],
                "mutation": (offset,)}
    if workload == "ladders":
        shift = (rng.randint(-40, 40), rng.randint(1, 40))
        k = rng.randint(1, PRUEFER_DEPTH)
        return {"z2_shift": shift,
                "pruefer_shift": Fraction(2 * rng.randrange(2 ** (k - 1)) + 1, 2**k),
                "targets": heisenberg_targets(HEISENBERG_TARGETS)}
    if workload == "pipeline":
        with open(HERE / "digests.json") as fh:
            digests = json.load(fh)
        return {"configs": PIPELINE_CONFIGS, "digests": digests}
    raise ValueError(f"unknown workload {workload!r}")


def realize(rec, inp: dict, scratch: Path) -> dict:
    call, check = rec.call, rec.check
    ladder = call("folner.build", build_lattice_ladder, 1, 8, 5)
    result = call("simplex.realize", realize_finite_simplex, 3, ladder, REALIZE_TOL)
    check("realize.diameters", all(d <= REALIZE_TOL for d in result.diameters))
    seq = result.sequence
    boundaries = call("matrices.select", select_subsequence_lemma8, seq, 2)
    check("realize.boundaries", boundaries == [0, 2, 4, 6, 8])
    grouped = call("matrices.select", group_matrices, seq, boundaries)
    augmented = [call("matrices.select", augment_matrix, grouped[i]) for i in range(len(grouped))]
    tiled = call("folner.build", group_ladder, ladder, boundaries)
    check("realize.congruent", call("folner.check_congruent", check_congruent, tiled).ok)
    for n, m in enumerate(augmented):
        assignment = call("blocks.assignment", assignment_from_matrix, m, tiled.glue[n])
        check(f"realize.assignment[{n}]", assignment.block_count == m.cols)
    h = call("blocks.build_hierarchy", build_hierarchy, tiled, augmented)
    for n in range(h.depth):
        recount = call("simplex.incidence", incidence_from_hierarchy, h, n)
        check(f"realize.incidence[{n}]", recount == augmented[n])
    for d in range(1, len(seq)):
        check(f"realize.nesting[{d}]", call("simplex.nesting", check_nesting, seq, 0, d).ok)

    # negative control: one flipped symbol in a level-1 block must change the recount
    k, cell = inp["mutation"]
    block = h.family(1)[k]
    symbols = list(block.symbols)
    symbols[cell] = symbols[cell] % len(h.family(0)) + 1
    families = [list(f) for f in h.families]
    families[1][k] = Pattern(block.support, symbols)
    mutated = BlockHierarchy(h.ladder, families, h.assignments)
    try:
        detected = call("simplex.incidence", incidence_from_hierarchy, mutated, 0) != augmented[0]
    except ValueError:
        detected = True
    check("realize.mutation_detected", detected)
    return {}


def _verify_hierarchy(rec, tag: str, h: BlockHierarchy) -> None:
    call, check = rec.call, rec.check
    top = h.depth
    for level in range(top + 1):
        check(f"{tag}.c3[{level}]", call("blocks.verify_c3", verify_c3, h.family(level)).ok)
    for n, m in [(n, n + 1) for n in range(top)] + [(0, top)]:
        algebraic = call("analysis.return_times", return_times, h, n, m)
        scanned = call("analysis.scan", scan_occurrences, h, n, m)
        ratio = len(h.ladder.levels[m]) // len(h.ladder.levels[n])
        check(f"{tag}.return_times({n},{m})",
              scanned.elements == algebraic.elements and len(algebraic) == ratio)
    for n in (0, 1):
        check(f"{tag}.partitions({n},{top})", call("analysis.partitions", check_partitions, h, n, top).ok)
    syn = call("analysis.syndeticity", syndeticity_window, h, CylinderId(0, 1), top)
    check(f"{tag}.syndeticity", syn.ok)


def verify(rec, inp: dict, scratch: Path) -> dict:
    call, check = rec.call, rec.check
    ladder = call("folner.build", build_lattice_ladder, 1, VERIFY_DEPTH)
    h = call("blocks.build_hierarchy", build_hierarchy, ladder, inp["matrices"])
    _verify_hierarchy(rec, "z", h)

    # negative control: one flipped interior symbol of the top patch must fail
    patch = h.x0_patch(h.depth)
    symbols = list(patch.symbols)
    cell = patch.support.elements.index(inp["mutation"])
    symbols[cell] = symbols[cell] % len(h.family(0)) + 1
    report = call("analysis.partitions", check_partitions, h, 0, h.depth,
                  Pattern(patch.support, symbols))
    check("z.mutation_detected", not report.ok)

    pruefer = call("folner.build", build_pruefer_ladder, 2, 8)
    coarse = call("folner.build", group_ladder, pruefer, [0, 2, 4, 6, 8])
    hp = call("blocks.build_hierarchy", build_hierarchy, coarse, [PRUEFER_STEP] * 4)
    _verify_hierarchy(rec, "pruefer", hp)
    return {}


def _box_defect(F, g) -> Fraction:
    """Closed form of |Fg \\ F| / |F| for a centered square box F in Z^2."""
    side = math.isqrt(len(F))
    inside = 1
    for a in g:
        inside *= max(0, side - abs(a))
    return 1 - Fraction(inside, side * side)


def _subgroup_defect(F, g) -> Fraction:
    """A finite subgroup F moves off itself entirely unless g lies in it."""
    return Fraction(0 if g in F else 1)


def _check_ladder(rec, tag: str, ladder, shift=None, oracle=None) -> None:
    call, check = rec.call, rec.check
    check(f"{tag}.congruent", call("folner.check_congruent", check_congruent, ladder).ok)
    gens = standard_generators(ladder.ctx) + ([shift] if shift is not None else [])
    for g in gens:
        defects = [call("folner.defect", folner_defect, F, g) for F in ladder.levels]
        check(f"{tag}.defect_decay{g}", all(a >= b for a, b in zip(defects, defects[1:])))
        if oracle is not None:
            check(f"{tag}.defect_oracle{g}", defects == [oracle(F, g) for F in ladder.levels])


def ladders(rec, inp: dict, scratch: Path) -> dict:
    call = rec.call
    z2 = call("folner.build", build_lattice_ladder, 2, Z2_DEPTH)
    _check_ladder(rec, "z2", z2, inp["z2_shift"], _box_defect)
    pruefer = call("folner.build", build_pruefer_ladder, 2, PRUEFER_DEPTH)
    _check_ladder(rec, "pruefer2", pruefer, inp["pruefer_shift"], _subgroup_defect)
    heisenberg = call("folner.heisenberg", build_heisenberg_ladder, inp["targets"])
    _check_ladder(rec, "heisenberg", heisenberg)
    return {}


def pipeline(rec, inp: dict, scratch: Path) -> dict:
    stage_s = dict.fromkeys(STAGES, 0.0)
    artifact_bytes = 0
    wait_s = 0.0
    for name, data in inp["configs"].items():
        config = rec.call("pipeline.config", PipelineConfig.from_json, data)
        with tempfile.TemporaryDirectory(dir=scratch) as out:
            wall, cpu = time.monotonic(), time.process_time()
            report = rec.call("pipeline.run", run_pipeline, config, out)
            wait_s += (time.monotonic() - wall) - (time.process_time() - cpu)
            rec.check(f"pipeline.{name}.ok", report.ok)
            for stage, seconds in report.timings.items():
                stage_s[stage] += seconds
            for artifact in ARTIFACTS:
                blob = (Path(out) / artifact).read_bytes()
                artifact_bytes += len(blob)
                digest = hashlib.sha256(blob).hexdigest()
                rec.check(f"pipeline.{name}.{artifact}", digest == inp["digests"][name][artifact])
    layer = {f"pipeline.stage.{stage}_s": s for stage, s in stage_s.items()}
    layer["pipeline.artifact_bytes"] = artifact_bytes
    layer["pipeline.wait_s"] = wait_s
    return layer


WORKLOADS = {"realize": realize, "verify": verify, "ladders": ladders, "pipeline": pipeline}
