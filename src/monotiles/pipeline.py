"""Deterministic end-to-end pipeline: group to ladder to hierarchy to simplex.

A single JSON config drives six sequential stages; every artifact written is
byte-identical across runs of the same config.  Timings are kept on the run
report object for console display but never serialized into artifacts.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from ._frozen import frozen
from ._text import write_json
from .analysis import (CylinderId, boundary_mass_bound, check_partitions, return_times, scan_occurrences,
                       syndeticity_window)
from .blocks import augment_matrix, build_hierarchy, verify_c3
from .compose import CENTER_DEPTH, build_heisenberg_ladder
from .errors import ConfigError, MonotileError
from .folner import (FolnerLadder, build_abelian_chain_ladder, build_lattice_ladder, build_pruefer_ladder,
                     check_congruent, folner_defect, group_ladder)
from .groups import FiniteSubset, Heisenberg, context_from_descriptor
from .matrices import ManagedSequence, group_matrices, select_subsequence_lemma8
from .simplex import check_nesting, incidence_from_hierarchy, realize_finite_simplex, tail_cluster_diameters

__all__ = [
    "STAGES", "DEFAULT_CONFIG", "PipelineConfig", "StageResult", "RunReport", "heisenberg_targets",
    "run_pipeline",
]

STAGES = (
    "build-ladder",
    "check-congruence",
    "build-matrices",
    "build-hierarchy",
    "verify-dynamics",
    "measure-limits",
)

DEFAULT_CONFIG = {
    "group": {"kind": "lattice", "d": 1},
    "ladder": {"route": "lattice", "depth": 5, "base": 3},
    "k0": 3,
    "matrices": {"realize": {"extreme_points": 2, "tolerance": "1/100"}},
    "lemma8_bound": "2",
    "hierarchy_depth": 2,
    "analysis": {
        "pairs": [[0, 1], [0, 2], [1, 2]],
        "kr": [[0, 2]],
        "boundary_levels": [0, 1, 2],
    },
    "artifacts": {
        "ladder": "ladder.json",
        "matrices": "matrices.json",
        "hierarchy": "hier.json",
        "report": "report.json",
    },
}


# route -> (the group kind it builds on, None for any abelian kind;
#           the keys its ladder section may carry besides "route" and "depth")
_ROUTES = {"lattice": ("lattice", {"base"}), "pruefer": ("pruefer", set()),
           "abelian": (None, {"generators"}), "heisenberg": ("heisenberg3", {"eps_start", "eps_step"})}


def _known_keys(section: str, data, allowed) -> dict:
    """Return data, raising ConfigError unless it is an object with only allowed keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be an object, got {data!r}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {section} key(s): {', '.join(map(repr, unknown))}")
    return data


def _int_at_least(name: str, value, low: int) -> int:
    """Return value, raising ConfigError unless it is an int (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{name} must be an int >= {low}, got {value!r}")
    return value


def _fraction(name: str, value) -> Fraction:
    """Return value as a Fraction, raising ConfigError unless it is a rational
    string or an int (not a bool): a JSON float is a binary fraction."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ConfigError(f"{name} must be a rational string or an int, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad {name} {value!r}: {e}")


def _positive(name: str, value) -> Fraction:
    """_fraction(name, value), raising ConfigError unless it is positive."""
    x = _fraction(name, value)
    if x <= 0:
        raise ConfigError(f"{name} must be positive")
    return x


def _file_name(name: str, value) -> str:
    if not (isinstance(value, str) and value):
        raise ConfigError(f"{name} must be a non-empty file name, got {value!r}")
    return value


def heisenberg_targets(depth: int, start=Fraction(1, 2), step=Fraction(2, 3)):
    """Default invariance targets for the composed ladder: a two-direction
    window with geometrically tightening tolerances."""
    ctx = Heisenberg()
    window = FiniteSubset(ctx, [(1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)])
    return [(window, Fraction(start) * Fraction(step) ** i) for i in range(depth)]


def _ladder_plan(ctx, section) -> tuple:
    """Check a ladder section against the group context ctx: its route and
    keys, that the route builds on ctx's kind, the depth and the route's own
    values.  Return (builder, args, depth); builder(*args) is the ladder."""
    route = section.get("route") if isinstance(section, dict) else None
    if route not in _ROUTES:
        raise ConfigError(f"unknown ladder route {route!r}")
    kind, keys = _ROUTES[route]
    _known_keys(f"{route} ladder", section, {"route", "depth", *keys})
    if kind not in (None, ctx.kind):
        raise ConfigError(f"{route} route needs a {kind} group, got {ctx.kind}")
    depth = _int_at_least("ladder depth", section.get("depth"), 1)
    if route == "lattice":
        base = _int_at_least("lattice base", section.get("base", 3), 3)
        return build_lattice_ladder, (ctx.d, depth, base), depth
    if route == "pruefer":
        return build_pruefer_ladder, (ctx.p, depth), depth
    if route == "heisenberg":
        if depth > CENTER_DEPTH:  # checked before heisenberg_targets, whose cost grows with the depth
            raise ConfigError(f"heisenberg ladder depth must be at most {CENTER_DEPTH}, got {depth}")
        start = _positive("heisenberg eps_start", section.get("eps_start", "1/2"))
        step = _positive("heisenberg eps_step", section.get("eps_step", "2/3"))
        return build_heisenberg_ladder, (heisenberg_targets(depth, start, step),), depth
    gens = section.get("generators", [])
    if not isinstance(gens, list):
        raise ConfigError(f"abelian generators must be a list, got {gens!r}")
    try:
        ctx.coordinates(ctx.identity())  # the chain needs an abelian kind, as its builder checks
        gens = [ctx.decode_json(g) for g in gens] if "generators" in section else ctx.generators()
    except ValueError as e:
        raise ConfigError(f"abelian route: {e}")
    return build_abelian_chain_ladder, (ctx, gens, depth), depth


@frozen
class PipelineConfig:
    """Validated pipeline parameters; see DEFAULT_CONFIG for the file shape."""

    plan: tuple  # (builder, args, depth) from _ladder_plan; builder(*args) is the ladder
    realize: tuple | None  # (extreme_points, tolerance), or None under matrices.file
    matrices_file: str | None
    lemma8_bound: Fraction
    hierarchy_depth: int
    analysis: dict  # pairs, kr and boundary_levels, each a list
    artifacts: dict
    base_dir: Path

    @staticmethod
    def from_json(data: dict, base_dir: Path | str = ".") -> "PipelineConfig":
        merged = {**DEFAULT_CONFIG, **_known_keys("config", data, DEFAULT_CONFIG)}
        try:
            ctx = context_from_descriptor(merged["group"])
        except ValueError as e:
            raise ConfigError(f"bad group descriptor: {e}")
        _, _, depth = plan = _ladder_plan(ctx, merged["ladder"])
        k0 = _int_at_least("k0", merged["k0"], 3)
        if k0 > 255:
            raise ConfigError(f"k0 must be at most 255, since block symbols are bytes, got {k0}")
        matrices = _known_keys("matrices", merged["matrices"], {"realize", "file"})
        if ("realize" in matrices) == ("file" in matrices):
            raise ConfigError("matrix source must be exactly one of 'realize' or 'file'")
        realize = matrices_file = None
        if "realize" in matrices:
            section = _known_keys("realize", matrices["realize"], {"extreme_points", "tolerance"})
            d = _int_at_least("extreme_points", section.get("extreme_points"), 2)
            if k0 != d + 1:
                raise ConfigError(f"k0 = {k0} must equal extreme_points + 1 = {d + 1} "
                                  "(augmentation adds one block)")
            realize = (d, _positive("realize tolerance", section.get("tolerance")))
        else:
            matrices_file = _file_name("matrices file", matrices["file"])
        bound = _fraction("lemma8 bound", merged["lemma8_bound"])
        hierarchy_depth = _int_at_least("hierarchy depth", merged["hierarchy_depth"], 1)
        section = _known_keys("analysis", merged["analysis"], {"pairs", "kr", "boundary_levels"})
        analysis = {key: section.get(key, []) for key in ("pairs", "kr", "boundary_levels")}
        for key, values in analysis.items():
            if not isinstance(values, list):
                raise ConfigError(f"analysis {key} must be a list")
        for key in ("pairs", "kr"):
            for pair in analysis[key]:
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                    raise ConfigError(f"analysis {key} entries must be [n, m] pairs")
                n = _int_at_least(f"analysis {key} level n", pair[0], 0)
                m = _int_at_least(f"analysis {key} level m", pair[1], n + 1)
                if m > hierarchy_depth:
                    raise ConfigError(
                        f"analysis level {m} exceeds hierarchy depth {hierarchy_depth}")
        for lvl in analysis["boundary_levels"]:
            if _int_at_least("boundary level", lvl, 0) > depth:
                raise ConfigError(f"boundary level {lvl!r} outside ladder depth {depth}")
        artifacts = {**DEFAULT_CONFIG["artifacts"],
                     **_known_keys("artifacts", merged["artifacts"], DEFAULT_CONFIG["artifacts"])}
        for key, name in artifacts.items():
            _file_name(f"{key} artifact", name)
        return PipelineConfig(plan, realize, matrices_file, bound, hierarchy_depth, analysis, artifacts,
                              Path(base_dir))

    @staticmethod
    def load(path: Path | str) -> "PipelineConfig":
        path = Path(path)
        with open(path) as fh:
            data = json.load(fh)
        return PipelineConfig.from_json(data, path.parent)


@frozen
class StageResult:
    name: str
    ok: bool
    detail: dict
    witness: str | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "ok": self.ok, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class RunReport:
    """Stage outcomes plus artifact paths; timings stay off the artifact."""

    def __init__(self):
        self.stages, self.artifacts, self.timings = [], {}, {}

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.stages)

    def artifact_json(self) -> dict:
        return {"ok": self.ok,
                "stages": [s.to_json() for s in self.stages],
                "artifacts": self.artifacts}


class _StageFailed(Exception):
    def __init__(self, witness: str, detail: dict | None = None):
        super().__init__(witness)
        self.witness = witness
        self.detail = detail or {}


def _defect_table(ladder: FolnerLadder, elements) -> dict:
    """Per element (keyed by its JSON encoding), the Folner defect of every level."""
    return {json.dumps(ladder.ctx.encode_json(g)): [str(folner_defect(F, g)) for F in ladder.levels]
            for g in elements}


def _stages(config: PipelineConfig, emit):
    """The six stages in STAGES order: each yields its detail dict or raises,
    and locals carry the ladder, the sequence and the hierarchy onward."""
    # build-ladder
    builder, args, _ = config.plan
    ladder = builder(*args)
    emit("ladder", ladder._artifact())
    yield {"levels": [len(F) for F in ladder.levels],
           "ratios": [ladder.ratio(n) for n in range(ladder.depth)]}

    # check-congruence
    result = check_congruent(ladder)
    if not result.ok:
        raise _StageFailed(f"congruence fails at level {result.detail['level']}: {result.reason}",
                           result.to_json())
    yield {"congruent": True, "defects": _defect_table(ladder, ladder.ctx.generators())}

    # build-matrices
    detail: dict = {}
    if config.realize:
        extreme_points, tol = config.realize
        realized = realize_finite_simplex(extreme_points, ladder, tol)
        seq = realized.sequence
        detail["realized_depth"] = realized.depth
        detail["cluster_diameters"] = [str(x) for x in realized.diameters]
    else:
        with open(config.base_dir / config.matrices_file) as fh:
            seq = ManagedSequence.from_json(json.load(fh))
    if len(seq) < 1:
        raise _StageFailed("matrix sequence is empty")
    emit("matrices", seq.to_json())
    detail["matrices"] = len(seq)
    detail["ratios"] = [seq[i].ratio for i in range(len(seq))]
    yield detail

    # build-hierarchy
    boundaries = select_subsequence_lemma8(seq, config.lemma8_bound)
    if len(boundaries) - 1 < config.hierarchy_depth:
        raise _StageFailed(
            f"grouping yields {len(boundaries) - 1} usable levels, "
            f"need {config.hierarchy_depth}", {"boundaries": boundaries})
    boundaries = boundaries[:config.hierarchy_depth + 1]
    grouped = group_matrices(seq, boundaries)
    augmented = [augment_matrix(grouped[i]) for i in range(len(grouped))]
    tiled = group_ladder(ladder, boundaries)
    h = build_hierarchy(tiled, augmented)
    emit("hierarchy", h._artifact())
    yield {"boundaries": boundaries,
           "block_counts": [len(f) for f in h.families],
           "window_sizes": [len(F) for F in tiled.levels[:len(h.families)]]}

    # verify-dynamics
    detail = {"c3_levels": [], "pairs": [], "kr": []}
    for lvl in range(h.depth + 1):
        r = verify_c3(h.family(lvl))
        if not r.ok:
            raise _StageFailed(f"overlap rigidity fails at level {lvl}", r.to_json())
        detail["c3_levels"].append(lvl)
    for n, m in config.analysis["pairs"]:
        algebraic = return_times(h, n, m)
        scanned = scan_occurrences(h, n, m)
        size_ratio = len(h.ladder.levels[m]) // len(h.ladder.levels[n])
        if scanned.elements != algebraic.elements or len(algebraic) != size_ratio:
            raise _StageFailed(f"return-time oracles disagree at ({n}, {m})")
        detail["pairs"].append({"levels": [n, m], "count": len(algebraic)})
    for n, m in config.analysis["kr"]:
        r = check_partitions(h, n, m)
        if not r.ok:
            raise _StageFailed(f"tower partition fails at ({n}, {m}): {r.reason}", r.to_json())
        detail["kr"].append(r.to_json())
    if h.depth >= 2:
        syn = syndeticity_window(h, CylinderId(0, 1), h.depth)
        if not syn.ok:
            raise _StageFailed(f"syndeticity window fails: {syn.reason}", syn.to_json())
        detail["syndeticity"] = syn.to_json()
    lvls = config.analysis["boundary_levels"]
    detail["boundary_mass"] = {json.dumps(ladder.ctx.encode_json(g)):
                               [str(boundary_mass_bound(ladder, g, n)) for n in lvls] for g in ladder.ctx.generators()}
    yield detail

    # measure-limits
    detail = {}
    for n in range(h.depth):
        recounted = incidence_from_hierarchy(h, n)
        if recounted != augmented[n]:
            raise _StageFailed(f"incidence round-trip fails at level {n}",
                               {"expected": augmented[n].to_json(),
                                "got": recounted.to_json()})
    detail["round_trip_levels"] = h.depth
    certificates = []
    for d in range(1, len(seq)):
        cert = check_nesting(seq, 0, d)
        if not cert.ok:
            raise _StageFailed(f"nesting certificate fails at depth {d}", cert.to_json())
        certificates.append({"depth": d, "method": cert.detail["method"]})
    detail["nesting"] = certificates
    if config.realize:
        diams = tail_cluster_diameters(seq, 0, len(seq))
        if any(x > tol for x in diams):
            raise _StageFailed("cluster diameters exceed tolerance",
                               {"diameters": [str(x) for x in diams]})
        detail["cluster_diameters"] = [str(x) for x in diams]
        detail["tolerance"] = str(tol)
    yield detail


def run_pipeline(config: PipelineConfig, out_dir: Path | str = ".",
                 verbose: bool = False) -> RunReport:
    """Run all six stages, writing artifacts as they are produced; verbose
    prints one line per stage, with its time, on standard error."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = RunReport()

    def emit(name: str, data) -> None:
        fname = config.artifacts[name]
        write_json(data, out / fname)
        report.artifacts[name] = fname

    stages = _stages(config, emit)
    failed = False
    for name in STAGES:
        if failed:
            report.stages.append(StageResult(name, False, {"skipped": True},
                                             "skipped: earlier stage failed"))
            continue
        started = time.perf_counter()
        try:
            report.stages.append(StageResult(name, True, next(stages)))
        except _StageFailed as e:
            report.stages.append(StageResult(name, False, e.detail, e.witness))
            failed = True
        except (MonotileError, ValueError, OSError, KeyError, RecursionError) as e:
            report.stages.append(StageResult(name, False, {},
                                             f"{type(e).__name__}: {e}"))
            failed = True
        report.timings[name] = time.perf_counter() - started
        if verbose:
            status = "ok" if report.stages[-1].ok else "FAIL"
            print(f"[{name}] {status} ({report.timings[name]:.2f}s)", file=sys.stderr)

    report.artifacts["report"] = config.artifacts["report"]
    emit("report", report.artifact_json())
    return report
