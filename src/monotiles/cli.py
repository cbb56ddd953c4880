"""Command-line front door: folner, blocks, analyze, measures, pipeline."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import boundary_mass_bound, check_partitions, return_times, scan_occurrences
from .blocks import BlockHierarchy, build_hierarchy, render_pattern, verify_c3
from .errors import MonotileError
from .folner import FolnerLadder, check_congruent, right_invariance_defect
from .groups import FiniteSubset, context_from_descriptor
from .matrices import ManagedSequence, positivity_horizon, select_subsequence_lemma8
from .pipeline import (DEFAULT_CONFIG, PipelineConfig, _ROUTES, _defect_table, _fraction, _ladder_plan,
                       run_pipeline, write_json)
from .simplex import approximate_limit, check_nesting, realize_finite_simplex

__all__ = ["main", "render_pattern"]


def _print(data, fmt: str, text_fn=None) -> None:
    if fmt == "text" and text_fn is not None:
        print(text_fn(data))
    else:
        print(json.dumps(data, sort_keys=True, separators=(",", ": ")))


def _load(cls, path: str):
    """cls.from_json of the JSON file at path: a ladder, hierarchy or sequence."""
    with open(path) as fh:
        return cls.from_json(json.load(fh))


def _parse_levels(text: str, top: int) -> list[int]:
    """The levels of `--levels` (a range lo..hi with lo <= hi, or a comma list),
    each in 0..top; all of them when text is None."""
    if text is None:
        return list(range(top + 1))
    lo, dots, hi = text.partition("..")
    try:
        levels = [int(lo), int(hi)] if dots else [int(part) for part in text.split(",")]
    except ValueError:
        raise MonotileError(f"--levels must be a range like 0..4 or a comma list of ints, got {text!r}") from None
    if dots and levels[0] > levels[1]:
        raise MonotileError(f"--levels {text!r} names no level: a range lo..hi needs lo <= hi")
    if bad := [n for n in levels if not 0 <= n <= top]:  # a range's ends, before its levels are listed
        raise MonotileError(f"--levels: level {bad[0]} outside 0..{top}")
    return list(range(levels[0], levels[1] + 1)) if dots else levels


def _cmd_folner(args) -> int:
    if args.action == "build":
        ctx = context_from_descriptor(json.loads(args.group))
        route = args.route or next((r for r, (k, _) in _ROUTES.items() if k == ctx.kind), "abelian")
        for flag, key, value in (("--base", "base", args.base), ("--eps-schedule", "eps_start", args.eps_schedule)):
            if value is not None and key not in _ROUTES[route][1]:
                raise MonotileError(f"{flag} does not apply to the {route} route")
        section = {"route": route, "depth": args.depth}
        if args.base is not None:
            section["base"] = args.base
        if args.eps_schedule:
            mode, _, ratio = args.eps_schedule.partition(":")
            if mode != "geometric" or not ratio:
                raise MonotileError(f"unknown eps schedule {args.eps_schedule!r}")
            section["eps_start"] = section["eps_step"] = ratio
        builder, params, _ = _ladder_plan(ctx, section)
        ladder = builder(*params)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(ladder._artifact(), out / "ladder.json")
        _print({"written": str(out / "ladder.json"),
                "levels": [len(F) for F in ladder.levels]}, args.format)
        return 0
    if args.action == "check":
        ladder = _load(FolnerLadder, args.ladder)
        result = check_congruent(ladder)
        _print(result.to_json(), args.format,
               lambda d: "congruent" if d["ok"] else f"FAIL at level {d['level']}: {d['reason']}")
        return 0 if result.ok else 1
    # "defect": the only action left, as the subparser admits no other
    ladder = _load(FolnerLadder, args.ladder)
    encoded = json.loads(args.K)
    if not isinstance(encoded, list):
        raise MonotileError(f"--K must be a JSON list of element encodings, got {args.K}")
    elems = [ladder.ctx.decode_json(e) for e in encoded]
    window = FiniteSubset(ladder.ctx, elems)
    rows = [{"level": n, "window": window.encode_json(),
             "defect": str(right_invariance_defect(F, window))} for n, F in enumerate(ladder.levels)]
    _print({"window_defects": rows, "element_defects": _defect_table(ladder, elems)}, args.format)
    return 0


def _cmd_blocks(args) -> int:
    if args.action == "build":
        ladder = _load(FolnerLadder, args.ladder)
        seq = _load(ManagedSequence, args.matrices)
        depth = args.depth if args.depth is not None else len(seq)
        if not 1 <= depth <= len(seq):
            raise MonotileError(f"--depth must lie in 1..{len(seq)}, got {depth}")
        hierarchy = build_hierarchy(ladder, [seq[i] for i in range(depth)])
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(hierarchy._artifact(), out / "hier.json")
        _print({"written": str(out / "hier.json"),
                "block_counts": [len(f) for f in hierarchy.families]}, args.format)
        return 0
    if args.action == "verify-c3":
        hierarchy = _load(BlockHierarchy, args.hier)
        levels = [args.level] if args.level is not None else range(hierarchy.depth + 1)
        results = {str(lvl): verify_c3(hierarchy.family(lvl)).to_json() for lvl in levels}
        ok = all(r["ok"] for r in results.values())
        _print({"ok": ok, "levels": results}, args.format,
               lambda d: "rigid" if d["ok"] else "FAIL")
        return 0 if ok else 1
    # "x0": the only action left, as the subparser admits no other
    hierarchy = _load(BlockHierarchy, args.hier)
    patch = hierarchy.x0_patch(args.level)
    print(render_pattern(patch, args.render))
    return 0


def _cmd_analyze(args) -> int:
    if args.action == "returns":
        hierarchy = _load(BlockHierarchy, args.hier)
        algebraic = return_times(hierarchy, args.n, args.m)
        scanned = scan_occurrences(hierarchy, args.n, args.m)
        equal = algebraic.elements == scanned.elements
        expected = len(hierarchy.ladder.levels[args.m]) // len(hierarchy.ladder.levels[args.n])
        data = {"equal": equal, "count": len(algebraic), "expected": expected,
                "returns": algebraic.encode_json()}
        _print(data, args.format,
               lambda d: f"{d['count']} return times, oracles {'agree' if d['equal'] else 'DISAGREE'}")
        return 0 if equal and len(algebraic) == expected else 1
    if args.action == "kr":
        hierarchy = _load(BlockHierarchy, args.hier)
        report = check_partitions(hierarchy, args.n, args.m)
        _print(report.to_json(), args.format,
               lambda d: "partitions exact" if d["ok"] else f"FAIL: {d['reason']}")
        return 0 if report.ok else 1
    # "boundary": the only action left, as the subparser admits no other
    ladder = _load(FolnerLadder, args.ladder)
    g = ladder.ctx.decode_json(json.loads(args.g))
    levels = _parse_levels(args.levels, ladder.depth)
    rows = [{"level": n, "mass": str(boundary_mass_bound(ladder, g, n))} for n in levels]
    _print({"element": json.loads(args.g), "masses": rows}, args.format)
    return 0


def _cmd_measures(args) -> int:
    if args.action == "check":
        seq = _load(ManagedSequence, args.seq)
        data = {"ok": True, "matrices": len(seq),
                "ratios": [seq[i].ratio for i in range(len(seq))],
                "shapes": [[seq[i].rows, seq[i].cols] for i in range(len(seq))],
                "positivity_horizon": positivity_horizon(seq, 0)}
        _print(data, args.format,
               lambda d: f"{d['matrices']} managed matrices, ratios {d['ratios']}")
        return 0
    if args.action == "limit":
        seq = _load(ManagedSequence, args.seq)
        approx = approximate_limit(seq, args.n, args.d)
        nests = [check_nesting(seq, args.n, d) for d in range(1, min(args.d + 1, len(seq) - args.n))]
        certs = [{"depth": d, "ok": c.ok, "method": c.detail["method"]} for d, c in enumerate(nests, start=1)]
        ok = all(c.ok for c in nests)
        _print({"ok": ok, "approximant": approx.to_json(), "nesting": certs}, args.format)
        return 0 if ok else 1
    if args.action == "lemma8":
        seq = _load(ManagedSequence, args.seq)
        boundaries = select_subsequence_lemma8(seq, _fraction("lemma8 bound", args.K))
        _print({"boundaries": boundaries}, args.format)
        return 0
    # "realize": the only action left, as the subparser admits no other
    ladder = _load(FolnerLadder, args.ladder)
    result = realize_finite_simplex(args.d, ladder, _fraction("realize tolerance", args.tol))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(result.sequence.to_json(), out / "realized.json")
    _print({"written": str(out / "realized.json"), "depth": result.depth,
            "diameters": [str(x) for x in result.diameters]}, args.format)
    return 0


def _cmd_pipeline(args) -> int:
    if args.action == "default-config":
        print(json.dumps(DEFAULT_CONFIG, sort_keys=True, indent=2))
        return 0
    # "run": the only action left, as the subparser admits no other
    config = PipelineConfig.load(args.config) if args.config else PipelineConfig.from_json({})
    report = run_pipeline(config, args.out, verbose=args.verbose)
    _print(report.artifact_json(), args.format,
           lambda d: "\n".join(f"{s['name']}: {'ok' if s['ok'] else 'FAIL'}"
                               for s in d["stages"]))
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monotiles",
        description="Congruent Folner ladders, block hierarchies, and exact "
                    "invariant-measure simplex approximants.")
    parser.add_argument("--out", default=".", help="directory for written artifacts")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    folner = sub.add_parser("folner", help="build and verify congruent ladders")
    fsub = folner.add_subparsers(dest="action", required=True)
    fb = fsub.add_parser("build")
    fb.add_argument("--group", required=True, help='JSON descriptor, e.g. {"kind":"lattice","d":1}')
    fb.add_argument("--depth", type=int, required=True)
    fb.add_argument("--base", type=int, help="box base for the lattice route (default 3)")
    fb.add_argument("--route", choices=tuple(_ROUTES))
    fb.add_argument("--eps-schedule", help="invariance tolerances, e.g. geometric:1/2")
    fsub.add_parser("check").add_argument("ladder")
    fd = fsub.add_parser("defect")
    fd.add_argument("ladder")
    fd.add_argument("--K", required=True, help="JSON list of element encodings")

    blocks = sub.add_parser("blocks", help="build and verify block hierarchies")
    bsub = blocks.add_subparsers(dest="action", required=True)
    bb = bsub.add_parser("build")
    bb.add_argument("--ladder", required=True)
    bb.add_argument("--matrices", required=True)
    bb.add_argument("--depth", type=int)
    bv = bsub.add_parser("verify-c3")
    bv.add_argument("hier")
    bv.add_argument("--level", type=int)
    bx = bsub.add_parser("x0")
    bx.add_argument("hier")
    bx.add_argument("--level", type=int, required=True)
    bx.add_argument("--render", choices=("text", "json"), default="text")

    analyze = sub.add_parser("analyze", help="return times, partitions, boundary mass")
    asub = analyze.add_subparsers(dest="action", required=True)
    for action in ("returns", "kr"):
        an = asub.add_parser(action)
        an.add_argument("--hier", required=True)
        an.add_argument("-n", type=int, required=True)
        an.add_argument("-m", type=int, required=True)
    ab = asub.add_parser("boundary")
    ab.add_argument("--ladder", required=True)
    ab.add_argument("-g", required=True, help="JSON element encoding")
    ab.add_argument("--levels", help="level range like 0..4 or comma list")

    measures = sub.add_parser("measures", help="managed sequences and simplex limits")
    msub = measures.add_subparsers(dest="action", required=True)
    msub.add_parser("check").add_argument("seq")
    ml = msub.add_parser("limit")
    ml.add_argument("seq")
    ml.add_argument("-n", type=int, default=0)
    ml.add_argument("-d", type=int, required=True)
    m8 = msub.add_parser("lemma8")
    m8.add_argument("seq")
    m8.add_argument("--K", required=True, help="managed growth bound (rational)")
    mr = msub.add_parser("realize")
    mr.add_argument("--d", type=int, required=True, help="number of extreme points")
    mr.add_argument("--ladder", required=True)
    mr.add_argument("--tol", required=True, help="cluster diameter tolerance (rational)")

    pipe = sub.add_parser("pipeline", help="run the full build-and-verify pipeline")
    psub = pipe.add_subparsers(dest="action", required=True)
    psub.add_parser("run").add_argument("config", nargs="?", help="config file; omitted = shipped default")
    psub.add_parser("default-config")

    return parser


_HANDLERS = {
    "folner": _cmd_folner,
    "blocks": _cmd_blocks,
    "analyze": _cmd_analyze,
    "measures": _cmd_measures,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (MonotileError, ValueError, OSError, RecursionError) as e:  # deeply nested JSON recurses
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
