"""Command-line entry points: every subcommand, exit codes, and rendering."""

import json
import re

import pytest

from monotiles import (
    FolnerLadder,
    ManagedMatrix,
    ManagedSequence,
    Pattern,
    PipelineConfig,
    Pruefer,
    FiniteSubset,
    build_hierarchy,
    build_lattice_ladder,
    build_pruefer_ladder,
    context_from_descriptor,
    render_pattern,
)
from monotiles.cli import main
from monotiles.errors import ConfigError, EncodingError, RenderUnsupportedError, UnsupportedGroupError
from monotiles.pipeline import write_json

TERNARY = ManagedMatrix([[1, 1, 1], [2, 1, 1], [0, 1, 1]])


def _write(tmp_path, name, data):
    path = tmp_path / name
    write_json(data, path)
    return str(path)


def _ladder_file(tmp_path, depth=3):
    return _write(tmp_path, "ladder.json", build_lattice_ladder(1, depth).to_json())


def _matrices_file(tmp_path, count=3):
    return _write(tmp_path, "matrices.json", ManagedSequence([TERNARY] * count).to_json())


def _hier_file(tmp_path, depth=3):
    h = build_hierarchy(build_lattice_ladder(1, depth), [TERNARY] * depth)
    return _write(tmp_path, "hier.json", h.to_json())


def test_render_pattern_interval():
    ladder = build_lattice_ladder(1, 1)
    p = Pattern(ladder.levels[1], (2, 1, 2))
    assert render_pattern(p) == "2 1 2"
    as_json = json.loads(render_pattern(p, "json"))
    assert as_json["symbols"] == [2, 1, 2]


def test_render_pattern_box():
    ladder = build_lattice_ladder(2, 1)
    p = Pattern(ladder.levels[1], range(9))
    assert render_pattern(p) == "0 1 2\n3 4 5\n6 7 8"
    wide = FiniteSubset(ladder.ctx, [(x, y) for x in range(2) for y in range(3)])
    assert render_pattern(Pattern(wide, range(6))) == "0 1 2\n3 4 5"


def test_render_pattern_refuses_non_lattice():
    ladder = build_pruefer_ladder(2, 1)
    p = Pattern(ladder.levels[1], (1, 2))
    with pytest.raises(RenderUnsupportedError):
        render_pattern(p)


def test_render_pattern_refuses_gaps():
    ctx = build_lattice_ladder(1, 1).ctx
    p = Pattern(FiniteSubset(ctx, [(0,), (2,)]), (1, 2))
    with pytest.raises(RenderUnsupportedError):
        render_pattern(p)


def test_folner_build_and_check(tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["--out", str(out), "folner", "build",
                 "--group", '{"kind":"lattice","d":1}', "--depth", "3"]) == 0
    seen = json.loads(capsys.readouterr().out)
    assert seen["levels"] == [1, 3, 9, 27]
    assert main(["folner", "check", str(out / "ladder.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True


def test_folner_check_flags_broken_ladder(tmp_path, capsys):
    ladder = build_lattice_ladder(1, 2)
    data = ladder.to_json()
    data["glue"][0] = [[-1], [1]]  # identity digit removed
    path = _write(tmp_path, "broken.json", data)
    assert main(["folner", "check", path]) == 1
    assert json.loads(capsys.readouterr().out)["reason"] == "identity-missing-in-glue"


def test_folner_check_missing_file_exits_nonzero(tmp_path, capsys):
    assert main(["folner", "check", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_folner_build_pruefer_route(tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["--out", str(out), "folner", "build",
                 "--group", '{"kind":"pruefer","p":2}', "--depth", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["levels"] == [1, 2, 4, 8, 16]


def test_folner_defect_table(tmp_path, capsys):
    path = _ladder_file(tmp_path)
    assert main(["folner", "defect", path, "--K", "[[1]]"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["window_defects"][1]["defect"] == "1/3"
    assert out == (
        '{"element_defects": {"[1]": ["1","1/3","1/9","1/27"]},"window_defects": ['
        '{"defect": "1","level": 0,"window": [[1]]},{"defect": "1/3","level": 1,"window": [[1]]},'
        '{"defect": "1/9","level": 2,"window": [[1]]},{"defect": "1/27","level": 3,"window": [[1]]}]}\n')


def test_blocks_build_verify_and_render(tmp_path, capsys):
    ladder = _ladder_file(tmp_path)
    matrices = _matrices_file(tmp_path)
    out = tmp_path / "art"
    assert main(["--out", str(out), "blocks", "build",
                 "--ladder", ladder, "--matrices", matrices]) == 0
    capsys.readouterr()
    hier = str(out / "hier.json")
    assert main(["blocks", "verify-c3", hier]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert main(["blocks", "x0", hier, "--level", "1", "--render", "text"]) == 0
    assert capsys.readouterr().out.strip() == "2 1 2"


def test_blocks_build_honors_depth_cap(tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["--out", str(out), "blocks", "build", "--ladder", _ladder_file(tmp_path),
                 "--matrices", _matrices_file(tmp_path), "--depth", "2"]) == 0
    written = json.loads((out / "hier.json").read_text())
    assert len(written["families"]) == 3


def test_analyze_returns_and_kr(tmp_path, capsys):
    hier = _hier_file(tmp_path)
    assert main(["analyze", "returns", "--hier", hier, "-n", "0", "-m", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 9 and data["equal"] is True
    assert main(["analyze", "kr", "--hier", hier, "-n", "0", "-m", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_analyze_boundary(tmp_path, capsys):
    path = _ladder_file(tmp_path)
    assert main(["analyze", "boundary", "--ladder", path, "-g", "[1]",
                 "--levels", "0..3"]) == 0
    rows = json.loads(capsys.readouterr().out)["masses"]
    assert [r["mass"] for r in rows] == ["1", "1/3", "1/9", "1/27"]


def test_measures_check_limit_lemma8(tmp_path, capsys):
    seq = _write(tmp_path, "seq.json", ManagedSequence([ManagedMatrix([[2, 1], [1, 2]])] * 4).to_json())
    assert main(["measures", "check", seq]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ratios"] == [3, 3, 3, 3] and data["positivity_horizon"] == 0
    assert main(["measures", "limit", seq, "-n", "0", "-d", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True and len(data["nesting"]) == 3
    assert main(["measures", "lemma8", seq, "--K", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["boundaries"] == [0, 2, 4]


def test_measures_realize(tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["--out", str(out), "measures", "realize", "--d", "2",
                 "--ladder", _ladder_file(tmp_path, depth=5), "--tol", "1/100"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["depth"] == 5
    assert (out / "realized.json").exists()


def test_pipeline_default_config(capsys):
    assert main(["pipeline", "default-config"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["group"] == {"kind": "lattice", "d": 1}


def test_pipeline_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["--out", str(out), "pipeline", "run"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(stage["ok"] for stage in report["stages"])
    for name in ("ladder.json", "matrices.json", "hier.json", "report.json"):
        assert (out / name).exists()


LADDER_GROUPS = {
    "z": '{"kind":"lattice","d":1}',
    "pruefer": '{"kind":"pruefer","p":2}',
    "z_x_z3": '{"kind":"direct_product","factors":[{"kind":"lattice","d":1},{"kind":"cyclic","n":3}]}',
    "rationals": '{"kind":"rationals"}',
}

BAD_GROUPS = [
    '{"kind":"lattice"}',
    '{"kind":"direct_product","factors":5}',
    '{"kind":"finite_extension","base":{"kind":"lattice","d":1},"ambient":{"kind":"lattice","d":1},'
    '"embed":5,"coset_reps":[[0]]}',
    '{"kind":"lattice","d":1,"x":2}',
    '{"kind":"lattice","d":true}',
    '{"kind":"cyclic","n":true}',
    '{"kind":["lattice"]}',
    '[1]',
]

# nesting far past the interpreter's recursion limit, built by concatenation since json.dumps recurses too
NESTED_LISTS = "[" * 100_000 + "]" * 100_000
NESTED_GROUP = '{"kind":"direct_product","factors":[' * 400 + '{"kind":"lattice","d":1}' + "]}" * 400

# (group of the ladder built first or None, command reading "{ladder}")
MALFORMED_CLI = [(None, ["folner", "build", "--group", g, "--depth", "2"]) for g in BAD_GROUPS] + [
    ("pruefer", ["analyze", "boundary", "--ladder", "{ladder}", "-g", '"1/0"']),
    ("z_x_z3", ["analyze", "boundary", "--ladder", "{ladder}", "-g", "5"]),
    ("z_x_z3", ["analyze", "boundary", "--ladder", "{ladder}", "-g", "[[0], true]"]),
    ("z", ["folner", "defect", "{ladder}", "--K", "[[true]]"]),
    ("rationals", ["folner", "defect", "{ladder}", "--K", "[true]"]),
    ("z", ["folner", "defect", "{ladder}", "--K", "5"]),
    ("z", ["analyze", "boundary", "--ladder", "{ladder}", "-g", "[1]", "--levels", "0..9"]),
    ("z", ["analyze", "boundary", "--ladder", "{ladder}", "-g", "[1]", "--levels=-1"]),
    ("z", ["folner", "check", "{no-glue}"]),
    ("z", ["folner", "check", "{level-5}"]),
    ("z", ["folner", "check", "{extra-key}"]),
    ("z", ["folner", "check", "{glue-5}"]),
    ("z", ["folner", "check", "{not-object}"]),
    (None, ["blocks", "verify-c3", "{no-families}"]),
    (None, ["blocks", "verify-c3", "{assignments-5}"]),
    (None, ["blocks", "x0", "{empty-family}", "--level", "1"]),
    (None, ["measures", "check", "{matrices-5}"]),
    (None, ["measures", "check", "{int-matrix}"]),
    (None, ["folner", "build", "--group", '{"kind":"lattice","d":3}', "--depth", "8"]),  # 3**24 cells
    (None, ["folner", "build", "--group", '{"kind":"cyclic","n":3}', "--depth", "100000000"]),  # stalled chain
    (None, ["analyze", "kr", "--hier", "{block-7}", "-n", "0", "-m", "2"]),
    (None, ["measures", "lemma8", "{matrices}", "--K", "1/0"]),
    ("z", ["measures", "realize", "--d", "2", "--ladder", "{ladder}", "--tol", "1/0"]),
    ("z", ["blocks", "build", "--ladder", "{ladder}", "--matrices", "{matrices}", "--depth", "99"]),
    ("z", ["blocks", "build", "--ladder", "{ladder}", "--matrices", "{matrices}", "--depth", "0"]),
] + [(None, ["folner", "build", "--group", '{"kind":"heisenberg3"}', "--depth", "2", "--eps-schedule", s])
     for s in ("geometric:1/0", "geometric:0", "geometric:-1/2")] + [
    # flags the route does not take, and a depth below the pipeline's 1
    (None, ["folner", "build", "--group", '{"kind":"lattice","d":1}', "--depth", "2",
            "--eps-schedule", "geometric:1/2"]),
    (None, ["folner", "build", "--group", '{"kind":"pruefer","p":2}', "--depth", "2", "--base", "5"]),
    (None, ["folner", "build", "--group", '{"kind":"heisenberg3"}', "--depth", "2", "--base", "5"]),
    (None, ["folner", "build", "--group", '{"kind":"lattice","d":1}', "--depth", "0"]),
    (None, ["blocks", "verify-c3", "{symbol-256}"]),
    # --levels that name no level or no int, and levels outside the built ones
    ("z", ["analyze", "boundary", "--ladder", "{ladder}", "-g", "[1]", "--levels", "2..1"]),
    ("z", ["analyze", "boundary", "--ladder", "{ladder}", "-g", "[1]", "--levels", "x"]),
    ("z", ["analyze", "boundary", "--ladder", "{ladder}", "-g", "[1]", "--levels", ","]),
    ("z", ["analyze", "boundary", "--ladder", "{ladder}", "-g", "[1]", "--levels", "0,-1"]),
    (None, ["blocks", "verify-c3", "{hier}", "--level", "-1"]),
    (None, ["blocks", "x0", "{hier}", "--level", "-1"]),
    (None, ["blocks", "x0", "{hier}", "--level", "4"]),
    (None, ["folner", "build", "--group", '{"kind":"heisenberg3"}', "--depth", "1000000"]),  # past the center ladder
    # nested past the recursion limit: json.load, and context_from_descriptor on a parsed descriptor
    (None, ["folner", "check", "{nested}"]),
    (None, ["folner", "build", "--group", NESTED_GROUP, "--depth", "1"]),
    (None, ["measures", "limit", "{zero-ratio}", "-d", "1"]),
]

# malformed copies of the built ladder file
BROKEN_LADDERS = {
    "{no-glue}": lambda d: {k: v for k, v in d.items() if k != "glue"},
    "{level-5}": lambda d: {**d, "levels": [5, *d["levels"][1:]]},
    "{extra-key}": lambda d: {**d, "extra": 1},
    "{glue-5}": lambda d: {**d, "glue": 5},
    "{not-object}": lambda d: [d],
}

# malformed copies of a written hierarchy file
BROKEN_HIERARCHIES = {
    "{no-families}": lambda d: {k: v for k, v in d.items() if k != "families"},
    "{assignments-5}": lambda d: {**d, "assignments": 5},
    "{empty-family}": lambda d: {**d, "families": [d["families"][0], {**d["families"][1], "blocks": []},
                                                   *d["families"][2:]]},
    # level 1, block 1 places block 7 of a family of three on its last coset
    "{block-7}": lambda d: {**d, "assignments": [d["assignments"][0], [[*d["assignments"][1][0][:-1], 7],
                                                                       *d["assignments"][1][1:]],
                                                 *d["assignments"][2:]]},
    # a symbol past one byte in block 1 of level 0
    "{symbol-256}": lambda d: {**d, "families": [{**d["families"][0],
                                                  "blocks": [[256], *d["families"][0]["blocks"][1:]]},
                                                 *d["families"][1:]]},
}

# malformed managed-sequence files
BROKEN_SEQUENCES = {"{matrices-5}": {"matrices": 5}, "{int-matrix}": [1],
                    "{zero-ratio}": [{"rows": 2, "cols": 2, "entries": [0, 0, 0, 0]}] * 2}


@pytest.mark.parametrize("group, argv", MALFORMED_CLI)
def test_malformed_input_exits_1_with_an_error_line(tmp_path, capsys, group, argv):
    ladder = tmp_path / "ladder.json"
    if group is not None:  # the route is inferred from the group kind
        assert main(["--out", str(tmp_path), "folner", "build", "--group", LADDER_GROUPS[group],
                     "--depth", "2"]) == 0
        capsys.readouterr()
    argv = [a.replace("{ladder}", str(ladder)) for a in argv]
    if "{matrices}" in argv:  # a well-formed file of five matrices
        argv[argv.index("{matrices}")] = _matrices_file(tmp_path, count=5)
    if "{hier}" in argv:  # a well-formed hierarchy of depth 3
        argv[argv.index("{hier}")] = _hier_file(tmp_path)
    for i, a in enumerate(argv):
        if a in BROKEN_LADDERS:
            argv[i] = _write(tmp_path, "broken.json", BROKEN_LADDERS[a](json.loads(ladder.read_text())))
        elif a in BROKEN_HIERARCHIES:
            with open(_hier_file(tmp_path)) as fh:
                argv[i] = _write(tmp_path, "broken.json", BROKEN_HIERARCHIES[a](json.load(fh)))
        elif a in BROKEN_SEQUENCES:
            argv[i] = _write(tmp_path, "broken.json", BROKEN_SEQUENCES[a])
        elif a == "{nested}":
            (tmp_path / "nested.json").write_text(NESTED_LISTS)
            argv[i] = str(tmp_path / "nested.json")
    assert main(["--out", str(tmp_path / "out"), *argv]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_a_finite_extension_fails_like_any_unknown_kind(tmp_path, capsys):
    desc = {"kind": "finite_extension", "base": {"kind": "lattice", "d": 1}, "ambient": {"kind": "lattice", "d": 1},
            "embed": "same", "coset_reps": [[0]]}
    with pytest.raises(UnsupportedGroupError, match="unknown group kind"):
        context_from_descriptor(desc)
    ladder = _write(tmp_path, "ladder.json", {**build_lattice_ladder(1, 2).to_json(), "group": desc})
    assert main(["folner", "check", ladder]) == 1
    assert capsys.readouterr().err.startswith("error:")



def _nested_group(depth):
    """A direct_product descriptor nested depth deep around one Z factor."""
    desc = {"kind": "lattice", "d": 1}
    for _ in range(depth):
        desc = {"kind": "direct_product", "factors": [desc]}
    return desc


def test_32_nested_direct_products_round_trip():
    assert context_from_descriptor(_nested_group(32)).descriptor() == _nested_group(32)


@pytest.mark.parametrize("depth", [33, 400, 5000])
def test_deeper_nesting_fails_like_any_unknown_kind(depth):
    desc, message = _nested_group(depth), "direct_product descriptors nest at most 32 deep"
    with pytest.raises(UnsupportedGroupError, match=message):
        context_from_descriptor(desc)
    with pytest.raises(UnsupportedGroupError, match=message):
        FolnerLadder.from_json({**build_lattice_ladder(1, 2).to_json(), "group": desc})
    with pytest.raises(ConfigError, match=f"bad group descriptor: {message}"):
        PipelineConfig.from_json({"group": desc})


def test_a_direct_product_that_contains_itself_fails_like_any_unknown_kind():
    desc = {"kind": "direct_product", "factors": []}
    desc["factors"].append(desc)
    with pytest.raises(UnsupportedGroupError, match="nest at most 32 deep"):
        context_from_descriptor(desc)


def _deep_list(depth):
    deep = []
    for _ in range(depth):
        deep = [deep]
    return deep


@pytest.mark.parametrize("where, message", [
    ("value", "lattice descriptor needs exactly"),
    ("kind", "unknown group kind"),
    ("descriptor", "group descriptor must be an object"),
    ("factor", "group descriptor must be an object"),
])
def test_values_nested_past_the_recursion_limit_fail_like_any_bad_descriptor(where, message):
    deep = _deep_list(100_000)  # the error quotes it with a bounded repr, not the recursive one
    desc = {"value": {"kind": "lattice", "d": deep}, "kind": {"kind": deep}, "descriptor": deep,
            "factor": {"kind": "direct_product", "factors": [deep]}}[where]
    with pytest.raises(UnsupportedGroupError, match=message):
        context_from_descriptor(desc)
    with pytest.raises(ConfigError, match=f"bad group descriptor: {message}"):
        PipelineConfig.from_json({"group": desc})


@pytest.mark.parametrize("desc", [
    {"kind": "lattice", "d": 1}, {"kind": "heisenberg3"}, {"kind": "cyclic", "n": 3}, {"kind": "pruefer", "p": 2},
    {"kind": "rationals"}, {"kind": "direct_product", "factors": [{"kind": "lattice", "d": 1}, {"kind": "cyclic", "n": 3}]},
])
def test_elements_nested_past_the_recursion_limit_are_encoding_errors(desc):
    ctx, deep = context_from_descriptor(desc), _deep_list(100_000)
    calls = [(ctx.decode_json, deep), (ctx.validate, deep)]
    if desc["kind"] == "direct_product":  # a component's error, quoted by the factor
        calls += [(ctx.decode_json, [deep, deep]), (ctx.validate, (deep, deep))]
    for call, value in calls:
        with pytest.raises(EncodingError, match=r"^expected .*, got .*\[\[\[\[\[\[\.\.\.\]\]\]\]\]\]"):
            call(value)


@pytest.mark.parametrize("levels, message", [
    ("3..1", "error: --levels '3..1' names no level: a range lo..hi needs lo <= hi"),
    ("x", "error: --levels must be a range like 0..4 or a comma list of ints, got 'x'"),
    (",", "error: --levels must be a range like 0..4 or a comma list of ints, got ','"),
    ("1..y", "error: --levels must be a range like 0..4 or a comma list of ints, got '1..y'"),
    ("-1", "error: --levels: level -1 outside 0..2"),
    ("0..3", "error: --levels: level 3 outside 0..2"),
    ("0..1000000000000", "error: --levels: level 1000000000000 outside 0..2"),
])
def test_levels_errors_name_the_flag(tmp_path, capsys, levels, message):
    ladder = _ladder_file(tmp_path, depth=2)
    assert main(["analyze", "boundary", "--ladder", ladder, "-g", "[1]", f"--levels={levels}"]) == 1
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize("action", [["verify-c3"], ["x0"]])
def test_a_negative_block_level_is_outside_the_built_levels(tmp_path, capsys, action):
    assert main(["blocks", *action, _hier_file(tmp_path), "--level", "-1"]) == 1
    assert capsys.readouterr().err.strip() == "error: level -1 outside 0..3"


@pytest.mark.parametrize("group, flag", [('{"kind":"lattice","d":1}', ["--eps-schedule", "geometric:1/2"]),
                                         ('{"kind":"pruefer","p":2}', ["--base", "5"])])
def test_off_route_flag_is_named_as_typed(tmp_path, capsys, group, flag):
    assert main(["--out", str(tmp_path), "folner", "build", "--group", group, "--depth", "2", *flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[0]} does not apply to the ")
    assert "eps_start" not in err and "'base'" not in err


# (argv, exit code, a pattern for the first line: stdout's on exit 0, stderr's on exit 1)
FIRST_LINES = [
    (["--format", "text", "folner", "check", "{ladder}"], 0, "congruent"),
    (["--format", "text", "blocks", "verify-c3", "{hier}"], 0, "rigid"),
    (["--format", "text", "analyze", "returns", "--hier", "{hier}", "-n", "0", "-m", "2"], 0,
     "9 return times, oracles agree"),
    (["--format", "text", "analyze", "kr", "--hier", "{hier}", "-n", "0", "-m", "2"], 0, "partitions exact"),
    (["--format", "text", "measures", "check", "{matrices}"], 0, r"3 managed matrices, ratios \[3, 3, 3\]"),
    (["--format", "text", "--out", "{out}", "pipeline", "run"], 0, "build-ladder: ok"),
    (["--verbose", "--out", "{out}", "pipeline", "run"], 0, r"\[build-ladder\] ok \(\d+\.\d\ds\)"),
    (["folner", "build", "--group", '{"kind":"heisenberg3"}', "--depth", "2", "--eps-schedule", "linear:1/2"], 1,
     re.escape("error: unknown eps schedule 'linear:1/2'")),
    (["analyze", "boundary", "--ladder", "{ladder}", "-g", "[1]"], 0,  # every level without --levels
     re.escape('{"element": [1],"masses": [{"level": 0,"mass": "1"},{"level": 1,"mass": "1/3"},'
               '{"level": 2,"mass": "1/9"},{"level": 3,"mass": "1/27"}]}')),
]


@pytest.mark.parametrize("argv, code, first", FIRST_LINES)
def test_text_renderers_and_verbose_stages_print_their_first_line(tmp_path, capsys, argv, code, first):
    files = {"{ladder}": _ladder_file(tmp_path), "{hier}": _hier_file(tmp_path),
             "{matrices}": _matrices_file(tmp_path), "{out}": str(tmp_path / "out")}
    assert main([files.get(a, a) for a in argv]) == code
    out, err = capsys.readouterr()
    verbose = "--verbose" in argv  # stage lines go to stderr, so stdout stays one JSON report
    assert re.fullmatch(first, (err if code or verbose else out).splitlines()[0])
    if verbose:
        assert json.loads(out)["ok"] is True


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
