"""Pipeline configuration validation, staging, and artifact determinism."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import monotiles
from monotiles import (Certificate, Lattice, PipelineConfig, build_abelian_chain_ladder, build_heisenberg_ladder,
                       build_lattice_ladder, build_pruefer_ladder, pipeline, run_pipeline)
from monotiles.cli import main
from monotiles.errors import ConfigError
from monotiles.compose import CENTER_DEPTH
from monotiles.groups import _KINDS
from monotiles.pipeline import DEFAULT_CONFIG, STAGES, _ROUTES, heisenberg_targets, write_json


def test_default_config_round_trips():
    cfg = PipelineConfig.from_json({})
    # the lattice route on Z (d = 1) to depth 5, base 3, and 2 extreme points, so k0 = 3 base blocks
    assert cfg.plan == (build_lattice_ladder, (1, 5, 3), 5)
    assert cfg.realize == (2, Fraction(1, 100)) and cfg.matrices_file is None
    assert cfg.analysis == DEFAULT_CONFIG["analysis"]
    assert cfg.lemma8_bound == 2 and cfg.hierarchy_depth == 2 and cfg.artifacts == DEFAULT_CONFIG["artifacts"]


def test_the_config_is_parsed_once_and_the_stages_read_its_fields(tmp_path, monkeypatch):
    calls = []
    for name in ("context_from_descriptor", "_ladder_plan"):
        monkeypatch.setattr(pipeline, name, lambda *a, name=name, real=getattr(pipeline, name):
                            calls.append(name) or real(*a))
    cfg = PipelineConfig.from_json({})
    assert sorted(calls) == ["_ladder_plan", "context_from_descriptor"]
    calls.clear()
    assert run_pipeline(cfg, tmp_path).ok and calls == []
    source = inspect.getsource(pipeline._stages)
    assert "Fraction(" not in source and ".get(" not in source
    assert "build_ladder_from_config" not in pipeline.__all__ + dir(pipeline) + dir(monotiles)


def test_config_rejects_unknown_group():
    with pytest.raises(ConfigError):
        PipelineConfig.from_json({"group": {"kind": "free_group"}})


def test_config_rejects_bad_analysis_pairs():
    with pytest.raises(ConfigError):
        PipelineConfig.from_json({"analysis": {"pairs": [[2, 1]]}})
    with pytest.raises(ConfigError):
        PipelineConfig.from_json({"analysis": {"pairs": [[0, 9]]}})


def test_config_rejects_inconsistent_block_count():
    with pytest.raises(ConfigError):
        PipelineConfig.from_json({"k0": 4})  # realize still asks for 2 extreme points


def test_config_rejects_two_matrix_sources():
    with pytest.raises(ConfigError):
        PipelineConfig.from_json(
            {"matrices": {"realize": {"extreme_points": 2, "tolerance": "1/100"},
                          "file": "mats.json"}})


@pytest.mark.parametrize("data", [
    {"hierarchy_dept": 9},
    {"ladder": {"route": "lattice", "depth": 4, "bse": 3}},
    {"group": {"kind": "pruefer", "p": 2}, "ladder": {"route": "pruefer", "depth": 4, "base": 3}},
    {"ladder": {"route": "heisenberg", "depth": 2, "generators": []}},
    {"matrices": {"realize": {"extreme_points": 2, "tolerance": "1/100", "tol": "1"}}},
    {"matrices": {"file": "mats.json", "format": "json"}},
    {"analysis": {"pairs": [[0, 1]], "kr_pairs": []}},
    {"artifacts": {"hier": "h.json"}},
    {"ladder": [5]},
])
def test_config_rejects_unknown_keys(data):
    with pytest.raises(ConfigError):
        PipelineConfig.from_json(data)


MALFORMED = [
    {"group": [1]},
    {"ladder": {"route": "abelian", "depth": 3, "generators": 5}},
    {"ladder": {"route": "lattice", "depth": 3, "base": "5"}},
    {"artifacts": {"ladder": 5}},
    {"ladder": {"route": "lattice", "depth": True}, "analysis": {"boundary_levels": [0]}},
    {"ladder": {"route": "abelian", "depth": 3, "generators": [5]}},
    {"group": {"kind": "heisenberg3"}, "ladder": {"route": "heisenberg", "depth": 2, "eps_start": [1]}},
    {"lemma8_bound": "1/0"},
    {"matrices": {"file": 5}},
    {"analysis": {"pairs": 5}},
    {"group": {"kind": "lattice"}},
    {"group": {"kind": "direct_product", "factors": 5}},
    {"group": {"kind": "lattice", "d": True}},
    {"group": {"kind": "lattice", "d": 1, "x": 2}},
    {"group": {"kind": "rationals"}, "ladder": {"route": "abelian", "depth": 3, "generators": ["1/0"]}},
    {"group": {"kind": "direct_product", "factors": [{"kind": "lattice", "d": 1}, {"kind": "cyclic", "n": 3}]},
     "ladder": {"route": "abelian", "depth": 3, "generators": [5]}},
    {"lemma8_bound": True},
    {"lemma8_bound": 0.1},
    {"matrices": {"realize": {"extreme_points": 2, "tolerance": 0.01}}},
    {"group": {"kind": "heisenberg3"}, "ladder": {"route": "heisenberg", "depth": 2, "eps_start": "0"}},
    {"group": {"kind": "heisenberg3"}, "ladder": {"route": "heisenberg", "depth": 2, "eps_start": "-1/2"}},
    {"group": {"kind": "heisenberg3"}, "ladder": {"route": "heisenberg", "depth": 2, "eps_step": "0"}},
    {"group": {"kind": "heisenberg3"}, "ladder": {"route": "heisenberg", "depth": 2, "eps_start": 0.5}},
    {"ladder": {"route": "pruefer", "depth": 3}},  # on the default lattice group
    {"group": {"kind": "heisenberg3"}, "ladder": {"route": "lattice", "depth": 2}},
    {"group": {"kind": "heisenberg3"}, "ladder": {"route": "abelian", "depth": 2}},
    # symbols are bytes: at most 255 base blocks
    {"k0": 256, "matrices": {"file": "m.json"}},
    {"k0": 256, "matrices": {"realize": {"extreme_points": 255, "tolerance": "1/100"}}},
    {"analysis": 5},
    {"analysis": {"pairs": [[0]]}},
    {"analysis": {"boundary_levels": [9]}},  # the default ladder has depth 5
]


@pytest.mark.parametrize("data", MALFORMED)
def test_config_rejects_malformed_values(data):
    with pytest.raises(ConfigError):
        PipelineConfig.from_json(data)


def test_heisenberg_depth_past_the_center_ladder_is_a_config_error():
    # each target takes a strictly deeper level of the depth-10 central ladder
    config = {"group": {"kind": "heisenberg3"}, "ladder": {"route": "heisenberg", "depth": CENTER_DEPTH}}
    assert PipelineConfig.from_json(config).plan == (build_heisenberg_ladder, (heisenberg_targets(10),), 10)
    with pytest.raises(ConfigError, match="heisenberg ladder depth must be at most 10, got 11"):
        PipelineConfig.from_json({**config, "ladder": {"route": "heisenberg", "depth": 11}})


def test_cli_rejects_malformed_config_without_traceback(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(MALFORMED[0]))
    env = {**os.environ, "PYTHONPATH": str(Path(monotiles.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "monotiles", "--out", str(tmp_path / "out"),
                           "pipeline", "run", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_config_accepts_every_route_key():
    for data, builder, args in [
        ({"ladder": {"route": "lattice", "depth": 4, "base": 5}}, build_lattice_ladder, (1, 4, 5)),
        ({"group": {"kind": "pruefer", "p": 2}, "ladder": {"route": "pruefer", "depth": 4}},
         build_pruefer_ladder, (2, 4)),
        ({"ladder": {"route": "abelian", "depth": 4, "generators": [[1]]}},
         build_abelian_chain_ladder, (Lattice(1), [(1,)], 4)),
        ({"group": {"kind": "heisenberg3"},
          "ladder": {"route": "heisenberg", "depth": 2, "eps_start": "1/2", "eps_step": "2/3"}},
         build_heisenberg_ladder, (heisenberg_targets(2),)),
        ({"group": {"kind": "heisenberg3"},
          "ladder": {"route": "heisenberg", "depth": 2, "eps_start": "1/3", "eps_step": "1/4"}},
         build_heisenberg_ladder, (heisenberg_targets(2, Fraction(1, 3), Fraction(1, 4)),)),
    ]:
        plan = PipelineConfig.from_json({**data, "artifacts": {"report": "r.json"}}).plan
        assert plan == (builder, args, data["ladder"]["depth"])


# one small descriptor per group kind; a kind missing here fails with KeyError
KIND_DESCRIPTORS = {
    "lattice": {"kind": "lattice", "d": 2},
    "cyclic": {"kind": "cyclic", "n": 3},
    "heisenberg3": {"kind": "heisenberg3"},
    "pruefer": {"kind": "pruefer", "p": 2},
    "rationals": {"kind": "rationals"},
    "direct_product": {"kind": "direct_product",
                       "factors": [{"kind": "lattice", "d": 1}, {"kind": "cyclic", "n": 2}]},
}


def _accepts(desc: dict, route: str) -> bool:
    try:
        PipelineConfig.from_json({"group": desc, "ladder": {"route": route, "depth": 2}})
    except ConfigError:
        return False
    return True


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_every_group_kind_has_a_route(kind):
    desc = KIND_DESCRIPTORS[kind]
    assert desc["kind"] == kind
    assert any(_accepts(desc, route) for route in _ROUTES)


def test_config_load_from_file(tmp_path):
    path = tmp_path / "config.json"
    write_json(DEFAULT_CONFIG, path)
    cfg = PipelineConfig.load(path)
    assert cfg.hierarchy_depth == 2


def test_heisenberg_targets_schedule():
    targets = heisenberg_targets(3)
    assert len(targets) == 3
    eps = [e for _, e in targets]
    assert all(a > b for a, b in zip(eps, eps[1:]))
    window = targets[0][0]
    assert (0, 0, 1) in window and (-1, 0, 0) in window


def test_run_pipeline_stage_names_and_artifacts(tmp_path):
    report = run_pipeline(PipelineConfig.from_json({}), tmp_path)
    assert report.ok
    assert [s.name for s in report.stages] == list(STAGES)
    assert all(s.ok for s in report.stages)
    for name in ("ladder.json", "matrices.json", "hier.json", "report.json"):
        assert (tmp_path / name).exists()
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk == report.artifact_json()
    assert "timings" not in json.dumps(on_disk)


def test_run_pipeline_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_pipeline(PipelineConfig.from_json({}), a)
    run_pipeline(PipelineConfig.from_json({}), b)
    for name in ("ladder.json", "matrices.json", "hier.json", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# sha256 of the default-config artifacts; any change to their bytes is a
# format change and must be made on purpose
DEFAULT_DIGESTS = {
    "ladder.json": "2e8ee4f173f0b6d58510cd615fd84144247dbf944e2686f82aef8bd3ec954c99",
    "matrices.json": "afb886aefa74fd6d50d690a7db654b3d94099679d9a40a23a2751ab91e365f4a",
    "hier.json": "140d5157526b9916d5ddd020e6653ca5253083d75f0fad6b5f6bf6e39949e49d",
    "report.json": "8daa915534c3ed85abf1601fdf4e5ec4b0cf91182d0b14b56021b0dc2bee94d7",
}


def test_default_artifacts_match_pinned_digests(tmp_path):
    assert run_pipeline(PipelineConfig.from_json({}), tmp_path).ok
    for name, digest in DEFAULT_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_run_pipeline_failure_marks_remaining_skipped(tmp_path):
    # a 2-level hierarchy cannot satisfy analysis pairs reaching level 2,
    # so force failure later: request an unrealizable tolerance instead
    cfg = PipelineConfig.from_json(
        {"matrices": {"realize": {"extreme_points": 2, "tolerance": "1/1000000"}}})
    report = run_pipeline(cfg, tmp_path)
    assert not report.ok
    states = {s.name: s for s in report.stages}
    assert not states["build-matrices"].ok
    assert states["build-hierarchy"].detail == {"skipped": True}
    assert (tmp_path / "report.json").exists()


def _stage_states(report) -> dict:
    """Each stage's result by name, after checking that every stage past the first failure is skipped."""
    states = {s.name: s for s in report.stages}
    failed = next(i for i, name in enumerate(STAGES) if not states[name].ok)
    assert all(states[name].ok for name in STAGES[:failed])
    assert all(states[name].detail == {"skipped": True} for name in STAGES[failed + 1:])
    return states


def test_too_few_grouped_levels_fail_the_hierarchy_stage(tmp_path):
    report = run_pipeline(PipelineConfig.from_json({"hierarchy_depth": 3}), tmp_path)
    states = _stage_states(report)
    assert not report.ok and not states["build-hierarchy"].ok
    assert states["build-hierarchy"].witness == "grouping yields 2 usable levels, need 3"
    assert states["build-hierarchy"].detail == {"boundaries": [0, 2, 4]}
    assert json.loads((tmp_path / "report.json").read_text()) == report.artifact_json()


def test_an_empty_matrices_file_fails_its_stage(tmp_path):
    write_json([], tmp_path / "mats.json")
    report = run_pipeline(PipelineConfig.from_json({"matrices": {"file": "mats.json"}}, tmp_path), tmp_path / "out")
    states = _stage_states(report)
    assert not states["build-matrices"].ok and not states["build-hierarchy"].ok
    assert states["build-matrices"].witness == "matrix sequence is empty"


PLANTED = Certificate(False, "planted", [0], {"level": 1})


@pytest.mark.parametrize("checker, stage, witness", [
    ("check_congruent", "check-congruence", "congruence fails at level 1: planted"),
    ("verify_c3", "verify-dynamics", "overlap rigidity fails at level 0"),
    ("check_partitions", "verify-dynamics", "tower partition fails at (0, 2): planted"),
    ("syndeticity_window", "verify-dynamics", "syndeticity window fails: planted"),
    ("check_nesting", "measure-limits", "nesting certificate fails at depth 1"),
])
def test_a_failing_certificate_fails_its_stage_with_its_json(tmp_path, monkeypatch, checker, stage, witness):
    monkeypatch.setattr(pipeline, checker, lambda *args: PLANTED)
    report = run_pipeline(PipelineConfig.from_json({}), tmp_path)
    failed = _stage_states(report)[stage]
    assert not report.ok and not failed.ok
    assert (failed.witness, failed.detail) == (witness, PLANTED.to_json())


def test_deeply_nested_matrices_file_fails_its_stage_and_writes_the_report(tmp_path, capsys):
    # nesting far past the recursion limit, built by concatenation since json.dumps recurses too
    (tmp_path / "mats.json").write_text("[" * 100_000 + "]" * 100_000)
    write_json({"matrices": {"file": "mats.json"}}, tmp_path / "cfg.json")
    assert main(["--out", str(tmp_path / "out"), "pipeline", "run", str(tmp_path / "cfg.json")]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report == json.loads(capsys.readouterr().out)
    states = {s["name"]: s for s in report["stages"]}
    assert [states[name]["ok"] for name in STAGES] == [True, True, False, False, False, False]
    assert states["build-matrices"]["witness"].startswith("RecursionError: ")
    assert all(states[name]["detail"] == {"skipped": True} for name in STAGES[3:])


def test_zero_ratio_matrices_file_fails_its_stage(tmp_path, capsys):
    write_json([{"rows": 2, "cols": 2, "entries": [0, 0, 0, 0]}] * 2, tmp_path / "mats.json")
    write_json({"matrices": {"file": "mats.json"}}, tmp_path / "cfg.json")
    assert main(["--out", str(tmp_path / "out"), "pipeline", "run", str(tmp_path / "cfg.json")]) == 1
    states = {s["name"]: s for s in json.loads(capsys.readouterr().out)["stages"]}
    assert [states[name]["ok"] for name in STAGES] == [True, True, False, False, False, False]
    assert states["build-matrices"]["witness"] == "ValueError: managed matrix columns sum to 0"


def test_run_pipeline_matrices_from_file(tmp_path):
    from monotiles import ManagedMatrix, ManagedSequence

    const = ManagedMatrix([[2, 1], [1, 2]])
    write_json(ManagedSequence([const] * 4).to_json(), tmp_path / "mats.json")
    cfg = PipelineConfig.from_json(
        {"ladder": {"route": "lattice", "depth": 4, "base": 3},
         "matrices": {"file": "mats.json"},
         "analysis": {"pairs": [[0, 1], [0, 2], [1, 2]], "kr": [[0, 2]],
                      "boundary_levels": [0, 1, 2]}},
        base_dir=tmp_path)
    report = run_pipeline(cfg, tmp_path / "out")
    assert report.ok
    states = {s.name: s for s in report.stages}
    assert states["build-hierarchy"].detail["boundaries"] == [0, 2, 4]
