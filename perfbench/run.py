"""Benchmark of the monotiles exact toolkit, end to end and layer by layer.

    python3 perfbench/run.py --workload realize --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each pass of a workload runs in a fresh single-threaded process
(`perfbench/child.py`), one after another, until `--seconds` have elapsed
and at least five passes are done.  Every end-to-end metric is the median
over the run's samples.  With `--trace 0` the run reports the metrics of
BENCHMARK.json: `wall_s` (first timed call to last, per pass), `peak_rss_mb`
(`ru_maxrss` of the pass's process) and `setup_s` (process spawn to first
timed call, sampled at least nine times).  With `--trace 1` it runs rounds
of three passes (plain, spans, counts; see spans.py), reports the per-layer
metrics and writes the spans to `.perfbench/trace-<workload>-seed<seed>.json`.

Every pass checks its certificates, oracle pairs, planted mutations and
artifact digests (`digests.json`); `failed / attempted` is the fail ratio
printed per workload.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.
`baseline.json` maps each metric to its layer and to the end-to-end metric
and workload it should move, and records the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
WORKLOADS = ("realize", "verify", "ladders", "pipeline")
MIN_PASSES = 5
MIN_SETUPS = 9
RUN_LIMIT_S = 170  # no pass starts unless it should end within this


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, run_id: str, stop_at: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    started = time.monotonic()
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--run-id", run_id]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, stop_at - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} process timed out")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} process exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["first_call"] - started
    return out


def layer_metrics(spec: dict, runs: dict) -> dict:
    """Per-layer metrics, each the lower median over the passes that measure it
    (a value some pass produced, so exact counts stay integers).

    Times come from spans passes, counts and allocation peaks from counts
    passes; a layer the workload does not call reads 0.
    """
    def median(fn, mode):
        return statistics.median_low(fn(p) for p in runs[mode])

    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        module, _, rest = name.partition(".")
        if name == "trace.overhead_s":
            values[name] = median(lambda p: p["wall_s"], "counts") - median(lambda p: p["wall_s"], "plain")
        elif module == "groups":
            values[name] = median(lambda p: p["counts"][rest], "counts")
        elif rest == "peak_mb":
            values[name] = median(lambda p: p["peak_mb"][module], "counts")
        else:
            values[name] = median(lambda p: p["layer"].get(name, p["layer_s"].get(name.removesuffix("_s"), 0)),
                                  "spans")
    return values


def run_workload(workload: str, seed: int, seconds: int, traced: bool, spec: dict) -> dict:
    started = time.monotonic()
    stop_at = started + RUN_LIMIT_S
    # a round is one plain pass, or with tracing a plain, a spans and a counts pass
    modes = ("plain", "spans", "counts") if traced else ("plain",)
    runs: dict = {mode: [] for mode in modes}
    longest = 0.0
    minimum = 1 if traced else MIN_PASSES
    while len(runs["plain"]) < minimum or time.monotonic() < started + seconds:
        if runs["plain"] and time.monotonic() + 1.5 * longest > stop_at:
            break
        t0 = time.monotonic()
        for mode in modes:
            run_id = f"{workload}-{seed}-{mode}{len(runs[mode])}"
            runs[mode].append(spawn(workload, seed, mode, run_id, stop_at))
        longest = max(longest, time.monotonic() - t0)

    passes = [p for mode in modes for p in runs[mode]]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if traced:
        attempted += 1  # counts must repeat exactly across counts passes
        if any(p["counts"] != runs["counts"][0]["counts"] for p in runs["counts"]):
            failures.append("trace.counts_repeat")
    for f in failures:
        print(f"FAILED {workload}: {f}", file=sys.stderr)

    if traced:
        values = layer_metrics(spec, runs)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        trace = {"workload": workload, "seed": seed,
                 "span_fields": ["name", "start", "end", "parent", "run_id", "tracemalloc_peak_bytes"],
                 "spans": [s for mode in ("spans", "counts") for p in runs[mode] for s in p["spans"]],
                 "counts": [p["counts"] for p in runs["counts"]]}
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(trace) + "\n")
    else:
        setups = [p["setup_s"] for p in runs["plain"]]
        while len(setups) < MIN_SETUPS:
            setups.append(spawn(workload, seed, "setup", "setup", stop_at)["setup_s"])
        values = {"wall_s": statistics.median(p["wall_s"] for p in runs["plain"]),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in runs["plain"]),
                  "setup_s": statistics.median(setups)}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    for name, value in values.items():
        print(f"{workload} {name} = {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}")
    print(f"{workload} fail_ratio = {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} operations, {len(passes)} passes)")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "monotiles" / "__init__.py").is_file():
        print("perfbench: src/monotiles not found next to perfbench/", file=sys.stderr)
        return 1
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec) for w in names}
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
