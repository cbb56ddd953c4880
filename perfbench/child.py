"""One fresh benchmark process: set up one workload, run one pass, report JSON.

    python3 perfbench/child.py --workload realize --seed 1 --mode plain

`--mode` is a `Recorder` mode (plain, spans or counts; see spans.py), or
`setup`, which stops where the first timed call would start so the parent
can sample set-up time without paying for a pass.  The last line of standard
output is a JSON object; its `monotonic` clock readings are comparable with
the parent's.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import PEAK_LAYERS, Recorder
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "counts", "setup"), required=True)
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args()

    inputs = make_inputs(args.workload, args.seed)
    if args.mode == "setup":
        print(json.dumps({"first_call": time.monotonic()}))
        return
    rec = Recorder(args.run_id, args.mode)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    try:
        layer = WORKLOADS[args.workload](rec, inputs, scratch)
    except Exception as e:  # a call that raises is a failed operation; the pass ends there
        traceback.print_exc()
        rec.attempted += 1
        rec.failures.append(f"raised {type(e).__name__}: {e}")
        layer = {}
    print(json.dumps({
        "first_call": rec.first_start,
        "wall_s": rec.last_end - rec.first_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": rec.attempted,
        "failures": rec.failures,
        "counts": rec.counts,
        "layer_s": rec.layer_seconds(),
        "peak_mb": {m: rec.peak_mb(m) for m in PEAK_LAYERS},
        "layer": layer,
        "spans": rec.spans,
    }))


if __name__ == "__main__":
    sys.exit(main())
