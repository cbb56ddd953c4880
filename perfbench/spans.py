"""Operation accounting and the optional layer trace for one benchmark pass.

A `Recorder` sits between a workload and the `monotiles` functions it calls.
Every call the workload makes goes through `Recorder.call`, and every
correctness check through `Recorder.check`.  The pass runs in one of three
modes:

- "plain": `call` only notes when the first call started and the last one
  ended, which bounds the pass's wall time.  End-to-end metrics come from here.
- "spans": every call also becomes a span (name, start, end, parent, run id),
  and `pipeline.write_json` is wrapped into a span nested in its pipeline run.
  Per-layer times come from here, so they carry only the span overhead.
- "counts": spans, plus exact counts of group multiplications, validations and
  subset cells (wrappers on the context classes and `FiniteSubset`), plus per
  span the tracemalloc peak of what that call allocated beyond what was live
  when it started.  Both slow the pass several-fold, so no time is taken
  from it.

Spans are kept in memory and handed to the parent process at the end.  No
module in `src/` knows it is being traced.
"""

from __future__ import annotations

import time
import tracemalloc

COUNTERS = ("mul_calls", "validate_calls", "subset_cells")
PEAK_LAYERS = ("folner", "blocks")  # modules with a per-layer peak metric


class Recorder:
    """Counts checks and failures for one pass; records spans unless plain."""

    def __init__(self, run_id: str, mode: str):
        self.run_id = run_id
        self.mode = mode
        self.attempted = 0
        self.failures: list[str] = []
        self.first_start: float | None = None
        self.last_end: float | None = None
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._peaks: list[int] = []  # running traced-memory peak of each open span
        if mode != "plain":
            _wrap_write_json(self)
        if mode == "counts":
            _install_counters(self.counts)

    def call(self, name: str, fn, *args):
        """Run fn(*args) as one timed call into layer `name` (e.g. "folner.build")."""
        start = time.monotonic()
        if self.first_start is None:
            self.first_start = start
        if self.mode == "plain":
            try:
                return fn(*args)
            finally:
                self.last_end = time.monotonic()
        index = len(self.spans)
        self.spans.append([f"{name}:{fn.__name__}", start, None,
                           self._stack[-1] if self._stack else None, self.run_id, None])
        sample = self.mode == "counts"
        if sample:
            if self._peaks:
                # reset_peak drops the enclosing span's peak so far: keep it
                base, peak = tracemalloc.get_traced_memory()
                self._peaks[-1] = max(self._peaks[-1], peak)
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
                base = 0
            self._peaks.append(0)
        self._stack.append(index)
        try:
            return fn(*args)
        finally:
            self._stack.pop()
            if sample:
                peak = max(self._peaks.pop(), tracemalloc.get_traced_memory()[1])
                self.spans[index][5] = peak - base
                if self._peaks:
                    self._peaks[-1] = max(self._peaks[-1], peak)
                else:
                    tracemalloc.stop()
            self.last_end = self.spans[index][2] = time.monotonic()

    def check(self, name: str, ok: bool) -> None:
        """Count one correctness check; a false one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def layer_seconds(self) -> dict:
        """Summed span durations per layer name (the part before the colon)."""
        out: dict = {}
        for name, start, end, *_ in self.spans:
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start)
        return out

    def peak_mb(self, module: str) -> float:
        """Largest allocation peak over the spans of one module, in MB."""
        peaks = [s[5] or 0 for s in self.spans if s[0].startswith(module + ".")]
        return max(peaks, default=0) / 2**20


def _wrap_write_json(rec: Recorder) -> None:
    from monotiles import pipeline

    write_json = pipeline.write_json
    pipeline.write_json = lambda data, path: rec.call("pipeline.write_json", write_json, data, path)


def _outermost(fn, key: str, counts: dict, depth: dict):
    """Wrap a context method so only the outermost call of a nest is counted
    (DirectProduct.mul calls its factors' mul; that is one multiplication)."""

    def counted(self, *args):
        if depth[key]:
            return fn(self, *args)
        depth[key] = 1
        try:
            return fn(self, *args)
        finally:
            depth[key] = 0
            counts[key] += 1

    return counted


def _install_counters(counts: dict) -> None:
    from monotiles import groups

    depth = {"mul_calls": 0, "validate_calls": 0}
    pending = [groups.GroupContext]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for method, key in (("mul", "mul_calls"), ("validate", "validate_calls")):
            if method in vars(cls):
                setattr(cls, method, _outermost(vars(cls)[method], key, counts, depth))

    subset_init = groups.FiniteSubset.__init__

    def counted_init(self, ctx, elements):
        elements = list(elements)
        counts["subset_cells"] += len(elements)
        subset_init(self, ctx, elements)

    groups.FiniteSubset.__init__ = counted_init
