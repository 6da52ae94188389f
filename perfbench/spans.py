"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer, recorded from the benchmark's side of the
call: name, start, end, the span that caused it and the operation it belongs
to (the root span's id).  Spans stay in memory until ``write`` puts them in a
JSON file at the end of the run.

With ``memory=True`` each span also carries the tracemalloc peak reached
while it was open, above the traced memory at its start.  tracemalloc slows
the Python-level loops of viscostring three- to fivefold, so a memory tracer
is used only for peaks, never for times.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc


class Tracer:
    enabled = True

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        if memory:
            tracemalloc.start()

    def close(self):
        if self.memory:
            tracemalloc.stop()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "op": len(self.spans) if parent is None else parent["op"],
            "name": name,
        }
        if self.memory:
            base, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                # reset_peak forgets the parent's peak so far: keep it there
                parent["_high"] = max(parent["_high"], peak)
            tracemalloc.reset_peak()
            rec["_high"] = base
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if self.memory:
                high = max(rec.pop("_high"), tracemalloc.get_traced_memory()[1])
                rec["peak_bytes"] = high - base
                if parent is not None:
                    parent["_high"] = max(parent["_high"], high)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def rows(self) -> list[dict]:
        selfs = self.self_times()
        return [dict(s, self_s=selfs[s["id"]]) for s in self.spans]


class NullTracer:
    """Stand-in used by untraced operations: a span is a no-op context."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()


def write(path: str, **tracers: Tracer):
    """Write the spans of each named tracer to one JSON file."""
    with open(path, "w") as fh:
        json.dump({name: t.rows() for name, t in tracers.items()}, fh, indent=1)
