"""In-memory spans and counters for the benchmark's own calls into boxqed.

A span records (name, start, end, parent) around one call into a library
module; a counter records work the call reports (points, probes, shells).
Both stay in memory and are written out once, when the pass ends.  With
tracing off, ``span`` yields at once and ``count`` does nothing, so the
untraced pass times the library alone.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float, how: str = "sum") -> None:
        """Add to (how="sum") or raise to (how="max") a named counter."""
        if not self.enabled:
            return
        if how == "max":
            self.counters[name] = max(self.counters.get(name, value), value)
        else:
            self.counters[name] = self.counters.get(name, 0) + value

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name), 0.0)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": self.counters},
                      handle, indent=1)
            handle.write("\n")
