"""In-memory spans around the benchmark's calls into the package layers.

A span records its name, start, end, the span that encloses it and the run
it belongs to. Span names start with the layer they time (``search.``,
``constraints.``, ...); the benchmark's own glue is the ``bench`` layer.
Spans are only kept in memory while a run executes and are written out by
`run.py` when the run has ended.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


def now() -> float:
    """Seconds on CLOCK_MONOTONIC, which is shared by every process of the host."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Span recorder; when disabled, ``span`` costs one call and records nothing."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, **tags):
        return self._record(name, tags) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name: str, tags: dict):
        record = {"id": len(self.spans), "run": self.run_id,
                  "parent": self._open[-1] if self._open else None,
                  "name": name, "tags": tags, "start": now(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = now()
            self._open.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer, the time of its spans not covered by their child spans."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"].split(".", 1)[0]] += duration(s) - covered[s["id"]]
    return dict(out)
