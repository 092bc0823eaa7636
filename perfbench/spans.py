"""In-memory spans taken around the benchmark's own calls into bilinctrl.

Nothing here reaches inside the library: a span covers exactly one call the
benchmark makes to a public function (or one whole job), so a layer's self
time is the span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

JOB_SPAN = "job"


class Tracer:
    """Spans (name, start, end, parent, job id) plus per-name work counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._job = None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._job])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def job(self, job_id: int):
        self._job = job_id
        try:
            with self.span(JOB_SPAN):
                yield
        finally:
            self._job = None

    def count(self, name: str, value: float):
        """Add ``value`` to the work count ``name`` and one to its call count."""
        self.counts[name] += value
        self.calls[name] += 1

    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return child

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, self._child_time()):
            totals[name] += (end - start) - covered
        return dict(totals)

    def job_time(self) -> float:
        """Summed duration of the job spans."""
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if name == JOB_SPAN and parent is None)

    def layer_time(self) -> float:
        """Summed duration of the layer spans directly under a job span."""
        return sum(c for (name, _, _, parent, _), c in zip(self.spans, self._child_time())
                   if name == JOB_SPAN and parent is None)

    def write(self, path):
        """Write one JSON line per span (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "job": job}) + "\n")


class NullTracer:
    """Stand-in used when tracing is off: spans and counts cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: float):
        pass
