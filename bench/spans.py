"""In-memory spans around calls into the ctcspot layers.

A span records its name (``<layer>.<function>``), start and end times from
``time.perf_counter``, the index of the enclosing span (-1 for a root) and
the utterance it belongs to.  Spans stay in memory until the run ends and
are then written out as JSON lines.  A layer's self time is the duration of
its spans minus the part of each covered by direct child spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "utt", "index")

    def __init__(self, tracer: "Tracer", name: str, utt: str | None) -> None:
        self.tracer = tracer
        self.name = name
        self.utt = utt

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer.stack[-1] if tracer.stack else -1
        tracer.spans.append([self.name, time.perf_counter(), 0.0, parent, self.utt])
        tracer.stack.append(self.index)
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self.tracer
        tracer.spans[self.index][2] = time.perf_counter()
        tracer.stack.pop()
        return False


# the shared no-op context the untraced runs enter instead of a span
_NO_SPAN = contextlib.nullcontext()


class Tracer:
    """Collects spans; ``span(name, utt)`` is a context manager."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, utt: str | None = None) -> _Span:
        return _Span(self, name, utt)

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded by another tracer, e.g. in a child process."""
        offset = len(self.spans)
        for name, start, end, parent, utt in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, utt])

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self, under: str | None = None) -> dict[str, float]:
        """Seconds of self time per layer, optionally only below roots named `under`."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        root_of = []
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            root_of.append(root_of[parent] if parent >= 0 else name)
        layers: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if under is None or root_of[i] == under:
                layers[name.split(".", 1)[0]] += (end - start) - child_time[i]
        return dict(layers)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, utt in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "utt": utt}) + "\n")


class NullTracer:
    """Same interface, records nothing: the untraced runs use it."""

    def span(self, name: str, utt: str | None = None) -> contextlib.nullcontext:
        return _NO_SPAN
