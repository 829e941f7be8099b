"""In-memory span tracing of mcflab layers, installed from outside the package.

Each traced call records a span: id, parent span id, unit id, name, start and
end (perf_counter seconds) and an optional info dict.  Wrappers replace the
module globals or class attributes through which the package reaches its own
functions, so nothing under src/ is edited; `uninstall` puts the originals
back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    sid: int
    parent: int | None
    unit: int
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Owns the span list and the wrappers of one benchmark run."""

    def __init__(self, targets):
        # targets: (owner, attribute, span name, result hook or None)
        self._targets = list(targets)
        self._saved = []
        self._stack: list[int] = []
        self.spans: list[Span] = []
        self.unit = -1

    def _open(self, name: str) -> Span:
        span = Span(
            sid=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            unit=self.unit,
            name=name,
            start=perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                span.info.update(hook(out))
            return out

        return traced

    def begin_unit(self, unit: int) -> Span:
        """Open the root span of one unit and install every wrapper."""
        self.unit = unit
        root = self._open("unit")
        for owner, attr, name, hook in self._targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))
        return root

    def end_unit(self, root: Span) -> None:
        """Restore the original functions and close the root span."""
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        self._close(root)

    def unit_summary(self, unit: int) -> dict:
        """Per-name totals for one unit: count, duration, self time, info sums.

        Self time is a span's duration minus the durations of its direct
        children; calls are strictly nested on one thread, so children never
        overlap each other.
        """
        spans = [s for s in self.spans if s.unit == unit]
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        out: dict[str, dict] = {}
        for s in spans:
            agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "info": {}})
            agg["calls"] += 1
            agg["s"] += s.duration
            agg["self_s"] += s.duration - child_time.get(s.sid, 0.0)
            for key, val in s.info.items():
                agg["info"][key] = agg["info"].get(key, 0) + val
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "unit", "name", "start", "end"])
            for s in self.spans:
                writer.writerow(
                    [s.sid, "" if s.parent is None else s.parent, s.unit, s.name,
                     repr(s.start), repr(s.end)]
                )
