"""Spans around calls into regsketch's public functions, recorded from outside.

`Tracer.wrap(module, name)` replaces one binding of a function with a wrapper
that opens a span on entry and closes it on exit. Spans nest: each records its
parent, and a span's self time is its duration minus the time its direct
children cover. When tracemalloc is running, each span also records its peak
traced allocation above the allocation live when it opened.

Spans are kept in memory and written out by `Tracer.dump` when the run ends.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    start_bytes: int = 0
    peak_bytes: int = 0  # highest traced allocation seen while open, absolute

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def peak_mb(self) -> float:
        return max(self.peak_bytes - self.start_bytes, 0) / 1e6


class Tracer:
    """Collects spans for wrapped functions and counters at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.values: list[tuple[str, float]] = []
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _mark_peak(self) -> int:
        """Fold the traced peak since the last boundary into every open span."""
        if not tracemalloc.is_tracing():
            return 0
        current, peak = tracemalloc.get_traced_memory()
        for span in self._open:
            span.peak_bytes = max(span.peak_bytes, peak)
        tracemalloc.reset_peak()
        return current

    def open(self, name: str) -> Span:
        current = self._mark_peak()
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, 0.0, start_bytes=current, peak_bytes=current)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._mark_peak()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._open:
            self._open[-1].child_s += span.duration

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def record(self, key: str, value: float) -> None:
        self.values.append((key, value))

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_call=None, span: bool = True):
        """Replace owner.attr by a wrapper that opens a span named `name`.

        on_call(args, kwargs, result) runs after the call, inside the span, so
        counts are taken at the same boundary as the time. With span=False the
        wrapper only runs on_call.
        """
        original = getattr(owner, attr)
        tracer = self

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            on_call(args, kwargs, result)
            return result

        def spanned(*args, **kwargs):
            opened = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                if on_call is not None:
                    on_call(args, kwargs, result)
                return result
            finally:
                tracer.close(opened)

        wrapper = spanned if span else counting
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return wrapper

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def mark(self) -> tuple[int, dict, int]:
        """A position to summarise from: (span index, copy of counts, value index)."""
        return len(self.spans), dict(self.counts), len(self.values)

    def summary(self, since: tuple[int, dict, int]) -> dict:
        """Totals per span name and counter deltas since `since`.

        Per name: total duration `s`, total `self_s`, `calls`, and the largest
        `peak_mb` of any one call; counter deltas; recorded values by key.
        """
        first, counts_before, first_value = since
        out: dict[str, dict] = {}
        for span in self.spans[first:]:
            agg = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "peak_mb": 0.0})
            agg["s"] += span.duration
            agg["self_s"] += span.self_s
            agg["calls"] += 1
            agg["peak_mb"] = max(agg["peak_mb"], span.peak_mb)
        counts = {k: v - counts_before.get(k, 0) for k, v in self.counts.items()}
        values: dict[str, list] = {}
        for key, value in self.values[first_value:]:
            values.setdefault(key, []).append(value)
        return {"spans": out, "counts": counts, "values": values}

    def dump(self, path) -> None:
        """Write every span and the final counters as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                row = asdict(span)
                row["self_s"] = span.self_s
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps({"counts": self.counts, "values": self.values}) + "\n")
