"""Span recorder for the traced benchmark run.

A span is one timed call into a polydist layer: its name, start and end
(``time.perf_counter`` seconds), the index of the enclosing span (-1 at
the root) and the sample it belongs to.  Spans stay in memory while a
sample runs and are handed to ``run.py`` when the sample ends.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL_SPAN = nullcontext()


class NullRecorder:
    """Stands in for the recorder in untraced runs; records nothing."""

    spans = ()

    def span(self, name: str):
        return _NULL_SPAN


class Recorder:
    def __init__(self, sample: int):
        self.sample = sample
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else -1,
            "sample": self.sample,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._open.pop()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one sample nest strictly (they come from one thread), so the
    children of a span never overlap and their durations can be summed.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Sum of self time per span name."""
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out
