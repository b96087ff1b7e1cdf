"""Spans recorded by the benchmark around its own calls into the package.

A span holds its name, layer, start, end, parent span and operation id, plus
work counts taken from the benchmark's own inputs.  Spans stay in memory and
are written out once, when the traced run ends.  With tracing disabled,
`call` is a plain function call and `span` records nothing, so the timed runs
and the traced runs execute the same code.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    sid: int
    parent: int | None
    op: str
    layer: str
    name: str
    start: float
    end: float
    fields: dict

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op = "setup"  # operation id shared by the spans of one operation
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)  # reserved so span ids follow start order
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, layer, name, start, fields) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = Span(sid, parent, self.op, layer, name, start, end,
                               {} if fields is None else fields)

    def call(self, layer: str, fn, *args, fields: dict | None = None, **kwargs):
        """fn(*args, **kwargs), inside a span when tracing is on.

        `fields` is kept by reference, so a caller may add counts read from
        the result after the call returns.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, layer, getattr(fn, "__qualname__", repr(fn)), start, fields)

    @contextmanager
    def span(self, layer: str, name: str, fields: dict | None = None):
        if not self.enabled:
            yield
            return
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, layer, name, start, fields)

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def write(self, path: Path) -> None:
        """Gzipped JSON lines, one array per span: id, parent, op, layer, name,
        start, end, fields."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.finished():
                fh.write(json.dumps([s.sid, s.parent, s.op, s.layer, s.name,
                                     s.start, s.end, s.fields]) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    child = {s.sid: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in child:
            child[s.parent] += s.dur
    return {s.sid: s.dur - child[s.sid] for s in spans}
