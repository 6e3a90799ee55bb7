"""In-memory spans around the calls the CLI makes into each layer.

A span records name, start, end and the span that was open when it began.
Spans are kept in a list and written out once, when the traced run ends.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sp = Span(id=len(self.spans), name=name, parent=parent, start=self.clock())
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._open.pop()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def to_json(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name, summed over spans of that name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (overlapping children are counted once).
    """
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out: dict[str, float] = {}
    for sp in spans:
        covered = 0.0
        reach = sp.start
        for ch in sorted(children.get(sp.id, []), key=lambda c: c.start):
            lo, hi = max(ch.start, reach), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp.name] = out.get(sp.name, 0.0) + sp.duration - covered
    return out

