"""Span tracer that wraps library functions from outside the library.

`Tracer.wrap(owner, attr, name)` replaces `owner.attr` (a module global
or a class attribute) with a wrapper that records one span per call:
name, start, end, and the id of the enclosing span. Wrapping the name
in the module that *calls* it (e.g. `chimera2d.model.scan_forward`, not
`chimera2d.scan.scan_forward`) is what makes the library's own calls go
through the wrapper. Spans stay in memory; `restore()` (or leaving the
`with` block) puts every original object back.

`self_times` turns the spans into per-name self time: a span's duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

NO_PARENT = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    # per-name work counters, filled by the `count` hooks given to wrap()
    counts: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list = field(default_factory=list, init=False)
    _saved: list = field(default_factory=list, init=False)

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = Span(name, start, end, self._stack[-1] if self._stack else NO_PARENT)

    @contextmanager
    def span(self, name: str):
        sid = self._open()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self._close(sid, name, start)

    def wrap(self, owner, attr: str, name: str, count: Callable | None = None) -> None:
        """Route calls to `owner.attr` through a span named `name`.
        `count(*args, **kwargs)` may return {counter: amount} to add."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count is not None:
                for key, amount in count(*args, **kwargs).items():
                    self.counts[f"{name}.{key}"] += amount
            sid = self._open()
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._close(sid, name, start)

        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def to_json(self) -> dict:
        """Columnar dump of every span (ids are list positions)."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "name": [index[s.name] for s in self.spans],
            "start": [s.start for s in self.spans],
            "end": [s.end for s in self.spans],
            "parent": [s.parent for s in self.spans],
        }


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: {"calls", "total_s", "self_s"}."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent != NO_PARENT:
            children[s.parent].append((s.start, s.end))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, s in enumerate(spans):
        agg = out[s.name]
        agg["calls"] += 1
        agg["total_s"] += s.duration
        agg["self_s"] += s.duration - _covered(children.get(sid, []), s.start, s.end)
    return dict(out)


def child_counts(spans: list[Span], child: str, parent: str) -> int:
    """Number of `child` spans whose direct parent is a `parent` span."""
    return sum(
        1 for s in spans
        if s.name == child and s.parent != NO_PARENT and spans[s.parent].name == parent
    )
