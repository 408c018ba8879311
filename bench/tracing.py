"""In-memory span recording around the engine's public callables.

A ``Tracer`` wraps a callable where its caller looks it up (a module
attribute or a class attribute), so the engine itself is not edited.
Each call becomes one span ``[name, start, end, parent, qid, attrs]``:
``parent`` is the index of the enclosing span (-1 at the root), ``qid``
the query the benchmark was serving when the span opened, and ``attrs``
counts read off the call's arguments or result.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable

NAME, START, END, PARENT, QID, ATTRS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.qid: int | None = None

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable,
             count: Callable[[tuple, dict, object], dict] | None = None) -> Callable:
        """Return ``fn`` recording one span per call; ``count(args, kwargs,
        result)`` may attach counts, and is evaluated outside the span."""
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index][ATTRS] = count(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets: Iterable[tuple[object, str, str, Callable | None]]):
        """Replace each ``owner.attr`` by a traced wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.qid, None])
        self._stack.append(index)
        self.spans[index][START] = perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def dump(self, path) -> None:
        """Write the spans as one JSON document (names interned)."""
        names = sorted({s[NAME] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        rows = [[code[s[NAME]], s[START], s[END], s[PARENT], s[QID], s[ATTRS]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "qid", "attrs"],
                       "names": names, "spans": rows}, out, separators=(",", ":"))


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return [s[END] - s[START] - covered(children.get(i, ())) for i, s in enumerate(spans)]


def root_of(spans: list[list], index: int) -> int:
    while spans[index][PARENT] >= 0:
        index = spans[index][PARENT]
    return index


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least ``q`` of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-round(q * 10_000) * len(ordered) // 10_000))
    return ordered[rank - 1]
