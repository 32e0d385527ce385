"""In-memory spans around public entry points, and the arithmetic on them.

The traced run replaces public names (a module function, a bound method
on one instance) with wrappers that record a :class:`Span` per call and
restores them afterwards.  Names are patched where the caller resolves
them, so a call that stops going through a name no longer records a
span — :func:`conservation_errors` turns that into a failed run instead
of a silently smaller layer.

The recorder keeps one parent stack, so spans must come from a single
thread; every traced call the benchmark makes does.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

#: ``(args, kwargs, result) -> attrs`` recorded on a span when its call returns.
Describe = Callable[[tuple, dict, object], dict]

#: ``(owner, attribute, span name, describe or None)``.
Target = tuple[object, str, str, "Describe | None"]


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans of one thread in call order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs: object) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, attrs=dict(attrs)))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, **attrs: object) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = time.perf_counter()
        span.attrs.update(attrs)

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        index = self.open(name, **attrs)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def wrap(self, fn: Callable, name: str, describe: Describe | None = None) -> Callable:
        """``fn`` recording a ``name`` span per call."""

        def wrapper(*args: object, **kwargs: object) -> object:
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, error=True)
                raise
            self.close(index, **(describe(args, kwargs, result) if describe else {}))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


@contextlib.contextmanager
def patched(recorder: SpanRecorder, targets: Iterable[Target]) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore it.

    A target the owner held in its own ``__dict__`` (a module function)
    is put back; one it only inherited (a method) is deleted again, so
    the instance falls back to its class.
    """
    restore: list[tuple[object, str, bool, object]] = []
    try:
        for owner, attribute, name, describe in targets:
            own = vars(owner)
            restore.append((owner, attribute, attribute in own, own.get(attribute)))
            setattr(owner, attribute, recorder.wrap(getattr(owner, attribute), name, describe))
        yield
    finally:
        for owner, attribute, had_own, original in reversed(restore):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def children_of(spans: Sequence[Span]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    return children


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = children_of(spans)
    return [
        span.duration
        - covered(span.start, span.end, ((spans[c].start, spans[c].end) for c in children[i]))
        for i, span in enumerate(spans)
    ]


def root_of(spans: Sequence[Span]) -> list[int]:
    """Index of each span's outermost ancestor (itself for a root)."""
    roots: list[int] = []
    for index, span in enumerate(spans):
        roots.append(index if span.parent is None else roots[span.parent])
    return roots


def conservation_errors(
    spans: Sequence[Span], expected: dict[tuple[str, str], int]
) -> list[str]:
    """Check that each ``(parent, child)`` name pair fires exactly as often as expected.

    ``expected[(parent, child)] = n`` means every ``parent`` span has
    exactly ``n`` direct ``child`` spans.  Returns one message per
    distinct violation, naming the span that went missing or multiplied.
    """
    children = children_of(spans)
    seen: dict[tuple[str, str, int], int] = {}
    for index, span in enumerate(spans):
        names = [spans[c].name for c in children[index]]
        for (parent, child), want in expected.items():
            if span.name != parent:
                continue
            got = names.count(child)
            if got != want:
                seen[(parent, child, got)] = seen.get((parent, child, got), 0) + 1
    return [
        f"span conservation: {count} '{parent}' span(s) had {got} '{child}' "
        f"children, expected {expected[(parent, child)]} — was '{child}' bypassed?"
        for (parent, child, got), count in sorted(seen.items())
    ]
