"""In-memory spans around calls into fieldcal, and the wrappers that make them.

Spans are recorded from the benchmark's side of each layer boundary: a
wrapper replaces a public function at every module attribute the program
calls it through, times the call, and is removed again afterwards. The
program itself is not edited. Calls run on one thread, so spans nest
properly and a span's self time is its duration minus the durations of
its direct children.
"""

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``open``/``close`` keep a stack of the active ones."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def open(self, name) -> Span:
        span = Span(name, self.clock(),
                    parent=self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = self.clock()
        if self.spans[self._stack.pop()] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)


def self_times(spans):
    """Each span's duration minus the summed durations of its children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def subtree(spans, root):
    """Indices of ``root`` and every span below it (children follow parents)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


def traced(tracer, name, fn, count=None):
    """``fn`` wrapped in a span; ``count(args, kwargs, result)`` adds counts."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(args, kwargs, result))
        return result
    return wrapper


@contextmanager
def patched(replacements):
    """Set ``(owner, attribute, new)`` triples and restore the originals on exit."""
    saved = []
    try:
        for owner, attr, new in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
