"""In-memory spans recorded around crnkit's public functions.

The tracer wraps functions from the benchmark's side only: it rebinds the
module attributes that callers look up (``crnkit.concord.lp_feasible``,
``crnkit.structure.rank``, ...) and restores them afterwards. Nothing in
``src/`` is changed, and nothing outside the benchmark's own process is
traced.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    # counts taken at the span boundary, e.g. LP rows and columns
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, reach, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def roots(spans: Iterable[Span]) -> dict[int, Span]:
    """Each span's outermost ancestor, or the span itself if it has none.

    A tracer records a span when it begins, so a parent always comes before
    its children in ``spans``.
    """
    found: dict[int, Span] = {}
    for span in spans:
        found[span.id] = span if span.parent is None else found[span.parent]
    return found


def outermost(spans: Iterable[Span], name: str) -> list[Span]:
    """Spans called ``name`` that have no ancestor of the same name."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    found = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if parent is None:
            found.append(span)
    return found


# Called with (span, args, kwargs, result) after a wrapped call returns, to
# record counts from its arguments or result.
Annotator = Callable[[Span, tuple, dict, object], None]


class Tracer:
    """Records nested spans while installed; single-threaded by design."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Record a span around a block of the benchmark's own code."""
        span = self._begin(name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._finish(span)

    def _begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _finish(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, annotate: Annotator | None = None) -> None:
        """Trace ``module.attr`` in every module of its package that holds it.

        Every module of the package whose global of that name is the same
        function object is rebound, because ``from .x import f`` copies the
        reference into the caller's namespace.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._finish(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, traced)

    def uninstall(self) -> None:
        """Restore every rebound attribute."""
        for mod, key, value in reversed(self._undo):
            setattr(mod, key, value)
        self._undo.clear()
