"""Span recorder that wraps calls into tabnsa's module functions.

Spans are recorded from the benchmark side only: `Tracer.wrap` replaces a
module or class attribute with a wrapper that opens a span, calls the
original and closes the span. Nothing inside the package changes, so a
span covers exactly one call made through that attribute. Spans stay in
memory as (name, start, end, parent, phase, thread, attrs) records until
`dump` writes them out.

A renamed or removed function makes `wrap` raise AttributeError, so a
refactor cannot silently drop a traced layer.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    phase: str
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables; `uninstall` restores them.

    Worker threads (the trial pool of `hyperopt.run_search`) have their own
    span stacks. A span opened on a thread with an empty stack takes the
    innermost span open on the main thread as its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_open: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> int:
        stack = self._stack()
        tid = threading.get_ident()
        parent = stack[-1] if stack else (None if tid == self._main else self._main_open)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, _clock(), 0.0, parent, self.phase, tid, attrs or {}))
        stack.append(idx)
        if tid == self._main:
            self._main_open = idx
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = _clock()
        self._stack().pop()
        if span.thread == self._main:
            self._main_open = span.parent

    def wrap(self, owner, attr: str, name, attrs_fn=None) -> None:
        """Trace calls made through `owner.attr`.

        `name` is a span name or a function of the call's arguments that
        returns one. `attrs_fn(args, kwargs)` runs before the span opens and
        returns extra attributes to store with it, so its cost is not timed.
        """
        original = getattr(owner, attr)
        namer = name if callable(name) else (lambda *a, **k: name)

        def traced(*args, **kwargs):
            attrs = attrs_fn(args, kwargs) if attrs_fn is not None else None
            idx = self.open(namer(*args, **kwargs), attrs)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(idx)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write every span as one JSON line; `parent` is the parent's `id`."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, s in enumerate(self.spans):
                record = {"id": idx, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                          "phase": s.phase, "thread": s.thread, **s.attrs}
                fh.write(json.dumps(record) + "\n")

    # -- queries ---------------------------------------------------------

    def named(self, name: str, phase: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (phase is None or s.phase == phase)]

    def coverage(self, name: str, phase: str) -> float:
        """Share of the time inside `name` spans that their direct children
        cover, counting overlapping children (parallel trials) once."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        covered = total = 0.0
        for idx, span in enumerate(self.spans):
            if span.name != name or span.phase != phase:
                continue
            total += span.duration
            edge = span.start
            for child in sorted(children.get(idx, ()), key=lambda s: s.start):
                start = max(child.start, edge)
                if child.end > start:
                    covered += child.end - start
                    edge = child.end
        return covered / total if total > 0 else float("nan")
