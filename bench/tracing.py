"""In-memory span tracing by wrapping module attributes from outside.

A :class:`Tracer` replaces functions on their owning module or class with
wrappers that record one span per call: name, start and end in nanoseconds,
the index of the enclosing span, the id of the run (one CLI command), and the
name of the exception the call raised, if any.  Wrappers return the wrapped
function's value unchanged and re-raise its exceptions unchanged, so code
that catches an exception (the learning line search catches
``BarrierError``) behaves exactly as it does untraced.  ``uninstall`` puts
every original back.
"""

from __future__ import annotations

import inspect
import json
import time
from typing import Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "error")

    def __init__(self, name: str, start: int, parent: int | None, run: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.error: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "run": self.run,
            "error": self.error,
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        adapt: Callable[[Callable], Callable] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper named ``name``.

        ``adapt``, when given, maps the original to the callable the wrapper
        invokes; it lets a caller observe arguments or results of one
        function without a second kind of wrapper.
        """
        original = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        target = adapt(original) if adapt is not None else original
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0, stack[-1] if stack else None, self.run)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter_ns()
            try:
                return target(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, own))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(index)) + "\n")


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo = max(child.start, cursor, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start - covered) * 1e-9)
    return out
