"""In-memory span tracer that wraps the program's functions from outside.

A span is one call of a wrapped function: its name, start and end
(``time.perf_counter`` seconds), the index of the enclosing span (-1 at top
level) and the step id current when it started.  Spans stay in memory
until the run ends.

Wrapping happens at module bindings: ``engines.to_float`` is replaced, not
``transforms.to_float``, so a span marks a call that crosses from one
module into another.  ``install`` swaps the wrappers in and returns an undo
list; nothing is wrapped unless the caller asks, so untraced runs execute
the program unchanged.
"""

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    step: object
    info: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls; one caller thread."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.step: object = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, capture=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``capture(args, kwargs)`` may return a small record stored with the
        span (taken before the call, so the timed interval excludes it).
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            info = capture(args, kwargs) if capture is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.step, info)

        traced.__wrapped__ = fn
        return traced

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.seconds - covered)
    return out


def totals_by_step(spans: list[Span]) -> dict[object, dict[str, dict[str, float]]]:
    """{step: {name: {"ms", "self_ms", "calls"}}} summed over each step's spans."""
    selfs = self_seconds(spans)
    out: dict[object, dict[str, dict[str, float]]] = {}
    for s, self_s in zip(spans, selfs):
        rec = out.setdefault(s.step, {}).setdefault(
            s.name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
        rec["ms"] += s.seconds * 1e3
        rec["self_ms"] += self_s * 1e3
        rec["calls"] += 1
    return out


def install(tracer: Tracer, modules: dict[str, object], captures=None) -> list:
    """Wrap every cross-module function binding among ``modules``.

    ``modules`` maps a layer name (``"engines"``) to its module object.  In
    each module, every non-class callable whose defining module is another
    listed layer is replaced by a wrapper whose span is named
    ``"<defining layer>.<function>"``.  Returns the undo list for
    ``uninstall``.
    """
    captures = captures or {}
    by_module_name = {mod.__name__: layer for layer, mod in modules.items()}
    undo = []
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if isinstance(value, type) or not callable(value):
                continue
            owner = by_module_name.get(getattr(value, "__module__", None))
            if owner is None or owner == by_module_name[mod.__name__]:
                continue
            name = f"{owner}.{getattr(value, '__name__', attr)}"
            setattr(mod, attr, tracer.wrap(name, value, captures.get(name)))
            undo.append((mod, attr, value))
    return undo


def uninstall(undo: list) -> None:
    for mod, attr, value in reversed(undo):
        setattr(mod, attr, value)
