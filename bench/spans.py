"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent). Spans and counters stay in memory
and are read once, when the traced run ends. ``instrument`` wraps a
module-level function at *every* name it is bound to in the loaded
``adx`` modules (``cohorts`` imports ``estimate`` by name, so wrapping
``adx.entropy.estimate`` alone would miss its calls), and restores the
originals on exit.

The recorder has no dependency on ``adx``, so a ``--timings`` option in
the program can reuse it.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = self.clock()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Spans come from one thread, so children never overlap each other.
        """
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        agg: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            a = agg.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["total_s"] += s.duration
            a["self_s"] += own
        return agg


def traced(recorder: Recorder, name: str, fn, count=None):
    """Wrap ``fn`` in a span; ``count(counts, result, bound_args)`` records
    work counters at the same boundary."""
    sig = inspect.signature(fn) if count else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            count(recorder.counts, result, bound.arguments)
        return result

    return wrapper


@contextmanager
def instrument(recorder: Recorder, targets):
    """Patch each ``(module, attribute, span_name, count)`` target at every
    binding site among the loaded ``adx`` modules, including dict values
    such as a command table. Attributes that are classmethods are patched on
    their class, named ``"Class.method"``."""
    undo = []
    modules = [m for n, m in sys.modules.items() if n == "adx" or n.startswith("adx.")]
    try:
        for module, attr, name, count in targets:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                wrapped = classmethod(traced(recorder, name, raw.__func__, count))
                setattr(cls, meth, wrapped)
                undo.append((setattr, cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapped = traced(recorder, name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append((setattr, mod, key, original))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapped
                                undo.append((dict.__setitem__, value, k, original))
        yield recorder
    finally:
        for op, obj, key, value in reversed(undo):
            op(obj, key, value)
