"""In-memory spans around latescore's public functions, for the traced run.

The package has no tracing of its own, so spans are recorded from the
outside: each traced function is replaced, in every ``latescore`` module
that binds it (``latescore.simulation.cross_fit``, ``latescore.cli.load_csv``,
...), by a wrapper that records a span and, optionally, counters read from
the call's arguments and return value.  Spans are plain lists kept in a
list until the traced operation ends; nothing is written while it runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "latescore"


class Tracer:
    """Spans ``[id, parent, name, start, end]`` and counters of one operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` recording a span named ``name`` around each call.

        ``hook(counters, args, kwargs, result)`` runs after a call returns.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None, name, self.clock(), None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = self.clock()
                self._stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def calls(self) -> Counter:
        return Counter(span[2] for span in self.spans)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus the time children cover."""
    children: dict[int, list] = {}
    for span_id, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for span_id, _parent, name, start, end in spans:
        own = (end - start) - _covered(children.get(span_id, ()), start, end)
        out[name] = out.get(name, 0.0) + own
    return out


@contextmanager
def patched(tracer: Tracer, targets):
    """Trace ``targets`` — ``(module, attribute, span name, hook)`` tuples —
    for the duration of the block, in every loaded module of the package
    that binds the function, and restore the originals afterwards."""
    replaced = []
    try:
        for module_name, attr, name, hook in targets:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = tracer.wrap(name, original, hook)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        replaced.append((module, key, original))
        yield tracer
    finally:
        for module, key, original in reversed(replaced):
            setattr(module, key, original)
