"""Spans and counters around the public calls of the hanlink modules.

A `Recorder` is installed by replacing each target callable with a wrapper
at every place it is looked up: the defining module, every hanlink module
that imported it by name, or the class that owns a method. Untimed
recorders keep only the results the correctness checks need; timed ones
also record a span (name, start, end, parent) per call.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class Recorder:
    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[list] = []       # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.calls: dict[str, list] = defaultdict(list)  # name -> [(args, kwargs, result)]

    def wrap(self, fn, name: str, keep: bool, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.timed:
                out = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                span = [name, time.perf_counter(), 0.0, parent]
                self.spans.append(span)
                self._stack.append(index)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
            if keep:
                self.calls[name].append((args, kwargs, out))
            if count is not None and self.timed:
                count(self.counts, args, kwargs, out)
            return out
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name] += (end - start) - covered
        return dict(out)


def _hanlink_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hanlink" or name.startswith("hanlink."))]


def install(recorder: Recorder, targets) -> None:
    """targets: (owner, attribute, span name, keep result?, counter or None).

    `owner` is a module or a class. For a module function every hanlink
    module attribute bound to the same object is replaced, because callers
    such as `experiment` import functions by name.
    """
    modules = _hanlink_modules()
    for owner, attr, name, keep, count in targets:
        original = getattr(owner, attr)
        wrapper = recorder.wrap(original, name, keep, count)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
