"""In-memory span recorder for the traced benchmark runs.

A span is (name, start, end, parent, run id) around one call into a public
function of a hocal module. Spans are recorded by wrappers that the benchmark
installs on module attributes, so the library itself is not edited. They stay
in memory and are written out once, at the end of the traced process.

Self time is a span's duration minus the durations of its direct children.
Calls are single-threaded and strictly nested, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, fn, name, after=None, errors=None):
        """A traced version of fn.

        `name` is a span name, or a function of (args, kwargs) that picks one.
        `after(counts, args, kwargs, result)` records exact counts. An
        exception from fn is counted under the key `errors` and re-raised.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if errors is not None:
                    self.counts[errors] += 1
                raise
            finally:
                self.end(index)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, name, after=None, errors=None):
        """Replace module.attr with a traced wrapper until `unpatch`."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, after, errors))

    def unpatch(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans, "counts": self.counts}, fh)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.index)
        return False


def self_times(spans) -> dict:
    """Summed self time per span name, in seconds."""
    child_time = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child_time[i]
    return dict(out)

