"""In-memory span tracer that wraps library functions from the outside.

`Tracer.wrap(owner, attr, name)` replaces the attribute a caller looks up
(for example `chase.training.chase_forward`, which is what the training loop
calls) with a wrapper that records one span per call: name, start, end, the
index of the enclosing span, and whether the call raised. Nothing inside the
library changes; `restore()` (or leaving the `with` block) puts every
original attribute back. Spans stay in memory until `dump()`.

The library is single-threaded and has no queues, so a span's time is busy
time; there is no waiting time to record.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

# span fields, kept as small lists for low per-call cost
NAME, START, END, PARENT, FAILED = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, self.clock(), 0.0, parent, False]
        self.spans.append(span)
        self._stack.append(index)
        return span

    def _close(self, span):
        span[END] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        except BaseException:
            span[FAILED] = True
            raise
        finally:
            self._close(span)

    def wrap(self, owner, attr, name, on_call=None):
        """Trace every call made through `owner.attr`.

        `on_call(args, kwargs, result)` runs after a successful call, outside
        the span, to record counts derived from the arguments or result.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                self._close(span)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _inside(self, index, ancestor):
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == ancestor:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def summary(self, within=None):
        """{name: {"calls", "total_s", "self_s", "errors"}} over recorded spans.

        Self time is a span's duration minus the time its direct children
        cover. `within` keeps only spans that have an ancestor of that name.
        """
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        for i, span in enumerate(self.spans):
            if within is not None and not self._inside(i, within):
                continue
            row = out[span[NAME]]
            duration = span[END] - span[START]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_s[i]
            row["errors"] += int(span[FAILED])
        return dict(out)

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, failed."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": span[NAME], "start": span[START], "end": span[END],
                    "parent": span[PARENT], "failed": span[FAILED],
                }) + "\n")
