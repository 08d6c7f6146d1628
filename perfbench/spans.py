"""In-memory spans recorded around the benchmark's calls into the program.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (``None`` at the top level) and ``op`` the identifier of the
operation that caused it.  Spans stay in memory until :meth:`Tracer.write`.
"""

import contextlib
import json
import time


class NullTracer:
    """Tracing switched off: every span is a no-op context."""

    enabled = False

    def __init__(self):
        self.op = None
        self._null = contextlib.nullcontext()

    def span(self, name):
        return self._null


class Tracer:
    """Records nested spans; one process, one thread."""

    enabled = True

    def __init__(self):
        self.op = None
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """(name, op, self seconds) per span: the span's duration minus the
        durations of its direct children, which never overlap because one
        thread runs them one after another."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(name, op, end - start - child[i])
                for i, (name, start, end, _, op) in enumerate(self.spans)]

    def durations(self, name):
        """{op: duration} of the spans called ``name``."""
        return {op: end - start for span_name, start, end, _, op in self.spans
                if span_name == name}

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
