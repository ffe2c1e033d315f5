"""In-memory spans for the traced benchmark run.

A span records ``name``, ``start`` and ``end`` (``perf_counter_ns``),
the index of its ``parent`` span (-1 at the root) and the ``job`` id it
belongs to.  Spans are taken only here, around the benchmark's own calls
into the repository's public functions; nothing under ``src/`` is
instrumented.  The untraced run uses :class:`NullTracer`, which calls
straight through, so end-to-end figures carry no tracing cost.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List


class NullTracer:
    """Tracing off: every call goes straight to the layer."""

    def __init__(self) -> None:
        self.job = -1

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    """Tracing on: keeps every span in memory until :meth:`write`."""

    def __init__(self) -> None:
        super().__init__()
        #: ``[name, start_ns, end_ns, parent_index, job]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return traced

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_s``, ``self_s``, ``in_verify_s``.

        Self time is a span's duration minus the durations of its direct
        children.  ``in_verify_s`` is the part of ``total_s`` spent in
        spans whose parent is a ``verify.*`` span.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent, _) in enumerate(spans):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                        "self_s": 0.0, "in_verify_s": 0.0})
            row["count"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[index]) / 1e9
            if parent >= 0 and spans[parent][0].startswith("verify."):
                row["in_verify_s"] += (end - start) / 1e9
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "job": job,
                }) + "\n")
