"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around its calls into
each layer — not by the program's tracer, which is itself one of the
things measured (``obs.trace.overhead_ratio``). A span is ``(name,
start, end, parent, op)``: ``parent`` is the index of the enclosing
span and ``op`` the op identifier every span of one op shares. Spans
stay in memory and are written once, when the run ends.

One recorder serves one thread (the benchmark's single client), so it
takes no lock.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, Optional[int], Optional[int]]


class Recorder:
    """Collects nested spans on the ``time.perf_counter`` clock."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        #: Identifier stamped on every span recorded until it changes.
        self.op: Optional[int] = None
        #: Index of the span ``call`` closed last (a parent for
        #: ``record``).
        self.last: Optional[int] = None

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``; the
        span is recorded whether or not ``fn`` raises."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)
            self.last = index

    def record(self, name: str, start: float, end: float, parent: Optional[int]) -> None:
        """Add a span timed elsewhere on the same clock (the compiler's
        ``PassRecord`` carries each pass's start and duration)."""
        self.spans.append((name, start, end, parent, self.op))

    def durations(
        self, slowness: Optional[Dict[int, float]] = None
    ) -> Dict[str, List[float]]:
        """Span durations in seconds, grouped by name. ``slowness`` maps
        an op to the host's slowness factor while it ran
        (:mod:`bench.hostspeed`); its spans are divided by it."""
        slowness = slowness or {}
        out: Dict[str, List[float]] = defaultdict(list)
        for name, start, end, _parent, op in filter(None, self.spans):
            out[name].append((end - start) / slowness.get(op, 1.0))
        return out

    def self_times(
        self, slowness: Optional[Dict[int, float]] = None
    ) -> Dict[str, List[float]]:
        """Per span: its duration minus what its child spans cover,
        scaled like :meth:`durations`. Children of one span never
        overlap (one thread, strict nesting), so the covered part is the
        sum of their durations."""
        slowness = slowness or {}
        covered = [0.0] * len(self.spans)
        for span in filter(None, self.spans):
            if span[3] is not None:
                covered[span[3]] += span[2] - span[1]
        out: Dict[str, List[float]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span is not None:
                name, start, end, _parent, op = span
                out[name].append(
                    (end - start - covered[index]) / slowness.get(op, 1.0)
                )
        return out

    def write(self, path, meta: Optional[Dict[str, Any]] = None) -> None:
        """Write every span to ``path`` as JSON, times in seconds from
        the first span's start."""
        done = [s for s in self.spans if s is not None]
        epoch = min((s[1] for s in done), default=0.0)
        index_of = {
            old: new
            for new, old in enumerate(
                i for i, s in enumerate(self.spans) if s is not None
            )
        }
        payload = {
            "meta": meta or {},
            "spans": [
                {
                    "id": new,
                    "name": name,
                    "start_s": start - epoch,
                    "end_s": end - epoch,
                    "parent": index_of.get(parent),
                    "op": op,
                }
                for new, (name, start, end, parent, op) in enumerate(done)
            ],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")
