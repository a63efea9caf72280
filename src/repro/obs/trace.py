"""Span tracing on one monotonic clock, with a Chrome-trace exporter.

A :class:`Span` is a named, closed interval of ``time.perf_counter``
time with an optional parent — the serving path records one tree per
request (queue wait, dispatch, micro-batch assembly, compile with
per-pass children, execute) and one per graph (a node span per launch).
The :class:`Tracer` collects finished spans into a bounded buffer,
hands them to an attached :class:`~repro.obs.flight.FlightRecorder`,
and exports the whole timeline as Chrome-trace/Perfetto JSON
(:meth:`Tracer.export_chrome_trace`) loadable in ``chrome://tracing``
or https://ui.perfetto.dev.

Two recording styles coexist:

* :meth:`Tracer.begin` / :meth:`Tracer.end` — explicit-parent spans
  that may start on one thread and finish on another (a request's root
  span starts on the submitting thread and ends on a worker);
* :meth:`Tracer.record` — retro-record an already-measured interval
  (the serving hot path times segments with bare ``perf_counter``
  reads and records spans only when tracing is on);
* :meth:`Tracer.span` — a context manager using a thread-local stack
  for same-thread nesting (builder, speculator).

**Zero-cost-when-off:** the module-level :data:`NULL_TRACER` singleton
(:class:`NullTracer`) implements the same surface as no-ops. Hot paths
hold ``tracer.enabled`` in a local and branch on it; the disabled cost
is one attribute load per request; ``python -m bench`` reports what
turning it on costs as ``obs.trace.overhead_ratio``.

All span timestamps are ``time.perf_counter`` — the same monotonic
clock the latency percentiles in :mod:`repro.runtime.telemetry` use —
so span durations and telemetry agree. Wall-clock time appears only in
export headers.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Union

from repro.errors import CypressError


class Span:
    """One named, timed interval in a trace tree.

    Attributes:
        name: what the interval covers (``"request"``, ``"compile"``,
            ``"pass.vectorize"``...). See ``docs/observability.md`` for
            the taxonomy.
        cat: coarse category used by trace viewers to color events
            (``"serve"``, ``"graph"``, ``"compile"``, ``"speculate"``).
        sid: unique span id within its tracer.
        parent: parent span's ``sid``, or ``None`` for a root.
        tid: id of the thread that recorded the span.
        start_s / end_s: ``time.perf_counter`` bounds; ``end_s`` is 0.0
            while the span is open.
        args: free-form attributes (kernel name, cache tier, ...).
    """

    __slots__ = ("name", "cat", "sid", "parent", "tid", "start_s",
                 "end_s", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        sid: int,
        parent: Optional[int],
        tid: int,
        start_s: float,
        end_s: float = 0.0,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.sid = sid
        self.parent = parent
        self.tid = tid
        self.start_s = start_s
        self.end_s = end_s
        self.args = args if args is not None else {}

    @property
    def duration_s(self) -> float:
        """Closed-interval length in seconds (0.0 while open)."""
        return max(self.end_s - self.start_s, 0.0) if self.end_s else 0.0

    @property
    def closed(self) -> bool:
        """Whether :meth:`Tracer.end` (or ``record``) stamped ``end_s``."""
        return self.end_s > 0.0

    def __repr__(self) -> str:
        state = f"{self.duration_s * 1e6:.1f}us" if self.closed else "open"
        return (
            f"Span({self.name!r}, sid={self.sid}, "
            f"parent={self.parent}, {state})"
        )


class _NullContext:
    """The context manager a disabled tracer hands out (yields ``None``)."""

    __slots__ = ()

    def __enter__(self):
        """Enter the no-op context; the bound span is ``None``."""
        return None

    def __exit__(self, *exc_info):
        """Exit without suppressing anything."""
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The disabled tracer: same surface as :class:`Tracer`, all no-ops.

    ``enabled`` is ``False`` so hot paths can skip even timestamp reads;
    every recording method accepts the same arguments and does nothing,
    so cold paths may call them unconditionally.
    """

    enabled = False

    def begin(self, name, cat="", parent=None, args=None, start_s=None):
        """No-op; returns ``None`` (callers must tolerate a None span)."""
        return None

    def end(self, span, args=None):
        """No-op."""

    def span(self, name, cat="", args=None):
        """A reusable no-op context manager yielding ``None``."""
        return _NULL_CONTEXT

    def spans(self):
        """Always the empty list."""
        return []

    @property
    def span_count(self) -> int:
        """Always zero."""
        return 0

    def __len__(self) -> int:
        return 0


#: Process-wide singleton handed to everything constructed untraced.
NULL_TRACER = NullTracer()


class _SpanContext:
    """Context manager for same-thread nested spans (see ``Tracer.span``)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        """Yield the live span so callers can add ``args`` mid-flight."""
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close the span (stamping ``error`` on exception) and pop it
        off the thread-local stack."""
        if exc is not None:
            self._span.args.setdefault("error", repr(exc))
        self._tracer._pop(self._span)
        self._tracer.end(self._span)
        return False


class Tracer:
    """Collects :class:`Span` trees into a bounded buffer.

    Args:
        capacity: finished spans retained (oldest dropped first); the
            buffer is bounded so a long-lived traced server stays O(1)
            in memory.
        recorder: optional :class:`~repro.obs.flight.FlightRecorder`
            that every finished span is also appended to.

    The tracer is thread-safe: spans may begin on one thread and end on
    another (explicit parenting), and multiple workers record
    concurrently.
    """

    enabled = True

    def __init__(self, capacity: int = 65536, recorder=None) -> None:
        if capacity < 1:
            raise CypressError(
                f"tracer capacity must be >= 1, got {capacity!r}"
            )
        self.capacity = capacity
        self.recorder = recorder
        #: perf_counter origin all exported timestamps are relative to.
        self.epoch_s = time.perf_counter()
        #: wall-clock at construction (export headers only — span
        #: arithmetic never mixes clocks).
        self.epoch_wall_s = time.time()
        self._lock = threading.Lock()
        self._spans: "deque[Span]" = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._dropped = 0
        self._recorded = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        cat: str = "",
        parent: Union[Span, int, None] = None,
        args: Optional[Dict[str, Any]] = None,
        start_s: Optional[float] = None,
    ) -> Span:
        """Open a span; it is buffered only when :meth:`end` closes it.

        Args:
            name: span name (see the taxonomy in
                ``docs/observability.md``).
            cat: viewer category.
            parent: explicit parent (a :class:`Span` or its ``sid``);
                ``None`` makes a root. The thread-local stack is *not*
                consulted — explicit parenting is what lets a span
                start on the submit thread and end on a worker.
            args: initial attributes (mutable until the span closes).
            start_s: override the start timestamp (``perf_counter``
                domain) when the interval began before this call.

        Returns:
            The open span; hand it to :meth:`end`.
        """
        parent_id = parent.sid if isinstance(parent, Span) else parent
        return Span(
            name=name,
            cat=cat,
            sid=next(self._ids),
            parent=parent_id,
            tid=threading.get_ident(),
            start_s=time.perf_counter() if start_s is None else start_s,
            args=args,
        )

    def end(self, span: Optional[Span], args: Optional[Dict[str, Any]] = None) -> None:
        """Close an open span and buffer it (``None`` is ignored)."""
        if span is None:
            return
        span.end_s = time.perf_counter()
        if args:
            span.args.update(args)
        self._buffer(span)

    def record(
        self,
        name: str,
        cat: str,
        start_s: float,
        end_s: float,
        parent: Union[Span, int, None] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Retro-record an interval that was timed with bare
        ``perf_counter`` reads (the serving hot path's style).

        Args:
            name / cat / parent / args: as :meth:`begin`.
            start_s / end_s: the measured ``perf_counter`` bounds.

        Returns:
            The closed, buffered span.
        """
        span = Span(
            name=name,
            cat=cat,
            sid=next(self._ids),
            parent=parent.sid if isinstance(parent, Span) else parent,
            tid=threading.get_ident(),
            start_s=start_s,
            end_s=end_s if end_s > start_s else start_s,
            args=args,
        )
        self._buffer(span)
        return span

    def span(
        self, name: str, cat: str = "", args: Optional[Dict[str, Any]] = None
    ) -> _SpanContext:
        """Context manager for same-thread nesting.

        The opened span's parent is the innermost ``span()`` still open
        on *this* thread (explicit :meth:`begin` spans do not join the
        stack). The yielded span's ``args`` can be updated inside the
        block; an escaping exception stamps an ``error`` attribute.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        opened = self.begin(name, cat=cat, parent=parent, args=args)
        stack.append(opened)
        return _SpanContext(self, opened)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """A snapshot list of finished spans, oldest first."""
        with self._lock:
            return list(self._spans)

    @property
    def span_count(self) -> int:
        """Finished spans recorded over the tracer's lifetime
        (including any dropped by the bounded buffer)."""
        with self._lock:
            return self._recorded

    @property
    def dropped(self) -> int:
        """Finished spans evicted by the capacity bound."""
        with self._lock:
            return self._dropped

    def export_chrome_trace(self, path) -> str:
        """Write the buffered spans as Chrome-trace JSON.

        The format is the Trace Event Format's complete-event (``"ph":
        "X"``) flavor: one event per span with microsecond ``ts``
        (relative to the tracer's epoch) and ``dur``, the process id as
        ``pid``, the recording thread as ``tid``, and the span/parent
        ids under ``args`` so the tree survives the round trip. Load
        the file in ``chrome://tracing`` or https://ui.perfetto.dev.

        Args:
            path: output file path.

        Returns:
            The path written, as a string.
        """
        payload = self.chrome_payload()
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1, default=str)
            handle.write("\n")
        return str(path)

    def chrome_payload(self) -> Dict[str, Any]:
        """The buffered spans as an in-memory Chrome-trace payload.

        The same object :meth:`export_chrome_trace` writes to disk —
        the ``/tracez`` diagnostics endpoint serves it directly, and
        it round-trips through ``tests/exposition.py``'s checker.
        """
        return {
            "traceEvents": [
                self._event(span) for span in self.spans() if span.closed
            ],
            "displayTimeUnit": "ms",
            "otherData": {
                # Wall clock appears only here, as a header: every
                # event timestamp stays in the monotonic domain.
                "epoch_wall_s": self.epoch_wall_s,
                "epoch_wall_iso": time.strftime(
                    "%Y-%m-%dT%H:%M:%S", time.localtime(self.epoch_wall_s)
                ),
                "pid": os.getpid(),
                "span_count": self.span_count,
                "dropped": self.dropped,
            },
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _event(self, span: Span) -> Dict[str, Any]:
        args = dict(span.args)
        args["sid"] = span.sid
        if span.parent is not None:
            args["parent"] = span.parent
        return {
            "name": span.name,
            "cat": span.cat or "trace",
            "ph": "X",
            "ts": (span.start_s - self.epoch_s) * 1e6,
            "dur": span.duration_s * 1e6,
            "pid": os.getpid(),
            "tid": span.tid,
            "args": args,
        }

    def _buffer(self, span: Span) -> None:
        recorder = self.recorder
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self._dropped += 1
            self._spans.append(span)
            self._recorded += 1
        if recorder is not None:
            recorder.record_span(span)

    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)
