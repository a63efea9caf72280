"""repro.obs — observability: tracing, metrics, flight recorder, ops.

Aggregate telemetry (:class:`~repro.runtime.telemetry.RuntimeStats`)
answers "how is the server doing"; this package answers "where did
*this* request spend its time" and "what happened right before the
crash". Cooperating subsystems:

* :mod:`~repro.obs.trace` — :class:`Tracer` / :class:`Span`: per-request
  span trees on one monotonic clock (``time.perf_counter``), threaded
  through the whole serving path — submit, queue wait, bucket dispatch,
  micro-batch assembly, compile (one child per compiler pass, lifted
  from the :class:`~repro.compiler.passes.PassTrace`), execute, plus
  graph-node, template hit/miss, and speculation-cycle spans — and a
  Chrome-trace/Perfetto JSON exporter. A disabled tracer is the no-op
  :data:`NULL_TRACER`; hot paths pay one attribute load and a branch.
* :mod:`~repro.obs.metrics` — :class:`Counter` / :class:`Gauge` behind
  a :class:`MetricsRegistry` with labels and Prometheus text exposition
  (:meth:`MetricsRegistry.render`);
  :func:`server_metrics` publishes every runtime, compile-cache, disk,
  graph, and speculation counter into one scrapeable registry. The
  tests hold the rendered document (and the Chrome trace) to strict
  conformance oracles in ``tests/exposition.py``.
* :mod:`~repro.obs.flight` — :class:`FlightRecorder`: a bounded ring
  buffer of recent span/event records the server dumps to disk (with
  bounded rotation) on ``close()`` and on worker-loop exceptions, for
  postmortems.
* :mod:`~repro.obs.ops` — the live ops plane: :class:`DiagServer`, a
  stdlib-only embedded HTTP listener serving ``/metrics``,
  ``/statusz``, ``/healthz``, ``/readyz``, ``/tracez`` and ``/flightz``
  from a running server.
* :mod:`~repro.obs.slo` — :class:`Slo` / :class:`SloMonitor`:
  declarative objectives with multi-window burn-rate alerting over
  rolling :class:`~repro.runtime.telemetry.RuntimeStats` windows.

See ``docs/observability.md`` for the span taxonomy and metric naming
convention, and ``docs/ops.md`` for the diagnostics endpoints and SLO
semantics.
"""

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    server_metrics,
)
from repro.obs.ops import DiagConfig, DiagServer
from repro.obs.slo import Slo, SloMonitor
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "Counter",
    "DiagConfig",
    "DiagServer",
    "FlightRecorder",
    "Gauge",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Slo",
    "SloMonitor",
    "Span",
    "Tracer",
    "server_metrics",
]
