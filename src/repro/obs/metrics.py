"""A unified metrics registry with Prometheus text exposition.

Two instrument kinds — :class:`Counter` (event count) and
:class:`Gauge` (point-in-time) — live in a :class:`MetricsRegistry`,
each optionally split by labels. The registry renders the standard
Prometheus text-exposition format (:meth:`MetricsRegistry.render`) so
the future fleet gateway can serve it from a ``/metrics`` endpoint and
existing scrapers ingest it as-is.

:func:`server_metrics` is the bridge from the runtime's siloed
snapshots: it publishes every :class:`~repro.runtime.telemetry.
RuntimeStats` counter/percentile, the process-wide compile-cache
:class:`~repro.compiler.cache.CacheStats`, the disk tier's
:class:`~repro.runtime.diskcache.DiskCacheStats`, and the speculation
counters into one scrapeable registry.

Naming convention (see ``docs/observability.md``): every metric is
prefixed ``repro_``, counters end in ``_total``, time is in seconds
(``_seconds`` suffix), sizes in bytes; dimensions that would otherwise
multiply metric names (cache tier, kernel, compiler pass) become
labels.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CypressError

_LABEL_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n"}
)

#: HELP text escapes only backslash and newline (quotes stay literal).
_HELP_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n"})

#: Prometheus metric-name grammar: may not start with a digit.
_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    parts = [
        f'{name}="{str(value).translate(_LABEL_ESCAPES)}"'
        for name, value in zip(names, values)
    ]
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Shared base: a named family with fixed label names and one
    number per label-value tuple."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> None:
        if not _METRIC_NAME.match(name or ""):
            # The exposition-format grammar: names may not start with
            # a digit (the old alnum check let "0bad" through and the
            # conformance validator rejected the render).
            raise CypressError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_NAME.match(label):
                raise CypressError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], float] = {}

    def _key(self, label_values: Sequence[str]) -> Tuple[str, ...]:
        values = tuple(str(value) for value in label_values)
        if len(values) != len(self.label_names):
            raise CypressError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {values!r}"
            )
        return values

    def labelled(self) -> List[Tuple[Tuple[str, ...], float]]:
        """Snapshot of ``(label values, value)`` pairs, insertion order."""
        with self._lock:
            return list(self._children.items())

    def set(self, value: float, *labels) -> None:
        """Set the child named by ``labels`` to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, *labels) -> None:
        """Add ``amount`` to the child named by ``labels``."""
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount


class Counter(_Metric):
    """A count that only grows while its owner lives (requests served,
    cache hits).

    :meth:`inc` counts events seen here. :meth:`set` publishes a total
    that some other object owns and counts (the telemetry bridge): the
    owner may restart from zero — ``CompileCache.clear()`` does — and a
    scraper reads the drop as an ordinary counter reset.
    """

    kind = "counter"

    def inc(self, amount: float = 1.0, *labels) -> None:
        """Add ``amount`` (>= 0) to the child named by ``labels``."""
        if amount < 0:
            raise CypressError(
                f"counter {self.name!r} cannot decrease (inc {amount!r})"
            )
        super().inc(amount, *labels)


class Gauge(_Metric):
    """A value that goes up and down (queue depth, cache capacity)."""

    kind = "gauge"


class MetricsRegistry:
    """A namespace of metric families with Prometheus text exposition.

    Families register once by name (re-registration with the same kind
    and labels returns the existing family, so publishers are
    idempotent) and :meth:`render` emits the whole registry in the
    text-exposition format a Prometheus scraper ingests.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def counter(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> Counter:
        """Register (or fetch) a :class:`Counter` family."""
        return self._register(Counter(name, help, labels))

    def gauge(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> Gauge:
        """Register (or fetch) a :class:`Gauge` family."""
        return self._register(Gauge(name, help, labels))

    def _register(self, metric: _Metric) -> "_Metric":
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if (
                    type(existing) is not type(metric)
                    or existing.label_names != metric.label_names
                ):
                    raise CypressError(
                        f"metric {metric.name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{existing.label_names}"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def render(self) -> str:
        """The whole registry in Prometheus text-exposition format.

        One ``# HELP`` / ``# TYPE`` header per family followed by its
        children. Families with no children yet still emit their
        headers (so a scraper sees the schema
        before traffic arrives).
        """
        lines: List[str] = []
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            help_text = metric.help.translate(_HELP_ESCAPES)
            lines.append(f"# HELP {metric.name} {help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for values, value in metric.labelled():
                labels = _format_labels(metric.label_names, values)
                lines.append(f"{metric.name}{labels} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


def server_metrics(
    server, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Publish a server's full state into a :class:`MetricsRegistry`.

    Bridges every siloed snapshot — :meth:`RuntimeServer.stats`
    (requests, latency percentiles, tiers, batches, graphs,
    speculation, per-kernel throughput), the process-wide compile
    cache's :class:`~repro.compiler.cache.CacheStats`, and the attached
    disk tier's :class:`~repro.runtime.diskcache.DiskCacheStats` — into
    one registry whose :meth:`~MetricsRegistry.render` a ``/metrics``
    endpoint can serve. Call again with the same registry to refresh:
    every value is overwritten with its owner's current total. The
    :data:`~repro.runtime.telemetry.COUNTERS` table names the
    ``RuntimeStats`` counter families; the rest are spelled below.

    Args:
        server: a :class:`~repro.runtime.server.RuntimeServer`.
        registry: registry to publish into (default: a fresh one).

    Returns:
        The registry, fully populated.
    """
    import platform

    import repro
    from repro.compiler.cache import compile_cache
    from repro.runtime.telemetry import COUNTERS

    reg = registry if registry is not None else MetricsRegistry()
    stats = server.stats()

    # Self-describing scrape: constant-1 gauge carrying the build
    # identity as labels, the standard Prometheus idiom for metadata.
    reg.gauge(
        "repro_build_info",
        "Build identity of the serving process (constant 1).",
        labels=("version", "python"),
    ).set(1, repro.__version__, platform.python_version())

    for spec in COUNTERS:
        reg.counter(spec.metric, spec.help).set(getattr(stats, spec.field))

    reg.gauge(
        "repro_queue_depth", "Requests waiting in the queue."
    ).set(stats.queue_depth)
    reg.gauge(
        "repro_uptime_seconds", "Server uptime at snapshot time."
    ).set(stats.uptime_s)
    reg.gauge(
        "repro_batch_size_max", "Largest micro-batch served so far."
    ).set(stats.max_batch_size)

    tiers = reg.counter(
        "repro_tier_requests_total",
        "Completed requests by the cache tier that produced the kernel.",
        labels=("tier",),
    )
    for tier, count in stats.tier_counts.items():
        tiers.set(count, tier)

    latency = reg.gauge(
        "repro_request_latency_seconds",
        "Request latency percentiles over the telemetry window.",
        labels=("quantile",),
    )
    latency.set(stats.p50_latency_s, "0.5")
    latency.set(stats.p95_latency_s, "0.95")

    kernel_requests = reg.counter(
        "repro_kernel_requests_total",
        "Requests served per registered kernel.",
        labels=("kernel",),
    )
    kernel_latency = reg.gauge(
        "repro_kernel_latency_seconds",
        "Per-kernel latency percentiles over the telemetry window.",
        labels=("kernel", "quantile"),
    )
    for name, kernel in stats.per_kernel.items():
        kernel_requests.set(kernel.requests, name)
        kernel_latency.set(kernel.p50_latency_s, name, "0.5")
        kernel_latency.set(kernel.p95_latency_s, name, "0.95")

    makespan = reg.gauge(
        "repro_graph_makespan_seconds",
        "Graph makespan percentiles over the telemetry window.",
        labels=("quantile",),
    )
    makespan.set(stats.p50_graph_makespan_s, "0.5")
    makespan.set(stats.p95_graph_makespan_s, "0.95")

    reg.gauge(
        "repro_specializations_active",
        "Exact-shape specializations currently installed.",
    ).set(stats.specializations_active)

    cache = compile_cache.stats
    reg.counter(
        "repro_compile_cache_hits_total", "In-memory compile-cache hits."
    ).set(cache.hits)
    reg.counter(
        "repro_compile_cache_misses_total",
        "Compile-cache misses (ran the full pass pipeline).",
    ).set(cache.misses)
    reg.counter(
        "repro_compile_cache_second_tier_hits_total",
        "Compile-cache lookups answered by the persistent tier.",
    ).set(cache.second_tier_hits)
    reg.counter(
        "repro_compile_cache_evictions_total",
        "Compile-cache LRU evictions.",
    ).set(cache.evictions)
    reg.gauge(
        "repro_compile_cache_capacity", "Compile-cache entry capacity."
    ).set(cache.capacity)

    if getattr(server, "disk_tier", None) is not None:
        disk = server.disk_tier.stats
        disk_ops = reg.counter(
            "repro_disk_cache_ops_total",
            "Disk-tier operations by outcome.",
            labels=("op",),
        )
        disk_ops.set(disk.hits, "hit")
        disk_ops.set(disk.misses, "miss")
        disk_ops.set(disk.stores, "store")
        disk_ops.set(disk.corrupt, "corrupt")
        disk_ops.set(disk.errors, "error")
        disk_ops.set(disk.pruned, "pruned")
        reg.counter(
            "repro_disk_cache_pruned_bytes_total",
            "Bytes evicted by the disk tier's LRU size cap.",
        ).set(disk.pruned_bytes)
        reg.gauge(
            "repro_disk_cache_quarantined",
            "Corrupt disk-tier entries retained as .bad postmortem "
            "files.",
        ).set(disk.corrupt_entries)

    tracer = getattr(server, "tracer", None)
    if tracer is not None and tracer.enabled:
        reg.counter(
            "repro_trace_spans_total", "Finished trace spans recorded."
        ).set(tracer.span_count)
        reg.counter(
            "repro_trace_spans_dropped_total",
            "Finished spans evicted by the tracer's capacity bound.",
        ).set(tracer.dropped)

    flight = getattr(server, "flight", None)
    if flight is not None:
        reg.counter(
            "repro_flight_records_total",
            "Records appended to the flight recorder (retained or not).",
        ).set(flight.recorded)
        reg.counter(
            "repro_flight_dumps_total",
            "Flight-recorder dump files written (close, crash, manual).",
        ).set(flight.dumps)

    monitor = getattr(server, "slo_monitor", None)
    if monitor is not None:
        monitor.publish(reg)

    return reg
