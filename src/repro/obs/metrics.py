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
from typing import Dict, List, Optional, Sequence, Set, Tuple

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

    def value(self, *labels) -> float:
        """Current value for ``labels`` (0.0 if never touched)."""
        with self._lock:
            return float(self._children.get(self._key(labels), 0.0))


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

    def dec(self, amount: float = 1.0, *labels) -> None:
        """Subtract ``amount`` from the child."""
        self.inc(-amount, *labels)


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

    def get(self, name: str) -> Optional[_Metric]:
        """The registered family named ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        """Registered family names, insertion order."""
        with self._lock:
            return list(self._metrics)

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
        "repro_queue_depth", "Requests waiting in the priority queue."
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


# ----------------------------------------------------------------------
# Exposition-format conformance
# ----------------------------------------------------------------------

#: Sample-line grammar: name, optional {labels}, value, optional
#: timestamp. Label values are parsed (and escape-checked) separately.
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)"
    r"(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)
_VALID_ESCAPES = {"\\\\", '\\"', "\\n"}
#: The kinds this registry renders; a family of any other kind is
#: rejected rather than accepted unchecked.
_TYPE_KINDS = {"counter", "gauge", "untyped"}


def _parse_label_set(raw: str, where: str) -> Tuple[Tuple[str, str], ...]:
    pairs = []
    rest = raw
    while rest:
        match = _LABEL_PAIR.match(rest)
        if match is None:
            raise CypressError(f"{where}: malformed label pair in {raw!r}")
        value = match.group("value")
        index = 0
        while index < len(value):
            if value[index] == "\\":
                if value[index:index + 2] not in _VALID_ESCAPES:
                    raise CypressError(
                        f"{where}: invalid escape "
                        f"{value[index:index + 2]!r} in label value"
                    )
                index += 2
            else:
                index += 1
        pairs.append((match.group("name"), value))
        rest = rest[match.end():]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            raise CypressError(
                f"{where}: expected ',' between labels in {raw!r}"
            )
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise CypressError(f"{where}: duplicate label names in {raw!r}")
    return tuple(pairs)


def _parse_sample_value(raw: str, where: str) -> float:
    if raw in ("+Inf", "-Inf", "NaN"):
        return {"+Inf": math.inf, "-Inf": -math.inf, "NaN": math.nan}[raw]
    try:
        return float(raw)
    except ValueError:
        raise CypressError(f"{where}: unparsable sample value {raw!r}")


def validate_prometheus_text(text: str) -> Dict[str, str]:
    """Strictly validate a Prometheus text-exposition document.

    The conformance oracle behind the ``/metrics`` endpoint (held to
    it over live HTTP in ``tests/test_ops.py``): a render that passes
    here parses in a real scraper. Checks the whole grammar and the semantic invariants —

    - every ``# HELP`` / ``# TYPE`` line is well-formed, names each
      family at most once, and precedes the family's samples;
    - every sample line parses (name, label set, value, optional
      timestamp), belongs to a family declared by ``# TYPE``, and uses
      only the legal label-value escapes (``\\\\``, ``\\"``, ``\\n``);
    - no duplicate ``(series name, label set)`` sample appears;
    - every ``# TYPE`` kind is ``counter``, ``gauge`` or ``untyped``
      (the kinds :class:`MetricsRegistry` renders);
    - counters never carry negative values;
    - the document ends with a newline.

    Args:
        text: a full exposition document (e.g.
            ``MetricsRegistry.render()`` output).

    Returns:
        ``{family name: kind}`` for every declared family.

    Raises:
        CypressError: the first conformance violation found.
    """
    if not isinstance(text, str) or not text:
        raise CypressError("exposition document must be non-empty text")
    if not text.endswith("\n"):
        raise CypressError("exposition document must end with a newline")
    types: Dict[str, str] = {}
    helps: Set[str] = set()
    seen_samples: Set[Tuple[str, tuple]] = set()
    sampled_families: Set[str] = set()
    for number, line in enumerate(text.split("\n")[:-1], start=1):
        where = f"line {number}"
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#" or parts[1] not in (
                "HELP", "TYPE"
            ):
                # Arbitrary comments are legal; only malformed
                # HELP/TYPE-looking lines are rejected.
                if line.startswith(("# HELP", "# TYPE")):
                    raise CypressError(f"{where}: malformed {line!r}")
                continue
            keyword, name = parts[1], parts[2]
            if not _METRIC_NAME.match(name):
                raise CypressError(
                    f"{where}: invalid metric name {name!r}"
                )
            if keyword == "HELP":
                if name in helps:
                    raise CypressError(f"{where}: duplicate HELP {name}")
                helps.add(name)
            else:
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in _TYPE_KINDS:
                    raise CypressError(
                        f"{where}: invalid TYPE kind {kind!r}"
                    )
                if name in sampled_families:
                    raise CypressError(
                        f"{where}: TYPE {name} after its samples"
                    )
                if name in types:
                    raise CypressError(f"{where}: duplicate TYPE {name}")
                types[name] = kind
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise CypressError(f"{where}: malformed sample {line!r}")
        sample_name = match.group("name")
        labels = _parse_label_set(match.group("labels") or "", where)
        value = _parse_sample_value(match.group("value"), where)
        if sample_name not in types:
            raise CypressError(
                f"{where}: sample {sample_name!r} has no # TYPE"
            )
        sampled_families.add(sample_name)
        if types[sample_name] == "counter" and value < 0:
            raise CypressError(
                f"{where}: counter {sample_name} is negative ({value})"
            )
        dedup_key = (sample_name, labels)
        if dedup_key in seen_samples:
            raise CypressError(
                f"{where}: duplicate sample {sample_name}{dict(labels)}"
            )
        seen_samples.add(dedup_key)
    return types
