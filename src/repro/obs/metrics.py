"""A unified metrics registry with Prometheus text exposition.

Three instrument kinds — :class:`Counter` (event count), :class:`Gauge`
(point-in-time), :class:`Histogram` (bucketed distribution) — live in a
:class:`MetricsRegistry`, each optionally split by labels. The registry
renders the standard Prometheus text-exposition format
(:meth:`MetricsRegistry.render`) so the future fleet gateway can serve
it from a ``/metrics`` endpoint and existing scrapers ingest it as-is.

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

#: Default histogram buckets: request latencies from 100µs to ~16s.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

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


def _format_labels(
    names: Sequence[str], values: Sequence[str], extra: str = ""
) -> str:
    parts = [
        f'{name}="{str(value).translate(_LABEL_ESCAPES)}"'
        for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Shared base: a named family with fixed label names and one
    child value per label-value tuple."""

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
        self._children: Dict[Tuple[str, ...], object] = {}

    def _key(self, label_values: Sequence[str]) -> Tuple[str, ...]:
        values = tuple(str(value) for value in label_values)
        if len(values) != len(self.label_names):
            raise CypressError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {values!r}"
            )
        return values

    def labelled(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Snapshot of ``(label values, child)`` pairs, insertion order."""
        with self._lock:
            return list(self._children.items())


class _Scalar(_Metric):
    """A family whose children are single numbers."""

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


class Counter(_Scalar):
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


class Gauge(_Scalar):
    """A value that goes up and down (queue depth, cache capacity)."""

    kind = "gauge"

    def dec(self, amount: float = 1.0, *labels) -> None:
        """Subtract ``amount`` from the child."""
        self.inc(-amount, *labels)


class _HistogramChild:
    __slots__ = ("counts", "total", "count")

    def __init__(self, nbuckets: int) -> None:
        self.counts = [0] * nbuckets
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """A bucketed distribution (latency), Prometheus-style: cumulative
    ``_bucket{le=...}`` counts plus ``_sum`` and ``_count``.

    Bucket bounds are upper edges in ascending order; an implicit
    ``+Inf`` bucket catches the tail.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(
            b <= a for a, b in zip(bounds, bounds[1:])
        ):
            raise CypressError(
                f"histogram {name!r} buckets must be ascending and "
                f"non-empty, got {buckets!r}"
            )
        self.buckets = bounds

    def observe(self, value: float, *labels) -> None:
        """Record one observation of ``value`` for ``labels``."""
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(
                    len(self.buckets)
                )
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    child.counts[index] += 1
                    break
            child.total += value
            child.count += 1

    def count(self, *labels) -> int:
        """Observations recorded for ``labels``."""
        with self._lock:
            child = self._children.get(self._key(labels))
            return child.count if child is not None else 0


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

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Register (or fetch) a :class:`Histogram` family."""
        return self._register(Histogram(name, help, labels, buckets))

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
        children; histograms expand into cumulative ``_bucket{le=...}``
        series plus ``_sum`` and ``_count``. Families with no children
        yet still emit their headers (so a scraper sees the schema
        before traffic arrives).
        """
        lines: List[str] = []
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            help_text = metric.help.translate(_HELP_ESCAPES)
            lines.append(f"# HELP {metric.name} {help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for values, child in metric.labelled():
                if isinstance(metric, Histogram):
                    self._render_histogram(lines, metric, values, child)
                else:
                    labels = _format_labels(metric.label_names, values)
                    lines.append(
                        f"{metric.name}{labels} {_format_value(child)}"
                    )
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_histogram(
        lines: List[str],
        metric: Histogram,
        values: Tuple[str, ...],
        child: _HistogramChild,
    ) -> None:
        cumulative = 0
        for bound, count in zip(metric.buckets, child.counts):
            cumulative += count
            labels = _format_labels(
                metric.label_names, values, f'le="{_format_value(bound)}"'
            )
            lines.append(f"{metric.name}_bucket{labels} {cumulative}")
        labels = _format_labels(metric.label_names, values, 'le="+Inf"')
        lines.append(f"{metric.name}_bucket{labels} {child.count}")
        plain = _format_labels(metric.label_names, values)
        lines.append(
            f"{metric.name}_sum{plain} {_format_value(child.total)}"
        )
        lines.append(f"{metric.name}_count{plain} {child.count}")

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

    profiler = getattr(server, "profiler", None)
    if profiler is not None:
        reg.counter(
            "repro_profiler_samples_total",
            "Thread samples attributed by the continuous profiler.",
        ).set(profiler.samples)
        phase_samples = reg.counter(
            "repro_profiler_phase_samples_total",
            "Profiler samples per serving phase.",
            labels=("phase",),
        )
        for phase, count in profiler.report()["phases"].items():
            phase_samples.set(count, phase)

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
_TYPE_KINDS = {"counter", "gauge", "histogram", "summary", "untyped"}


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


def _family_of(sample_name: str, histograms: Set[str]) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in histograms:
                return base
    return sample_name


def _check_histogram_family(
    name: str,
    series: Dict[Tuple[Tuple[str, str], ...], List[Tuple[str, float]]],
) -> None:
    # Regroup the family's samples by their non-le label set, then
    # check each group's bucket/sum/count invariants.
    groups: Dict[tuple, Dict[str, object]] = {}
    for labels, samples in series.items():
        le = dict(labels).get("le")
        plain = tuple(
            (k, v) for k, v in labels if k != "le"
        )
        group = groups.setdefault(
            plain, {"buckets": [], "sum": None, "count": None}
        )
        for sample_name, value in samples:
            if sample_name == f"{name}_bucket":
                if le is None:
                    raise CypressError(
                        f"histogram {name}: _bucket sample without le"
                    )
                group["buckets"].append((le, value))
            elif sample_name == f"{name}_sum":
                group["sum"] = value
            elif sample_name == f"{name}_count":
                group["count"] = value
            else:
                raise CypressError(
                    f"histogram {name}: stray sample {sample_name}"
                )
    for plain, group in groups.items():
        buckets = group["buckets"]
        if not buckets:
            raise CypressError(
                f"histogram {name}{dict(plain)}: no _bucket samples"
            )
        if group["sum"] is None or group["count"] is None:
            raise CypressError(
                f"histogram {name}{dict(plain)}: missing _sum or _count"
            )
        bounds = []
        for le, _ in buckets:
            bounds.append(
                math.inf if le == "+Inf" else float(le)
            )
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise CypressError(
                f"histogram {name}{dict(plain)}: le bounds not "
                "strictly ascending"
            )
        if bounds[-1] != math.inf:
            raise CypressError(
                f"histogram {name}{dict(plain)}: missing le=\"+Inf\""
            )
        counts = [value for _, value in buckets]
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise CypressError(
                f"histogram {name}{dict(plain)}: bucket counts not "
                "cumulative"
            )
        if counts[-1] != group["count"]:
            raise CypressError(
                f"histogram {name}{dict(plain)}: +Inf bucket "
                f"{counts[-1]} != _count {group['count']}"
            )


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
    - counters never carry negative values;
    - histogram families expose ``_bucket``/``_sum``/``_count`` series
      with strictly ascending ``le`` bounds ending in ``+Inf``,
      cumulative bucket counts, and ``+Inf == _count``;
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
    family_samples: Dict[str, Dict[tuple, List[Tuple[str, float]]]] = {}
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
        histograms = {
            name for name, kind in types.items() if kind == "histogram"
        }
        family = _family_of(sample_name, histograms)
        if family not in types:
            raise CypressError(
                f"{where}: sample {sample_name!r} has no # TYPE"
            )
        sampled_families.add(family)
        kind = types[family]
        if kind != "histogram" and sample_name != family:
            raise CypressError(
                f"{where}: sample {sample_name!r} does not match its "
                f"family {family!r}"
            )
        if kind == "counter" and value < 0:
            raise CypressError(
                f"{where}: counter {sample_name} is negative ({value})"
            )
        dedup_key = (sample_name, labels)
        if dedup_key in seen_samples:
            raise CypressError(
                f"{where}: duplicate sample {sample_name}{dict(labels)}"
            )
        seen_samples.add(dedup_key)
        family_samples.setdefault(family, {}).setdefault(
            labels, []
        ).append((sample_name, value))
    for name, kind in types.items():
        if kind == "histogram" and name in family_samples:
            _check_histogram_family(name, family_samples[name])
    return types
