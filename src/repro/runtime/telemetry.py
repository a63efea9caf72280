"""Serving telemetry: latency percentiles, tier hit rates, throughput.

The server feeds a thread-safe :class:`Telemetry` collector with one
record per completed request (latency, which cache tier produced the
kernel, micro-batch size, simulated throughput). :meth:`Telemetry.
snapshot` freezes it into a :class:`RuntimeStats` value object with
p50/p95 latency, per-tier hit rates, queue depth, and per-kernel
request throughput — the numbers a serving dashboard would scrape, and
what ``RuntimeStats.table()`` renders for humans.

Latencies are kept in bounded per-kernel windows (the most recent
:data:`WINDOW` observations) so a long-lived server's telemetry stays
O(1) in memory; counters are exact over the whole lifetime.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from repro.compiler.cache import TIER_COMPILE, TIER_DISK, TIER_MEMORY
from repro.util import fmt_percent

#: The cache tier that produced a request's kernel, as the compile
#: cache's lookup labels it.
TIERS = (TIER_MEMORY, TIER_DISK, TIER_COMPILE)

#: Latency and graph-makespan observations kept for the percentiles.
WINDOW = 2048

#: Version of the ``RuntimeStats.to_json()`` schema. Bump on any
#: renamed/removed key; consumers (``/statusz``, dashboards) key off it.
STATS_SCHEMA_VERSION = 3


class CounterSpec(NamedTuple):
    """One lifetime counter and every name it is published under."""

    field: str  #: ``RuntimeStats`` attribute and ``Telemetry.count`` name
    section: str  #: ``RuntimeStats.to_json()`` section ...
    key: str  #: ... and the key inside it
    metric: str  #: Prometheus counter family
    help: str  #: its ``# HELP`` text


#: Every lifetime scalar counter the server keeps, declared once:
#: :meth:`Telemetry.count` adds to them, :meth:`Telemetry.snapshot`
#: copies them into :class:`RuntimeStats`, :meth:`RuntimeStats.to_json`
#: and ``repro.obs.metrics.server_metrics`` render them. A new counter
#: is one row here plus one ``RuntimeStats`` field.
COUNTERS = (
    CounterSpec("requests", "runtime", "requests", "repro_requests_total",
                "Requests submitted to the runtime server."),
    CounterSpec("completed", "runtime", "completed",
                "repro_requests_completed_total",
                "Requests served to completion."),
    CounterSpec("failed", "runtime", "failed", "repro_requests_failed_total",
                "Requests that resolved with an error."),
    CounterSpec("batches", "runtime", "batches", "repro_batches_total",
                "Micro-batches executed."),
    CounterSpec("graphs", "graphs", "submitted", "repro_graphs_total",
                "Task graphs submitted."),
    CounterSpec("graphs_completed", "graphs", "completed",
                "repro_graphs_completed_total", "Task graphs completed."),
    CounterSpec("graphs_failed", "graphs", "failed",
                "repro_graphs_failed_total", "Task graphs that failed."),
    CounterSpec("graph_nodes", "graphs", "nodes", "repro_graph_nodes_total",
                "Kernel launches submitted via graphs."),
    CounterSpec("speculative_compiles", "speculation", "compiles",
                "repro_speculative_compiles_total",
                "Kernels compiled in the background by the speculator."),
    CounterSpec("speculation_issued", "speculation", "issued",
                "repro_speculation_issued_total",
                "Buckets precompiled speculatively."),
    # At most once per bucket: its first real request.
    CounterSpec("speculation_hits", "speculation", "hits",
                "repro_speculation_hits_total",
                "Speculatively precompiled buckets that later saw real "
                "traffic."),
    CounterSpec("specialized_hits", "specialization", "hits",
                "repro_specialized_hits_total",
                "Requests served by an exact-shape specialized kernel."),
    CounterSpec("promotions", "specialization", "promotions",
                "repro_specialize_promotions_total",
                "Shapes promoted to exact-shape specialized kernels."),
    CounterSpec("deopts", "specialization", "deopts",
                "repro_specialize_deopts_total",
                "Specializations deoptimized back to their generic bucket."),
    CounterSpec("specialize_errors", "specialization", "errors",
                "repro_specialize_errors_total",
                "Specialized compiles that failed (shape quarantined)."),
    CounterSpec("padded_flops_saved", "specialization", "padded_flops_saved",
                "repro_specialize_padded_flops_saved_total",
                "Padded FLOPs avoided by serving specialized kernels."),
    # Deadline failures; the caller also counts them in ``failed``.
    CounterSpec("timeouts", "resilience", "timeouts", "repro_timeouts_total",
                "Requests failed fast for missing their deadline."),
    # Shed requests are *not* counted in ``failed``: ``shed_requests +
    # completed + failed`` accounts for every admitted submit.
    CounterSpec("shed_requests", "resilience", "shed_requests",
                "repro_shed_requests_total",
                "Queued requests evicted by bounded-queue load shedding."),
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no samples.

    The textbook definition: the smallest value with at least ``q``
    percent of the samples at or below it — ``sorted(values)[ceil(q/100
    * n) - 1]``, with ``q <= 0`` pinned to the minimum and ``q >= 100``
    to the maximum. Property-tested against the sorted-index oracle in
    ``tests/test_telemetry.py``.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if q <= 0:
        return ordered[0]
    rank = -(-q * len(ordered) // 100)  # ceil without float drift
    return ordered[min(int(rank), len(ordered)) - 1]


@dataclass
class KernelServingStats:
    """Per-kernel serving numbers in one snapshot."""

    requests: int
    p50_latency_s: float
    p95_latency_s: float
    throughput_rps: float
    mean_tflops: float


@dataclass
class RuntimeStats:
    """A frozen view of the server's health at snapshot time."""

    uptime_s: float
    requests: int
    completed: int
    failed: int
    queue_depth: int
    batches: int
    max_batch_size: int
    tier_counts: Dict[str, int]
    p50_latency_s: float
    p95_latency_s: float
    per_kernel: Dict[str, KernelServingStats] = field(default_factory=dict)
    graphs: int = 0
    graphs_completed: int = 0
    graphs_failed: int = 0
    graph_nodes: int = 0
    p50_graph_makespan_s: float = 0.0
    p95_graph_makespan_s: float = 0.0
    speculative_compiles: int = 0
    speculation_issued: int = 0
    speculation_hits: int = 0
    specialized_hits: int = 0
    promotions: int = 0
    deopts: int = 0
    specialize_errors: int = 0
    padded_flops_saved: float = 0.0
    trace_enabled: bool = False
    trace_spans: int = 0
    flight_records: int = 0
    timeouts: int = 0
    shed_requests: int = 0
    #: Currently-firing SLO alerts (``{slo_name: severity}``) and the
    #: latest slow-window burn rate per objective, from the server's
    #: :class:`~repro.obs.slo.SloMonitor`; empty without one.
    slo_alerts: Dict[str, str] = field(default_factory=dict)
    slo_burn_rates: Dict[str, float] = field(default_factory=dict)

    @property
    def speculation_wasted(self) -> int:
        """Speculatively precompiled buckets never requested (so far)."""
        return max(self.speculation_issued - self.speculation_hits, 0)

    @property
    def speculation_wasted_ratio(self) -> float:
        """Wasted fraction of speculatively precompiled buckets."""
        if not self.speculation_issued:
            return 0.0
        return self.speculation_wasted / self.speculation_issued

    @property
    def specializations_active(self) -> int:
        """Exact-shape specializations currently installed (promotions
        minus deoptimizations)."""
        return max(self.promotions - self.deopts, 0)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of uptime."""
        return self.completed / self.uptime_s if self.uptime_s > 0 else 0.0

    def tier_rate(self, tier: str) -> float:
        """Fraction of completed requests served by ``tier`` (0.0-1.0)."""
        total = sum(self.tier_counts.values())
        return self.tier_counts.get(tier, 0) / total if total else 0.0

    def to_json(self) -> Dict:
        """A stable, schema-versioned dict of every counter/percentile.

        The machine-readable counterpart of :meth:`table`: ``/statusz``
        serves it and dashboards ingest it directly, instead of
        plucking ad-hoc fields off the dataclass. The layout is a contract — ``schema_version``
        (:data:`STATS_SCHEMA_VERSION`) bumps on any renamed or removed
        key, and every value is a JSON-native scalar/dict.
        """
        doc = {
            "schema_version": STATS_SCHEMA_VERSION,
            "runtime": {
                "uptime_s": self.uptime_s,
                "queue_depth": self.queue_depth,
                "max_batch_size": self.max_batch_size,
                "throughput_rps": self.throughput_rps,
            },
            "latency": {
                "p50_s": self.p50_latency_s,
                "p95_s": self.p95_latency_s,
            },
            "tiers": {
                "counts": {
                    tier: self.tier_counts.get(tier, 0) for tier in TIERS
                },
                "rates": {tier: self.tier_rate(tier) for tier in TIERS},
            },
            "graphs": {
                "p50_makespan_s": self.p50_graph_makespan_s,
                "p95_makespan_s": self.p95_graph_makespan_s,
            },
            "speculation": {
                "wasted": self.speculation_wasted,
                "wasted_ratio": self.speculation_wasted_ratio,
            },
            "specialization": {
                "active": self.specializations_active,
            },
            "obs": {
                "trace_enabled": self.trace_enabled,
                "trace_spans": self.trace_spans,
                "flight_records": self.flight_records,
            },
            "resilience": {},
            "slo": {
                "alerts": dict(sorted(self.slo_alerts.items())),
                "burn_rates": dict(sorted(self.slo_burn_rates.items())),
            },
            "kernels": {
                name: {
                    "requests": k.requests,
                    "p50_latency_s": k.p50_latency_s,
                    "p95_latency_s": k.p95_latency_s,
                    "throughput_rps": k.throughput_rps,
                    "mean_tflops": k.mean_tflops,
                }
                for name, k in sorted(self.per_kernel.items())
            },
        }
        for spec in COUNTERS:
            doc[spec.section][spec.key] = getattr(self, spec.field)
        return doc

    def table(self) -> str:
        """A human-readable dashboard, one kernel per row.

        Safe on an idle server: zero requests, zero uptime, or a
        zero-request per-kernel row render as zeros rather than
        dividing by the counts.
        """
        lines = [
            f"runtime: {self.completed}/{self.requests} served "
            f"({self.failed} failed) in {self.uptime_s:.2f}s "
            f"-> {self.throughput_rps:.1f} req/s, queue depth "
            f"{self.queue_depth}",
            f"latency: p50 {self.p50_latency_s * 1e3:.2f} ms, "
            f"p95 {self.p95_latency_s * 1e3:.2f} ms; "
            f"batches {self.batches} (max size {self.max_batch_size})",
            "tiers:   "
            + ", ".join(
                f"{tier} {self.tier_counts.get(tier, 0)} "
                f"({fmt_percent(self.tier_rate(tier))})"
                for tier in TIERS
            ),
        ]
        if self.speculation_issued or self.speculative_compiles:
            lines.append(
                f"specul.: {self.speculation_issued} buckets precompiled "
                f"({self.speculative_compiles} compiles), "
                f"{self.speculation_hits} hit, "
                f"{self.speculation_wasted} wasted "
                f"({fmt_percent(self.speculation_wasted_ratio)})"
            )
        if self.promotions or self.specialized_hits or self.specialize_errors:
            lines.append(
                f"specialz.: {self.specializations_active} active "
                f"({self.promotions} promoted, {self.deopts} deopted, "
                f"{self.specialize_errors} errors), "
                f"{self.specialized_hits} exact-shape hits, "
                f"{self.padded_flops_saved / 1e9:.2f} padded GFLOPs saved"
            )
        if self.graphs:
            lines.append(
                f"graphs:  {self.graphs_completed}/{self.graphs} completed "
                f"({self.graphs_failed} failed), {self.graph_nodes} nodes; "
                f"makespan p50 {self.p50_graph_makespan_s * 1e3:.2f} ms, "
                f"p95 {self.p95_graph_makespan_s * 1e3:.2f} ms"
            )
        if self.timeouts or self.shed_requests:
            lines.append(
                f"resil.:  {self.timeouts} timeouts, "
                f"{self.shed_requests} shed"
            )
        if self.slo_alerts:
            lines.append(
                "alerts:  "
                + ", ".join(
                    f"{name} {severity} "
                    f"(burn {self.slo_burn_rates.get(name, 0.0):.1f}x)"
                    for name, severity in sorted(self.slo_alerts.items())
                )
            )
        if self.trace_enabled or self.flight_records:
            lines.append(
                f"obs:     tracing "
                f"{'on' if self.trace_enabled else 'off'}, "
                f"{self.trace_spans} spans; flight recorder "
                f"{self.flight_records} records"
            )
        lines.append(
            f"{'kernel':<22}{'reqs':>6}{'p50 ms':>9}{'p95 ms':>9}"
            f"{'req/s':>8}{'TFLOP/s':>9}"
        )
        for name in sorted(self.per_kernel):
            k = self.per_kernel[name]
            lines.append(
                f"{name:<22}{k.requests:>6}"
                f"{k.p50_latency_s * 1e3:>9.2f}"
                f"{k.p95_latency_s * 1e3:>9.2f}"
                f"{k.throughput_rps:>8.1f}"
                f"{k.mean_tflops:>9.1f}"
            )
        return "\n".join(lines)


class _KernelWindow:
    __slots__ = ("requests", "latencies", "tflops_sum")

    def __init__(self) -> None:
        self.requests = 0
        self.latencies: deque = deque(maxlen=WINDOW)
        self.tflops_sum = 0.0


class Telemetry:
    """The live, thread-safe collector behind ``RuntimeServer.stats()``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.perf_counter()
        self._counts: Dict[str, float] = {spec.field: 0 for spec in COUNTERS}
        self._counts["padded_flops_saved"] = 0.0  # the one float counter
        self._max_batch = 0
        self._tiers: Dict[str, int] = {tier: 0 for tier in TIERS}
        self._kernels: Dict[str, _KernelWindow] = {}
        self._graph_makespans: deque = deque(maxlen=WINDOW)

    @property
    def completed_count(self) -> int:
        """Completed requests so far (cheap readiness probe; no
        snapshot materialization)."""
        with self._lock:
            return self._counts["completed"]

    def count(self, field: str, amount: float = 1) -> None:
        """Add ``amount`` to the :data:`COUNTERS` row named ``field``.

        Raises:
            KeyError: ``field`` is not a declared counter.
        """
        with self._lock:
            self._counts[field] += amount

    def record_batch(self, size: int) -> None:
        """Count one micro-batch of ``size`` requests."""
        with self._lock:
            self._counts["batches"] += 1
            self._max_batch = max(self._max_batch, size)

    def record_ending(
        self,
        counter: str,
        result: Any = None,
        *,
        admitted: bool = False,
        batch: int = 0,
    ) -> None:
        """Record how one request ended, in one locked update.

        Args:
            counter: the terminal :data:`COUNTERS` row — ``"completed"``,
                ``"failed"`` or ``"shed_requests"``.
            result: a completed request's ``RuntimeResult``, whose
                kernel, submit-to-resolve latency, cache tier and
                simulated throughput are recorded.
            admitted: also count the request as submitted (one served
                on its admitting thread is counted when it ends).
            batch: also count one micro-batch of this many requests.
        """
        with self._lock:
            counts = self._counts
            counts[counter] += 1
            if admitted:
                counts["requests"] += 1
            if batch:
                counts["batches"] += 1
                self._max_batch = max(self._max_batch, batch)
            if result is None:
                return
            tier = result.tier
            self._tiers[tier] = self._tiers.get(tier, 0) + 1
            window = self._kernels.get(result.kernel)
            if window is None:
                window = self._kernels[result.kernel] = _KernelWindow()
            window.requests += 1
            window.latencies.append(result.latency_s)
            window.tflops_sum += result.gpu.tflops

    def record_graph_done(self, makespan_s: float) -> None:
        """Record one completed graph's submit-to-last-node wall time."""
        with self._lock:
            self._counts["graphs_completed"] += 1
            self._graph_makespans.append(makespan_s)

    def snapshot(
        self,
        queue_depth: int = 0,
        trace_enabled: bool = False,
        trace_spans: int = 0,
        flight_records: int = 0,
        slo_alerts: Optional[Dict[str, str]] = None,
        slo_burn_rates: Optional[Dict[str, float]] = None,
    ) -> RuntimeStats:
        """Freeze the collector into a :class:`RuntimeStats` value.

        Args:
            queue_depth: current queue depth to embed in the snapshot.
            trace_enabled: whether the owning server has a live tracer.
            trace_spans: finished spans the tracer has recorded.
            flight_records: records appended to the flight recorder.
            slo_alerts: currently-firing SLO alerts by objective name.
            slo_burn_rates: slow-window burn rate per objective.

        Returns:
            An immutable view; the collector keeps accumulating.
        """
        with self._lock:
            uptime = time.perf_counter() - self._started
            all_latencies: List[float] = []
            per_kernel: Dict[str, KernelServingStats] = {}
            for name, window in self._kernels.items():
                latencies = list(window.latencies)
                all_latencies.extend(latencies)
                per_kernel[name] = KernelServingStats(
                    requests=window.requests,
                    p50_latency_s=percentile(latencies, 50),
                    p95_latency_s=percentile(latencies, 95),
                    throughput_rps=(
                        window.requests / uptime if uptime > 0 else 0.0
                    ),
                    mean_tflops=(
                        window.tflops_sum / window.requests
                        if window.requests
                        else 0.0
                    ),
                )
            makespans = list(self._graph_makespans)
            return RuntimeStats(
                **self._counts,
                uptime_s=uptime,
                queue_depth=queue_depth,
                max_batch_size=self._max_batch,
                tier_counts=dict(self._tiers),
                p50_latency_s=percentile(all_latencies, 50),
                p95_latency_s=percentile(all_latencies, 95),
                per_kernel=per_kernel,
                p50_graph_makespan_s=percentile(makespans, 50),
                p95_graph_makespan_s=percentile(makespans, 95),
                trace_enabled=trace_enabled,
                trace_spans=trace_spans,
                flight_records=flight_records,
                slo_alerts=dict(slo_alerts or {}),
                slo_burn_rates=dict(slo_burn_rates or {}),
            )
