"""Observability: span trees, the exporter, metrics, flight recorder.

The centerpiece is the well-formedness oracle over real workloads:
every span buffered by a traced server must be closed, every child
interval must nest inside its (closed) parent, and no span may point
at a parent the buffer never saw. Hypothesis drives randomized
submit/graph mixes through one traced server and re-checks the
accumulated buffer after each example — cross-thread handoffs (spans
begin on the submit thread and end on a worker) are exactly where
ordering bugs would surface. The rest pins the contracts the
observability layer exports: the Chrome-trace schema round trip,
Prometheus rendering of every serving counter, the schema-versioned
``RuntimeStats.to_json()``, and the flight recorder's dump-on-close /
dump-on-worker-crash behavior.
"""

import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.errors import CypressError
from repro.graph import GraphBuilder, GraphTemplateCache
from repro.obs import (
    NULL_TRACER,
    Counter,
    FlightRecorder,
    Gauge,
    MetricsRegistry,
    Tracer,
)
from repro.runtime import RuntimeServer, SpeculatorConfig
from repro.runtime.telemetry import STATS_SCHEMA_VERSION

from exposition import validate_chrome_trace

GEMM_SHAPE = dict(m=256, n=256, k=128)


@pytest.fixture(autouse=True)
def fresh_cache():
    api.clear_compile_cache()
    yield
    api.clear_compile_cache()


def _violations(spans):
    """Every way a span tree can be malformed, as readable strings."""
    by_sid = {span.sid: span for span in spans}
    problems = []
    for span in spans:
        if not span.closed:
            problems.append(f"{span.name} sid={span.sid} never closed")
            continue
        if span.end_s < span.start_s:
            problems.append(f"{span.name} sid={span.sid} ends before start")
        if span.parent is None:
            continue
        parent = by_sid.get(span.parent)
        if parent is None:
            problems.append(
                f"{span.name} sid={span.sid} orphan parent {span.parent}"
            )
        elif not (
            parent.start_s <= span.start_s
            and span.end_s <= parent.end_s + 1e-9
        ):
            problems.append(
                f"{span.name} sid={span.sid} "
                f"[{span.start_s}, {span.end_s}] outside parent "
                f"{parent.name} [{parent.start_s}, {parent.end_s}]"
            )
    return problems


def _children(spans, parent):
    return [span for span in spans if span.parent == parent.sid]


def _two_stream_graph(machine, tracer=NULL_TRACER, template_cache=None):
    """Two independent gemms: no edges, so both streams run abreast."""
    gb = GraphBuilder(
        machine, tracer=tracer, template_cache=template_cache
    )
    for stream in ("x", "y"):
        a = gb.tensor(f"A{stream}", (256, 128))
        b = gb.tensor(f"B{stream}", (128, 256))
        c = gb.tensor(f"C{stream}", (256, 256))
        gb.launch(
            "gemm", GEMM_SHAPE, reads=dict(A=a, B=b), writes=dict(C=c)
        )
    return gb.build()


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------


class TestTracer:
    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.begin("request")
        assert span is None
        NULL_TRACER.end(span)  # tolerated
        with NULL_TRACER.span("anything") as inner:
            assert inner is None
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.span_count == 0
        assert len(NULL_TRACER) == 0

    def test_begin_end_buffers_closed_span(self):
        tracer = Tracer()
        span = tracer.begin("work", "test", args={"k": 1})
        assert not span.closed
        assert len(tracer) == 0  # open spans are not buffered
        tracer.end(span, args={"extra": 2})
        assert span.closed
        assert span.duration_s >= 0
        assert span.args == {"k": 1, "extra": 2}
        assert tracer.spans() == [span]

    def test_explicit_parent_survives_cross_thread_end(self):
        tracer = Tracer()
        root = tracer.begin("request")
        worker_spans = []

        def worker():
            child = tracer.begin("execute", parent=root)
            tracer.end(child)
            worker_spans.append(child)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        tracer.end(root)
        assert worker_spans[0].parent == root.sid
        assert _violations(tracer.spans()) == []

    def test_span_context_manager_nests_and_stamps_errors(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    raise ValueError("boom")
        assert inner.parent == outer.sid
        assert "boom" in inner.args["error"]
        assert "boom" in outer.args["error"]
        assert _violations(tracer.spans()) == []

    def test_record_backdates_closed_interval(self):
        tracer = Tracer()
        span = tracer.record("queue", "serve", 10.0, 12.5)
        assert span.closed
        assert span.duration_s == pytest.approx(2.5)
        # A nonsensical interval collapses to zero width, not negative.
        clamped = tracer.record("queue", "serve", 12.5, 10.0)
        assert clamped.duration_s == 0.0

    def test_bounded_buffer_drops_oldest_but_counts_all(self):
        tracer = Tracer(capacity=4)
        for index in range(10):
            tracer.record(f"s{index}", "test", 1.0, 2.0)
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert tracer.span_count == 10
        assert [span.name for span in tracer.spans()] == [
            "s6", "s7", "s8", "s9",
        ]

    def test_zero_capacity_rejected(self):
        with pytest.raises(CypressError):
            Tracer(capacity=0)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_trees_stay_well_formed(self, data):
        tracer = Tracer()

        def grow(depth):
            width = data.draw(
                st.integers(0, 0 if depth >= 3 else 3),
                label=f"children at depth {depth}",
            )
            with tracer.span(f"d{depth}", "test"):
                for _ in range(width):
                    grow(depth + 1)

        for _ in range(data.draw(st.integers(1, 3), label="roots")):
            grow(0)
        assert _violations(tracer.spans()) == []


# ----------------------------------------------------------------------
# Server span trees (the acceptance workloads)
# ----------------------------------------------------------------------


class TestServerSpans:
    def test_warm_submit_produces_full_request_tree(self, hopper):
        with RuntimeServer(hopper, workers=1, trace=True) as server:
            server.submit("gemm", GEMM_SHAPE).result(timeout=600)
            cold_spans = server.tracer.spans()
            server.submit("gemm", GEMM_SHAPE).result(timeout=600)
            spans = server.tracer.spans()
        assert _violations(spans) == []

        roots = [span for span in spans if span.name == "request"]
        assert len(roots) == 2
        cold, warm = roots

        cold_stages = {
            span.name for span in _children(cold_spans, cold)
        }
        assert cold_stages >= {
            "queue", "dispatch", "batch", "compile", "execute",
        }
        compile_span = next(
            span for span in _children(cold_spans, cold)
            if span.name == "compile"
        )
        assert compile_span.args["tier"] == "compile"
        passes = _children(cold_spans, compile_span)
        assert passes, "cold compile must lift pass.* child spans"
        assert all(span.name.startswith("pass.") for span in passes)

        warm_compile = next(
            span for span in _children(spans, warm)
            if span.name == "compile"
        )
        assert warm_compile.args["tier"] == "memory"
        assert _children(spans, warm_compile) == []

    def test_two_stream_graph_produces_graph_tree(self, hopper):
        graph = _two_stream_graph(hopper)
        with RuntimeServer(hopper, workers=2, trace=True) as server:
            server.submit_graph(graph).result(timeout=600)
            spans = server.tracer.spans()
        assert _violations(spans) == []

        graph_span = next(span for span in spans if span.name == "graph")
        assert graph_span.args["nodes"] == 2
        nodes = _children(spans, graph_span)
        assert len(nodes) == 2
        assert all(span.name == "node" for span in nodes)
        for node in nodes:
            requests = _children(spans, node)
            assert [span.name for span in requests] == ["request"]
            stages = {
                span.name for span in _children(spans, requests[0])
            }
            assert "queue" in stages
            assert "execute" in stages

    def test_graph_build_span_reports_template_hit_and_miss(self, hopper):
        tracer = Tracer()
        cache = GraphTemplateCache()
        _two_stream_graph(hopper, tracer=tracer, template_cache=cache)
        _two_stream_graph(hopper, tracer=tracer, template_cache=cache)
        builds = [
            span for span in tracer.spans() if span.name == "graph.build"
        ]
        assert [span.args["template"] for span in builds] == [
            "miss", "hit",
        ]

    def test_speculation_cycle_span(self, hopper):
        config = SpeculatorConfig(max_compiles_per_cycle=8, neighbors=True)
        with RuntimeServer(
            hopper, workers=1, trace=True, speculate=config
        ) as server:
            server.submit("gemm", GEMM_SHAPE).result(timeout=600)
            server.speculator.run_once()
            cycles = [
                span for span in server.tracer.spans()
                if span.name == "speculate.cycle"
            ]
        assert cycles
        assert all("compiles" in span.args for span in cycles)

    @settings(max_examples=10, deadline=None)
    @given(
        workload=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from((100, 128, 200, 256)),
                    st.sampled_from((200, 256)),
                    st.sampled_from((100, 128)),
                ),
                st.just("graph"),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_randomized_workloads_stay_well_formed(self, hopper, workload):
        # One server per example keeps the buffer small enough that
        # nothing is dropped, so the orphan-parent check stays exact.
        with RuntimeServer(hopper, workers=2, trace=True) as server:
            futures = []
            for item in workload:
                if item == "graph":
                    futures.append(
                        server.submit_graph(_two_stream_graph(hopper))
                    )
                else:
                    m, n, k = item
                    futures.append(
                        server.submit("gemm", dict(m=m, n=n, k=k))
                    )
            for future in futures:
                future.result(timeout=600)
            spans = server.tracer.spans()
            assert server.tracer.dropped == 0
        assert _violations(spans) == []
        roots = [span for span in spans if span.name == "request"]
        graphs = sum(1 for item in workload if item == "graph")
        assert len(roots) == (len(workload) - graphs) + 2 * graphs


# ----------------------------------------------------------------------
# Chrome-trace exporter
# ----------------------------------------------------------------------


class TestChromeTraceExport:
    def test_export_round_trips_the_schema(self, hopper, tmp_path):
        out = tmp_path / "trace.json"
        with RuntimeServer(hopper, workers=1, trace=True) as server:
            server.submit("gemm", GEMM_SHAPE).result(timeout=600)
            assert server.export_trace(out) == str(out)
            spans = server.tracer.spans()

        payload = json.loads(out.read_text())
        events = validate_chrome_trace(payload)
        assert len(events) == len(spans)
        assert payload["displayTimeUnit"] == "ms"

        by_sid = {event["args"]["sid"]: event for event in events}
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            parent = event["args"].get("parent")
            if parent is not None:
                outer = by_sid[parent]
                assert outer["ts"] <= event["ts"]
                # Microsecond rounding may wobble the far edge by 1us.
                assert (
                    event["ts"] + event["dur"]
                    <= outer["ts"] + outer["dur"] + 1
                )
        names = {event["name"] for event in events}
        assert {"request", "queue", "compile", "execute"} <= names

    def test_validator_names_the_offending_field(self):
        good = {
            "name": "request", "cat": "serve", "ph": "X",
            "ts": 1, "dur": 2, "pid": 1, "tid": 2,
        }
        with pytest.raises(CypressError, match="traceEvents"):
            validate_chrome_trace({})
        with pytest.raises(CypressError, match="dur"):
            broken = dict(good)
            del broken["dur"]
            validate_chrome_trace({"traceEvents": [broken]})
        with pytest.raises(CypressError, match="ph"):
            validate_chrome_trace(
                {"traceEvents": [dict(good, ph="B")]}
            )
        with pytest.raises(CypressError, match="ts"):
            validate_chrome_trace(
                {"traceEvents": [dict(good, ts=-1)]}
            )
        assert len(validate_chrome_trace({"traceEvents": [good]})) == 1

    def test_export_disabled_server_raises(self, hopper):
        with RuntimeServer(hopper, workers=1) as server:
            with pytest.raises(CypressError, match="disabled"):
                server.export_trace("/tmp/never-written.json")


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_is_monotonic(self):
        counter = Counter("jobs_total", "Jobs.")
        counter.inc()
        counter.inc(4)
        assert counter.labelled() == [((), 5.0)]
        with pytest.raises(CypressError):
            counter.inc(-1)
        assert counter.labelled() == [((), 5.0)]

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("depth", "Queue depth.")
        gauge.set(5)
        gauge.inc(-2)
        gauge.inc(1)
        assert gauge.labelled() == [((), 4.0)]

    def test_labels_render_and_escape(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "Ops.", labels=("kind",))
        counter.inc(2, "read")
        counter.inc(1, 'wr"ite')
        text = registry.render()
        assert 'ops_total{kind="read"} 2' in text
        assert 'ops_total{kind="wr\\"ite"} 1' in text

    def test_registry_is_idempotent_but_typed(self):
        registry = MetricsRegistry()
        first = registry.counter("jobs_total", "Jobs.")
        assert registry.counter("jobs_total", "Jobs.") is first
        with pytest.raises(CypressError):
            registry.gauge("jobs_total", "Now a gauge?")

    def test_server_metrics_expose_every_serving_counter(self, hopper, tmp_path):
        config = SpeculatorConfig(max_compiles_per_cycle=4, neighbors=True)
        with RuntimeServer(
            hopper,
            workers=2,
            trace=True,
            disk_cache=str(tmp_path / "kernels"),
            speculate=config,
        ) as server:
            for _ in range(3):
                server.submit("gemm", GEMM_SHAPE).result(timeout=600)
            server.submit_graph(
                _two_stream_graph(hopper)
            ).result(timeout=600)
            stats = server.stats()
            registry = server.metrics()
            text = registry.render()

        for family in (
            "repro_requests_total",
            "repro_requests_completed_total",
            "repro_requests_failed_total",
            "repro_queue_depth",
            "repro_uptime_seconds",
            "repro_batches_total",
            "repro_batch_size_max",
            "repro_tier_requests_total",
            "repro_request_latency_seconds",
            "repro_kernel_requests_total",
            "repro_kernel_latency_seconds",
            "repro_graphs_total",
            "repro_graphs_completed_total",
            "repro_graphs_failed_total",
            "repro_graph_nodes_total",
            "repro_graph_makespan_seconds",
            "repro_speculative_compiles_total",
            "repro_speculation_issued_total",
            "repro_speculation_hits_total",
            "repro_compile_cache_hits_total",
            "repro_compile_cache_misses_total",
            "repro_compile_cache_second_tier_hits_total",
            "repro_compile_cache_evictions_total",
            "repro_compile_cache_capacity",
            "repro_disk_cache_ops_total",
            "repro_disk_cache_pruned_bytes_total",
            "repro_trace_spans_total",
            "repro_trace_spans_dropped_total",
        ):
            assert f"# HELP {family} " in text, family

        assert f"repro_requests_total {stats.requests}" in text
        assert (
            f"repro_requests_completed_total {stats.completed}" in text
        )
        assert f"repro_graphs_total {stats.graphs}" in text
        for tier, count in stats.tier_counts.items():
            assert (
                f'repro_tier_requests_total{{tier="{tier}"}} {count}'
                in text
            )

    def test_server_metrics_refresh_into_same_registry(self, hopper):
        with RuntimeServer(hopper, workers=1) as server:
            server.submit("gemm", GEMM_SHAPE).result(timeout=600)
            registry = server.metrics()
            assert "\nrepro_requests_total 1\n" in registry.render()
            server.submit("gemm", GEMM_SHAPE).result(timeout=600)
            assert server.metrics(registry) is registry
            assert "\nrepro_requests_total 2\n" in registry.render()


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_keeps_latest(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(7):
            recorder.note(f"e{index}")
        assert len(recorder) == 3
        assert recorder.recorded == 7
        assert [r["name"] for r in recorder.payload()["records"]] == [
            "e4", "e5", "e6",
        ]

    def test_dump_without_path_is_a_noop(self):
        recorder = FlightRecorder()
        recorder.note("event")
        assert recorder.dump(reason="manual") is None

    def test_server_close_dumps_flight_recording(self, hopper, tmp_path):
        out = tmp_path / "flight.json"
        with RuntimeServer(
            hopper, workers=1, trace=True, flight=str(out)
        ) as server:
            server.submit("gemm", GEMM_SHAPE).result(timeout=600)
        payload = json.loads(out.read_text())
        header = payload["flight_recorder"]
        assert header["reason"] == "close"
        assert header["wall_time_s"] > 0
        assert header["retained"] == len(payload["records"])
        kinds = {record["kind"] for record in payload["records"]}
        # The tracer feeds finished spans into the ring, and close()
        # notes the shutdown itself.
        assert kinds == {"span", "event"}
        names = {record["name"] for record in payload["records"]}
        assert "request" in names
        assert "close" in names

    def test_worker_exception_dumps_and_fails_futures(
        self, hopper, tmp_path, monkeypatch
    ):
        out = tmp_path / "flight.json"
        server = RuntimeServer(hopper, workers=1, flight=str(out))

        def explode(size):
            raise RuntimeError("boom")

        monkeypatch.setattr(server.telemetry, "record_batch", explode)
        with server:
            future = server.submit("gemm", GEMM_SHAPE)
            # The worker-loop exception propagates verbatim into the
            # batch's futures instead of hanging them.
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=600)
            assert server.stats().failed == 1
        payload = json.loads(out.read_text())
        reasons = [payload["flight_recorder"]["reason"]]
        # close() dumps again over the same path; the crash dump
        # happened first, and its note survives in the ring.
        names = [record["name"] for record in payload["records"]]
        assert "worker-exception" in names
        crash = next(
            record for record in payload["records"]
            if record["name"] == "worker-exception"
        )
        assert "boom" in crash["args"]["error"]
        assert crash["args"]["requests_failed"] == 1
        assert reasons == ["close"]


# ----------------------------------------------------------------------
# RuntimeStats.to_json()
# ----------------------------------------------------------------------


class TestStatsJson:
    def test_schema_versioned_snapshot(self, hopper):
        with RuntimeServer(hopper, workers=1, trace=True) as server:
            server.submit("gemm", GEMM_SHAPE).result(timeout=600)
            server.submit("gemm", GEMM_SHAPE).result(timeout=600)
            stats = server.stats()
        payload = stats.to_json()
        # Everything is plain JSON types.
        assert payload == json.loads(json.dumps(payload))
        assert payload["schema_version"] == STATS_SCHEMA_VERSION
        assert set(payload) == {
            "schema_version", "runtime", "latency", "tiers",
            "graphs", "speculation", "specialization", "resilience",
            "slo", "obs", "kernels",
        }
        assert payload["slo"] == {"alerts": {}, "burn_rates": {}}
        assert payload["runtime"]["requests"] == stats.requests
        assert payload["resilience"] == {"timeouts": 0, "shed_requests": 0}
        assert payload["runtime"]["completed"] == 2
        assert payload["tiers"]["counts"] == dict(stats.tier_counts)
        assert payload["obs"]["trace_enabled"] is True
        assert payload["obs"]["trace_spans"] == stats.trace_spans > 0
        assert "gemm" in payload["kernels"]

    def test_table_gains_obs_line_only_when_observing(self, hopper):
        with RuntimeServer(hopper, workers=1, trace=True) as server:
            server.submit("gemm", GEMM_SHAPE).result(timeout=600)
            traced = server.stats().table()
        assert "obs:" in traced
        assert "tracing on" in traced
        with RuntimeServer(hopper, workers=1) as server:
            server.submit("gemm", GEMM_SHAPE).result(timeout=600)
            untraced = server.stats().table()
        assert "obs:" not in untraced
