"""The live ops plane: diag endpoints and SLO alerts.

Two subsystems under test. The :class:`~repro.obs.ops.DiagServer`
endpoints are exercised both in-process (``handle()`` is pure
``path -> (code, content_type, body)``) and over a real socket —
including hammering ``/metrics`` and ``/statusz`` from threads while a
live server takes traffic and closes underneath them. The
:class:`~repro.obs.slo.SloMonitor` replays a seeded failure trace
through injected stats/clock ticks and must page — and the page must
be visible everywhere the ops plane promises: ``stats()``, the
``table()`` alerts line, the flight recorder, ``/statusz``, and the
Prometheus render (which :func:`validate_prometheus_text` re-checks
strictly on every fully-populated server here).
"""

import contextlib
import dataclasses
import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.errors import CypressError
from repro.kernels import build_gemm
from repro.obs import MetricsRegistry
from repro.obs.metrics import _format_value
from repro.obs.ops import ENDPOINTS, PROM_CONTENT_TYPE, DiagConfig, DiagServer
from repro.obs.slo import SEVERITY_PAGE, Slo, SloMonitor
from repro.obs.flight import FlightRecorder
from repro.runtime import BucketPolicy, KernelRegistry, RuntimeServer
from repro.runtime.resilience import ResilienceConfig

from exposition import validate_chrome_trace, validate_prometheus_text

GEMM_SHAPE = dict(m=256, n=256, k=128)
SMALL = dict(tile_m=128, tile_n=256, tile_k=64)


@pytest.fixture(autouse=True)
def fresh_cache():
    api.clear_compile_cache()
    yield
    api.clear_compile_cache()


@pytest.fixture()
def registry():
    reg = KernelRegistry()
    reg.register(
        "gemm",
        build_gemm,
        ("m", "n", "k"),
        policy=BucketPolicy(
            ladders={"m": (128, 256), "n": (256,), "k": (64, 128)}
        ),
        defaults=dict(SMALL),
    )
    return reg


#: Captured from the commit before the ``COUNTERS`` table existed.
GOLDEN_SURFACE = Path(__file__).parent / "golden_serving_surface.json"


def _key_tree(doc):
    """``to_json()`` keys, nested; maps keyed by runtime names (SLO
    names) collapse to ``None`` like any other leaf."""
    if not isinstance(doc, dict):
        return None
    return {
        key: None
        if key in ("alerts", "burn_rates")
        else _key_tree(value)
        for key, value in sorted(doc.items())
    }


@contextlib.contextmanager
def _fully_populated_server(machine, registry, tmp_path):
    """A server with every optional subsystem on, so every metric
    family and stats field is published."""
    slo = Slo("availability", metric="error_rate")
    with RuntimeServer(
        machine,
        registry,
        workers=1,
        trace=True,
        flight=str(tmp_path / "flight.json"),
        speculate=True,
        specialize=True,
        disk_cache=str(tmp_path / "disk"),
        diag=DiagConfig(slos=(slo,), slo_tick_s=30.0),
    ) as server:
        try:
            yield server
        finally:
            server.diag.stop()


def _serving_surface(machine, registry, tmp_path):
    """Every name a consumer can key off: ``RuntimeStats`` fields, the
    ``to_json()`` key tree, each ``/metrics`` family's (name, type,
    help)."""
    with _fully_populated_server(machine, registry, tmp_path) as server:
        server.submit("gemm", GEMM_SHAPE).result(timeout=600)
        server.slo_monitor.observe()
        stats = server.stats()
        code, _ctype, body = server.diag.handle("/metrics")
    assert code == 200, body[:200]
    text = body.decode("utf-8")
    kinds = validate_prometheus_text(text)
    return {
        "stats_fields": sorted(
            field.name for field in dataclasses.fields(stats)
        ),
        "to_json_keys": _key_tree(stats.to_json()),
        "metric_families": sorted(
            [name, kinds[name], help_text]
            for name, help_text in (
                line.split(" ", 3)[2:]
                for line in text.splitlines()
                if line.startswith("# HELP ")
            )
        ),
    }


def _burn(monitor, name):
    """The fast and slow burn rates ``/statusz`` reports for one SLO."""
    (burn,) = [
        objective["burn"]
        for objective in monitor.describe()["objectives"]
        if objective["name"] == name
    ]
    return burn


def _http_get(url, timeout=30.0):
    """GET ``url``; returns (status, content_type, body bytes)."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read(),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type", ""), error.read()


# ----------------------------------------------------------------------
# DiagConfig
# ----------------------------------------------------------------------
class TestDiagConfig:
    def test_validation(self):
        with pytest.raises(CypressError, match="port"):
            DiagConfig(port=-1)
        with pytest.raises(CypressError, match="port"):
            DiagConfig(port=70000)
        with pytest.raises(CypressError, match="slo_tick_s"):
            DiagConfig(slo_tick_s=0.0)
        with pytest.raises(CypressError, match="ready_shed_rate"):
            DiagConfig(ready_shed_rate=0.0)
        with pytest.raises(CypressError, match="ready_shed_rate"):
            DiagConfig(ready_shed_rate=1.5)

    def test_server_coerces_shorthand(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, diag=True
        ) as server:
            assert server.diag is not None
            assert server.diag.address is not None
            assert server.diag.address[0] == "127.0.0.1"
            assert server.slo_monitor is None  # no SLOs by default
            server.diag.stop()

    def test_server_rejects_garbage_diag(self, hopper, registry):
        with pytest.raises(CypressError, match="diag"):
            RuntimeServer(
                hopper, registry, workers=1, diag="yes-please", start=False
            )

    def test_api_serve_diag_port_shorthand(self, hopper, registry):
        # ``diag=<int>`` is the port form; 0 picks an ephemeral port.
        with api.serve(
            hopper, registry=registry, workers=1, diag=0
        ) as server:
            assert server.diag is not None
            assert server.diag.address is not None
            server.diag.stop()


# ----------------------------------------------------------------------
# Endpoints on a live, warmed server
# ----------------------------------------------------------------------
class TestEndpoints:
    @pytest.fixture()
    def server(self, hopper, registry, tmp_path):
        config = DiagConfig(
            slos=(Slo("availability", metric="error_rate"),),
            slo_tick_s=30.0,
        )
        server = RuntimeServer(
            hopper,
            registry,
            workers=1,
            trace=True,
            flight=str(tmp_path / "flight.json"),
            diag=config,
        )
        server.submit("gemm", GEMM_SHAPE).result(timeout=600)
        try:
            yield server
        finally:
            server.close()
            server.diag.stop()

    def test_every_endpoint_serves_200_over_http(self, server):
        for path in ENDPOINTS:
            code, _ctype, body = _http_get(server.diag.url(path))
            assert code == 200, f"{path} -> {code}: {body[:200]}"
            assert body

    def test_index_lists_endpoints_and_unknown_404s(self, server):
        code, _ctype, body = _http_get(server.diag.url("/"))
        assert code == 200
        assert json.loads(body)["endpoints"] == list(ENDPOINTS)
        code, _ctype, body = _http_get(server.diag.url("/nope"))
        assert code == 404
        assert "no such endpoint" in json.loads(body)["error"]

    def test_metrics_pass_strict_validation(self, server):
        code, ctype, body = _http_get(server.diag.url("/metrics"))
        assert code == 200
        assert ctype == PROM_CONTENT_TYPE
        text = body.decode("utf-8")
        families = validate_prometheus_text(text)
        assert families["repro_requests_total"] == "counter"
        assert families["repro_build_info"] == "gauge"
        assert families["repro_uptime_seconds"] == "gauge"
        assert families["repro_diag_requests_total"] == "counter"
        assert 'repro_build_info{version="' in text

    def test_metrics_survive_a_compile_cache_clear(self, server):
        # The compile cache owns its hit/miss counts and clear() restarts
        # them from zero; the scrape after it must not answer 500.
        server.submit("gemm", GEMM_SHAPE).result(timeout=600)  # a cache hit
        assert server.diag.handle("/metrics")[0] == 200
        api.clear_compile_cache()
        server.submit("gemm", GEMM_SHAPE).result(timeout=600)
        code, _ctype, body = server.diag.handle("/metrics")
        assert code == 200, body[:200]
        validate_prometheus_text(body.decode("utf-8"))

    def test_diag_requests_counter_accumulates(self, server):
        for _ in range(3):
            assert _http_get(server.diag.url("/healthz"))[0] == 200
        text = _http_get(server.diag.url("/metrics"))[2].decode("utf-8")
        line = next(
            line
            for line in text.splitlines()
            if line.startswith("repro_diag_requests_total")
            and '"/healthz"' in line
        )
        assert 'code="200"' in line
        assert float(line.rsplit(" ", 1)[1]) >= 3

    def test_statusz_payload(self, server):
        code, _ctype, body = _http_get(server.diag.url("/statusz"))
        assert code == 200
        payload = json.loads(body)
        assert payload["build"]["version"]
        assert payload["uptime_s"] > 0
        assert payload["config"]["workers"] == 1
        assert payload["config"]["trace"] is True
        assert payload["config"]["slos"] == ["availability"]
        assert payload["stats"]["runtime"]["completed"] >= 1
        assert payload["slo"]["objectives"][0]["name"] == "availability"

    def test_tracez_round_trips_the_validator(self, server):
        code, _ctype, body = _http_get(server.diag.url("/tracez"))
        assert code == 200
        payload = json.loads(body)
        events = validate_chrome_trace(payload)
        names = {event["name"] for event in events}
        assert "request" in names

    def test_flightz_serves_ring_without_writing(self, server, tmp_path):
        code, _ctype, body = _http_get(server.diag.url("/flightz"))
        assert code == 200
        payload = json.loads(body)
        assert payload["flight_recorder"]["reason"] == "flightz"
        assert payload["records"]
        assert not (tmp_path / "flight.json").exists()  # nothing written

    def test_handle_guards_endpoint_exceptions(self, server):
        diag = server.diag
        original = diag._statusz
        diag._statusz = lambda: 1 / 0
        try:
            code, _ctype, body = diag.handle("/statusz")
        finally:
            diag._statusz = original
        assert code == 500
        assert "ZeroDivisionError" in json.loads(body)["error"]


class TestEndpointsDisabledSubsystems:
    def test_tracez_flightz_503_when_off(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, diag=True
        ) as server:
            try:
                for path in ("/tracez", "/flightz"):
                    code, _ctype, body = server.diag.handle(path)
                    assert code == 503
                    assert "disabled" in json.loads(body)["error"]
            finally:
                server.diag.stop()


# ----------------------------------------------------------------------
# Health and readiness
# ----------------------------------------------------------------------
class TestReadiness:
    def test_not_ready_before_warm(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, diag=True
        ) as server:
            try:
                code, _ctype, body = server.diag.handle("/readyz")
                assert code == 503
                reasons = json.loads(body)["reasons"]
                assert any("warmed" in reason for reason in reasons)
                # Liveness is independent of readiness.
                code, _ctype, body = server.diag.handle("/healthz")
                assert code == 200
                assert json.loads(body)["status"] == "ok"
                server.submit("gemm", GEMM_SHAPE).result(timeout=600)
                code, _ctype, body = server.diag.handle("/readyz")
                assert code == 200
                assert json.loads(body) == {"ready": True, "reasons": []}
            finally:
                server.diag.stop()

    def test_warm_counts_as_ready(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, diag=True
        ) as server:
            try:
                server.warm("gemm", [GEMM_SHAPE])
                assert server.diag.handle("/readyz")[0] == 200
            finally:
                server.diag.stop()

    def test_shed_rate_flips_readyz(self, hopper, registry):
        server = RuntimeServer(
            hopper,
            registry,
            workers=1,
            start=False,
            resilience=ResilienceConfig(
                max_queue=2, shed_policy="drop-oldest"
            ),
            diag=DiagConfig(ready_shed_rate=0.05),
        )
        try:
            futures = [
                server.submit("gemm", dict(m=128, n=256, k=64))
                for _ in range(4)
            ]
            server.start()
            survivors = 0
            for future in futures:
                try:
                    future.result(timeout=600)
                    survivors += 1
                except CypressError:
                    pass
            assert survivors == 2  # the other two were shed
            stats = server.stats()
            assert stats.shed_requests == 2
            code, _ctype, body = server.diag.handle("/readyz")
            assert code == 503
            reasons = json.loads(body)["reasons"]
            assert any("shed rate" in reason for reason in reasons)
            assert json.loads(
                server.diag.handle("/healthz")[2]
            )["status"] == "degraded"
        finally:
            server.close()
            server.diag.stop()


# ----------------------------------------------------------------------
# Lifecycle and concurrency
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_endpoints_answer_503_after_close(self, hopper, registry):
        server = RuntimeServer(hopper, registry, workers=1, diag=True)
        try:
            server.submit("gemm", GEMM_SHAPE).result(timeout=600)
            server.close()
            # The listener survives close().
            assert server.diag.address is not None
            for path in ENDPOINTS + ("/",):
                code, _ctype, body = _http_get(server.diag.url(path))
                assert code == 503, f"{path} -> {code}"
                assert json.loads(body)["error"] == "server closed"
        finally:
            server.diag.stop()
        assert server.diag.address is None

    def test_stop_is_idempotent_and_start_rebinds(self, hopper, registry):
        server = RuntimeServer(
            hopper, registry, workers=1, start=False, diag=True
        )
        diag = server.diag
        assert diag.address is None
        with pytest.raises(CypressError, match="not started"):
            diag.url("/")
        diag.start()
        first = diag.address
        diag.start()  # idempotent: same listener
        assert diag.address == first
        diag.stop()
        diag.stop()
        assert diag.address is None
        server.close()

    def test_hammered_endpoints_survive_live_traffic_and_close(
        self, hopper, registry
    ):
        server = RuntimeServer(hopper, registry, workers=2, diag=True)
        server.submit("gemm", GEMM_SHAPE).result(timeout=600)
        stop = threading.Event()
        codes = []
        codes_lock = threading.Lock()
        failures = []

        def scrape(path):
            while not stop.is_set():
                try:
                    code, _ctype, body = _http_get(
                        server.diag.url(path), timeout=30.0
                    )
                    with codes_lock:
                        codes.append(code)
                    if code not in (200, 503):
                        failures.append((path, code, body[:200]))
                        return
                except Exception as error:  # noqa: BLE001
                    failures.append((path, repr(error)))
                    return

        threads = [
            threading.Thread(target=scrape, args=(path,), daemon=True)
            for path in ("/metrics", "/statusz", "/metrics", "/readyz")
        ]
        for thread in threads:
            thread.start()
        try:
            futures = [
                server.submit("gemm", GEMM_SHAPE) for _ in range(20)
            ]
            for future in futures:
                future.result(timeout=600)
            server.close()  # scrapers keep hitting 503 through this
            deadline = time.time() + 5.0
            while time.time() < deadline:
                with codes_lock:
                    recent = codes[-4:]
                if len(codes) > 8 and all(c == 503 for c in recent):
                    break
                time.sleep(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            server.diag.stop()
        assert not failures, failures
        assert not any(thread.is_alive() for thread in threads)
        with codes_lock:
            assert codes
            assert set(codes) <= {200, 503}
            assert 503 in codes  # the close was observed over the wire


# ----------------------------------------------------------------------
# SLO monitor
# ----------------------------------------------------------------------
class TestSlo:
    def test_slo_validation(self):
        with pytest.raises(CypressError, match="metric"):
            Slo("x", metric="qps")
        with pytest.raises(CypressError, match="target"):
            Slo("x", target=1.0)
        with pytest.raises(CypressError, match="window_s"):
            Slo("x", window_s=0.0)
        with pytest.raises(CypressError, match="page_burn"):
            Slo("x", page_burn=1.0, ticket_burn=3.0)
        with pytest.raises(CypressError, match="name"):
            Slo("")

    def test_monitor_validation(self, hopper, registry):
        server = RuntimeServer(hopper, registry, workers=1, start=False)
        with pytest.raises(CypressError, match="at least one"):
            SloMonitor(server, ())
        with pytest.raises(CypressError, match="duplicate"):
            SloMonitor(server, (Slo("a"), Slo("a")))
        server.close()

    def test_burn_rate_math(self):
        slo = Slo("x", target=0.99)
        assert slo.burn_rate(0.0) == 0.0
        assert slo.burn_rate(0.01) == pytest.approx(1.0)
        assert slo.burn_rate(1.0) == pytest.approx(100.0)
        assert slo.fast_window_s == pytest.approx(slo.window_s / 12.0)

    def test_min_samples_blocks_first_tick_page(self, hopper, registry):
        server = RuntimeServer(hopper, registry, workers=1, start=False)
        slo = Slo(
            "latency",
            metric="latency_p95",
            target=0.99,
            window_s=10.0,
            threshold=0.5,
        )
        monitor = SloMonitor(server, (slo,), tick_s=1.0)
        bad = dataclasses.replace(server.stats(), p95_latency_s=2.0)
        base = time.perf_counter() + 1e6
        monitor.observe(stats=bad, now=base)  # one bad tick: no alert
        assert monitor.alert_states() == {}
        assert _burn(monitor, "latency") == {"fast": 0.0, "slow": 0.0}
        server.close()

    def test_seeded_failure_trace_pages_end_to_end(
        self, hopper, registry, tmp_path
    ):
        slo = Slo(
            "availability",
            metric="error_rate",
            target=0.99,
            window_s=12.0,
            threshold=0.5,
            fast_fraction=0.25,
        )
        server = RuntimeServer(
            hopper,
            registry,
            workers=1,
            flight=str(tmp_path / "flight.json"),
            diag=DiagConfig(slos=(slo,), slo_tick_s=60.0),
        )
        try:
            server.submit("gemm", GEMM_SHAPE).result(timeout=600)
            monitor = server.slo_monitor
            # The 60 s tick parks the monitor on the maintenance
            # thread: the test owns the clock, so every ring tick below
            # is an injected one.
            real = server.stats()
            # Replay a seeded trace: every tick sees 10 new submits,
            # all failed — far past the 0.5 error-rate threshold.
            base = time.perf_counter() + 1e6
            for tick in range(1, 9):
                seeded = dataclasses.replace(
                    real,
                    requests=real.requests + 10 * tick,
                    failed=real.failed + 10 * tick,
                )
                monitor.observe(stats=seeded, now=base + tick)

            # 1. The monitor itself.
            assert monitor.alert_states() == {
                "availability": SEVERITY_PAGE
            }
            burns = _burn(monitor, "availability")
            assert burns["fast"] >= slo.page_burn
            assert burns["slow"] >= slo.page_burn
            alerts_total = monitor.describe()["alerts_total"]
            assert alerts_total[f"availability:{SEVERITY_PAGE}"] == 1

            # 2. The stats snapshot and its table.
            stats = server.stats()
            assert stats.slo_alerts == {"availability": SEVERITY_PAGE}
            assert stats.slo_burn_rates["availability"] >= slo.page_burn
            table = stats.table()
            assert "alerts:" in table
            assert "availability page" in table
            assert stats.to_json()["slo"]["alerts"] == {
                "availability": SEVERITY_PAGE
            }

            # 3. The flight recorder note.
            notes = [
                record
                for record in server.flight.payload()["records"]
                if record["kind"] == "event"
                and record["name"] == "slo-alert"
            ]
            assert notes
            assert notes[-1]["args"]["severity"] == SEVERITY_PAGE
            assert notes[-1]["args"]["slo"] == "availability"

            # 4. /statusz.
            server.diag.start()
            payload = json.loads(server.diag.handle("/statusz")[2])
            objective = payload["slo"]["objectives"][0]
            assert objective["alert"] == SEVERITY_PAGE
            assert objective["burn"]["slow"] >= slo.page_burn
            assert payload["stats"]["slo"]["alerts"] == {
                "availability": SEVERITY_PAGE
            }

            # 5. /metrics, strictly validated.
            text = server.diag.handle("/metrics")[2].decode("utf-8")
            families = validate_prometheus_text(text)
            assert families["repro_slo_burn_rate"] == "gauge"
            assert families["repro_slo_alerts_total"] == "counter"
            page_total = next(
                line
                for line in text.splitlines()
                if line.startswith("repro_slo_alerts_total")
                and 'severity="page"' in line
            )
            assert float(page_total.rsplit(" ", 1)[1]) == 1.0

            # 6. Recovery: quiet ticks drain both windows and the
            # alert resolves (severity transition, not a flap).
            quiet = dataclasses.replace(
                real, requests=real.requests + 80, failed=real.failed + 80
            )
            for tick in range(9, 40):
                monitor.observe(stats=quiet, now=base + tick)
            assert monitor.alert_states() == {}
            assert server.stats().slo_alerts == {}
            resolved = [
                record
                for record in server.flight.payload()["records"]
                if record["kind"] == "event"
                and record["name"] == "slo-alert"
                and record["args"]["severity"] == "resolved"
            ]
            assert resolved
        finally:
            server.close()
            server.diag.stop()

    def test_latency_metric_reads_p95_directly(self, hopper, registry):
        server = RuntimeServer(hopper, registry, workers=1, start=False)
        slo = Slo(
            "latency",
            metric="latency_p95",
            target=0.99,
            window_s=10.0,
            threshold=0.5,
            fast_fraction=0.5,
        )
        monitor = SloMonitor(server, (slo,), tick_s=1.0)
        real = server.stats()
        slow = dataclasses.replace(real, p95_latency_s=2.0)
        base = time.perf_counter() + 1e6
        for tick in range(1, 6):
            monitor.observe(stats=slow, now=base + tick)
        assert monitor.alert_states() == {"latency": SEVERITY_PAGE}
        server.close()


# ----------------------------------------------------------------------
# Flight-recorder dump rotation
# ----------------------------------------------------------------------
class TestFlightRotation:
    def test_rotation_keeps_newest_archives(self, tmp_path):
        latest = tmp_path / "flight.json"
        recorder = FlightRecorder(path=str(latest), max_dumps=3)
        recorder.note("boot")
        for index in range(6):
            recorder.dump(reason=f"crash{index}")
        assert recorder.dumps == 6
        assert latest.exists()  # the stable latest file survives
        archives = sorted(
            p.name for p in tmp_path.glob("flight-*.json")
        )
        assert archives == [
            "flight-0004-crash3.json",
            "flight-0005-crash4.json",
            "flight-0006-crash5.json",
        ]
        payload = json.loads(latest.read_text())
        assert payload["flight_recorder"]["reason"] == "crash5"
        assert payload["flight_recorder"]["dumps"] == 6

    def test_reason_is_sanitized_in_archive_name(self, tmp_path):
        latest = tmp_path / "flight.json"
        recorder = FlightRecorder(path=str(latest), max_dumps=2)
        recorder.note("x")
        recorder.dump(reason="worker exception: boom/crash")
        archives = list(tmp_path.glob("flight-0001-*.json"))
        assert len(archives) == 1
        assert "/" not in archives[0].name.replace(tmp_path.name, "")
        assert " " not in archives[0].name

    def test_max_dumps_validated(self):
        with pytest.raises(CypressError, match="max_dumps"):
            FlightRecorder(max_dumps=0)

    def test_dump_counter_reaches_metrics(self, hopper, registry, tmp_path):
        path = tmp_path / "flight.json"
        with RuntimeServer(
            hopper, registry, workers=1, flight=str(path)
        ) as server:
            server.submit("gemm", GEMM_SHAPE).result(timeout=600)
            server.flight.dump(reason="manual")
            text = server.metrics().render()
        families = validate_prometheus_text(text)
        assert families["repro_flight_dumps_total"] == "counter"
        line = next(
            line
            for line in text.splitlines()
            if line.startswith("repro_flight_dumps_total ")
        )
        assert float(line.split(" ")[1]) == 1.0

    def test_a_dump_that_cannot_be_written_counts_nothing(self, tmp_path):
        recorder = FlightRecorder(path=str(tmp_path / "missing" / "f.json"))
        recorder.note("x")
        with pytest.raises(OSError):
            recorder.dump()
        assert recorder.dumps == 0

    def test_a_failed_crash_dump_keeps_the_worker_serving(
        self, hopper, registry, tmp_path, monkeypatch
    ):
        path = tmp_path / "missing" / "flight.json"
        serve = RuntimeServer._serve
        calls = []

        def serve_crashing_once(self, batch, stages, found=None):
            calls.append(len(batch))
            if len(calls) == 1:
                raise RuntimeError("boom")
            return serve(self, batch, stages, found)

        monkeypatch.setattr(RuntimeServer, "_serve", serve_crashing_once)
        server = RuntimeServer(
            hopper, registry, workers=1, flight=str(path), start=False
        )
        first = server.submit("gemm", GEMM_SHAPE)
        server.start()
        (worker,) = server._threads
        assert isinstance(first.exception(timeout=600), RuntimeError)
        # The crash handler's dump failed; the same worker serves on.
        second = server.submit("gemm", GEMM_SHAPE)
        assert second.result(timeout=60).tflops > 0
        assert worker.is_alive()
        # close() still reports its own failed dump, after shutdown.
        with pytest.raises(OSError):
            server.close()
        assert server.closed and not worker.is_alive()
        assert server.flight.dumps == 0
        assert not path.exists()
        events = [
            record["name"]
            for record in server.flight.payload()["records"]
            if record["kind"] == "event"
        ]
        assert events.count("dump-failed") == 1


# ----------------------------------------------------------------------
# Prometheus conformance oracle
# ----------------------------------------------------------------------
class TestPrometheusValidator:
    def test_fully_populated_server_render_passes(
        self, hopper, registry, tmp_path
    ):
        with _fully_populated_server(hopper, registry, tmp_path) as server:
            futures = [
                server.submit("gemm", GEMM_SHAPE) for _ in range(4)
            ]
            for future in futures:
                future.result(timeout=600)
            server.slo_monitor.observe()
            text = server.metrics().render()
        families = validate_prometheus_text(text)
        for family in (
            "repro_requests_total",
            "repro_build_info",
            "repro_uptime_seconds",
            "repro_request_latency_seconds",
            "repro_slo_burn_rate",
            "repro_slo_alerts_total",
        ):
            assert family in families, family

    def test_serving_surface_matches_the_golden_fixture(
        self, hopper, registry, tmp_path
    ):
        surface = _serving_surface(hopper, registry, tmp_path)
        golden = json.loads(GOLDEN_SURFACE.read_text())
        assert sorted(surface) == sorted(golden)
        for part in golden:
            assert surface[part] == golden[part], part

    def test_rejects_missing_trailing_newline(self):
        with pytest.raises(CypressError, match="newline"):
            validate_prometheus_text("# TYPE a counter\na 1")

    def test_rejects_sample_without_type(self):
        with pytest.raises(CypressError, match="no # TYPE"):
            validate_prometheus_text("orphan 1\n")

    def test_rejects_bad_type_kind_and_duplicates(self):
        with pytest.raises(CypressError, match="invalid TYPE kind"):
            validate_prometheus_text("# TYPE a speedometer\na 1\n")
        with pytest.raises(CypressError, match="duplicate TYPE"):
            validate_prometheus_text(
                "# TYPE a counter\n# TYPE a counter\na 1\n"
            )
        with pytest.raises(CypressError, match="after its samples"):
            validate_prometheus_text(
                "# TYPE a counter\na 1\n# TYPE a gauge\n"
            )

    def test_rejects_invalid_escape(self):
        with pytest.raises(CypressError, match="invalid escape"):
            validate_prometheus_text(
                '# TYPE a gauge\na{l="bad\\t"} 1\n'
            )

    def test_accepts_all_legal_escapes(self):
        families = validate_prometheus_text(
            '# TYPE a gauge\na{l="q\\"uote\\\\back\\nline"} 1\n'
        )
        assert families == {"a": "gauge"}

    def test_rejects_negative_counter(self):
        with pytest.raises(CypressError, match="negative"):
            validate_prometheus_text("# TYPE a counter\na -1\n")

    def test_rejects_duplicate_sample(self):
        with pytest.raises(CypressError, match="duplicate sample"):
            validate_prometheus_text("# TYPE a gauge\na 1\na 2\n")

    def test_rejects_histogram_type_line(self):
        # The registry renders counters and gauges only; the oracle
        # refuses the kinds it no longer checks instead of passing them.
        for kind in ("histogram", "summary"):
            with pytest.raises(CypressError, match="invalid TYPE kind"):
                validate_prometheus_text(
                    f"# TYPE h {kind}\nh_sum 4\nh_count 3\n"
                )

    def test_registry_rejects_digit_leading_names(self):
        registry = MetricsRegistry()
        with pytest.raises(CypressError, match="invalid metric name"):
            registry.counter("0bad", "nope")
        with pytest.raises(CypressError, match="invalid metric name"):
            registry.gauge("has space", "nope")

    def test_special_float_values_render_and_validate(self):
        assert _format_value(float("nan")) == "NaN"
        assert _format_value(float("inf")) == "+Inf"
        assert _format_value(float("-inf")) == "-Inf"
        registry = MetricsRegistry()
        gauge = registry.gauge("weird", "special values", labels=("kind",))
        gauge.set(float("nan"), "nan")
        gauge.set(float("inf"), "inf")
        gauge.set(float("-inf"), "ninf")
        text = registry.render()
        assert 'weird{kind="nan"} NaN' in text
        assert 'weird{kind="inf"} +Inf' in text
        assert 'weird{kind="ninf"} -Inf' in text
        assert validate_prometheus_text(text) == {"weird": "gauge"}

    def test_help_text_is_escaped(self):
        registry = MetricsRegistry()
        registry.gauge("g", "line one\nline two \\ backslash")
        text = registry.render()
        assert "# HELP g line one\\nline two \\\\ backslash" in text
        validate_prometheus_text(text)


# ----------------------------------------------------------------------
# Hypothesis: /tracez always round-trips the Chrome-trace validator
# ----------------------------------------------------------------------
class TestTracezProperty:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        shapes=st.lists(
            st.sampled_from(
                [
                    dict(m=128, n=256, k=64),
                    dict(m=256, n=256, k=128),
                    dict(m=128, n=256, k=128),
                ]
            ),
            min_size=0,
            max_size=4,
        )
    )
    def test_tracez_round_trips(self, hopper, registry, shapes):
        with RuntimeServer(
            hopper, registry, workers=2, trace=True
        ) as server:
            futures = [
                server.submit("gemm", shape) for shape in shapes
            ]
            for future in futures:
                future.result(timeout=600)
            diag = DiagServer(server)
            code, _ctype, body = diag.handle("/tracez")
            assert code == 200
            payload = json.loads(body)
            events = validate_chrome_trace(payload)
            assert payload["otherData"]["span_count"] >= len(events)
