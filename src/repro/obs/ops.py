"""Live ops plane: embedded HTTP diagnostics for a running server.

Everything PR 7 and PR 9 collect — the metrics registry, span ring,
flight recorder, resilience counters — is only reachable by code that
holds the :class:`~repro.runtime.server.RuntimeServer` object. This
module makes it reachable *over the wire* while the server runs, the
way production services do it: a small read-only HTTP listener on a
daemon thread, speaking only ``GET``, built entirely on the stdlib
(:mod:`http.server`; no new dependencies).

Endpoints:

- ``GET /metrics`` — Prometheus text exposition of the full registry
  (validated in the tests by ``tests/exposition.py``).
- ``GET /statusz`` — build info, uptime, effective config, the
  schema-versioned ``RuntimeStats.to_json()`` and SLO state.
- ``GET /healthz`` — liveness; reports ``"degraded"`` while the shed
  rate exceeds the readiness threshold.
- ``GET /readyz`` — readiness for traffic: started, not closed,
  warmed, shed rate under threshold; 503 otherwise with the reasons
  listed.
- ``GET /tracez`` — the span ring as a Chrome-trace payload.
- ``GET /flightz`` — the flight recorder's current buffer as a dump
  payload (no file is written).

Every handler runs inside a guard: an endpoint exception becomes a
500 response and can never touch the serving path, and every request
is counted in ``repro_diag_requests_total{endpoint,code}``. Once the
runtime is closed every endpoint answers 503 — the listener keeps
draining probes (so orchestrators see the terminal state instead of
connection refused) until :meth:`DiagServer.stop`.
"""

from __future__ import annotations

import json
import os
import platform
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import CypressError
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import Slo

if TYPE_CHECKING:  # pragma: no cover - import cycle: server owns us
    from http.server import ThreadingHTTPServer

    from repro.runtime.server import RuntimeServer

__all__ = ["DiagConfig", "DiagServer", "ENDPOINTS", "PROM_CONTENT_TYPE"]

#: Prometheus text-exposition content type.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Endpoint paths served by :class:`DiagServer`.
ENDPOINTS = (
    "/metrics",
    "/statusz",
    "/healthz",
    "/readyz",
    "/tracez",
    "/flightz",
)


@dataclass(frozen=True)
class DiagConfig:
    """Configuration of the embedded diagnostics plane.

    Attributes:
        port: TCP port to listen on; ``0`` binds an ephemeral port
            (read it back from ``DiagServer.address``).
        host: bind address; the default stays loopback-only because
            the plane is unauthenticated.
        slos: objectives for the :class:`~repro.obs.slo.SloMonitor`;
            empty disables SLO monitoring.
        slo_tick_s: SLO evaluation period.
        ready_shed_rate: lifetime shed-to-submit ratio above which
            ``/readyz`` reports not-ready and ``/healthz`` degraded.
    """

    port: int = 0
    host: str = "127.0.0.1"
    slos: Tuple[Slo, ...] = ()
    slo_tick_s: float = 1.0
    ready_shed_rate: float = 0.5

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise CypressError(f"port must be 0..65535, got {self.port}")
        if self.slo_tick_s <= 0:
            raise CypressError(
                f"slo_tick_s must be > 0, got {self.slo_tick_s}"
            )
        if not 0.0 < self.ready_shed_rate <= 1.0:
            raise CypressError(
                "ready_shed_rate must be in (0, 1], got "
                f"{self.ready_shed_rate}"
            )
        object.__setattr__(self, "slos", tuple(self.slos))


class DiagServer:
    """Read-only HTTP diagnostics listener owned by a runtime server.

    Construction is cheap and binds nothing; :meth:`start` binds the
    socket and spawns the serving thread, :meth:`stop` shuts both
    down. All endpoint logic lives in :meth:`handle`, which is pure
    ``path -> (code, content_type, body)`` so tests can hit
    endpoints without a socket.
    """

    def __init__(
        self,
        runtime: "RuntimeServer",
        config: Optional[DiagConfig] = None,
    ) -> None:
        self.runtime = runtime
        self.config = config or DiagConfig()
        # Persistent registry: scrape counters (diag requests) live
        # here and server_metrics() refreshes the serving families
        # into it on every render.
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "repro_diag_requests_total",
            "Diagnostics-endpoint requests by endpoint and status code.",
            labels=("endpoint", "code"),
        )
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the socket and spawn the serving thread (idempotent)."""
        if self._httpd is not None:
            return
        # Imported here (and in ``_make_handler``): ``repro.obs`` exports
        # this class, and a process that never listens should not load
        # the stdlib HTTP stack.
        from http.server import ThreadingHTTPServer

        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-diag",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Shut the listener down and join its thread (idempotent)."""
        httpd, thread = self._httpd, self._thread
        self._httpd, self._thread = None, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join()

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """Bound ``(host, port)``, or ``None`` before :meth:`start`."""
        httpd = self._httpd
        if httpd is None:
            return None
        return httpd.server_address[0], httpd.server_address[1]

    def url(self, path: str = "/") -> str:
        """Absolute URL of ``path`` on the bound listener."""
        address = self.address
        if address is None:
            raise CypressError("DiagServer is not started")
        return f"http://{address[0]}:{address[1]}{path}"

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle(self, path: str) -> Tuple[int, str, bytes]:
        """Serve one request; never raises.

        Returns ``(status_code, content_type, body)``. Endpoint
        exceptions become a 500 with the error serialized — the guard
        that keeps diagnostics from ever touching serving.
        """
        endpoint = path if path in ENDPOINTS or path == "/" else "other"
        try:
            code, ctype, body = self._dispatch(path)
        except Exception as error:  # noqa: BLE001 - the whole point
            code, ctype, body = self._json(
                500, {"error": f"{type(error).__name__}: {error}"}
            )
        try:
            self._requests.inc(1, endpoint, str(code))
        except Exception:  # pragma: no cover - counter must never raise
            pass
        return code, ctype, body

    def _dispatch(self, path: str) -> Tuple[int, str, bytes]:
        if self.runtime.closed:
            return self._json(
                503, {"error": "server closed", "endpoint": path}
            )
        if path == "/":
            return self._json(200, {"endpoints": list(ENDPOINTS)})
        if path == "/metrics":
            return self._metrics()
        if path == "/statusz":
            return self._statusz()
        if path == "/healthz":
            return self._healthz()
        if path == "/readyz":
            return self._readyz()
        if path == "/tracez":
            return self._tracez()
        if path == "/flightz":
            return self._flightz()
        return self._json(404, {"error": f"no such endpoint {path!r}"})

    @staticmethod
    def _json(code: int, payload) -> Tuple[int, str, bytes]:
        body = json.dumps(payload, indent=2, sort_keys=True, default=str)
        return code, "application/json", body.encode("utf-8")

    def _metrics(self) -> Tuple[int, str, bytes]:
        registry = self.runtime.metrics(self.registry)
        return 200, PROM_CONTENT_TYPE, registry.render().encode("utf-8")

    def _statusz(self) -> Tuple[int, str, bytes]:
        import repro

        runtime = self.runtime
        stats = runtime.stats()
        monitor = runtime.slo_monitor
        address = self.address
        payload = {
            "build": {
                "version": repro.__version__,
                "python": platform.python_version(),
                "platform": platform.platform(),
                "pid": os.getpid(),
            },
            "uptime_s": stats.uptime_s,
            "config": {
                "machine": runtime.machine.name,
                "workers": len(getattr(runtime, "_threads", ())),
                "max_batch": runtime.max_batch,
                "trace": runtime.tracer.enabled,
                "flight": runtime.flight is not None,
                "speculate": runtime.speculator is not None,
                "specialize": runtime.specializer is not None,
                "slos": [slo.name for slo in self.config.slos],
                "diag": {
                    "host": address[0] if address else self.config.host,
                    "port": address[1] if address else self.config.port,
                },
            },
            "stats": stats.to_json(),
            "slo": monitor.describe() if monitor is not None else None,
        }
        return self._json(200, payload)

    def _shed_rate(self) -> float:
        stats = self.runtime.stats()
        return stats.shed_requests / stats.requests if stats.requests else 0.0

    def _healthz(self) -> Tuple[int, str, bytes]:
        shed_rate = self._shed_rate()
        degraded = shed_rate > self.config.ready_shed_rate
        return self._json(
            200,
            {
                "status": "degraded" if degraded else "ok",
                "shed_rate": round(shed_rate, 6),
            },
        )

    def _readyz(self) -> Tuple[int, str, bytes]:
        runtime = self.runtime
        shed_rate = self._shed_rate()
        reasons = []
        if not runtime.started:
            reasons.append("not started")
        if not runtime.warmed:
            reasons.append("no warmed buckets and no completed requests")
        if shed_rate > self.config.ready_shed_rate:
            reasons.append(
                f"shed rate {shed_rate:.3f} exceeds "
                f"{self.config.ready_shed_rate}"
            )
        code = 200 if not reasons else 503
        return self._json(
            code, {"ready": not reasons, "reasons": reasons}
        )

    def _tracez(self) -> Tuple[int, str, bytes]:
        tracer = self.runtime.tracer
        if not tracer.enabled:
            return self._json(503, {"error": "tracing disabled"})
        return self._json(200, tracer.chrome_payload())

    def _flightz(self) -> Tuple[int, str, bytes]:
        flight = self.runtime.flight
        if flight is None:
            return self._json(503, {"error": "flight recorder disabled"})
        return self._json(200, flight.payload(reason="flightz"))


def _make_handler(diag: DiagServer):
    """Bind a stdlib request handler class to one :class:`DiagServer`."""
    from http.server import BaseHTTPRequestHandler

    class _DiagHandler(BaseHTTPRequestHandler):
        server_version = "repro-diag"
        protocol_version = "HTTP/1.1"

        def do_GET(self):  # noqa: N802 - stdlib handler contract
            code, ctype, body = diag.handle(urlsplit(self.path).path)
            try:
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                pass  # impatient scraper; nothing to clean up

        def log_message(self, *args):  # noqa: D102 - silence stdlib
            pass

    return _DiagHandler
