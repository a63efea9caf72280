"""Declarative SLOs with multi-window burn-rate alerting.

A service-level objective says "``target`` of recent observations must
be good" — e.g. 99.9% of ticks must see an error rate under the
threshold. The classic production alerting recipe on top of that is
the **multi-window burn rate**: the *burn rate* is how fast the
allowed bad fraction (``1 - target``) is being used up (``bad_fraction /
(1 - target)``; burn 1.0 uses it up exactly at the window's end), and an alert fires only when **both** a slow window and a much
shorter fast window burn hot — the slow window proves the problem is
sustained, the fast window proves it is still happening, and their
conjunction makes alerts both quick to fire and quick to resolve
without flapping.

:class:`SloMonitor` evaluates a set of :class:`Slo` objects over
ring-buffered windows fed from :class:`~repro.runtime.telemetry.
RuntimeStats` snapshots. Each tick reads one snapshot, derives the
instantaneous value of each objective's metric (``latency_p95`` reads
the rolling percentile directly; ``error_rate`` and ``shed_rate`` are
computed from counter deltas between ticks, so old failures cannot
keep an alert pinned), marks the tick good or bad against the
objective's ``threshold``, and re-evaluates both windows. Alert
transitions emit flight-recorder notes and feed
``repro_slo_burn_rate{slo}`` / ``repro_slo_alerts_total{slo,severity}``
metrics plus the ``alerts:`` line of ``RuntimeStats.table()``.

The server's maintenance thread ticks the monitor every ``tick_s``,
queued requests or not (``idle_only = False``) — watching the allowed
bad fraction only while nothing is happening would be a contradiction
— and tests drive :meth:`SloMonitor.observe` synchronously with
injected stats and clocks for determinism.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from repro.errors import CypressError

if TYPE_CHECKING:  # pragma: no cover - import cycle: server owns us
    from repro.runtime.server import RuntimeServer
    from repro.runtime.telemetry import RuntimeStats

#: Metrics an :class:`Slo` may target.
SLO_METRICS = ("latency_p95", "error_rate", "shed_rate")

#: Alert severities, most severe first.
SEVERITY_PAGE = "page"
SEVERITY_TICKET = "ticket"


@dataclass(frozen=True)
class Slo:
    """One declarative service-level objective.

    Attributes:
        name: identifier; labels metrics, flight notes, and
            ``/statusz`` entries.
        metric: what each tick measures — ``"latency_p95"`` (rolling
            p95 latency in seconds), ``"error_rate"`` (failed /
            submitted over the tick), or ``"shed_rate"`` (shed /
            submitted over the tick).
        target: fraction of ticks that must be good, e.g. ``0.999``.
        window_s: slow evaluation window; the allowed bad time is
            ``(1 - target)`` of this window.
        threshold: a tick is *bad* when its metric value exceeds this.
        fast_fraction: fast window length as a fraction of
            ``window_s`` (the classic recipe pairs 1h with 5m — 1/12).
        page_burn: burn rate at which both windows must run to fire a
            ``page``; 14.4 uses up a 0.999 allowance ~14x too fast.
        ticket_burn: burn rate for the lower-severity ``ticket``.
        min_samples: ticks a window needs before it may judge; stops
            a single bad first tick from paging an empty server.
    """

    name: str
    metric: str = "error_rate"
    target: float = 0.999
    window_s: float = 300.0
    threshold: float = 0.1
    fast_fraction: float = 1.0 / 12.0
    page_burn: float = 14.4
    ticket_burn: float = 3.0
    min_samples: int = 2

    def __post_init__(self) -> None:
        if not self.name:
            raise CypressError("Slo.name must be non-empty")
        if self.metric not in SLO_METRICS:
            raise CypressError(
                f"Slo.metric must be one of {SLO_METRICS}, got "
                f"{self.metric!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise CypressError(
                f"Slo.target must be in (0, 1), got {self.target}"
            )
        if self.window_s <= 0:
            raise CypressError(
                f"Slo.window_s must be > 0, got {self.window_s}"
            )
        if not 0.0 < self.fast_fraction <= 1.0:
            raise CypressError(
                f"Slo.fast_fraction must be in (0, 1], got "
                f"{self.fast_fraction}"
            )
        if self.page_burn < self.ticket_burn:
            raise CypressError(
                "Slo.page_burn must be >= ticket_burn, got "
                f"{self.page_burn} < {self.ticket_burn}"
            )
        if self.min_samples < 1:
            raise CypressError(
                f"Slo.min_samples must be >= 1, got {self.min_samples}"
            )

    @property
    def fast_window_s(self) -> float:
        """Length of the fast confirmation window."""
        return self.window_s * self.fast_fraction

    def burn_rate(self, bad_fraction: float) -> float:
        """Budget-consumption speed for a window's bad fraction."""
        return bad_fraction / max(1.0 - self.target, 1e-12)


class SloMonitor:
    """Evaluates SLO burn rates over a server's rolling telemetry.

    Owns one ring of ``(timestamp, bad)`` ticks per objective, sized
    to the slow window. :meth:`observe` is the whole evaluation step
    and takes optional injected stats/clock so tests can replay a
    seeded traffic trace deterministically; the server's maintenance
    thread just calls it on a timer.
    """

    idle_only = False

    def __init__(
        self,
        server: "RuntimeServer",
        slos: Iterable[Slo],
        tick_s: float = 1.0,
    ) -> None:
        slos = tuple(slos)
        if not slos:
            raise CypressError("SloMonitor needs at least one Slo")
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise CypressError(f"duplicate Slo names: {names}")
        if tick_s <= 0:
            raise CypressError(f"tick_s must be > 0, got {tick_s}")
        self.server = server
        self.interval_s = tick_s
        self.errors = 0
        self.slos = slos
        self._lock = threading.Lock()
        self._rings: Dict[str, deque] = {
            slo.name: deque(
                maxlen=max(32, int(slo.window_s / tick_s) + 8)
            )
            for slo in slos
        }
        self._last_counters: Optional[Tuple[int, int, int]] = None
        self._alerts: Dict[str, Optional[str]] = {
            slo.name: None for slo in slos
        }
        self._alerts_total: Dict[Tuple[str, str], int] = {}
        self._burn: Dict[str, Dict[str, float]] = {
            slo.name: {"fast": 0.0, "slow": 0.0} for slo in slos
        }

    def run_once(self) -> int:
        """One timer tick: snapshot the server and evaluate."""
        return self.observe()

    def observe(
        self,
        stats: Optional["RuntimeStats"] = None,
        now: Optional[float] = None,
    ) -> int:
        """Ingest one stats snapshot; returns alert transitions.

        Args:
            stats: snapshot to evaluate; defaults to a live
                ``server.stats()`` read.
            now: timestamp of the tick on the
                :func:`~time.perf_counter` clock; injectable so tests
                can replay a trace with exact spacing.
        """
        if stats is None:
            stats = self.server.stats()
        if now is None:
            now = perf_counter()
        values = self._tick_values(stats)
        transitions = 0
        with self._lock:
            for slo in self.slos:
                value = values[slo.metric]
                ring = self._rings[slo.name]
                ring.append((now, value > slo.threshold))
                fast = self._window_burn(slo, ring, now, slo.fast_window_s)
                slow = self._window_burn(slo, ring, now, slo.window_s)
                self._burn[slo.name] = {"fast": fast, "slow": slow}
                severity = self._severity(slo, fast, slow)
                transitions += self._transition(slo, severity, fast, slow)
        return transitions

    def _tick_values(self, stats: "RuntimeStats") -> Dict[str, float]:
        counters = (stats.requests, stats.failed, stats.shed_requests)
        last = self._last_counters
        self._last_counters = counters
        if last is None:
            d_requests = d_failed = d_shed = 0
        else:
            d_requests = max(0, counters[0] - last[0])
            d_failed = max(0, counters[1] - last[1])
            d_shed = max(0, counters[2] - last[2])
        denominator = max(d_requests, 1)
        return {
            "latency_p95": stats.p95_latency_s,
            "error_rate": d_failed / denominator if d_failed else 0.0,
            "shed_rate": d_shed / denominator if d_shed else 0.0,
        }

    def _window_burn(
        self, slo: Slo, ring: deque, now: float, window_s: float
    ) -> float:
        ticks = [bad for (t, bad) in ring if t >= now - window_s]
        if len(ticks) < slo.min_samples:
            return 0.0
        return slo.burn_rate(sum(ticks) / len(ticks))

    @staticmethod
    def _severity(slo: Slo, fast: float, slow: float) -> Optional[str]:
        if fast >= slo.page_burn and slow >= slo.page_burn:
            return SEVERITY_PAGE
        if fast >= slo.ticket_burn and slow >= slo.ticket_burn:
            return SEVERITY_TICKET
        return None

    def _transition(
        self, slo: Slo, severity: Optional[str], fast: float, slow: float
    ) -> int:
        previous = self._alerts[slo.name]
        if severity == previous:
            return 0
        self._alerts[slo.name] = severity
        if severity is not None:
            key = (slo.name, severity)
            self._alerts_total[key] = self._alerts_total.get(key, 0) + 1
        self._note(slo, previous, severity, fast, slow)
        return 1

    def _note(self, slo, previous, severity, fast, slow) -> None:
        flight = getattr(self.server, "flight", None)
        if flight is None:
            return
        state = severity or "resolved"
        flight.note(
            "slo-alert",
            args={
                "slo": slo.name,
                "metric": slo.metric,
                "severity": state,
                "previous": previous or "ok",
                "burn_fast": round(fast, 3),
                "burn_slow": round(slow, 3),
            },
        )

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def alert_states(self) -> Dict[str, str]:
        """Currently-firing alerts: ``{slo_name: severity}``."""
        with self._lock:
            return {
                name: severity
                for name, severity in self._alerts.items()
                if severity is not None
            }

    def burn_rates(self) -> Dict[str, Dict[str, float]]:
        """Latest fast/slow burn rate per objective."""
        with self._lock:
            return {
                name: dict(windows) for name, windows in self._burn.items()
            }

    def slow_burn_rates(self) -> Dict[str, float]:
        """Latest slow-window burn rate per objective."""
        with self._lock:
            return {
                name: windows["slow"] for name, windows in self._burn.items()
            }

    def alerts_fired(self) -> Dict[Tuple[str, str], int]:
        """Cumulative ``(slo, severity) -> firings`` counters."""
        with self._lock:
            return dict(self._alerts_total)

    def describe(self) -> Dict[str, object]:
        """``/statusz`` payload: objectives, burn rates, alert state."""
        with self._lock:
            return {
                "objectives": [
                    {
                        "name": slo.name,
                        "metric": slo.metric,
                        "target": slo.target,
                        "threshold": slo.threshold,
                        "window_s": slo.window_s,
                        "fast_window_s": slo.fast_window_s,
                        "burn": dict(self._burn[slo.name]),
                        "alert": self._alerts[slo.name] or "ok",
                    }
                    for slo in self.slos
                ],
                "alerts_total": {
                    f"{name}:{severity}": count
                    for (name, severity), count in sorted(
                        self._alerts_total.items()
                    )
                },
            }

    def publish(self, registry) -> None:
        """Export burn rates and alert counters into ``registry``."""
        burn = registry.gauge(
            "repro_slo_burn_rate",
            "Slow-window SLO burn rate (1.0 = the allowed bad fraction "
            "used up exactly at window end).",
            labels=("slo", "window"),
        )
        firing = registry.gauge(
            "repro_slo_alert_firing",
            "1 while the SLO's alert is firing at this severity.",
            labels=("slo", "severity"),
        )
        total = registry.counter(
            "repro_slo_alerts_total",
            "Cumulative SLO alert firings by severity.",
            labels=("slo", "severity"),
        )
        with self._lock:
            for name, windows in self._burn.items():
                burn.set(windows["slow"], name, "slow")
                burn.set(windows["fast"], name, "fast")
            for slo in self.slos:
                state = self._alerts[slo.name]
                for severity in (SEVERITY_PAGE, SEVERITY_TICKET):
                    firing.set(
                        1.0 if state == severity else 0.0,
                        slo.name,
                        severity,
                    )
            for (name, severity), count in self._alerts_total.items():
                total.set(count, name, severity)
