"""Deterministic fault injection for the serving stack.

A :class:`FaultPlan` is a seeded chaos harness: it registers failure
rates for a fixed set of named **fault sites** (:data:`FAULT_SITES`)
and makes each site raise :class:`InjectedFault` with the configured
probability. Every site draws from its own ``random.Random`` seeded by
``(seed, site)``, so the *sequence of verdicts at one site* is a pure
function of the plan seed — independent of how checks at different
sites interleave across threads. That is what makes the chaos soak
(``tests/test_resilience.py::TestChaosGolden``) reproducible enough to
gate in tier-1.

A plan reaches only the server it is handed to
(``RuntimeServer(machine, faults=plan)``). The server keeps the
zero-cost-when-off discipline of tracing
(:data:`~repro.obs.trace.NULL_TRACER`): with no plan it pays one
``is None`` branch per micro-batch; with one, it calls each step
through :meth:`FaultPlan.wrap`. An injected failure takes the path any
failure of that step would take: a failed compile or simulation fails
its micro-batch's requests.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable, Dict, Optional

from repro.errors import CypressError

#: Every fault site the serving stack instruments. ``compile`` fires on
#: a request's actual (cache-missing) kernel compilation and
#: ``worker.execute`` on a micro-batch's execute step, once per batch
#: whether its launch record's timing is simulated or read.
FAULT_SITES = (
    "compile",
    "worker.execute",
)


class InjectedFault(CypressError):
    """The failure a :class:`FaultPlan` injects at a fault site.

    Carries the site name and the per-site injection ordinal so test
    assertions and flight-recorder postmortems can attribute it.
    """

    def __init__(self, site: str, ordinal: int, detail: str = "") -> None:
        self.site = site
        self.ordinal = ordinal
        self.detail = detail
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"injected fault #{ordinal} at site {site!r}{suffix}"
        )


class FaultPlan:
    """A seeded, thread-safe schedule of failures by site.

    Args:
        seed: master seed; each site's verdict stream derives from
            ``(seed, site)`` so per-site sequences are deterministic
            regardless of cross-site interleaving.

    Use :meth:`inject` to arm sites, then hand the plan to a server
    (``faults=``). Sites with no configured rate never fire.
    :meth:`checks` / :meth:`injections` expose per-site counters for
    soak-test assertions.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._lock = threading.Lock()
        self._rates: Dict[str, float] = {}
        # String seeds hash via SHA-512 (stable across processes);
        # tuple seeds would fall back to randomized hash().
        self._rngs: Dict[str, random.Random] = {
            site: random.Random(f"{seed}:{site}") for site in FAULT_SITES
        }
        self._checks: Dict[str, int] = {site: 0 for site in FAULT_SITES}
        self._injections: Dict[str, int] = {
            site: 0 for site in FAULT_SITES
        }

    @staticmethod
    def _site(site: str) -> str:
        """``site`` itself, if it is one of :data:`FAULT_SITES`.

        Raises:
            CypressError: unknown site.
        """
        if site not in FAULT_SITES:
            raise CypressError(
                f"unknown fault site {site!r}; registered sites are "
                f"{FAULT_SITES}"
            )
        return site

    def inject(self, site: str, rate: float) -> "FaultPlan":
        """Arm ``site`` to fail with probability ``rate``; returns self.

        Raises:
            CypressError: unknown site or a rate outside [0, 1].
        """
        self._site(site)
        if not 0.0 <= rate <= 1.0:
            raise CypressError(
                f"fault rate must be in [0, 1], got {rate!r}"
            )
        with self._lock:
            self._rates[site] = rate
        return self

    def check(self, site: str, detail: str = "") -> None:
        """One instrumented operation at ``site``: raise or pass.

        Draws the site's next verdict from its seeded stream and raises
        :class:`InjectedFault` when it lands under the armed rate.
        Unarmed sites count the check but never raise.

        Raises:
            CypressError: unknown site (instrumentation bug).
            InjectedFault: the seeded draw landed under the rate.
        """
        self._site(site)
        with self._lock:
            self._checks[site] += 1
            rate = self._rates.get(site, 0.0)
            if rate <= 0.0:
                return
            if self._rngs[site].random() >= rate:
                return
            self._injections[site] += 1
            ordinal = self._injections[site]
        raise InjectedFault(site, ordinal, detail)

    def wrap(
        self, site: str, detail: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        """``fn`` behind this plan's ``site`` check: a callable that
        runs :meth:`check` (``site``, ``detail``) before each call."""

        def call(*args: Any) -> Any:
            self.check(site, detail)
            return fn(*args)

        return call

    def checks(self, site: Optional[str] = None) -> int:
        """Instrumented operations seen — at ``site``, or in total.

        Raises:
            CypressError: unknown site.
        """
        with self._lock:
            if site is not None:
                return self._checks[self._site(site)]
            return sum(self._checks.values())

    def injections(self, site: Optional[str] = None) -> int:
        """Faults injected so far — at ``site``, or in total.

        Raises:
            CypressError: unknown site.
        """
        with self._lock:
            if site is not None:
                return self._injections[self._site(site)]
            return sum(self._injections.values())

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-site ``{rate, checks, injections}`` for reports."""
        with self._lock:
            return {
                site: {
                    "rate": self._rates.get(site, 0.0),
                    "checks": self._checks[site],
                    "injections": self._injections[site],
                }
                for site in FAULT_SITES
            }

