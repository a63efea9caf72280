"""Deterministic fault injection for the serving stack.

A :class:`FaultPlan` is a seeded chaos harness: it registers failure
rates for a fixed set of named **fault sites** (:data:`FAULT_SITES`)
and, once installed via :func:`install`, makes each site raise
:class:`InjectedFault` with the configured probability. Every site
draws from its own ``random.Random`` seeded by ``(seed, site)``, so
the *sequence of verdicts at one site* is a pure function of the plan
seed — independent of how checks at different sites interleave across
threads. That is what makes the chaos soak
(``tests/test_resilience.py::TestChaosGolden``) reproducible enough to
gate in tier-1.

The hook follows the same zero-cost-when-off discipline as tracing
(:data:`~repro.obs.trace.NULL_TRACER`): instrumented code reads the
module-level :data:`ACTIVE` plan and pays exactly one ``is None``
branch when no plan is installed::

    from repro.runtime import faults

    plan = faults.ACTIVE
    if plan is not None:
        plan.check("compile", kernel_name)

or, around a call, :func:`checked`, which returns the callable itself
while no plan is installed. An injected failure takes the path any
failure of that step would take: a failed compile or simulation fails
its micro-batch's requests.
"""

from __future__ import annotations

import contextlib
import random
import threading
from typing import Any, Callable, Dict, Iterator, Optional

from repro.errors import CypressError

#: Every fault site the serving stack instruments. ``compile`` fires on
#: a request's actual (cache-missing) kernel compilation and
#: ``worker.execute`` on a micro-batch's execute step, once per batch
#: whether its launch record's timing is simulated or read.
FAULT_SITES = (
    "compile",
    "worker.execute",
)

#: The currently installed plan, or ``None`` (the common case).
#: Instrumented code reads this once per operation; ``None`` costs a
#: single branch. Use :func:`install` / :func:`uninstall` (or the
#: :func:`active` context manager) rather than assigning directly.
ACTIVE: Optional["FaultPlan"] = None


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

    Use :meth:`inject` to arm sites, then :func:`install` the plan (or
    wrap the experiment in :func:`active`). Sites with no configured
    rate never fire. :meth:`checks` / :meth:`injections` expose per-site
    counters for soak-test assertions.
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

    def inject(self, site: str, rate: float) -> "FaultPlan":
        """Arm ``site`` to fail with probability ``rate``; returns self.

        Raises:
            CypressError: unknown site or a rate outside [0, 1].
        """
        if site not in FAULT_SITES:
            raise CypressError(
                f"unknown fault site {site!r}; registered sites are "
                f"{FAULT_SITES}"
            )
        if not 0.0 <= rate <= 1.0:
            raise CypressError(
                f"fault rate must be in [0, 1], got {rate!r}"
            )
        with self._lock:
            self._rates[site] = rate
        return self

    def inject_all(self, rate: float) -> "FaultPlan":
        """Arm every registered site at ``rate``; returns self."""
        for site in FAULT_SITES:
            self.inject(site, rate)
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
        if site not in FAULT_SITES:
            raise CypressError(
                f"unknown fault site {site!r}; registered sites are "
                f"{FAULT_SITES}"
            )
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

    def checks(self, site: Optional[str] = None) -> int:
        """Instrumented operations seen — at ``site``, or in total."""
        with self._lock:
            if site is not None:
                return self._checks[site]
            return sum(self._checks.values())

    def injections(self, site: Optional[str] = None) -> int:
        """Faults injected so far — at ``site``, or in total."""
        with self._lock:
            if site is not None:
                return self._injections[site]
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


def checked(
    site: str, detail: str, fn: Callable[..., Any]
) -> Callable[..., Any]:
    """``fn`` behind the ``site`` check of the installed plan.

    Returns ``fn`` itself while no plan is installed, so an
    uninstrumented call pays one ``is None`` branch; otherwise a wrapper
    that runs ``ACTIVE.check(site, detail)`` before each call.
    """
    plan = ACTIVE
    if plan is None:
        return fn

    def call(*args: Any) -> Any:
        plan.check(site, detail)
        return fn(*args)

    return call


def install(plan: FaultPlan) -> None:
    """Make ``plan`` the process-wide active plan (see :data:`ACTIVE`)."""
    global ACTIVE
    ACTIVE = plan


def uninstall() -> Optional[FaultPlan]:
    """Deactivate fault injection; returns the plan that was active."""
    global ACTIVE
    plan, ACTIVE = ACTIVE, None
    return plan


@contextlib.contextmanager
def active(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager: install ``plan`` for the block, then restore
    whatever was active before (usually ``None``)."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = plan
    try:
        yield plan
    finally:
        ACTIVE = previous
