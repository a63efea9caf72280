"""Resilience primitives for the serving runtime.

The :class:`~repro.runtime.server.RuntimeServer` composes four
mechanisms from this module so a single node degrades instead of
failing (see ``docs/resilience.md`` for the full failure-mode
taxonomy):

* **Deadlines** — ``submit(deadline=...)`` requests past their deadline
  fail fast with :class:`DeadlineExceeded` at dequeue/batch-dispatch
  time instead of occupying a worker.
* **Admission control** — a bounded queue
  (:attr:`ResilienceConfig.max_queue`) sheds load under overload:
  ``"reject-new"`` refuses the incoming submit, ``"drop-oldest"``
  evicts the longest-queued request and fails its future.
* **Retries** — :class:`RetryPolicy`: transient failures
  (:class:`~repro.errors.TransientError`, ``OSError``) retry with
  seeded exponential backoff plus deterministic jitter, so chaos soaks
  replay bit-identically.
* **Circuit breakers** — :class:`CircuitBreaker` per site
  (closed → open → half-open): repeated failures stop hitting the
  broken component. A :class:`ResilientTier` wraps the disk tier so a
  tripped ``disk`` breaker serves memory-only; a tripped per-kernel
  ``compile`` breaker serves the generic bucket (for specialized
  requests) or fails fast with :class:`BreakerOpen`.

:func:`guarded_call` is the one wrapper that composes the last two
with the :mod:`~repro.runtime.faults` site check; the disk tier, the
request path's compiles and its simulations all go through it.

All hooks follow the zero-cost-when-off discipline: with the default
configuration and no installed :mod:`~repro.runtime.faults` plan the
hot path pays a handful of ``is None`` / attribute checks, which show
up in ``python -m bench`` as ``runtime.server.overhead_ms``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.compiler.cache import SecondTier
from repro.errors import CypressError, TransientError
from repro.runtime import faults

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BreakerOpen",
    "CircuitBreaker",
    "DeadlineExceeded",
    "ResilienceConfig",
    "ResilientTier",
    "RetryPolicy",
    "SHED_DROP_OLDEST",
    "SHED_POLICIES",
    "SHED_REJECT_NEW",
    "call_with_retry",
    "guarded_call",
    "is_transient",
]

#: Breaker states (also the values of ``RuntimeStats.breaker_states``).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Load-shedding policies accepted by :attr:`ResilienceConfig.shed_policy`.
SHED_REJECT_NEW = "reject-new"
SHED_DROP_OLDEST = "drop-oldest"
SHED_POLICIES = (SHED_REJECT_NEW, SHED_DROP_OLDEST)


class DeadlineExceeded(CypressError):
    """A request's deadline passed before a worker could serve it."""


class BreakerOpen(CypressError):
    """An operation was refused because its circuit breaker is open.

    Raised instead of attempting the guarded operation; the site name
    says which component is considered broken.
    """

    def __init__(self, site: str, message: Optional[str] = None) -> None:
        self.site = site
        super().__init__(
            message
            or f"circuit breaker {site!r} is open; failing fast"
        )


def is_transient(error: BaseException) -> bool:
    """Whether ``error`` is worth retrying.

    :class:`~repro.errors.TransientError` (which covers injected
    faults) and ``OSError`` (flaky disk/IPC) are transient; everything
    else — compile errors, shape errors, plain bugs — is deterministic
    and retrying it would only repeat the failure.
    """
    return isinstance(error, (TransientError, OSError))


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with deterministic jitter.

    ``max_attempts`` bounds the *total* tries (1 = no retries). The
    delay before retry ``n`` (1-based) is ``base_delay_s * 2**(n-1)``
    capped at ``max_delay_s``, scaled by a jitter factor drawn from
    ``random.Random((seed, salt, n))`` — stateless per draw, so
    concurrent retriers never perturb each other's schedules and a
    rerun with the same seed backs off identically.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.001
    max_delay_s: float = 0.05
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise CypressError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise CypressError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delay_s(self, retry: int, salt: str = "") -> float:
        """Backoff before 1-based retry number ``retry`` for ``salt``."""
        raw = min(
            self.base_delay_s * (2 ** max(retry - 1, 0)),
            self.max_delay_s,
        )
        if self.jitter == 0.0:
            return raw
        # A string seed hashes deterministically across processes.
        draw = random.Random(f"{self.seed}:{salt}:{retry}").random()
        return raw * (1.0 - self.jitter * draw)


def call_with_retry(
    fn: Callable[..., Any],
    policy: RetryPolicy,
    *args: Any,
    salt: str = "",
    classify: Callable[[BaseException], bool] = is_transient,
    on_retry: Optional[Callable[[BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Call ``fn(*args)`` with up to ``policy.max_attempts`` tries.

    Only failures ``classify`` deems transient are retried; the last
    attempt's exception propagates. ``on_retry`` observes every
    transient failure the machinery absorbs (including the final one),
    which is what the ``retries`` telemetry counter records.
    """
    attempt = 1
    while True:
        try:
            return fn(*args)
        except Exception as error:
            if not classify(error):
                raise
            if on_retry is not None:
                on_retry(error)
            if attempt >= policy.max_attempts:
                raise
            sleep(policy.delay_s(attempt, salt))
            attempt += 1


class CircuitBreaker:
    """A per-site closed → open → half-open breaker.

    ``failure_threshold`` *consecutive* failures trip the breaker open;
    while open, :meth:`allow` refuses every caller for ``cooldown_s``.
    After the cooldown one probe is admitted (half-open): its success
    closes the breaker, its failure re-opens it for another cooldown.
    Thread-safe; the clock is injectable for deterministic tests.

    Args:
        site: the guarded component's name (``"disk"``,
            ``"compile:gemm"``); labels telemetry and metrics.
        failure_threshold: consecutive failures before opening.
        cooldown_s: open duration before admitting a probe.
        clock: monotonic time source (tests inject a fake).
        on_transition: ``callback(site, old_state, new_state)`` invoked
            outside the breaker lock on every state change — the server
            uses it to emit tracer spans and count trips.
    """

    def __init__(
        self,
        site: str,
        failure_threshold: int = 5,
        cooldown_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str, str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise CypressError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.site = site
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.on_transition = on_transition
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.trips = 0

    @property
    def state(self) -> str:
        """Current state: ``closed``, ``open``, or ``half-open``."""
        with self._lock:
            return self._state

    def _transition(self, new_state: str) -> Optional[tuple]:
        # Caller holds the lock; returns the (old, new) pair to report.
        old = self._state
        if old == new_state:
            return None
        self._state = new_state
        return (old, new_state)

    def _notify(self, change: Optional[tuple]) -> None:
        if change is not None and self.on_transition is not None:
            self.on_transition(self.site, change[0], change[1])

    def allow(self) -> bool:
        """Whether the guarded operation may run right now.

        Open breakers refuse until the cooldown elapses, then admit
        exactly one half-open probe at a time.
        """
        change = None
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                if self._clock() - self._opened_at < self.cooldown_s:
                    return False
                change = self._transition(BREAKER_HALF_OPEN)
                self._probing = True
                allowed = True
            else:  # half-open: one probe in flight at a time
                if self._probing:
                    allowed = False
                else:
                    self._probing = True
                    allowed = True
        self._notify(change)
        return allowed

    def record_success(self) -> None:
        """Report a guarded operation that succeeded."""
        with self._lock:
            self._failures = 0
            self._probing = False
            change = self._transition(BREAKER_CLOSED)
        self._notify(change)

    def record_failure(self) -> None:
        """Report a guarded operation that failed; may trip the
        breaker open."""
        with self._lock:
            self._failures += 1
            self._probing = False
            change = None
            if self._state == BREAKER_HALF_OPEN or (
                self._state == BREAKER_CLOSED
                and self._failures >= self.failure_threshold
            ):
                change = self._transition(BREAKER_OPEN)
                self._opened_at = self._clock()
                self.trips += 1
        self._notify(change)


def guarded_call(
    site: str,
    subject: str,
    fn: Callable[..., Any],
    *args: Any,
    retry: RetryPolicy,
    salt: str,
    breaker: Optional[CircuitBreaker] = None,
    on_retry: Optional[Callable[[BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Run ``fn(*args)`` under every guard the runtime has, in order:
    the breaker's admission check, then :func:`call_with_retry` around
    an attempt that first fires the ``site`` fault check (detail
    ``subject``) of the installed :class:`~repro.runtime.faults.
    FaultPlan`, and finally the outcome recorded on the breaker. With
    no plan and no breaker this is ``call_with_retry`` alone.

    Raises:
        BreakerOpen: ``breaker`` refused the call; ``fn`` never ran.
        Exception: whatever the last attempt raised. Transient or
            deterministic, it counts against the breaker: a component
            that keeps failing is broken either way, and failing fast
            beats repeating the failure under every future caller.
    """
    if breaker is not None and not breaker.allow():
        raise BreakerOpen(breaker.site)
    plan = faults.ACTIVE
    if plan is None:
        attempt, attempt_args = fn, args
    else:
        attempt_args = ()

        def attempt() -> Any:
            plan.check(site, subject)
            return fn(*args)

    try:
        value = call_with_retry(
            attempt, retry, *attempt_args,
            salt=salt, on_retry=on_retry, sleep=sleep,
        )
    except Exception:
        if breaker is not None:
            breaker.record_failure()
        raise
    if breaker is not None:
        breaker.record_success()
    return value


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the server's resilience layer.

    The defaults preserve historical behavior — unbounded queue, no
    deadline unless a submit carries one — while arming retries and
    breakers with conservative thresholds, so every server is
    self-healing out of the box.

    Attributes:
        max_queue: queue-depth bound; ``None`` leaves the queue
            unbounded (the historical behavior).
        shed_policy: what to do when the bound is hit —
            ``"reject-new"`` raises at submit, ``"drop-oldest"`` evicts
            the longest-queued request (its future fails) to admit the
            new one.
        retry: backoff policy for transient compile/disk/execute
            failures.
        breaker_cooldown_s: open duration before a half-open probe
            (a breaker opens after :class:`CircuitBreaker`'s default
            five consecutive failures).
    """

    max_queue: Optional[int] = None
    shed_policy: str = SHED_REJECT_NEW
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_cooldown_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_queue is not None and self.max_queue < 1:
            raise CypressError(
                f"max_queue must be >= 1 or None, got {self.max_queue}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise CypressError(
                f"shed_policy must be one of {SHED_POLICIES}, got "
                f"{self.shed_policy!r}"
            )


class ResilientTier(SecondTier):
    """Retry + circuit-breaker armor around a persistent cache tier.

    Wraps a :class:`~repro.runtime.diskcache.DiskCacheTier` (or any
    :class:`~repro.compiler.cache.SecondTier`) while preserving its
    contract — ``load``/``store`` never raise into the compile path.
    Each runs under :func:`guarded_call` at the ``disk.load`` /
    ``disk.store`` fault site, so injected disk failures exercise
    exactly this armor; what the guard raises becomes a miss: exhausted
    retries (already counted against the breaker), and an **open
    breaker, which skips the tier entirely** (memory-only degraded
    mode) until the cooldown admits a probe.

    Every other attribute (``contains``, ``keys``, ``stats``, ...)
    delegates to the wrapped tier, so the server can expose one object
    as its ``disk_tier``.
    """

    def __init__(
        self,
        tier: Any,
        *,
        breaker: Optional[CircuitBreaker] = None,
        retry: Optional[RetryPolicy] = None,
        on_retry: Optional[Callable[[BaseException], None]] = None,
        on_degraded: Optional[Callable[[str], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.tier = tier
        self.breaker = breaker
        self.retry = retry or RetryPolicy()
        self.on_retry = on_retry
        self.on_degraded = on_degraded
        self._sleep = sleep

    def _guarded(self, site: str, key: str, fn, *args: Any) -> Any:
        try:
            return guarded_call(
                site, key[:16], fn, *args,
                retry=self.retry, salt=f"{site}:{key}",
                breaker=self.breaker, on_retry=self.on_retry,
                sleep=self._sleep,
            )
        except BreakerOpen:
            if self.on_degraded is not None:
                self.on_degraded(site)
        except Exception:
            # Transient failures exhausted retries, or the tier broke
            # its own never-raise contract: guarded_call counted it
            # against the breaker; degrade to a miss either way.
            pass
        return None

    def load(self, key: str) -> Optional[Any]:
        """Armored lookup: retries transient failures, returns ``None``
        (memory-only degradation) when they exhaust or the breaker is
        open. Never raises."""
        return self._guarded("disk.load", key, self.tier.load, key)

    def store(self, key: str, kernel: Any) -> None:
        """Armored write-through; a failed store is dropped (the entry
        is simply not persisted). Never raises."""
        self._guarded("disk.store", key, self.tier.store, key, kernel)

    def __getattr__(self, name: str) -> Any:
        # Everything the armor does not intercept (contains, keys,
        # stats, path, clear, ...) belongs to the wrapped tier.
        return getattr(self.tier, name)

    def __len__(self) -> int:
        return len(self.tier)
