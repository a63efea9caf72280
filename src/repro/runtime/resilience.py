"""Overload controls for the serving runtime.

The :class:`~repro.runtime.server.RuntimeServer` bounds the work it
accepts in two ways (see ``docs/resilience.md``):

* **Deadlines** — ``submit(deadline=...)`` requests past their deadline
  fail fast with :class:`DeadlineExceeded` at batch dispatch instead of
  occupying a worker.
* **Admission control** — a bounded queue
  (:attr:`ResilienceConfig.max_queue`) sheds load under overload:
  ``"reject-new"`` refuses the incoming submit, ``"drop-oldest"``
  evicts the longest-queued request and fails its handle.

Nothing on the request path is retried: compiling and simulating are
pure functions of the kernel and the machine, so a failure would only
repeat, and the disk tier already turns its own failures into misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import CypressError

__all__ = [
    "DeadlineExceeded",
    "ResilienceConfig",
    "SHED_DROP_OLDEST",
    "SHED_POLICIES",
    "SHED_REJECT_NEW",
]

#: Load-shedding policies accepted by :attr:`ResilienceConfig.shed_policy`.
SHED_REJECT_NEW = "reject-new"
SHED_DROP_OLDEST = "drop-oldest"
SHED_POLICIES = (SHED_REJECT_NEW, SHED_DROP_OLDEST)


class DeadlineExceeded(CypressError):
    """A request's deadline passed before a worker could serve it."""


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the server's overload controls.

    The defaults keep the queue unbounded; no request has a deadline
    unless its submit carries one.

    Attributes:
        max_queue: queue-depth bound; ``None`` leaves the queue
            unbounded.
        shed_policy: what to do when the bound is hit —
            ``"reject-new"`` raises at submit, ``"drop-oldest"`` evicts
            the longest-queued request (its handle fails) to admit the
            new one.
    """

    max_queue: Optional[int] = None
    shed_policy: str = SHED_REJECT_NEW

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
