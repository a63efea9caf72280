"""The handle on a served result: what ``submit`` and ``submit_graph``
return.

A :class:`RequestHandle` is the request's own queue slot (the server's
``_QueuedRequest`` subclasses it), so serving a request allocates no
second object to report its outcome. It offers the part of the
``concurrent.futures.Future`` interface callers use — ``result``,
``exception``, ``done``, ``cancelled``, ``cancel`` and
``add_done_callback`` — and its state is one ``stage``:

``_QUEUED``
    admitted, not yet served; its holder may still :meth:`cancel` it.
``_CLAIMED``
    a server thread is serving it: it can no longer be cancelled.
``_CANCELLED``
    its holder cancelled it while queued; the server settles it when it
    reaches it (counting it, ending its span) but its outcome stays.
``_SETTLED``
    ended, with a result or an exception.

A handle needs a lock only once another thread can reach it. A request
served on the thread that admitted it is settled before its handle is
returned, so it is claimed and settled with no lock at all; the server
gives a slot its lock when it enqueues it, before any worker can pop
it. The event a waiter blocks on is made only when one arrives before
the handle is done.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import CancelledError
from contextlib import nullcontext
from typing import Any, Callable, List, Optional

_QUEUED, _CLAIMED, _CANCELLED, _SETTLED = range(4)


class RequestHandle:
    """A served result that may still be pending.

    ``result``/``exception`` block until the handle is done (``timeout``
    in seconds; ``None`` waits forever) and raise :class:`TimeoutError`
    when it passes first. A cancelled handle raises
    ``concurrent.futures.CancelledError`` from both.
    """

    __slots__ = ("stage", "lock", "_result", "_error", "_waiter", "_callbacks")

    def __init__(self, lock: Any = None, stage: int = _QUEUED) -> None:
        self.stage = stage
        #: Guards the fields below once the handle is shared; ``None``
        #: while one thread holds it (see the module docstring).
        self.lock = lock
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._waiter: Optional[threading.Event] = None
        self._callbacks: Optional[List[Callable[["RequestHandle"], Any]]] = None

    # ------------------------------------------------------------------
    # The holder's side
    # ------------------------------------------------------------------
    def done(self) -> bool:
        """Whether the handle holds its outcome (or was cancelled)."""
        return self.stage >= _CANCELLED

    def cancelled(self) -> bool:
        """Whether the request ended cancelled: by its holder while it
        queued, or by ``close(drain=False)``."""
        return self.stage >= _CANCELLED and isinstance(
            self._error, CancelledError
        )

    def cancel(self) -> bool:
        """Cancel the request if it is still queued; returns whether it
        is cancelled now. A request a server thread has claimed runs to
        its end, and an ended one keeps its outcome."""
        with self.lock or nullcontext():
            if self.stage != _QUEUED:
                return self.cancelled()
            self._error = CancelledError("cancelled by its holder while queued")
            self.stage = _CANCELLED
            waiter, callbacks = self._waiter, self._callbacks
            self._callbacks = None
        self._announce(waiter, callbacks)
        return True

    def result(self, timeout: Optional[float] = None) -> Any:
        """The outcome's value; raises the exception it ended with."""
        if self.stage < _CANCELLED:
            self._wait(timeout)
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The exception the request ended with, or ``None``."""
        if self.stage < _CANCELLED:
            self._wait(timeout)
        if isinstance(self._error, CancelledError):
            raise self._error
        return self._error

    def add_done_callback(self, fn: Callable[["RequestHandle"], Any]) -> None:
        """Call ``fn(handle)`` once the handle is done: at once, on this
        thread, if it already is; else on the thread that ends it. An
        exception ``fn`` raises is logged, never raised into that
        thread."""
        lock = self.lock
        if lock is not None:
            with lock:
                if self.stage < _CANCELLED:
                    if self._callbacks is None:
                        self._callbacks = []
                    self._callbacks.append(fn)
                    return
        _call(fn, self)

    def _wait(self, timeout: Optional[float]) -> None:
        with self.lock:
            if self.stage >= _CANCELLED:
                return
            waiter = self._waiter
            if waiter is None:
                waiter = self._waiter = threading.Event()
        if not waiter.wait(timeout):
            raise TimeoutError(f"request not done after {timeout} s")

    # ------------------------------------------------------------------
    # The server's side: only the thread that owns the request calls these
    # ------------------------------------------------------------------
    def _claim(self) -> bool:
        """Start serving: ``_QUEUED`` -> ``_CLAIMED``, atomically with
        :meth:`cancel`. Returns ``False`` if the holder cancelled it."""
        lock = self.lock
        if lock is None:
            self.stage = _CLAIMED
            return True
        with lock:
            if self.stage != _QUEUED:
                return False
            self.stage = _CLAIMED
            return True

    def _resolve(self, result: Any, error: Optional[BaseException]) -> None:
        """End the handle with ``result`` or ``error`` (a cancelled one
        keeps its cancellation), wake its waiters and run its
        callbacks. Called once."""
        lock = self.lock
        if lock is None:
            # Never shared: nobody waits on it or registered a callback.
            self._result, self._error = result, error
            self.stage = _SETTLED
            return
        with lock:
            cancelled = self.stage == _CANCELLED
            if not cancelled:
                self._result, self._error = result, error
            self.stage = _SETTLED
            waiter, callbacks = self._waiter, self._callbacks
            self._callbacks = None
        if not cancelled:
            self._announce(waiter, callbacks)

    def _announce(self, waiter, callbacks) -> None:
        if waiter is not None:
            waiter.set()
        for fn in callbacks or ():
            _call(fn, self)


def running_handle() -> RequestHandle:
    """A shared handle already past cancelling: the one a
    :class:`~repro.graph.GraphExecution` resolves when its graph ends."""
    return RequestHandle(threading.Lock(), _CLAIMED)


def _call(fn: Callable[[RequestHandle], Any], handle: RequestHandle) -> None:
    try:
        fn(handle)
    except Exception:
        logging.getLogger(__name__).exception(
            "done-callback %r of %r raised", fn, handle
        )
