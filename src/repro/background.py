"""The background thread every server-owned loop is built on.

A leaf module: it imports nothing from :mod:`repro.runtime` or
:mod:`repro.obs` at module top, so the speculator and specializer
(``runtime``) and the SLO monitor (``obs``) can all subclass
:class:`BackgroundLoop` without an import cycle.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - the server owns its loops
    from repro.runtime.server import RuntimeServer


class BackgroundLoop:
    """Shared machinery for the server's background threads.

    Both the :class:`~repro.runtime.speculate.Speculator` and the
    :class:`~repro.runtime.specialize.ShapeSpecializer` are daemon
    threads that wake every ``interval_s``, run one cycle of background
    work **only while the request queue is idle** (real traffic always
    wins the process), and must never take serving down — a cycle that
    raises is dropped, counted in ``errors``, and the next cycle
    retries. Subclasses implement :meth:`run_once`; tests drive it
    synchronously for determinism instead of waiting on the thread.
    """

    #: Thread name; subclasses override.
    thread_name = "repro-background"

    #: Run cycles only while the request queue is idle. Loops that
    #: *observe* serving rather than compete with it (the SLO
    #: monitor) override this to ``False`` — their whole point is to
    #: run while traffic flows.
    idle_only = True

    def __init__(self, server: "RuntimeServer", interval_s: float) -> None:
        self.server = server
        self.interval_s = interval_s
        self.errors = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Spawn the background thread (idempotent)."""
        if self._thread is not None or self._stop.is_set():
            return
        self._thread = threading.Thread(
            target=self._run, name=self.thread_name, daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Signal the thread to exit and join it (idempotent)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None

    @property
    def running(self) -> bool:
        """Whether the background thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                if not self.idle_only or self.server.queue_depth == 0:
                    self.run_once()
            except Exception:
                # Background work must never take serving down; a cycle
                # that blows up is dropped and the next one retries.
                self.errors += 1

    def run_once(self) -> int:
        """One cycle of background work; returns work items done."""
        raise NotImplementedError
