"""Continuous speculative compilation behind the serving runtime.

A :class:`Speculator` is a background loop run on the maintenance
thread of a :class:`~repro.runtime.server.RuntimeServer`. It counts the
server's admitted requests per ``(kernel, bucket)`` in its own table,
guesses which buckets shifting traffic will need next
— the observed buckets themselves plus their :meth:`~repro.runtime.
bucketing.BucketPolicy.neighbors` one ladder rung above and below —
and precompiles them through the server's own kernel fetch while the
request queue is idle. This is the tiering loop of background JITs
(count hits, compile specializations off the hot path while the
interpreter keeps serving) applied to shape buckets: ``warm()`` becomes
a continuous process instead of a one-shot call.

Speculative kernels land in the ordinary process-wide compile cache
(and the server's own :class:`~repro.runtime.diskcache.DiskCacheTier`,
when it has one), built from the *exact* build the server would produce
for the bucket — same registered defaults, same pinned tuned parameters,
same compile options — so a speculation hit is indistinguishable from a
``warm()`` hit: the first real request in a precompiled bucket is
served from the memory tier with zero passes executed, and its results
are bit-identical to what an on-demand compile would have produced.

The speculator never chooses a mapping: it precompiles the server's own
launch record for a bucket, under whatever parameters the record pins
(``warm(tune=True)`` is the one way a bucket gets tuned parameters).

Effectiveness lands in :class:`~repro.runtime.telemetry.RuntimeStats`:
``speculative_compiles`` (kernels built in the background),
``speculation_issued`` (buckets precompiled), ``speculation_hits``
(precompiled buckets that later received traffic), and the derived
``speculation_wasted`` / ``speculation_wasted_ratio``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.compiler.cache import TIER_COMPILE, compile_cache
from repro.errors import CypressError
from repro.runtime.bucketing import Bucket
from repro.runtime.registry import RegisteredKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle: server owns us
    from repro.runtime.server import RuntimeServer


@dataclass(frozen=True)
class SpeculatorConfig:
    """Knobs of the background speculator.

    Attributes:
        interval_s: poll period between speculation cycles.
        max_compiles_per_cycle: background compiles allowed per cycle, so
            a burst of novel traffic cannot monopolize the process.
        neighbors: also precompile buckets one ladder rung above/below
            each observed bucket (the shifting-traffic guess); with
            ``False`` only observed buckets are kept warm.
    """

    interval_s: float = 0.02
    max_compiles_per_cycle: int = 4
    neighbors: bool = True


class Speculator:
    """The background compile loop owned by a ``RuntimeServer``.

    The server constructs one when built with ``speculate=`` truthy and
    its maintenance thread runs :meth:`run_once` every ``interval_s``
    while the request queue is empty, until ``close()``. Tests drive
    it synchronously with :meth:`run_once` instead of waiting on the
    thread.
    """

    #: Cycles run only while the request queue is empty.
    idle_only = True

    def __init__(
        self,
        server: "RuntimeServer",
        config: Optional[SpeculatorConfig] = None,
    ) -> None:
        self.server = server
        self.config = config or SpeculatorConfig()
        self.interval_s = self.config.interval_s
        self.errors = 0
        #: Admitted requests per (kernel, bucket), hottest first next cycle.
        self._traffic: Dict[Tuple[str, Bucket], int] = {}
        # Compile keys already fetched (success or failure): a
        # mapping the compiler rejects must not be retried every cycle.
        self._attempted: Set[str] = set()
        # Buckets this speculator precompiled, -> "has a request hit
        # it yet" (so each bucket counts at most one speculation hit).
        self._precompiled: Dict[Tuple[str, Bucket], bool] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # One speculation cycle
    # ------------------------------------------------------------------
    def run_once(self) -> int:
        """Run one speculation cycle synchronously.

        Scans the traffic snapshot (hottest buckets first), enumerates
        candidate buckets (observed + ladder neighbors), and compiles
        whatever is not already cached, up to
        ``max_compiles_per_cycle``. Yields early when real traffic
        arrives or the server starts shutting down.

        Returns:
            The number of kernels compiled this cycle.
        """
        tracer = self.server.tracer
        if not tracer.enabled:
            return self._run_cycle()
        with tracer.span("speculate.cycle", "speculate") as span:
            compiled = self._run_cycle()
            span.args["compiles"] = compiled
        return compiled

    def _run_cycle(self) -> int:
        """One cycle's actual work (see :meth:`run_once`)."""
        server = self.server
        with self._lock:
            traffic = dict(self._traffic)
        compiled = 0
        hottest = sorted(traffic.items(), key=lambda kv: (-kv[1], kv[0][0]))
        for (name, bucket), _count in hottest:
            if name not in server.registry:
                continue
            registered = server.registry.get(name)
            # Specialized exact-shape traffic lands off the ladder;
            # speculate around its generic bucket, not the raw shape.
            rounded = registered.bucket(bucket.as_dict())
            if rounded != bucket:
                bucket = rounded
            candidates: List[Bucket] = [bucket]
            if self.config.neighbors:
                candidates.extend(registered.policy.neighbors(bucket))
            for candidate in candidates:
                if server.closed or server.queue_depth > 0:
                    return compiled
                if compiled >= self.config.max_compiles_per_cycle:
                    return compiled
                compiled += self._speculate_bucket(registered, candidate)
        return compiled

    def record_traffic(self, pairs: Iterable[Tuple[str, Bucket]]) -> None:
        """Count one admitted request per ``(kernel, bucket)`` pair."""
        with self._lock:
            traffic = self._traffic
            for pair in pairs:
                traffic[pair] = traffic.get(pair, 0) + 1

    def note_request(self, kernel: str, bucket: Bucket) -> None:
        """Mark real traffic on a bucket; counts a speculation hit the
        first time a precompiled bucket is requested."""
        key = (kernel, bucket)
        with self._lock:
            if self._precompiled.get(key) is not False:
                return
            self._precompiled[key] = True
        self.server.telemetry.count("speculation_hits")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _speculate_bucket(
        self, registered: RegisteredKernel, bucket: Bucket
    ) -> int:
        """Precompile the server's own record for one candidate bucket —
        the launch its requests are served from, so the compile key
        matches real traffic; returns compiles executed (0 or 1)."""
        server = self.server
        try:
            launch = server._launch(registered, bucket)
        except Exception:
            self.errors += 1
            return 0
        # A key already attempted, or already in memory, is skipped: a
        # speculative no-op must not reorder the LRU, which a lookup's
        # hit would.
        if launch.key in self._attempted or launch.key in compile_cache:
            return 0
        self._attempted.add(launch.key)
        try:
            _kernel, tier = server._fetch(launch)
        except CypressError:
            return 0  # the key is in _attempted: no retry next cycle
        if tier != TIER_COMPILE:
            return 0
        with self._lock:
            issued = (registered.name, bucket) not in self._precompiled
            if issued:
                self._precompiled[(registered.name, bucket)] = False
        server.telemetry.count("speculative_compiles")
        server.telemetry.count("speculation_issued", int(issued))
        return 1
