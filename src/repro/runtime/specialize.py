"""Traffic-driven tiered shape specialization (promote / deoptimize).

Bucketing rounds every request shape up to a ladder rung forever, so a
hot exact shape pays padding waste on every single request. The
:class:`ShapeSpecializer` closes that gap with the tiering loop of
PyPy-style tracing JITs applied to shapes:

1. **Count** — every admitted request records its *pre-rounding*
   shape in the specializer's own per-``(kernel, exact shape)`` hit
   counts (:meth:`ShapeSpecializer.traffic`), decayed periodically so
   the signal tracks *current* traffic.
2. **Promote** — shapes whose (decayed) hit count crosses
   ``hot_threshold`` are background-compiled at a **tile-aligned
   near-exact shape** through the server's own kernel fetch while the
   request queue is idle; the result lands in the ordinary process-wide
   compile cache (and the server's own disk tier), exactly like the
   speculator's kernels.
3. **Guard** — ``submit`` checks the request's exact shape against the
   installed specializations: a hit serves the specialized kernel with
   (near-)zero padding, a miss falls through to the generic bucket.
   When ``specialize=False`` the dispatch path pays one ``is None``
   branch and nothing else.
4. **Deoptimize** — a specialization whose shape goes cold (decayed
   count under :data:`COLD_THRESHOLD`) or that loses a capacity fight
   (``max_per_kernel``) is evicted and its counter reset, so it must
   re-earn promotion; traffic instantly falls back to the generic
   bucket, which never left the cache.

Why *aligned*, not exact: the compiler cannot partition ragged extents
symbolically — a kernel built at ``m=1000`` with ``tile_m=256`` fails
in the pipeline. Each registered kernel therefore declares
``specialize_align`` granules (multiples of its default build tiles);
the specializer rounds a hot shape up to the nearest granule, which is
far tighter than the bucket ladder (e.g. ``m=4100`` serves from
``m=4352`` instead of ``m=8192``). Kernels without granules are never
promoted. Specialized builds use the registered **defaults** (no
pinned/tuned bucket parameters): tuned tiles are only known safe at
ladder rungs, and defaults are what the alignment granules guarantee
to divide evenly.

Promotion failures are counted (``specialize_errors``), the shape is
quarantined from re-promotion for ``quarantine_cycles`` cycles, and the
generic bucket keeps serving — a cycle never raises. The server's
maintenance thread runs the cycles, only while its queue is empty.
Effectiveness lands in :class:`~repro.runtime.telemetry.RuntimeStats`:
``promotions``, ``deopts``, ``specialized_hits``, and
``padded_flops_saved`` (the FLOP gap between each hit's generic bucket
and its specialized shape).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Set, Tuple

import numpy as np

from repro.runtime.bucketing import Bucket
from repro.runtime.registry import RegisteredKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle: server owns us
    from repro.runtime.server import RuntimeServer


#: Active specializations whose decayed hit count falls below this are
#: deoptimized back to their bucket.
COLD_THRESHOLD = 1.0


@dataclass(frozen=True)
class SpecializerConfig:
    """Knobs of the shape-specialization tiering loop.

    Attributes:
        interval_s: poll period between specialization cycles.
        hot_threshold: decayed per-shape hit count at which a shape is
            promoted to an exact-shape specialization.
        max_per_kernel: specializations allowed per kernel family; a new
            promotion beyond it must evict the coldest active one (and
            only wins the fight when it is strictly hotter).
        max_promotions_per_cycle: background compiles allowed per cycle,
            so a burst of novel shapes cannot monopolize the process.
        decay: factor applied to every per-shape hit count each decay
            round (exponential forgetting of stale traffic).
        decay_every_cycles: cycles between decay rounds.
        quarantine_cycles: cycles a shape whose specialized compile
            failed is barred from re-promotion (error backoff).
    """

    interval_s: float = 0.02
    hot_threshold: int = 8
    max_per_kernel: int = 4
    max_promotions_per_cycle: int = 2
    decay: float = 0.5
    decay_every_cycles: int = 50
    quarantine_cycles: int = 8


@dataclass(frozen=True)
class Specialization:
    """One installed exact-shape specialization (a guard-table entry).

    Attributes:
        kernel: registered kernel name.
        exact: the promoted request shape (the guard key).
        serving: the tile-aligned shape the specialized kernel was
            compiled at (``exact`` rounded up per ``specialize_align``).
        generic: the bucket the shape would serve from unspecialized.
        flops_saved: padded FLOPs one request saves by serving from
            ``serving`` instead of ``generic``.
    """

    kernel: str
    exact: Bucket
    serving: Bucket
    generic: Bucket
    flops_saved: float


def fit_inputs(
    kernel: Any, inputs: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Fit functional inputs to a specialized kernel's parameters.

    The serving contract has callers pad input arrays to the
    generic bucket shape; a specialization guard hit compiles at
    the (smaller) tile-aligned shape, so each named array is
    cropped — or zero-padded, for callers that sent exact-shape
    arrays below the aligned shape — to its parameter's declared
    extents. Cropping only removes zero-padding, so specialized
    outputs stay bit-identical to the generic kernel's outputs over
    the same region. Arrays already matching (or of a different
    rank, left for ``run_functional`` to diagnose) pass through.
    """
    declared = {
        param.name: tuple(param.shape)
        for param in kernel.final_ir.params
    }
    fitted: Dict[str, np.ndarray] = {}
    for name, array in inputs.items():
        target = declared.get(name)
        if target is None or tuple(array.shape) == target \
                or array.ndim != len(target):
            fitted[name] = array
            continue
        cropped = array[
            tuple(slice(0, min(have, want))
                  for have, want in zip(array.shape, target))
        ]
        if cropped.shape != target:
            padded = np.zeros(target, dtype=array.dtype)
            padded[tuple(slice(0, extent)
                         for extent in cropped.shape)] = cropped
            cropped = padded
        fitted[name] = cropped
    return fitted


class ShapeSpecializer:
    """The promote/deoptimize state machine owned by a ``RuntimeServer``.

    The server constructs one when built with ``specialize=`` truthy
    and its maintenance thread runs :meth:`run_once` every
    ``interval_s`` while the request queue is empty, until ``close()``
    (an in-flight promotion is abandoned: the compiled kernel stays in
    the cache, but no guard is installed). Tests drive it
    synchronously with :meth:`run_once` for determinism.
    """

    #: Cycles run only while the request queue is empty.
    idle_only = True

    def __init__(
        self,
        server: "RuntimeServer",
        config: Optional[SpecializerConfig] = None,
    ) -> None:
        self.server = server
        self.config = config or SpecializerConfig()
        self.interval_s = self.config.interval_s
        self.errors = 0
        #: (kernel, exact Bucket) -> decayed count of admitted requests.
        self._traffic: Dict[Tuple[str, Bucket], float] = {}
        #: (kernel, exact Bucket) -> installed Specialization. Read
        #: lock-free on the dispatch hot path (atomic dict get);
        #: mutated only by the specializer cycle under ``_lock``.
        self._active: Dict[Tuple[str, Bucket], Specialization] = {}
        #: Shapes barred from re-promotion until the stored cycle.
        self._quarantine: Dict[Tuple[str, Bucket], int] = {}
        #: Shapes promotion can never help (already on a rung, or the
        #: aligned shape saves nothing) — checked before compiling.
        self._skip: Set[Tuple[str, Bucket]] = set()
        self._cycle = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # The dispatch guard
    # ------------------------------------------------------------------
    def lookup(self, kernel: str, exact: Bucket) -> Optional[Specialization]:
        """The guard check ``submit`` runs: the installed specialization
        covering this exact request shape, or ``None`` to fall through
        to the generic bucket. One dict probe; safe without a lock."""
        return self._active.get((kernel, exact))

    @property
    def active(self) -> Dict[Tuple[str, Bucket], Specialization]:
        """A snapshot of the installed specializations (for tests and
        dashboards; the guard itself uses the live table)."""
        with self._lock:
            return dict(self._active)

    # ------------------------------------------------------------------
    # The demand signal
    # ------------------------------------------------------------------
    def record_traffic(self, shapes: Iterable[Tuple[str, Bucket]]) -> None:
        """Count one admitted request per ``(kernel, exact shape)``."""
        with self._lock:
            traffic = self._traffic
            for key in shapes:
                traffic[key] = traffic.get(key, 0.0) + 1.0

    def traffic(self) -> Dict[Tuple[str, Bucket], float]:
        """A snapshot of the decayed per-``(kernel, exact shape)`` counts."""
        with self._lock:
            return dict(self._traffic)

    def decay(self, factor: float) -> None:
        """Multiply every per-shape count by ``factor`` (0..1) and drop
        those under 0.5, so a shape that stops being requested goes
        cold instead of staying hot forever."""
        with self._lock:
            self._traffic = {
                key: count * factor
                for key, count in self._traffic.items()
                if count * factor >= 0.5
            }

    # ------------------------------------------------------------------
    # One specialization cycle
    # ------------------------------------------------------------------
    def run_once(self) -> int:
        """Run one promote/deoptimize cycle synchronously.

        Decays the per-shape traffic on its schedule, deoptimizes
        active specializations that went cold, then promotes the
        hottest unpromoted shapes (up to ``max_promotions_per_cycle``),
        yielding early when real traffic arrives or the server starts
        shutting down. Exceptions are counted in ``errors`` and never
        propagate — the loop is driven identically by the maintenance
        thread and by tests.

        Returns:
            The number of shapes promoted this cycle.
        """
        try:
            return self._run_cycle()
        except Exception:
            self.errors += 1
            return 0

    def _run_cycle(self) -> int:
        """One cycle's actual work (see :meth:`run_once`)."""
        server = self.server
        config = self.config
        with self._lock:
            self._cycle += 1
            cycle = self._cycle
        if cycle % config.decay_every_cycles == 0:
            self.decay(config.decay)
        traffic = self.traffic()
        for key, spec in list(self._active.items()):
            if traffic.get(key, 0.0) < COLD_THRESHOLD:
                self._deopt(key, spec, reason="cold")
        promoted = 0
        hottest = sorted(traffic.items(), key=lambda kv: (-kv[1], kv[0][0]))
        for (name, exact), count in hottest:
            if promoted >= config.max_promotions_per_cycle:
                break
            if count < config.hot_threshold:
                break  # sorted hottest-first: everything below is colder
            key = (name, exact)
            if key in self._active or key in self._skip:
                continue
            barred_until = self._quarantine.get(key)
            if barred_until is not None:
                if cycle < barred_until:
                    continue
                del self._quarantine[key]
            if name not in server.registry:
                continue
            registered = server.registry.get(name)
            if registered.specialize_align is None:
                continue
            if server.closed or server.queue_depth > 0:
                return promoted
            promoted += self._promote(registered, exact, count, traffic)
        return promoted

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _aligned_bucket(
        self, registered: RegisteredKernel, exact: Bucket
    ) -> Bucket:
        """Round each extent of ``exact`` up to its ``specialize_align``
        granule (granule 1 for unlisted dimensions) — the tightest
        shape the default build's partitions divide evenly."""
        align = registered.specialize_align or {}
        dims = []
        for name, extent in exact.dims:
            granule = align.get(name, 1)
            dims.append((name, -(-extent // granule) * granule))
        return Bucket(tuple(dims))

    def _promote(
        self,
        registered: RegisteredKernel,
        exact: Bucket,
        count: float,
        traffic: Dict[tuple, float],
    ) -> int:
        """Try to install one specialization; returns 1 on success.

        Skips shapes the aligned build cannot beat, fights the
        per-kernel cap (evicting the coldest active specialization
        only when this shape is strictly hotter), background-compiles
        the aligned kernel, quarantines the shape on compile failure,
        and abandons the install when the server began shutting down
        mid-compile.
        """
        server = self.server
        config = self.config
        key = (registered.name, exact)
        generic = registered.bucket(exact.as_dict())
        serving = self._aligned_bucket(registered, exact)
        flops_saved = registered.flops(generic.as_dict()) - registered.flops(
            serving.as_dict()
        )
        if serving == generic or flops_saved <= 0:
            self._skip.add(key)
            return 0
        mine = [k for k in self._active if k[0] == registered.name]
        if len(mine) >= config.max_per_kernel:
            coldest = min(mine, key=lambda k: traffic.get(k, 0.0))
            if traffic.get(coldest, 0.0) >= count:
                return 0  # not hotter than anything installed
            self._deopt(coldest, self._active[coldest], reason="capacity")
        tracer = server.tracer
        started = time.perf_counter() if tracer.enabled else 0.0
        # The aligned bucket's own record: defaults, unless this very
        # shape was tuned — tiles pinned for ladder rungs are not
        # guaranteed to divide an aligned shape; the granules are.
        try:
            server._fetch(server._launch(registered, serving))
        except Exception as failure:
            with self._lock:
                self._quarantine[key] = self._cycle + config.quarantine_cycles
            server.telemetry.count("specialize_errors")
            if tracer.enabled:
                tracer.record(
                    "specialize.promote", "specialize",
                    started, time.perf_counter(),
                    args={
                        "kernel": registered.name,
                        "shape": exact.label(),
                        "error": repr(failure),
                    },
                )
            return 0
        if server.closed:
            # close() raced the compile: abandon the install cleanly —
            # the kernel stays cached, but no guard goes live.
            return 0
        entry = Specialization(
            kernel=registered.name,
            exact=exact,
            serving=serving,
            generic=generic,
            flops_saved=flops_saved,
        )
        with self._lock:
            self._active[key] = entry
        server.telemetry.count("promotions")
        if tracer.enabled:
            tracer.record(
                "specialize.promote", "specialize",
                started, time.perf_counter(),
                args={
                    "kernel": registered.name,
                    "shape": exact.label(),
                    "serving": serving.label(),
                    "flops_saved": flops_saved,
                },
            )
        return 1

    def _deopt(
        self,
        key: Tuple[str, Bucket],
        spec: Specialization,
        reason: str,
    ) -> None:
        """Evict one specialization and reset its traffic counter.

        The compiled kernel stays in the cache and only the server's
        record of the aligned bucket goes (an in-flight request that
        already passed the guard resolves it again and still serves
        correctly); the counter reset means the shape must re-earn
        promotion, which stops capacity-fight thrash.
        """
        with self._lock:
            self._active.pop(key, None)
            self._traffic.pop(key, None)
        self.server._forget(spec.kernel, spec.serving)
        self.server.telemetry.count("deopts")
        tracer = self.server.tracer
        if tracer.enabled:
            now = time.perf_counter()
            tracer.record(
                "specialize.deopt", "specialize", now, now,
                args={
                    "kernel": spec.kernel,
                    "shape": spec.exact.label(),
                    "reason": reason,
                },
            )
