"""Content-keyed compile cache with a per-lookup persistent tier.

A kernel compilation is a pure function of (mapping spec, argument
shapes/dtypes, machine, compile options): the logical program is reached
*through* the spec's registry, and mapping decisions plus machine
parameters determine every pass's output. The cache keys on a SHA-256
fingerprint of exactly those inputs, so recompiling an identical
instantiation — the common case in autotuning sweeps and repeated
benchmark runs — returns the previous :class:`CompiledKernel` without
executing a single pass.

The cache is a bounded LRU and is thread-safe: ``api.compile_many``
hits it concurrently from a thread pool. Capacity defaults to the
``REPRO_COMPILE_CACHE_SIZE`` environment variable (falling back to 256)
and can be changed at runtime with :meth:`CompileCache.resize`.

Below the in-memory LRU a lookup may name a **second tier**: any object
with ``load(key) -> kernel | None`` and ``store(key, kernel)``, passed
as ``tier=`` to :meth:`CompileCache.lookup`.
The cache holds none of its own: the memory LRU is process-wide, while
each serving runtime passes its own on-disk tier
(:class:`repro.runtime.diskcache.DiskCacheTier`) into its lookups, so a
restarted server warms from disk instead of recompiling. A lookup
consults the tier on a memory miss, writes fresh compiles through to
it, and reports which of the three answered.

Cached kernels are shared objects; treat them as immutable.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.frontend.mapping import MappingSpec, canonicalize
from repro.tensors.dtype import DType

#: Environment variable overriding the default in-memory capacity.
CACHE_SIZE_ENV = "REPRO_COMPILE_CACHE_SIZE"

#: Capacity used when the environment variable is unset.
DEFAULT_CAPACITY = 256

#: Names what this compiler generates. :func:`compile_key` hashes it, so
#: a persisted tier written by another revision is never read back; bump
#: it whenever a generated artefact (IR annotations, schedule, CUDA text,
#: the pickled classes themselves) changes.
COMPILER_REVISION = "keys cover the externals a program names"

#: Which branch of :meth:`CompileCache.lookup` produced the kernel: the
#: in-memory LRU, the second tier passed to the lookup, or ``compute``.
TIER_MEMORY = "memory"
TIER_DISK = "disk"
TIER_COMPILE = "compile"


@dataclass
class CacheStats:
    """Counters since the last ``clear`` plus the current capacity.

    ``hits`` are in-memory hits; ``second_tier_hits`` count lookups
    answered by the persistent tier they were given (disk); ``misses`` ran the
    full pass pipeline. ``evictions`` counts LRU entries dropped because
    the cache was over capacity (from ``put`` or ``resize``). Every
    field is documented for dashboard consumers in ``docs/serving.md``.
    """

    hits: int = 0
    misses: int = 0
    second_tier_hits: int = 0
    evictions: int = 0
    capacity: int = 0


def _capacity_from_env() -> int:
    raw = os.environ.get(CACHE_SIZE_ENV)
    if raw is None:
        return DEFAULT_CAPACITY
    try:
        capacity = int(raw)
    except ValueError:
        raise ValueError(
            f"{CACHE_SIZE_ENV}={raw!r} is not an integer"
        ) from None
    if capacity < 1:
        raise ValueError(f"{CACHE_SIZE_ENV} must be >= 1, got {capacity}")
    return capacity


def compile_key(
    spec: MappingSpec,
    name: str,
    arg_shapes: Sequence[Tuple[int, ...]],
    arg_dtypes: Sequence[DType],
    total_flops: float,
    unique_dram_bytes: float,
    options: Any,
) -> str:
    """The content fingerprint of one kernel instantiation.

    ``spec.fingerprint()`` covers every mapping decision and the machine
    description; the remainder covers the concrete instantiation and the
    options that influence compiler output (``use_tma``, scalar
    arguments, the pass list). The verification policy is included even
    though it never changes what is built: a caller asking for
    verify-every-pass must not be handed a kernel that was cached
    unverified (and the cached ``pass_trace`` records which policy
    actually ran). Only the ``cache`` flag itself is excluded.
    """
    payload = repr(
        (
            COMPILER_REVISION,
            spec.fingerprint(),
            name,
            tuple(tuple(shape) for shape in arg_shapes),
            tuple(dtype.name for dtype in arg_dtypes),
            float(total_flops),
            float(unique_dram_bytes),
            options.use_tma,
            canonicalize(options.scalar_args or {}),
            options.passes,
            options.verify.value,
        )
    ).encode()
    return hashlib.sha256(payload).hexdigest()


class CompileCache:
    """A bounded, thread-safe LRU of :class:`CompiledKernel` objects.

    ``capacity=None`` (the default) reads ``REPRO_COMPILE_CACHE_SIZE``
    from the environment, falling back to 256.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is None:
            capacity = _capacity_from_env()
        if capacity < 1:
            raise ValueError("compile cache capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats(capacity=capacity)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._in_flight: dict = {}

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        """In-memory lookup only (a second tier is consulted solely by
        :meth:`lookup`, which can populate memory on a tier hit)."""
        with self._lock:
            if key in self._entries:
                return self._hit_locked(key)
            self.stats.misses += 1
            return None

    def resident(self, key: str) -> Optional[Any]:
        """The kernel under ``key`` if it is in memory — a hit, counted
        and moved to the recent end as :meth:`lookup`'s memory branch
        does — else ``None``, counting nothing: a caller that misses
        goes on to :meth:`lookup`, which counts whatever answers."""
        with self._lock:
            if key in self._entries:
                return self._hit_locked(key)
            return None

    def put(self, key: str, kernel: Any) -> None:
        with self._lock:
            self._put_locked(key, kernel)

    def _put_locked(self, key: str, kernel: Any) -> None:
        self._entries[key] = kernel
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def resize(self, capacity: int) -> None:
        """Change the in-memory capacity, evicting LRU overflow."""
        if capacity < 1:
            raise ValueError("compile cache capacity must be >= 1")
        with self._lock:
            self.capacity = capacity
            self.stats.capacity = capacity
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def lookup(
        self, key: str, compute, tier: Optional[Any] = None
    ) -> Tuple[Any, str]:
        """Return ``(kernel, answered_by)`` for ``key``, computing it at
        most once across threads.

        Lookup order: in-memory LRU (``"memory"``), then ``tier`` when
        one is passed (``"disk"``; the hit is promoted into memory),
        then ``compute`` (``"compile"``; written through to ``tier``).
        The label names the branch that answered, so it is exact under
        concurrency: callers racing on one key (duplicate builds in a
        batch, first requests for a cold bucket) serialize on a per-key
        lock, one runs ``compute`` and the rest read a memory hit. A
        raising ``compute`` fails its own caller only.

        ``tier`` is duck-typed: ``load(key)`` returns the kernel or
        ``None`` on a miss, and ``store(key, kernel)`` persists one.
        Both must be thread-safe, and ``load`` must not raise: an
        unreadable or corrupt entry is a miss, so a broken tier
        degrades to a recompile rather than failing the compile path.
        """
        with self._lock:
            if key in self._entries:
                return self._hit_locked(key), TIER_MEMORY
            key_lock = self._in_flight.setdefault(key, threading.Lock())
        try:
            with key_lock:
                with self._lock:
                    if key in self._entries:
                        return self._hit_locked(key), TIER_MEMORY
                if tier is not None:
                    value = tier.load(key)
                    if value is not None:
                        with self._lock:
                            self.stats.second_tier_hits += 1
                            self._put_locked(key, value)
                        return value, TIER_DISK
                with self._lock:
                    self.stats.misses += 1
                value = compute()
                self.put(key, value)
                if tier is not None:
                    tier.store(key, value)
                return value, TIER_COMPILE
        finally:
            with self._lock:
                # Only the lock this call registered: a waiter that woke
                # after an eviction must not drop a newer computer's.
                if self._in_flight.get(key) is key_lock:
                    del self._in_flight[key]

    def get_or_compute(
        self, key: str, compute, tier: Optional[Any] = None
    ) -> Any:
        """:meth:`lookup` without the label."""
        return self.lookup(key, compute, tier)[0]

    def _hit_locked(self, key: str) -> Any:
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return self._entries[key]

    def clear(self) -> None:
        """Drop in-memory entries and counters (a second tier is the
        caller's, so persistent state survives a cache reset)."""
        with self._lock:
            self._entries.clear()
            self._in_flight.clear()
            self.stats = CacheStats(capacity=self.capacity)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries


@dataclass
class ScoreStats:
    """Counters of the cost-model verdict memo.

    ``hits`` returned a memoized :class:`~repro.tuner.costmodel.
    CostEstimate`; ``misses`` ran the analytic model.
    """

    hits: int = 0
    misses: int = 0


class ScoreCache:
    """Memoized cost-model verdicts, kept alongside the compile cache.

    The analytic cost model (:mod:`repro.tuner.costmodel`) is orders of
    magnitude cheaper than a compile, but tuning sweeps and
    ``RuntimeServer.warm`` re-score identical candidates constantly —
    the same (kernel, params, machine) triple shows up in every repeated
    sweep. Verdicts are pure functions of that triple, so they are
    memoized here under the same module as the compile cache: one place
    owns everything derived from a kernel instantiation's content.

    Keys are hashable tuples produced by ``AnalyticCostModel.score_key``
    (deliberately cheaper than the SHA-256 compile key: scoring costs
    microseconds, so hashing must too). The memo is a bounded LRU and is
    thread-safe.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("score cache capacity must be >= 1")
        self.capacity = capacity
        self.stats = ScoreStats()
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get_or_score(self, key: Any, score) -> Any:
        """Return the memoized verdict for ``key``, computing via
        ``score()`` on a miss.

        Args:
            key: a hashable content key for the scored candidate.
            score: zero-argument callable producing the verdict.

        Returns:
            The memoized (or freshly computed) verdict object.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
        value = score()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide cache consulted by ``compile_program``.
compile_cache = CompileCache()

#: The process-wide cost-model verdict memo consulted by the tuner.
score_cache = ScoreCache()
