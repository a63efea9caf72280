"""repro.runtime — the async kernel-serving layer.

Where :mod:`repro.api` offers one-shot ``compile_kernel``/``simulate``
calls, this package keeps compiled kernels alive and serves them:

* :mod:`~repro.runtime.registry` — kernel builders registered under
  stable names with declared shape signatures.
* :mod:`~repro.runtime.bucketing` — shape bucketing, so a bounded set
  of compiled kernels serves unbounded request shapes.
* :mod:`~repro.runtime.server` — :class:`RuntimeServer`: async
  ``submit`` returning a :class:`RequestHandle` (the request's own
  queue slot; :mod:`~repro.runtime.handle`), a FIFO-queue worker pool,
  micro-batching of same-bucket requests, tuner-backed warm-up, and
  ``submit_graph`` for :mod:`repro.graph` task graphs (ready nodes
  overlap across the pool).
* :mod:`~repro.runtime.diskcache` — the persistent compile-cache tier
  beneath the in-memory LRU; restarts warm from disk.
* :mod:`~repro.runtime.telemetry` — p50/p95 latency, per-tier hit
  rates, queue depth, per-kernel throughput.
* :mod:`~repro.runtime.speculate` — :class:`Speculator`: a background
  loop that precompiles likely-next shape buckets (observed traffic
  plus ladder neighbors) during idle time, making warm-up continuous.
* :mod:`~repro.runtime.specialize` — :class:`ShapeSpecializer`: the
  tiered promote/deoptimize loop that counts per-exact-shape traffic,
  promotes hot shapes to tile-aligned specialized kernels served with
  (near-)zero padding, and deoptimizes them when traffic shifts.

Both loops, and the SLO monitor of :mod:`repro.obs.slo`, run on the
server's one maintenance thread, which exists only while the server has
one of them; each loop owns the demand it reads.
* :mod:`~repro.runtime.resilience` — deadlines and bounded-queue load
  shedding.
* :mod:`~repro.runtime.faults` — :class:`FaultPlan`: deterministic,
  seeded fault injection at named sites of the one server it is handed
  to (``faults=``), driving the chaos soak
  (``tests/test_resilience.py::TestChaosGolden``).

Entry points: :class:`RuntimeServer` here, or :func:`repro.api.serve`.
"""

from repro.runtime.bucketing import Bucket, BucketPolicy
from repro.runtime.diskcache import DiskCacheStats, DiskCacheTier
from repro.runtime.faults import FAULT_SITES, FaultPlan, InjectedFault
from repro.runtime.handle import RequestHandle
from repro.runtime.registry import (
    KernelRegistry,
    RegisteredKernel,
    default_registry,
)
from repro.runtime.resilience import DeadlineExceeded, ResilienceConfig
from repro.runtime.server import RuntimeResult, RuntimeServer
from repro.runtime.specialize import (
    ShapeSpecializer,
    Specialization,
    SpecializerConfig,
)
from repro.runtime.speculate import Speculator, SpeculatorConfig
from repro.runtime.telemetry import (
    KernelServingStats,
    RuntimeStats,
    Telemetry,
)

__all__ = [
    "Bucket",
    "BucketPolicy",
    "DeadlineExceeded",
    "DiskCacheStats",
    "DiskCacheTier",
    "FAULT_SITES",
    "FaultPlan",
    "InjectedFault",
    "KernelRegistry",
    "KernelServingStats",
    "RegisteredKernel",
    "RequestHandle",
    "ResilienceConfig",
    "RuntimeResult",
    "RuntimeServer",
    "RuntimeStats",
    "ShapeSpecializer",
    "Specialization",
    "SpecializerConfig",
    "Speculator",
    "SpeculatorConfig",
    "Telemetry",
    "default_registry",
]
