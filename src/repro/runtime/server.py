"""The async kernel-serving runtime.

:class:`RuntimeServer` turns the one-shot compile/simulate API into a
long-lived serving layer. Requests name a registered kernel and a shape;
``submit`` rounds the shape to a :class:`~repro.runtime.bucketing.
Bucket` and returns the request's own queue slot as a
:class:`~repro.runtime.handle.RequestHandle` — ``result()``,
``exception()``, ``done()``, ``cancel()``, ``add_done_callback()`` —
that resolves to a :class:`RuntimeResult` (simulated timing, optional
functional outputs, which cache tier produced the kernel). ``submit``
and the graph scheduler hand their prepared requests to one admission
method, :meth:`RuntimeServer.admit`, which makes the one
serve-here-or-queue decision: a request that needs no worker —
timing-only, its bucket's launch record already timed and its kernel
resident in memory, nothing queued ahead — is served, micro-batched
with its same-bucket peers, by the admitting thread before ``admit``
returns, with the record and kernel its one cache probe found, and
without a lock on its handle, which no other thread has seen yet. Every
other request goes on a FIFO queue, which a pool of worker threads
drains, **micro-batching** same-bucket requests so one compile + one
simulation serve the whole batch.

Every kernel the server uses — for a request, ``warm``, the speculator
or the specializer — is resolved once per (kernel, bucket) into a
:class:`~repro.runtime.registry.Launch` record (build, compile key,
``compute``; :meth:`RuntimeServer._launch`). A worker's batch then
takes its kernel from one fetch (:meth:`RuntimeServer._fetch`) of that
key through the content-keyed :class:`~repro.compiler.cache.
CompileCache`, whose lookup names the tier that answered; an inline
batch from the memory probe ``admit`` made. The memory LRU is
process-wide; each server consults its own disk tier: the
:class:`~repro.runtime.diskcache.DiskCacheTier` of its ``disk_cache``
directory goes into its own lookups only, so a restarted server warms
from disk — zero passes executed. ``warm`` precompiles buckets ahead of
traffic and can autotune each bucket's mapping with
:func:`repro.tuner.autotune` first.

The server bounds its work with the :mod:`~repro.runtime.resilience`
controls: per-request **deadlines** (``submit(deadline=...)``) fail
fast at dispatch, and a **bounded queue** sheds load under the
configured policy. A failed compile or simulation fails its batch's
requests and nothing else; it is not retried, because both are pure
functions of the kernel and the machine (``docs/resilience.md``).

A request crosses five stages — **admit** (:meth:`RuntimeServer.admit`,
from ``submit`` or the graph scheduler), then on a worker or the
admitting thread **dispatch**, **obtain**, **execute** and **resolve**
(``_serve``) — and what cuts across them has one owner each:
:meth:`RuntimeServer._settle` alone ends a request (one telemetry
update, span, handle, and last the slot's ``on_settle`` hook, through
which every graph node settles), and :class:`_Stages` is the one source
of a batch's stage spans (``docs/serving.md`` maps which acts where).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Mapping
from concurrent.futures import CancelledError
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import api
from repro.compiler.cache import compile_cache
from repro.errors import CypressError
from repro.gpusim.gpu import GpuResult
from repro.machine.machine import MachineModel
from repro.obs.flight import FlightRecorder
from repro.obs.ops import DiagConfig, DiagServer
from repro.obs.slo import SloMonitor
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.bucketing import Bucket
from repro.runtime.diskcache import DiskCacheTier
from repro.runtime.faults import FaultPlan
from repro.runtime.handle import _SETTLED, RequestHandle
from repro.runtime.resilience import (
    SHED_REJECT_NEW,
    DeadlineExceeded,
    ResilienceConfig,
)
from repro.runtime.registry import (
    KernelRegistry,
    Launch,
    RegisteredKernel,
    default_registry,
)
from repro.runtime.specialize import (
    ShapeSpecializer,
    SpecializerConfig,
    fit_inputs,
)
from repro.runtime.speculate import Speculator, SpeculatorConfig
from repro.runtime.telemetry import (
    TIER_COMPILE,
    TIER_MEMORY,
    RuntimeStats,
    Telemetry,
)
from repro.tuner import MappingSearchSpace, autotune

ShapeLike = Union[Mapping[str, int], Sequence[int]]

#: Survivors of the cost-model ranking that ``warm(tune=True)`` compiles
#: and simulates per bucket.
WARM_TOP_K = 4


@dataclass
class RuntimeResult:
    """What a resolved request handle carries.

    ``gpu`` is the simulated execution of the *bucket* kernel (identical
    to a direct ``compile_kernel`` + ``simulate`` of the bucket shape).
    It is simulated once per launch record, so one read-only object is
    shared by every request of the bucket. ``outputs`` are the
    functional results when the request carried inputs. ``tier``
    records which cache tier produced the compiled kernel —
    ``"memory"``, ``"disk"``, or ``"compile"`` — and ``batch_size`` how
    many requests were served by this batch.
    """

    kernel: str
    build_name: str
    requested_shape: Dict[str, int]
    bucket: Bucket
    tier: str
    batch_size: int
    gpu: GpuResult
    latency_s: float
    outputs: Optional[Dict[str, np.ndarray]] = None
    params: Optional[Dict[str, Any]] = None

    @property
    def tflops(self) -> float:
        """Simulated throughput of the serving kernel."""
        return self.gpu.tflops


class _QueuedRequest(RequestHandle):
    """One request's slot in the FIFO queue, and the handle ``submit``
    returns for it: the slot is the request's outcome, so a request
    allocates one object.

    Allocation-light by design: ``__slots__``, a precomputed
    ``batch_key``, and a mutable ``submitted_at`` so the graph
    scheduler can build one slot per ready node from the lookups it
    made at ``execute()`` and have it stamped at admission instead of
    constructing requests (and re-validating shapes) on the submit hot
    path. Its handle state (``stage``, ``lock``) follows
    :mod:`repro.runtime.handle`: :meth:`RuntimeServer.admit` gives a
    slot its lock when it enqueues it, so a slot without one is one
    its admitting thread serves.
    """

    __slots__ = (
        "kernel", "shape", "bucket", "inputs", "submitted_at", "batch_key",
        "span", "trace_parent", "exact_bucket", "specialized", "deadline",
        "on_settle",
    )

    def __init__(
        self,
        kernel: RegisteredKernel,
        shape: Dict[str, int],
        bucket: Bucket,
        inputs: Optional[Mapping[str, np.ndarray]] = None,
    ) -> None:
        RequestHandle.__init__(self)
        self.kernel = kernel
        self.shape = shape
        self.bucket = bucket
        self.inputs = inputs
        self.submitted_at = 0.0
        self.batch_key: Tuple[str, Bucket] = (kernel.name, bucket)
        #: Root "request" span (None when tracing is off) and the parent
        #: span to nest it under (the graph scheduler's node span).
        self.span: Any = None
        self.trace_parent: Any = None
        #: Pre-rounding request shape as a Bucket (set by ``submit`` only
        #: with a specializer) and whether the specialization guard
        #: hit — a hit serves ``bucket`` = the aligned specialized shape.
        self.exact_bucket: Any = None
        self.specialized = False
        #: Absolute ``perf_counter`` deadline (None = no deadline). Checked
        #: at batch dispatch: an expired request fails fast with
        #: :class:`~repro.runtime.resilience.DeadlineExceeded` instead of
        #: occupying a worker.
        self.deadline: Optional[float] = None
        #: Called last by :meth:`RuntimeServer._settle` with what it ended
        #: the request with — its ``RuntimeResult`` or the exception it
        #: failed with — however the request ends. The graph scheduler
        #: settles its nodes through it; it must not raise.
        self.on_settle: Optional[Callable[[Any], None]] = None


class _Stages:
    """One micro-batch's stage stamps — the single source of its
    ``queue``/``dispatch``/``batch``/``compile``/``pass.*``/``execute``
    spans.

    A batch's stages are contiguous: it is built as the batch enters
    ``dispatch``, and :meth:`enter` crosses each later boundary once and
    stamps it. One is built per batch only while tracing; otherwise the
    batch carries ``None`` and the hot path makes no stage call at all.
    ``served_by`` names the thread that serves the batch: ``"worker"``
    or ``"submitter"``.
    """

    __slots__ = ("tracer", "stamps", "served_by")

    def __init__(self, tracer: Any, served_by: str = "worker") -> None:
        self.tracer = tracer
        self.stamps: Dict[str, float] = {"dispatch": time.perf_counter()}
        self.served_by = served_by

    def enter(self, stage: str) -> None:
        """Cross the boundary into ``stage``."""
        self.stamps[stage] = time.perf_counter()

    def served(
        self, live: List[_QueuedRequest], kernel: Any, tier: str
    ) -> None:
        """Emit the batch's child spans from the stamps.

        Every request gets a ``queue`` child (its own submit time to
        the batch's pop/assembly); the head request additionally owns
        the batch-wide stages — ``dispatch`` (queue pop + same-bucket
        scan; ``served_by`` says which thread served the batch),
        ``batch`` (micro-batch finalization), and ``compile`` (kernel
        acquisition, with one ``pass.*`` child per compiler pass lifted
        from the kernel's :class:`~repro.compiler.passes.PassTrace`
        when the batch actually compiled).
        """
        tracer = self.tracer
        if not tracer.enabled:
            return
        at = self.stamps
        popped, assembled = at["dispatch"], at["batch"]
        compile_start, compile_end = at["compile"], at["execute"]
        head = live[0]
        for request in live:
            waited_until = popped if request is head else assembled
            tracer.record(
                "queue", "serve",
                request.submitted_at, max(waited_until, request.submitted_at),
                parent=request.span,
            )
        tracer.record(
            "dispatch", "serve", popped, assembled,
            parent=head.span,
            args={"batch_size": len(live), "served_by": self.served_by},
        )
        tracer.record(
            "batch", "serve", assembled, compile_start, parent=head.span
        )
        compile_span = tracer.record(
            "compile", "compile", compile_start, compile_end,
            parent=head.span, args={"tier": tier},
        )
        trace = getattr(kernel, "pass_trace", None)
        if tier != TIER_COMPILE or trace is None:
            return
        for record in trace.records:
            if record.started_at_s <= 0.0:
                continue
            # Clamp into the compile span: under concurrent compiles of
            # the same key, the PassTrace on the returned kernel may
            # belong to another thread's (earlier) pipeline run.
            start = min(max(record.started_at_s, compile_start), compile_end)
            end = min(max(start, record.started_at_s + record.wall_time_s),
                      compile_end)
            tracer.record(
                f"pass.{record.name}", "compile", start, end,
                parent=compile_span,
                args={
                    "ops_before": record.ops_before,
                    "ops_after": record.ops_after,
                    "wall_time_s": record.wall_time_s,
                },
            )

    def resolved(self, request: _QueuedRequest, done_at: float) -> None:
        """Emit ``request``'s ``execute`` span, ending at ``done_at``."""
        if self.tracer.enabled:
            self.tracer.record(
                "execute", "serve", self.stamps["execute"], done_at,
                parent=request.span,
            )


def _config(value: Any, config_type: type) -> Any:
    """A ``True``-or-config constructor argument as the config to hand
    on: the instance itself, or ``None`` for the component's defaults."""
    return value if isinstance(value, config_type) else None


class RuntimeServer:
    """A long-lived, multi-threaded kernel-serving runtime.

    Args:
        machine: the machine model requests execute on.
        registry: servable kernels; defaults to the full zoo
            (:func:`~repro.runtime.registry.default_registry`).
        workers: worker threads draining the request queue — which
            bounds the work that can compile, interpret or wait;
            requests :meth:`submit` serves on the calling thread never
            enter the queue.
        disk_cache: a directory path or :class:`DiskCacheTier` this
            server consults below the process-wide memory cache and
            writes its kernels through to (``None``: memory only).
        max_batch: micro-batch bound — how many same-bucket requests one
            worker serves per compile + simulation.
        speculate: run a background :class:`~repro.runtime.speculate.
            Speculator` that watches per-bucket traffic and precompiles
            observed buckets plus their ladder neighbors during idle
            time, so ``warm()`` becomes continuous. Pass ``True`` for
            defaults or a :class:`~repro.runtime.speculate.
            SpeculatorConfig` for custom knobs.
        specialize: run a background :class:`~repro.runtime.specialize.
            ShapeSpecializer` that counts per-exact-shape traffic,
            promotes hot shapes to tile-aligned specialized kernels
            served with (near-)zero padding, and deoptimizes them when
            traffic shifts. Pass ``True`` for defaults or a
            :class:`~repro.runtime.specialize.SpecializerConfig` for
            custom knobs; ``False`` keeps the dispatch path unchanged
            (one ``is None`` branch).
        trace: record per-request span trees (queue wait, dispatch,
            micro-batch assembly, compile with per-pass children,
            execute) on a :class:`~repro.obs.trace.Tracer`. Pass
            ``True`` for a fresh tracer or an existing one to share;
            export with :meth:`export_trace`. Off by default — the
            disabled tracer is the no-op :data:`~repro.obs.trace.
            NULL_TRACER` and the hot path pays one branch.
        flight: a :class:`~repro.obs.flight.FlightRecorder` (or a dump
            path for a default-sized one) fed every finished span and
            dumped to disk on :meth:`close` and on worker-loop
            exceptions, for postmortems.
        resilience: a :class:`~repro.runtime.resilience.
            ResilienceConfig` setting the queue bound and load-shedding
            policy. ``None`` (the default) keeps the queue unbounded.
        diag: the live ops plane (:mod:`repro.obs.ops`): an embedded
            read-only HTTP listener serving ``/metrics``,
            ``/statusz``, ``/healthz``, ``/readyz``, ``/tracez`` and
            ``/flightz``, plus — when configured — the SLO monitor.
            Pass ``True`` for a loopback listener on an ephemeral
            port, an ``int`` port, or a :class:`~repro.obs.ops.
            DiagConfig`. The listener stays up after :meth:`close`
            answering 503 (orchestrators see the terminal state, not
            connection-refused); stop it with ``server.diag.stop()``.
        faults: a :class:`~repro.runtime.faults.FaultPlan` whose
            ``compile`` and ``worker.execute`` sites this server's
            micro-batches pass through (chaos testing). ``None`` (the
            default) costs one branch per micro-batch.
        start: spawn workers immediately; ``start=False`` lets tests and
            batch loaders enqueue before serving begins (call
            :meth:`start`).

    Use as a context manager for deterministic shutdown::

        with RuntimeServer(machine, disk_cache="cache/") as server:
            server.warm("gemm", [dict(m=4096, n=4096, k=4096)])
            handle = server.submit("gemm", dict(m=4000, n=4000, k=4000))
            print(handle.result().gpu.summary())
    """

    def __init__(
        self,
        machine: MachineModel,
        registry: Optional[KernelRegistry] = None,
        *,
        workers: int = 2,
        disk_cache: Union[None, str, "DiskCacheTier"] = None,
        max_batch: int = 8,
        speculate: Union[bool, "SpeculatorConfig"] = False,
        specialize: Union[bool, "SpecializerConfig"] = False,
        trace: Union[bool, Tracer] = False,
        flight: Union[None, str, FlightRecorder] = None,
        resilience: Optional[ResilienceConfig] = None,
        diag: Union[None, bool, int, DiagConfig] = None,
        faults: Optional[FaultPlan] = None,
        start: bool = True,
    ) -> None:
        if workers < 1:
            raise CypressError("RuntimeServer needs at least one worker")
        if max_batch < 1:
            raise CypressError("max_batch must be >= 1")
        self.machine = machine
        self.registry = registry if registry is not None else default_registry()
        self.max_batch = max_batch
        self.faults = faults
        self._queue: deque[_QueuedRequest] = deque()
        self._cv = threading.Condition()
        self._stopping = False
        self._closed = False
        self._threads: List[threading.Thread] = []
        self._workers = workers
        #: The one thread that runs the background loops (``_maintain``)
        #: and the event ``close`` sets to cut its sleep short.
        self._maintenance: Optional[threading.Thread] = None
        self._wake = threading.Event()
        self._started = False
        #: Requests admitted to be served on their submitting thread
        #: and not yet settled; ``close`` waits for zero (under ``_cv``).
        self._inline = 0
        #: The one per-(kernel, bucket) table; see :meth:`_launch`.
        self._launches: Dict[Tuple[str, Bucket], Launch] = {}
        self._launch_lock = threading.Lock()
        self.telemetry = Telemetry()
        self.resilience = resilience or ResilienceConfig()
        self.flight: Optional[FlightRecorder] = (
            flight
            if flight is None or isinstance(flight, FlightRecorder)
            else FlightRecorder(path=flight)
        )
        if isinstance(trace, Tracer):
            self.tracer = trace
            if self.flight is not None and trace.recorder is None:
                trace.recorder = self.flight
        elif trace:
            self.tracer = Tracer(recorder=self.flight)
        else:
            self.tracer = NULL_TRACER
        self.speculator: Optional[Speculator] = (
            Speculator(self, _config(speculate, SpeculatorConfig))
            if speculate
            else None
        )
        self.specializer: Optional[ShapeSpecializer] = (
            ShapeSpecializer(self, _config(specialize, SpecializerConfig))
            if specialize
            else None
        )
        self.disk_tier: Optional[DiskCacheTier] = (
            disk_cache
            if disk_cache is None or isinstance(disk_cache, DiskCacheTier)
            else DiskCacheTier(disk_cache)
        )
        self.slo_monitor = None
        self.diag = None
        if diag is not None and diag is not False:
            if isinstance(diag, DiagConfig):
                diag_config = diag
            elif diag is True:
                diag_config = DiagConfig()
            elif isinstance(diag, int):
                diag_config = DiagConfig(port=diag)
            else:
                raise CypressError(
                    "diag must be True, a port number, or a DiagConfig; "
                    f"got {diag!r}"
                )
            if diag_config.slos:
                self.slo_monitor = SloMonitor(
                    self, diag_config.slos, tick_s=diag_config.slo_tick_s
                )
            self.diag = DiagServer(self, diag_config)
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "RuntimeServer":
        """Spawn the worker pool, and the maintenance thread when the
        server has a background loop (idempotent)."""
        if self._closed:
            raise CypressError("RuntimeServer is closed")
        if self._started:
            return self
        self._started = True
        for index in range(self._workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-runtime-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        owned = (self.speculator, self.specializer, self.slo_monitor)
        loops = [loop for loop in owned if loop is not None]
        if loops:
            self._maintenance = threading.Thread(
                target=self._maintain,
                args=(loops,),
                name="repro-maintenance",
                daemon=True,
            )
            self._maintenance.start()
        if self.diag is not None:
            self.diag.start()
        return self

    def _maintain(
        self, loops: List[Any], clock=time.perf_counter, wait=None
    ) -> None:
        """The maintenance thread, until :meth:`close`: each loop's
        ``run_once`` runs once its ``interval_s`` has passed since its
        previous cycle ended (an ``idle_only`` loop skips it while
        requests are queued), and the thread sleeps until the earliest
        loop is due. A cycle that raises is counted in that loop's
        ``errors`` and the next one retries. ``clock`` and ``wait`` let
        a test drive the schedule without sleeping."""
        wait = wait or self._wake.wait
        due = [clock() + loop.interval_s for loop in loops]
        while not self._closed:
            for index, loop in enumerate(loops):
                if self._closed or clock() < due[index]:
                    continue
                try:
                    if not loop.idle_only or self.queue_depth == 0:
                        loop.run_once()
                except Exception:
                    loop.errors += 1
                due[index] = clock() + loop.interval_s
            wait(max(0.0, min(due) - clock()))

    def close(self, drain: bool = True) -> None:
        """Stop the server.

        ``drain=True`` serves everything already queued first;
        ``drain=False`` cancels queued requests (their handles report
        cancellation, and they are counted ``failed`` like every other
        request that ends without a result), which *fails* any in-flight
        ``submit_graph`` handle — nothing is left pending: a cancelled
        node fails its graph, and a node a worker already holds settles
        before that worker is joined, its successors' submit raising
        "server closed" (``_stopping`` is set under the queue lock).
        A request being served on the thread that admitted it is
        finished, not cancelled: ``close`` returns only once it has
        settled.
        Stops and joins the maintenance thread first (an in-flight
        promotion is abandoned cleanly).
        """
        if self._closed:
            return
        self._closed = True
        self._wake.set()
        if self._maintenance is not None:
            self._maintenance.join()
        # self.diag deliberately keeps serving (every endpoint answers
        # 503 once _closed is set) until diag.stop().
        abandoned: Iterable[_QueuedRequest] = ()
        with self._cv:
            self._stopping = True
            if not drain or not self._started:
                # Told not to drain, or never started: no worker will
                # serve what is queued.
                abandoned, self._queue = self._queue, deque()
            self._cv.notify_all()
        # Outside the lock: settling a request may re-enter the server
        # (a graph node's hook admits its successors).
        for request in abandoned:
            self._settle(
                request,
                error=CancelledError(
                    "RuntimeServer closed before the request was served"
                ),
            )
        for thread in self._threads:
            thread.join()
        with self._cv:
            self._cv.wait_for(lambda: not self._inline)
        if self.flight is not None:
            self.flight.note("close", {"drain": drain})
            self.flight.dump(reason="close")

    def __enter__(self) -> "RuntimeServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=True)

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def _coerce_shape(
        self, kernel: RegisteredKernel, shape: ShapeLike
    ) -> Dict[str, int]:
        # An exact dict skips the ABC check, the costlier test.
        if type(shape) is dict or isinstance(shape, Mapping):
            return dict(shape)
        values = tuple(shape)
        if len(values) != len(kernel.dims):
            raise CypressError(
                f"kernel {kernel.name!r} expects {len(kernel.dims)} "
                f"dimensions {kernel.dims}, got {len(values)}"
            )
        return dict(zip(kernel.dims, values))

    def submit(
        self,
        kernel: str,
        shape: ShapeLike,
        *,
        inputs: Optional[Mapping[str, np.ndarray]] = None,
        deadline: Optional[float] = None,
    ) -> RequestHandle:
        """Admit one request; returns its :class:`~repro.runtime.handle.
        RequestHandle`, which resolves to a :class:`RuntimeResult`.

        Unknown kernel names and malformed shapes raise immediately in
        the calling thread (the request never enters the queue), as
        does submitting to a closed server. The queue is FIFO.
        ``inputs`` (numpy arrays padded to the bucket shape)
        additionally run the kernel functionally and land in
        ``RuntimeResult.outputs``.

        A request no worker would add anything to is served on the
        calling thread, and its handle is done when ``submit`` returns:
        it carries no ``inputs``, the server is started and not
        stopping, nothing is queued, and its bucket's launch record
        holds its timing and names a kernel resident in the memory
        cache (:meth:`admit` decides). Everything else is enqueued for
        the workers; its handle can be cancelled until a worker claims
        it. An unexpected exception while serving fails the handle (the
        workers' crash handler); ``submit`` does not raise it.

        ``deadline`` is a relative time limit in seconds: a request still
        queued when it elapses fails fast with
        :class:`~repro.runtime.resilience.DeadlineExceeded` at dispatch
        instead of occupying a worker. When the server's
        :class:`~repro.runtime.resilience.ResilienceConfig` bounds the
        queue, an over-bound submit either raises (``"reject-new"``)
        or evicts the longest-queued request (``"drop-oldest"``).

        With a specializer attached, the request's exact shape is
        checked against the installed specializations first: a guard
        hit serves the tile-aligned specialized kernel (near-zero
        padding, bit-identical outputs) instead of the generic bucket.
        """
        if self._closed or self._stopping:
            # Fail loudly before any registry/shape work: a submit
            # racing close() would otherwise surface the same error
            # only at enqueue time.
            raise CypressError("server closed")
        registered = self.registry.get(kernel)
        shape_dict = self._coerce_shape(registered, shape)
        bucket = registered.bucket(shape_dict)
        exact = None
        entry = None
        specializer = self.specializer
        if specializer is not None:
            exact = registered.exact_bucket(shape_dict)
            entry = specializer.lookup(registered.name, exact)
            if entry is not None:
                bucket = entry.serving
                self.telemetry.count("specialized_hits")
                self.telemetry.count("padded_flops_saved", entry.flops_saved)
        request = self.prepare_request(
            registered, shape_dict, bucket, inputs=inputs
        )
        if specializer is not None:
            request.exact_bucket = exact
            request.specialized = entry is not None
        if deadline is not None:
            request.deadline = time.perf_counter() + deadline
        self.admit([request])
        return request

    def _ready(self, request: _QueuedRequest) -> Optional[Launch]:
        """The launch record of a timing-only request if it holds its
        timing, else ``None``. Whether its kernel is resident is the
        probe :meth:`admit` makes next. Read without a lock: a pin landing
        after the check serves this request from the record it found,
        as if it had been admitted just before."""
        if request.inputs is not None:
            return None
        launch = self._launches.get(request.batch_key)
        if launch is not None and launch.gpu is not None:
            return launch
        return None

    def _serve_inline(
        self, launch: Launch, kernel: Any, batch: List[_QueuedRequest]
    ) -> None:
        """Serve a micro-batch admitted to its admitting thread on that
        thread, from the ``launch`` record and resident ``kernel`` its
        probe found: the workers' ``_serve`` and crash handler, then
        the batch leaves the ``_inline`` count."""
        stages = (
            _Stages(self.tracer, "submitter") if self.tracer.enabled else None
        )
        try:
            self._serve(batch, stages, (launch, kernel))
        except Exception as error:
            self._worker_crash(batch, error)
        finally:
            with self._cv:
                self._inline -= len(batch)
                if self._stopping and not self._inline:
                    self._cv.notify_all()

    def prepare_request(
        self,
        registered: RegisteredKernel,
        shape: Dict[str, int],
        bucket: Bucket,
        *,
        inputs: Optional[Mapping[str, np.ndarray]] = None,
    ) -> _QueuedRequest:
        """Build a queue slot without admitting it.

        The graph scheduler resolves ``(registered, bucket)`` once per
        node at ``execute()`` time, so admitting a ready node later
        costs no registry lookup, shape coercion, or bucket rounding.
        The slot's submit timestamp is stamped by :meth:`admit`. A
        caller that must learn how the slot ends sets its
        ``on_settle``, which :meth:`_settle` calls last whichever way
        the request ends; no done-callback is attached to the slot.
        """
        return _QueuedRequest(registered, shape, bucket, inputs)

    def admit(self, requests: Sequence[_QueuedRequest]) -> None:
        """Admit prepared slots — one from ``submit``, a ready set from
        the graph scheduler — and serve here those no worker would add
        anything to: the one serve-here-or-queue decision.

        A timing-only request whose bucket is :meth:`_ready` is grouped
        with its same-bucket peers into micro-batches of up to
        ``max_batch``, and each micro-batch probes the memory cache once
        for its record's kernel (:meth:`CompileCache.resident`: a hit
        counts and moves the entry like any lookup's); every other
        request (data-carrying, of a bucket that needs a simulation, or
        whose kernel is not resident) is enqueued, in the given order.
        The micro-batches are served on the calling thread, from the
        kernel their probe found, only while the server is started and
        nothing is queued (read before probing, since a probe counts a
        hit, and checked again under the lock that enqueues; they are
        counted in ``_inline`` until :meth:`_serve_inline` settles
        them); otherwise they are enqueued too. The whole admission
        takes one lock acquisition, which gives each enqueued slot its
        lock and notifies one waiting worker per enqueued request.
        Enqueued requests are counted here; one served here is counted
        with its ending (:meth:`_settle`). While tracing, each request's
        ``trace_parent`` span (a graph node's) gets ``served_by``:
        ``"submitter"`` or ``"worker"``.

        Raises :class:`CypressError` (before touching the queue) when
        the server is closed, or when the bounded queue is full under
        the ``"reject-new"`` shed policy; under ``"drop-oldest"`` the
        longest-queued requests — the head of the queue — are evicted
        instead (their handles fail, counted as ``shed_requests`` — not
        as failures).
        """
        queued: Sequence[_QueuedRequest] = []
        # The micro-batches this thread would serve, each with the record
        # and kernel it is served from: up to ``max_batch`` requests per
        # launch record (by its id: one record per bucket, and an int
        # hashes cheaply).
        batches: List[Tuple[Launch, Any, List[_QueuedRequest]]] = []
        filling: Dict[int, List[_QueuedRequest]] = {}
        may_serve = self._started and not self._queue
        for request in requests:
            launch = self._ready(request) if may_serve else None
            if launch is not None:
                batch = filling.get(id(launch))
                if batch is None or len(batch) == self.max_batch:
                    kernel = compile_cache.resident(launch.key)
                    if kernel is None:
                        launch = None  # evicted: a worker recompiles it
                    else:
                        batch = filling[id(launch)] = []
                        batches.append((launch, kernel, batch))
            if launch is None:
                queued.append(request)
            else:
                batch.append(request)
        inline = len(requests) - len(queued)
        now = time.perf_counter()
        tracer = self.tracer
        if tracer.enabled:
            # Before enqueue: a worker may pop (and trace) the request
            # the instant the lock drops.
            for request in requests:
                request.span = tracer.begin(
                    "request",
                    "serve",
                    parent=request.trace_parent,
                    args={
                        "kernel": request.kernel.name,
                        "bucket": request.bucket.label(),
                    },
                    start_s=now,
                )
                if request.trace_parent is not None:
                    request.trace_parent.args["served_by"] = "worker"
        shed: List[_QueuedRequest] = []
        max_queue = self.resilience.max_queue
        with self._cv:
            # Checked under the lock: a request enqueued after close()
            # drained the queue would never resolve.
            if self._closed or self._stopping:
                raise CypressError("server closed")
            here = inline > 0 and self._started and not self._queue
            if not here:
                queued = requests
            if queued and max_queue is not None:
                overflow = len(self._queue) + len(queued) - max_queue
                if overflow > 0:
                    if self.resilience.shed_policy == SHED_REJECT_NEW:
                        # Before the submit is counted: a rejected request is
                        # never counted as admitted.
                        raise CypressError(
                            f"queue full ({max_queue} requests); "
                            "submit rejected (shed policy 'reject-new')"
                        )
                    # drop-oldest: evict the head of the queue to admit
                    # the new ones.
                    shed = [
                        self._queue.popleft()
                        for _ in range(min(overflow, len(self._queue)))
                    ]
            if here:
                self._inline += inline
            for request in requests:
                request.submitted_at = now
            if queued:
                for request in queued:
                    # Shared from here on: a worker may claim it while
                    # its holder cancels or waits on it.
                    request.lock = threading.Lock()
                self._queue.extend(queued)
                self._cv.notify(len(queued))
        if shed:
            # Outside the lock: settling a shed request may re-enter
            # the server. Every victim was admitted
            # (counted submitted) and will never complete or fail:
            # settling it as shed keeps shed + completed + failed
            # accounting for every admitted request.
            error = CypressError(
                f"request shed: queue full ({max_queue} requests), "
                "policy 'drop-oldest'"
            )
            for victim in shed:
                self._settle(victim, error=error, counter="shed_requests")
        if queued:
            self.telemetry.count("requests", len(queued))
        if self.speculator is not None:
            self.speculator.record_traffic(r.batch_key for r in requests)
        if self.specializer is not None:
            # Graph-prepared slots skipped submit()'s guard.
            self.specializer.record_traffic(
                (request.kernel.name, request.exact_bucket
                 or request.kernel.exact_bucket(request.shape))
                for request in requests
            )
        if not here:
            return
        for launch, kernel, batch in batches:
            if tracer.enabled:
                for request in batch:
                    if request.trace_parent is not None:
                        request.trace_parent.args["served_by"] = "submitter"
            self._serve_inline(launch, kernel, batch)

    def submit_graph(
        self,
        graph,
        *,
        inputs: Optional[Mapping[str, np.ndarray]] = None,
    ):
        """Execute a :class:`~repro.graph.TaskGraph` on this server.

        Every node goes through the ordinary admission path — shape
        bucketing, :meth:`admit`, the FIFO queue, micro-batching with
        any other traffic — but is only admitted once its inferred
        dependences resolve; each ready set is admitted in uid order
        and runs concurrently across the worker pool. A ready node that
        ``submit`` would serve on its calling thread (timing-only, its
        bucket warm, nothing queued) is served by the thread that
        readied it instead, in one micro-batch with its same-bucket
        peers — so a warm graph may be done when this returns.
        Per-graph counters land in :meth:`stats` (``graphs``,
        ``graph_nodes``, makespan percentiles).

        Args:
            graph: a dependence-inferred DAG from
                :meth:`repro.graph.GraphBuilder.build`.
            inputs: optional root arrays (name -> array) to flow
                through the graph; requires bucket-aligned node shapes.

        Returns:
            A :class:`~repro.graph.GraphExecution`; its ``future`` (a
            :class:`~repro.runtime.handle.RequestHandle`) resolves to a
            :class:`~repro.graph.GraphResult` with
            per-node results, the makespan, and (with ``inputs``) the
            final root arrays.
        """
        from repro.graph.scheduler import GraphScheduler

        return GraphScheduler(self).execute(graph, inputs=inputs)

    # ------------------------------------------------------------------
    # Warm-up
    # ------------------------------------------------------------------
    def warm(
        self,
        kernel: str,
        buckets: Iterable[ShapeLike],
        *,
        tune: bool = False,
        space: Optional[MappingSearchSpace] = None,
    ) -> Dict[str, str]:
        """Precompile (and optionally autotune) the given buckets.

        Each shape in ``buckets`` is rounded by the kernel's bucket
        policy and compiled ahead of traffic, populating both cache
        tiers, and its timing is simulated onto the bucket's launch
        record. With ``tune=True`` the kernel's mapping search space (or
        ``space``) is swept with :func:`repro.tuner.autotune` first and
        the winning mapping parameters are pinned for that bucket — all
        subsequent requests in the bucket are served by the tuned
        kernel.

        Tuned warm-up uses the two-stage search: the analytic cost
        model ranks the whole space and only the four best-ranked
        survivors (:data:`WARM_TOP_K`) are compiled and simulated, so
        warming N buckets costs N compiles of the winners plus three
        extras each instead of N full sweeps.

        Warm-up is **idempotent** per (kernel, bucket): a bucket this
        server already warmed is skipped outright — no recompile, no
        re-tune, zero passes executed — unless ``tune=True`` and the
        bucket has no pinned mapping yet (warming untuned then tuned
        still tunes).

        Args:
            kernel: registered kernel name.
            buckets: request shapes; each is rounded to its bucket.
            tune: sweep the mapping space and pin the winner per bucket.
            space: override the kernel's registered search space.

        Returns:
            ``{bucket label: compiled kernel name}``.

        Raises:
            CypressError: unknown kernel, malformed shape, or
                ``tune=True`` without any search space; also when no
                candidate in the space is feasible.
        """
        registered = self.registry.get(kernel)
        warmed: Dict[str, str] = {}
        for shape in buckets:
            bucket = registered.bucket(
                self._coerce_shape(registered, shape)
            )
            launch = self._launches.get((registered.name, bucket))
            if tune and (launch is None or launch.params is None):
                launch = self._tune_bucket(registered, bucket, space)
            else:
                launch = self._launch(registered, bucket)
            if launch.warmed is None:
                kernel = self._fetch(launch)[0]
                launch.warmed = kernel.name
                self._timing(launch, kernel)
            warmed[bucket.label()] = launch.warmed
        return warmed

    def _tune_bucket(
        self,
        registered: RegisteredKernel,
        bucket: Bucket,
        space: Optional[MappingSearchSpace],
    ) -> Launch:
        space = space or registered.search_space
        if space is None:
            raise CypressError(
                f"kernel {registered.name!r} has no mapping search space; "
                "register one or pass space= to warm(tune=True)"
            )
        report = autotune(
            registered.candidate_builder(bucket), self.machine, space,
            top_k=WARM_TOP_K,
        )
        best = report.best  # raises CypressError if nothing was feasible
        return self._launch(
            registered, bucket, pin=registered.tuned_params(best.candidate)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _launch(
        self,
        registered: RegisteredKernel,
        bucket: Bucket,
        pin: Optional[Dict[str, Any]] = None,
    ) -> Launch:
        """The record ``bucket``'s requests are served from — the one
        place the server builds and hashes a launch. Made on first use
        and replaced whole when ``pin`` gives the bucket tuned
        parameters. A warm request reads it without the lock; every
        write is under it, so racing first uses leave one record and
        never overwrite a pin."""
        memo_key = (registered.name, bucket)
        launch = self._launches.get(memo_key)
        if pin is None and launch is not None:
            return launch
        with self._launch_lock:
            launch = self._launches.get(memo_key)
            if pin is None and launch is not None:
                return launch
            launch = self._launches[memo_key] = Launch(
                pin, registered.build(self.machine, bucket, pin)
            )
            return launch

    def _forget(self, kernel: str, bucket: Bucket) -> None:
        """Drop a deoptimized bucket's record, unless it pins tuned
        parameters (those outlive the traffic)."""
        with self._launch_lock:
            launch = self._launches.get((kernel, bucket))
            if launch is not None and launch.params is None:
                del self._launches[(kernel, bucket)]

    def _timing(self, launch: Launch, kernel: Any) -> GpuResult:
        """``launch``'s simulated timing, simulating ``kernel`` only if
        the record has none yet: the timing is a pure function of the
        record's key and this server's machine. Racing first batches
        may both simulate; they store equal results."""
        if launch.gpu is None:
            launch.gpu = api.simulate(kernel, self.machine)
        return launch.gpu

    def _fetch(self, launch: Launch, compute=None) -> Tuple[Any, str]:
        """The server's one kernel-acquisition path: ``(kernel, tier)``.

        The record's key is looked up — on every request: recency, the
        tier label, in-flight dedup and recompiling an evicted kernel
        are the lookup's — in the process-wide compile cache with this
        server's own disk tier; ``tier`` is the branch that answered. A
        memory hit skips the lookup's write-through (the kernel may
        predate this server), so it is persisted here when the disk
        lacks it: a restart warms from disk whatever this server used.

        ``compute`` replaces the record's own when both tiers miss:
        ``_serve`` passes it through the server's ``compile`` fault site
        when it has a plan, while ``warm`` and the background loops stay
        outside that stream.
        """
        key = launch.key
        kernel, tier = compile_cache.lookup(
            key, compute or launch.compute, tier=self.disk_tier
        )
        if tier == TIER_MEMORY:
            self._persist(key, kernel)
        return kernel, tier

    def _persist(self, key: str, kernel: Any) -> None:
        """Write a kernel served from the memory cache through to this
        server's disk tier when the disk lacks it (a memory hit skips
        the lookup's write-through, and the kernel may predate this
        server)."""
        disk = self.disk_tier
        if disk is not None and not disk.contains(key):
            disk.store(key, kernel)

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._stopping:
                    self._cv.wait()
                if not self._queue:
                    return
                request = self._queue.popleft()
                stages = _Stages(self.tracer) if self.tracer.enabled else None
                batch = [request]
                if self.max_batch > 1 and self._queue:
                    same = [
                        other
                        for other in self._queue
                        if other.batch_key == request.batch_key
                    ][: self.max_batch - 1]
                    if same:
                        taken = set(map(id, same))
                        self._queue = deque(
                            r for r in self._queue if id(r) not in taken
                        )
                        batch.extend(same)
            try:
                self._serve(batch, stages)
            except Exception as error:  # pragma: no cover - crash path
                # _serve settles per-request errors itself; an
                # exception escaping it (telemetry, tracing, handle
                # plumbing) would otherwise kill this worker silently.
                # Fail whatever is unsettled and leave a black box.
                self._worker_crash(batch, error)

    def _worker_crash(
        self, batch: List[_QueuedRequest], error: Exception
    ) -> None:
        """Fail a batch's unsettled requests after an unexpected
        exception escaped ``_serve`` — on a worker or on the submitting
        thread — and dump the flight recorder."""
        failed = sum(self._settle(request, error=error) for request in batch)
        if self.flight is not None:
            self.flight.note(
                "worker-exception",
                {
                    "error": repr(error),
                    "kernel": batch[0].kernel.name,
                    "bucket": batch[0].bucket.label(),
                    "requests_failed": failed,
                },
            )
            try:
                self.flight.dump(reason="worker-exception")
            except OSError as dump_error:
                # Still inside the worker's handler: a dump that cannot
                # be written must not end the worker too.
                self.flight.note("dump-failed", {"error": repr(dump_error)})

    def _settle(
        self,
        request: _QueuedRequest,
        result: Optional[RuntimeResult] = None,
        *,
        error: Optional[BaseException] = None,
        counter: str = "failed",
        batch: int = 0,
    ) -> bool:
        """End ``request`` — the one terminal of the request path.

        However a request leaves — served (``result``), failed, past
        its deadline, shed (``counter="shed_requests"``), caught in a
        worker crash, or cancelled (a ``CancelledError``: by ``close``,
        or by its holder while it queued) — only this code records its
        ending, closes its ``request`` span and resolves its handle, so
        ``completed + failed + shed_requests == requests`` is a
        property of this one function. The ending is one telemetry
        update, which also counts a request served on its admitting
        thread as admitted (``admit`` left that to here) and, when
        ``batch`` is its micro-batch's size, that batch. Last, it hands
        the outcome to the slot's ``on_settle`` hook, the one way a
        graph node settles. Returns whether this call settled it (only
        the crash handler re-offers settled requests).
        """
        if request.stage == _SETTLED:
            return False
        # Only a slot enqueued (and so counted) by ``admit`` has a lock.
        admitted = request.lock is None
        span = request.span
        if error is None:
            self.telemetry.record_ending(
                "completed", result, admitted=admitted, batch=batch
            )
            if span is not None:
                served = {"tier": result.tier, "batch_size": result.batch_size}
                self.tracer.end(span, args=served)
        else:
            self.telemetry.record_ending(
                counter, admitted=admitted, batch=batch
            )
            if span is not None:
                self.tracer.end(span, args={"error": repr(error)})
        request._resolve(result, error)
        if request.on_settle is not None:
            request.on_settle(result if error is None else error)
        return True

    def _dispatch(self, batch: List[_QueuedRequest]) -> List[_QueuedRequest]:
        """Claim a popped batch's slots and fail the requests already
        past their deadline fast — no compile, no simulate, no worker
        time beyond this bookkeeping. Returns the live rest."""
        now = None  # the clock is read only if a request has a deadline
        live = []
        for request in batch:
            if not request._claim():
                # Its holder cancelled it while it queued.
                self._settle(request, error=request._error)
                continue
            if request.deadline is not None:
                if now is None:
                    now = time.perf_counter()
                if now >= request.deadline:
                    self.telemetry.count("timeouts")
                    self._settle(
                        request,
                        error=DeadlineExceeded(
                            f"request for {request.kernel.name!r} missed "
                            "its deadline while queued"
                        ),
                    )
                    continue
            live.append(request)
        return live

    def _serve(
        self,
        batch: List[_QueuedRequest],
        stages: Optional[_Stages],
        found: Optional[Tuple[Launch, Any]] = None,
    ) -> None:
        """One micro-batch through dispatch, obtain, execute and
        resolve; ``stages`` (``None`` while untraced) marks each
        boundary as it is crossed.

        A worker's batch (``found`` is ``None``) reads its launch record
        and fetches its kernel here, and is counted as it starts. A
        batch its admitting thread serves brings the ``(launch record,
        resident kernel)`` that ``admit``'s probe found, and is counted
        with its head's ending, in that request's one telemetry update.
        """
        live = self._dispatch(batch)
        if not live:
            return
        if stages is not None:
            stages.enter("batch")
        head = live[0]
        inline_size = 0
        if found is None:
            self.telemetry.record_batch(len(live))
        else:
            inline_size = len(live)
        name = head.kernel.name
        if self.speculator is not None:
            self.speculator.note_request(name, head.bucket)
        try:
            if stages is not None:
                stages.enter("compile")
            timing = self._timing
            if found is None:
                launch = self._launch(head.kernel, head.bucket)
                compute = launch.compute
                if self.faults is not None:
                    # The compile site wraps only the compile a lookup
                    # that missed both tiers runs, so a warm request
                    # never reaches it.
                    compute = self.faults.wrap("compile", name, compute)
                kernel, tier = self._fetch(launch, compute)
            else:
                (launch, kernel), tier = found, TIER_MEMORY
                self._persist(launch.key, kernel)
            if self.faults is not None:
                timing = self.faults.wrap("worker.execute", name, timing)
            if stages is not None:
                stages.enter("execute")
            gpu = timing(launch, kernel)
        except Exception as error:
            for request in live:
                self._settle(
                    request, error=error,
                    batch=inline_size if request is head else 0,
                )
            return
        if stages is not None:
            stages.served(live, kernel, tier)
        params = launch.params
        for request in live:
            try:
                outputs = None
                if request.inputs is not None:
                    arrays = dict(request.inputs)
                    if request.specialized:
                        # Callers pad inputs to the *generic* bucket;
                        # the specialized kernel is smaller. Crop the
                        # zero-padding off (bit-identical results).
                        arrays = fit_inputs(kernel, arrays)
                    outputs = api.run_functional(kernel, arrays)
                done_at = time.perf_counter()
                result = RuntimeResult(
                    kernel=request.kernel.name,
                    build_name=kernel.name,
                    requested_shape=dict(request.shape),
                    bucket=request.bucket,
                    tier=tier,
                    batch_size=len(live),
                    gpu=gpu,
                    latency_s=done_at - request.submitted_at,
                    outputs=outputs,
                    params=dict(params) if params else None,
                )
            except Exception as error:
                self._settle(
                    request, error=error,
                    batch=inline_size if request is head else 0,
                )
                continue
            if stages is not None:
                stages.resolved(request, done_at)
            self._settle(
                request, result, batch=inline_size if request is head else 0
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> RuntimeStats:
        """A frozen telemetry snapshot (latency percentiles, tier hit
        rates, queue depth, per-kernel throughput, tracing volume)."""
        with self._cv:
            depth = len(self._queue)
        monitor = self.slo_monitor
        return self.telemetry.snapshot(
            queue_depth=depth,
            trace_enabled=self.tracer.enabled,
            trace_spans=self.tracer.span_count,
            flight_records=(
                self.flight.recorded if self.flight is not None else 0
            ),
            slo_alerts=(
                monitor.alert_states() if monitor is not None else None
            ),
            slo_burn_rates=(
                monitor.slow_burn_rates() if monitor is not None else None
            ),
        )

    def metrics(self, registry=None):
        """Publish this server's full state into a
        :class:`~repro.obs.metrics.MetricsRegistry` (every runtime,
        compile-cache, disk, graph, and speculation counter) and return
        it; ``registry.render()`` is the Prometheus exposition a
        ``/metrics`` endpoint serves. Pass an existing registry to
        refresh it in place."""
        from repro.obs.metrics import server_metrics

        return server_metrics(self, registry)

    def export_trace(self, path) -> str:
        """Export the tracer's buffered spans as Chrome-trace JSON
        (loadable in ``chrome://tracing`` / Perfetto); returns the
        path written.

        Raises:
            CypressError: tracing is disabled on this server.
        """
        if not self.tracer.enabled:
            raise CypressError(
                "tracing is disabled; construct the server with "
                "trace=True to record spans"
            )
        return self.tracer.export_chrome_trace(path)

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting in the queue."""
        with self._cv:
            return len(self._queue)

    @property
    def started(self) -> bool:
        """Whether the worker pool has been spawned."""
        return self._started

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (or is running)."""
        return self._closed

    @property
    def warmed(self) -> bool:
        """Readiness signal: a bucket has been warmed or a request
        has completed — the server has proven it can serve."""
        if self.telemetry.completed_count > 0:
            return True
        return any(launch.warmed for launch in list(self._launches.values()))
