"""Continuous sampling profiler with serving-phase attribution.

``cProfile`` is useless in a serving process: tracing every call on
the hot path costs far more than the 1.5x observability cap allows,
and it cannot run "always on" in production. This module takes the
standard production alternative — a *sampling* profiler. A background
thread wakes ``hz`` times per second, snapshots every thread's current
frame via :func:`sys._current_frames`, and attributes each sample to
the serving **phase** the thread is in: ``queue`` (submit-side
enqueue), ``dispatch`` (batch assembly), ``compile`` /
``pass.<name>`` (pipeline work, per compiler pass), ``execute``
(simulation + functional replay), ``graph.node`` (graph-scheduler
wave preparation), or ``idle`` (a registered worker waiting for
work). Phase attribution rides on a per-thread stack of markers
(:class:`PhaseTracker`) that the server pushes around its hot
sections. Each server owns one tracker (``server.phases``) and a
profiler reads only its own server's, so one server's load never
shows up in another's profile. The same single-boolean gating
discipline as :data:`~repro.obs.trace.NULL_TRACER` applies: while no
profiler runs, ``enabled`` is ``False`` and every instrumentation site
is one attribute load and a branch.

The compiler marks nothing. A sample whose stack passes through the
``run`` method of a pass in :data:`~repro.compiler.passes.
PASS_REGISTRY` is attributed to ``pass.<name>``, which the profiler
reads off the sampled frames themselves.

Beyond phase counts the profiler keeps bounded per-``(kernel,
bucket)`` sample counts (which shapes burn the CPU) and bounded
collapsed stack lines (``phase;outer;...;inner count``) directly
renderable as a flamegraph. :meth:`ContinuousProfiler.report` returns
the aggregate; :meth:`ContinuousProfiler.export_collapsed` writes the
flamegraph input.

The sampler itself is a :class:`~repro.background.BackgroundLoop`
subclass, so a sampling cycle that raises is dropped and counted in
``errors`` rather than taking serving down. Unlike the speculator and
specializer it sets ``idle_only = False``: sampling only while the
queue is empty would be a profiler that never sees load.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from dataclasses import dataclass
from types import CodeType
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.background import BackgroundLoop
from repro.compiler.passes import PASS_REGISTRY
from repro.errors import CypressError

if TYPE_CHECKING:  # pragma: no cover - import cycle: server owns us
    from repro.runtime.server import RuntimeServer


class PhaseTracker:
    """Per-thread stacks of one server's serving-phase markers.

    The server's hot sections run inside ``with server.phases.phase(
    name)``, which pushes and pops a marker **only when ``enabled`` is
    true** — with no profiler running it hands back one shared no-op,
    so the instrumentation is an attribute load and a branch. The
    server's profiler sets ``enabled`` and calls :meth:`snapshot` to
    read the top-of-stack phase of every instrumented thread.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[Tuple[str, Optional[str]]]] = {}

    def push(self, phase: str, detail: Optional[str] = None) -> None:
        """Enter ``phase`` on the calling thread."""
        tid = threading.get_ident()
        with self._lock:
            self._stacks.setdefault(tid, []).append((phase, detail))

    def pop(self) -> None:
        """Leave the calling thread's innermost phase."""
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.get(tid)
            if stack:
                stack.pop()
            if not stack:
                self._stacks.pop(tid, None)

    def phase(self, name: str, detail: Optional[str] = None):
        """Context manager: the calling thread is in phase ``name``
        for the body. Whether to mark is decided once, on entry, so a
        profiler starting or stopping mid-body leaves no stray marker."""
        return self._marked(name, detail) if self.enabled else _NO_PHASE

    @contextlib.contextmanager
    def _marked(self, name: str, detail: Optional[str]):
        self.push(name, detail)
        try:
            yield
        finally:
            self.pop()

    def current(self) -> Optional[Tuple[str, Optional[str]]]:
        """The calling thread's innermost ``(phase, detail)``, if any."""
        with self._lock:
            stack = self._stacks.get(threading.get_ident())
            return stack[-1] if stack else None

    def snapshot(self) -> Dict[int, Tuple[str, Optional[str]]]:
        """Top-of-stack ``(phase, detail)`` per instrumented thread."""
        with self._lock:
            return {
                tid: stack[-1]
                for tid, stack in self._stacks.items()
                if stack
            }


#: What :meth:`PhaseTracker.phase` hands back while no profiler runs.
_NO_PHASE = contextlib.nullcontext()


#: Innermost frames kept per collapsed stack, the bound on distinct
#: ``kernel:bucket`` sample keys, and the collapsed lines included in
#: :meth:`ContinuousProfiler.report`.
MAX_DEPTH = 24
MAX_KERNELS = 256
TOP_STACKS = 20


@dataclass(frozen=True)
class ProfilerConfig:
    """Knobs of the continuous sampling profiler.

    Attributes:
        hz: sampling frequency; the sampler wakes ``1/hz`` seconds
            apart. 100 Hz costs well under the repo's 1.5x
            observability cap (``tests/test_ops.py`` gates 200 Hz).
        max_stacks: bound on distinct collapsed stack lines kept;
            samples beyond the bound still count toward phase totals
            and are tallied in ``stacks_truncated``.
    """

    hz: float = 100.0
    max_stacks: int = 512

    def __post_init__(self) -> None:
        if self.hz <= 0:
            raise CypressError(f"hz must be > 0, got {self.hz}")
        if self.max_stacks < 1:
            raise CypressError(
                f"max_stacks must be >= 1, got {self.max_stacks}"
            )


def _stack_codes(frame) -> List[CodeType]:
    """The code objects of ``frame`` and its callers, innermost first."""
    codes = []
    while frame is not None:
        # Seen once (CPython 3.11, tier-1): a sampled thread's chain
        # yielded an object with no ``f_code``; the walk ends there.
        code = getattr(frame, "f_code", None)
        if code is None:
            break
        codes.append(code)
        frame = frame.f_back
    return codes


class ContinuousProfiler(BackgroundLoop):
    """Always-on sampling profiler for a running server.

    One :meth:`run_once` cycle takes a single
    :func:`sys._current_frames` snapshot and attributes each sampled
    thread: a thread inside one of its server's phase markers is
    counted under that phase (``pass.<name>`` instead when its stack
    is inside a registered pass's ``run``), and under the marker's
    ``kernel:bucket`` detail when present; one of the server's workers
    with an empty marker stack is ``idle``; every other thread (the
    main thread, test runners, the sampler itself, another server's
    workers) is skipped so it cannot dilute attribution.

    Tests drive :meth:`run_once` synchronously after :meth:`enable`;
    production uses :meth:`start`, which enables instrumentation and
    spawns the sampling thread.
    """

    thread_name = "repro-profiler"
    idle_only = False

    def __init__(
        self,
        server: "RuntimeServer",
        config: Optional[ProfilerConfig] = None,
    ) -> None:
        self.config = config or ProfilerConfig()
        super().__init__(server, interval_s=1.0 / self.config.hz)
        self._data_lock = threading.Lock()
        self._enabled = False
        self.samples = 0
        self.stacks_truncated = 0
        self._phase_counts: Dict[str, int] = {}
        self._kernel_counts: Dict[str, int] = {}
        self._stack_counts: Dict[str, int] = {}

    def enable(self) -> None:
        """Arm phase instrumentation without spawning the thread."""
        self._enabled = self.server.phases.enabled = True

    def disable(self) -> None:
        """Disarm phase instrumentation (idempotent)."""
        self._enabled = self.server.phases.enabled = False

    def start(self) -> None:
        """Arm instrumentation and spawn the sampling thread."""
        self.enable()
        super().start()

    def stop(self) -> None:
        """Join the sampling thread and disarm instrumentation."""
        super().stop()
        self.disable()

    def run_once(self) -> int:
        """Take one sample of every serving thread; returns threads seen."""
        snapshot = self.server.phases.snapshot()
        worker_ids = self._worker_idents()
        passes = {
            cls.run.__code__: f"pass.{name}"
            for name, cls in PASS_REGISTRY.items()
        }
        skip = threading.get_ident()
        frames = sys._current_frames()
        counted = 0
        with self._data_lock:
            for tid, frame in frames.items():
                if tid == skip:
                    continue
                marked = snapshot.get(tid)
                if marked is not None:
                    phase, detail = marked
                elif tid in worker_ids:
                    phase, detail = "idle", None
                else:
                    continue  # unrelated thread; do not dilute
                codes = _stack_codes(frame)
                phase = next(
                    (passes[c] for c in codes if c in passes), phase
                )
                counted += 1
                self.samples += 1
                self._bump(self._phase_counts, phase, None)
                if detail is not None:
                    self._bump(self._kernel_counts, detail, MAX_KERNELS)
                self._record_stack(phase, codes)
        del frames  # frames hold live thread state; drop promptly
        return counted

    def _worker_idents(self) -> frozenset:
        threads = getattr(self.server, "_threads", ())
        return frozenset(
            t.ident for t in threads if t.ident is not None
        )

    @staticmethod
    def _bump(
        counts: Dict[str, int], key: str, bound: Optional[int]
    ) -> bool:
        if key not in counts and bound is not None and len(counts) >= bound:
            return False
        counts[key] = counts.get(key, 0) + 1
        return True

    def _record_stack(self, phase: str, codes: List[CodeType]) -> None:
        names = [
            getattr(code, "co_qualname", code.co_name)
            for code in reversed(codes[:MAX_DEPTH])
        ]
        line = ";".join([phase] + names) if names else phase
        if not self._bump(self._stack_counts, line, self.config.max_stacks):
            self.stacks_truncated += 1

    def report(self) -> Dict[str, object]:
        """Aggregate profile: phases, kernels, top stacks, health."""
        with self._data_lock:
            phases = dict(self._phase_counts)
            kernels = dict(self._kernel_counts)
            top = sorted(
                self._stack_counts.items(), key=lambda kv: (-kv[1], kv[0])
            )[:TOP_STACKS]
            samples = self.samples
            truncated = self.stacks_truncated
        idle = phases.get("idle", 0)
        non_idle = samples - idle
        return {
            "hz": self.config.hz,
            "enabled": self._enabled,
            "running": self.running,
            "samples": samples,
            "phases": phases,
            "non_idle_ratio": (non_idle / samples) if samples else 0.0,
            "kernels": kernels,
            "top_stacks": [
                {"stack": line, "count": count} for line, count in top
            ],
            "stacks_truncated": truncated,
            "errors": self.errors,
        }

    def export_collapsed(self, path=None) -> str:
        """Collapsed-stack flamegraph lines; optionally written to ``path``."""
        with self._data_lock:
            items = sorted(
                self._stack_counts.items(), key=lambda kv: (-kv[1], kv[0])
            )
        text = "\n".join(f"{line} {count}" for line, count in items)
        if text:
            text += "\n"
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text
