"""High-level public API.

Compilation flows through the pass-manager pipeline
(:mod:`repro.compiler.passes`) behind a content-keyed compile cache:
recompiling an identical kernel instantiation returns the cached
:class:`CompiledKernel` without executing any pass. Every compile entry
point takes its configuration one way, as ``options=``
(:class:`~repro.compiler.passes.CompileOptions`). ``compile_many``
batch-compiles builds on a thread pool, and the mapping autotuner in
:mod:`repro.tuner` sits on top of both.

Typical use::

    from repro import api
    from repro.machine import hopper_machine
    from repro.kernels import build_gemm

    machine = hopper_machine()
    build = build_gemm(machine, 4096, 4096, 4096)
    kernel = api.compile_kernel(build)
    out = api.run_functional(kernel, {"C": C, "A": A, "B": B})
    result = api.simulate(kernel, machine)
    print(result.summary())
    print(kernel.pass_trace.records)  # where compile time went, per pass

Batch + tuning::

    kernels = api.compile_many([build_gemm(machine, 4096, 4096, 4096,
                                           pipeline=d) for d in (1, 2, 3)])
    from repro.tuner import MappingSearchSpace, autotune
    report = autotune(build_gemm_at, machine, MappingSearchSpace())

Serving (the long-lived layer over all of the above)::

    with api.serve(machine, disk_cache=".repro-cache") as server:
        server.warm("gemm", [dict(m=4096, n=4096, k=4096)], tune=True)
        handle = server.submit("gemm", dict(m=4000, n=4000, k=4000))
        print(handle.result().gpu.summary())
        print(server.stats().table())

Task graphs (multi-kernel programs with inferred dependences)::

    from repro.graph import GraphBuilder
    gb = GraphBuilder(machine)
    ...  # declare tensors, record launches (see docs/graphs.md)
    graph = gb.build()
    kernels = api.compile_graph(graph)       # zero passes on recompile
    outputs = api.run_graph(graph, {"X": X})  # functional, topo order
    with api.serve(machine) as server:
        result = server.submit_graph(graph).result()
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Union

import numpy as np

from repro.compiler.cache import CacheStats, compile_cache
from repro.compiler.passes import CompileOptions
from repro.compiler.pipeline import (
    CompiledKernel,
    build_options,
    compile_program,
)
from repro.errors import CypressError
from repro.gpusim.functional import interpret_function
from repro.gpusim.gpu import GpuResult, simulate_kernel
from repro.kernels.common import KernelBuild, kernel_registry
from repro.machine.machine import MachineModel

if TYPE_CHECKING:  # pragma: no cover - import cycle: runtime uses api
    from repro.runtime import RuntimeServer


class Stage(str, enum.Enum):
    """Which IR of a :class:`CompiledKernel` to interpret.

    ``FINAL`` is the IR after all passes; ``DEPENDENCE`` is the IR
    straight out of dependence analysis. Agreement between the two on
    the same inputs is the compiler's semantics-preservation check.
    """

    FINAL = "final"
    DEPENDENCE = "dependence"


def _coerce_stage(stage: Union[Stage, str]) -> Stage:
    if isinstance(stage, Stage):
        return stage
    try:
        return Stage(stage)
    except ValueError:
        valid = ", ".join(repr(s.value) for s in Stage)
        raise CypressError(
            f"unknown stage {stage!r}; valid stages: {valid}"
        ) from None


def compile_kernel(
    build: KernelBuild,
    options: Optional[CompileOptions] = None,
) -> CompiledKernel:
    """Compile a kernel build produced by ``repro.kernels.build_*``.

    ``options`` configures the copy mechanism, scalar arguments,
    verification, caching, and the pass list (see
    :class:`~repro.compiler.passes.CompileOptions`). The build's own
    ``scalar_args`` fill in only where ``options.scalar_args`` is
    ``None`` (:func:`~repro.compiler.pipeline.build_options`).
    """
    return compile_program(
        build.spec,
        build.name,
        build.arg_shapes,
        build.arg_dtypes,
        total_flops=build.total_flops,
        unique_dram_bytes=build.unique_dram_bytes,
        options=build_options(build, options),
    )


@dataclass
class CompileFailure:
    """One failed build in a ``compile_many`` batch: name + exception."""

    name: str
    error: CypressError

    def __str__(self) -> str:
        return f"{self.name}: {self.error}"


def compile_many(
    builds: Iterable[KernelBuild],
    *,
    options: Optional[CompileOptions] = None,
    raise_on_error: bool = True,
) -> List[Union[CompiledKernel, CompileFailure]]:
    """Batch-compile builds on a thread pool, preserving input order.

    The threads share the compile cache, so duplicate builds compile
    once.

    Args:
        builds: the kernel builds to compile.
        options: as in :func:`compile_kernel`, applied to all.
        raise_on_error: with the default ``True``, the first
            :class:`CypressError` aborts the whole batch. With
            ``False``, a failing build yields a :class:`CompileFailure`
            (build name + exception) in its slot and the rest of the
            batch still compiles — the autotuner relies on this to keep
            sweeping past infeasible mappings.
    """

    def one(build: KernelBuild) -> Union[CompiledKernel, CompileFailure]:
        try:
            return compile_kernel(build, options)
        except CypressError as error:
            if raise_on_error:
                raise
            return CompileFailure(name=build.name, error=error)

    with ThreadPoolExecutor() as pool:
        return list(pool.map(one, builds))


def run_functional(
    kernel: CompiledKernel,
    inputs: Mapping[str, np.ndarray],
    stage: Union[Stage, str] = Stage.FINAL,
) -> Dict[str, np.ndarray]:
    """Execute a compiled kernel on numpy data.

    Args:
        kernel: the compiled kernel to interpret.
        inputs: one numpy array per entrypoint tensor parameter,
            keyed by parameter name.
        stage: which IR to interpret — a :class:`Stage` (the string
            forms ``"final"`` and ``"dependence"`` remain accepted for
            backward compatibility).

    Returns:
        ``{parameter name: array}`` for every entrypoint tensor
        parameter — read-only operands come back as the (dtype-cast)
        copies the interpreter ran on, written ones hold the results.

    Raises:
        CypressError: unknown ``stage``.
    """
    stage = _coerce_stage(stage)
    fn = kernel.final_ir if stage is Stage.FINAL else kernel.dependence_ir
    return interpret_function(fn, kernel_registry, inputs)


def compile_graph(
    graph,
    *,
    options: Optional[CompileOptions] = None,
) -> Dict[int, CompiledKernel]:
    """Compile every node of a :class:`~repro.graph.TaskGraph`.

    Each node's exact-shape build goes through the process-wide
    content-keyed compile cache, so recompiling an unchanged graph
    executes zero passes — and distinct nodes sharing one kernel
    instantiation (the three Q/K/V projections of a transformer block)
    compile once.

    Args:
        graph: a dependence-inferred DAG from
            :meth:`repro.graph.GraphBuilder.build`.
        options: compile options applied to every node.

    Returns:
        ``{node uid: CompiledKernel}`` for every node.
    """
    return {
        node.uid: compile_kernel(node.build, options=options)
        for node in graph.nodes
    }


def run_graph(
    graph,
    inputs: Optional[Mapping[str, np.ndarray]] = None,
    *,
    options: Optional[CompileOptions] = None,
) -> Dict[str, np.ndarray]:
    """Execute a task graph functionally on numpy data.

    Nodes run in the graph's deterministic topological order at their
    exact captured shapes (no bucket padding): each node gathers its
    arguments from the shared root arrays through its bound references,
    interprets the compiled kernel, and scatters written results back —
    so producer outputs flow into consumer inputs exactly as the
    inferred dependences promise. This is the correctness oracle for
    :meth:`repro.runtime.RuntimeServer.submit_graph`.

    Args:
        graph: a dependence-inferred DAG from
            :meth:`repro.graph.GraphBuilder.build`.
        inputs: name -> array for any subset of the root (non-view)
            tensors; omitted roots start at zero.
        options: compile options applied to every node.

    Returns:
        ``{root tensor name: final array}`` for every root tensor.

    Raises:
        CypressError: unknown input names or shape mismatches.
    """
    from repro.graph.scheduler import materialize_root_arrays

    kernels = compile_graph(graph, options=options)
    arrays = materialize_root_arrays(graph, inputs)
    for uid in graph.topological_order():
        node = graph.node(uid)
        node_inputs = {
            param: ref.read(arrays[ref.root.uid])
            for param, ref in node.refs.items()
        }
        outputs = run_functional(kernels[uid], node_inputs)
        for param, value in outputs.items():
            ref = node.refs.get(param)
            if ref is not None:
                ref.write(arrays[ref.root.uid], value)
    return {
        name: arrays[tensor.tensor.uid]
        for name, tensor in graph.tensors.items()
        if not tensor.is_view
    }


def simulate(kernel: CompiledKernel, machine: MachineModel) -> GpuResult:
    """Time a compiled kernel on the simulated GPU.

    Args:
        kernel: the compiled kernel whose schedule to simulate.
        machine: the machine model to execute on.

    Returns:
        A :class:`~repro.gpusim.gpu.GpuResult` with cycles, seconds,
        TFLOP/s, occupancy, waves, and per-resource utilization.
    """
    return simulate_kernel(kernel.schedule, machine)


def clear_compile_cache() -> None:
    """Drop every in-memory cached kernel and reset the counters.

    A server's disk tier keeps its contents: its next request for a
    previously seen instantiation warms from disk.
    """
    compile_cache.clear()


def compile_cache_stats() -> CacheStats:
    """Counters of the process-wide compile cache: memory hits, misses,
    second-tier (disk) hits, evictions, and the current capacity."""
    return compile_cache.stats


def resize_compile_cache(capacity: int) -> None:
    """Change the in-memory compile-cache capacity (evicts LRU overflow).

    The initial capacity comes from the ``REPRO_COMPILE_CACHE_SIZE``
    environment variable (default 256).
    """
    compile_cache.resize(capacity)


def serve(machine: MachineModel, **options: Any) -> "RuntimeServer":
    """Start a :class:`~repro.runtime.RuntimeServer` on ``machine``.

    ``serve(machine, **options)`` is ``RuntimeServer(machine,
    **options)``: the returned server is live (workers running) and is
    a context manager. :class:`~repro.runtime.RuntimeServer` documents
    every keyword — ``registry``, ``workers``, ``disk_cache``,
    ``max_batch``, ``speculate``, ``specialize``, ``trace``,
    ``flight``, ``resilience``, ``diag``, ``faults`` — and
    ``docs/serving.md``, ``docs/resilience.md`` and ``docs/ops.md``
    are the guides.
    """
    from repro.runtime import RuntimeServer

    return RuntimeServer(machine, **options)
