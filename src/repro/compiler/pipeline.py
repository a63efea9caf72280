"""The compile driver: frontend, pass manager, and compile cache.

``compile_program`` is the one entry point every caller funnels through
(directly or via :func:`repro.api.compile_kernel`). It

1. fingerprints the instantiation — once, in :func:`compile_step`, the
   step the serving runtime's kernel fetch starts from too — and
   consults the content-keyed :mod:`compile cache <repro.compiler.cache>`;
2. on a miss, runs dependence analysis (task tree -> event IR) and then
   the :class:`~repro.compiler.passes.PassManager` over the default
   Figure-6 pipeline (or ``options.passes``);
3. bundles every artifact — both IR stages, the simulator schedule, the
   CUDA text, the allocation and warp-specialization reports, and the
   per-pass :class:`~repro.compiler.passes.PassTrace` — into a
   :class:`CompiledKernel`.

Everything that parameterizes a compilation besides the instantiation
itself — copy mechanism, scalar arguments, verification, caching, the
pass list — arrives one way: a
:class:`~repro.compiler.passes.CompileOptions`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.compiler.allocation import AllocationReport
from repro.compiler.cache import compile_cache, compile_key
from repro.compiler.dependence import DependenceAnalysis
from repro.compiler.passes import (
    CompileOptions,
    PassContext,
    PassManager,
    PassTrace,
)
from repro.compiler.warpspec import WarpSpecReport
from repro.errors import CompileError
from repro.frontend.mapping import MappingSpec, TaskMapping
from repro.gpusim.kernel import KernelSchedule
from repro.ir.clone import clone_function
from repro.ir.module import IRFunction
from repro.machine.processor import ProcessorKind
from repro.numbering import fresh_numbering
from repro.tensors.dtype import DType


@dataclass
class CompiledKernel:
    """Everything the compiler produced for one kernel instantiation."""

    name: str
    dependence_ir: IRFunction
    final_ir: IRFunction
    schedule: KernelSchedule
    cuda_source: str
    allocation: AllocationReport
    warpspec: WarpSpecReport
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def pass_trace(self) -> Optional[PassTrace]:
        """Per-pass instrumentation from the pass manager."""
        return self.metadata.get("pass_trace")


def compile_program(
    spec: MappingSpec,
    name: str,
    arg_shapes: Sequence[Tuple[int, ...]],
    arg_dtypes: Sequence[DType],
    total_flops: float,
    unique_dram_bytes: float,
    options: Optional[CompileOptions] = None,
) -> CompiledKernel:
    """Compile a mapped Cypress program for concrete argument shapes.

    Args:
        spec: the validated mapping specification (carries the registry
            and the target machine).
        name: kernel name for reports and generated code.
        arg_shapes / arg_dtypes: one entry per entrypoint tensor
            parameter.
        total_flops: useful arithmetic of the whole kernel, for TFLOP/s
            reporting.
        unique_dram_bytes: compulsory global traffic (the operands'
            footprint), for the HBM roofline.
        options: full compile configuration (defaults to
            :class:`~repro.compiler.passes.CompileOptions`'s defaults).
    """
    key, compute = compile_step(
        spec, name, arg_shapes, arg_dtypes, total_flops,
        unique_dram_bytes, options,
    )
    if options is not None and not options.cache:
        return compute()
    return compile_cache.get_or_compute(key, compute)


def compile_step(
    spec: MappingSpec,
    name: str,
    arg_shapes: Sequence[Tuple[int, ...]],
    arg_dtypes: Sequence[DType],
    total_flops: float,
    unique_dram_bytes: float,
    options: Optional[CompileOptions] = None,
) -> Tuple[str, Callable[[], CompiledKernel]]:
    """The one step every kernel acquisition starts with.

    Takes :func:`compile_program`'s arguments, fingerprints the
    instantiation **once**, and returns ``(key, compute)``:
    ``compute()`` runs dependence analysis and the pass pipeline for
    exactly the instantiation ``key`` names, numbering from zero
    (:func:`~repro.numbering.fresh_numbering`).
    The caller either calls it outright or hands both to
    :meth:`CompileCache.lookup <repro.compiler.cache.CompileCache.lookup>`
    — :func:`compile_program` without a second tier, the serving
    runtime's fetch with its own.
    """
    if options is None:
        options = CompileOptions()
    key = compile_key(
        spec, name, arg_shapes, arg_dtypes, total_flops,
        unique_dram_bytes, options,
    )

    @fresh_numbering()
    def compute() -> CompiledKernel:
        analysis = DependenceAnalysis(spec, name)
        fn = analysis.run(arg_shapes, arg_dtypes, options.scalar_args)
        # Snapshot the pre-pass IR by cloning only the nodes passes mutate
        # (ops, blocks, events, buffers) — not a whole-module deepcopy.
        dependence_ir = clone_function(fn)

        ctx = PassContext(
            spec=spec,
            kernel_name=name,
            arg_shapes=arg_shapes,
            arg_dtypes=arg_dtypes,
            total_flops=total_flops,
            unique_dram_bytes=unique_dram_bytes,
            options=options,
            block_mapping=_block_instance(spec),
        )
        manager = PassManager(options.passes, verify=options.verify)
        trace = manager.run(fn, ctx)

        for artifact in ("allocation", "warpspec", "schedule", "cuda_source"):
            if artifact not in ctx.artifacts:
                raise CompileError(
                    f"pass pipeline {manager.pass_names} produced no "
                    f"{artifact!r} artifact; compile_program needs the "
                    "full backend — use PassManager directly for partial "
                    "pipelines"
                )

        return CompiledKernel(
            name=name,
            dependence_ir=dependence_ir,
            final_ir=fn,
            schedule=ctx.artifacts["schedule"],
            cuda_source=ctx.artifacts["cuda_source"],
            allocation=ctx.artifacts["allocation"],
            warpspec=ctx.artifacts["warpspec"],
            metadata={
                "machine": spec.machine.name,
                "entry": spec.entrypoint.instance,
                "pass_trace": trace,
                "cache_key": key,
                "options": options,
            },
        )

    return key, compute


def build_options(
    build, options: Optional[CompileOptions] = None
) -> CompileOptions:
    """The options a ``repro.kernels`` build compiles under.

    The caller's ``options.scalar_args`` win; the build's own
    ``scalar_args`` fill in only when the caller's are ``None``.
    """
    if options is None:
        options = CompileOptions()
    if options.scalar_args is None and build.scalar_args is not None:
        options = dataclasses.replace(options, scalar_args=build.scalar_args)
    return options


def build_step(
    build, options: Optional[CompileOptions] = None
) -> Tuple[str, Callable[[], CompiledKernel]]:
    """:func:`compile_step` for a ``repro.kernels`` build under
    :func:`build_options` — the step ``api.compile_kernel(build,
    options)`` takes."""
    return compile_step(
        build.spec,
        build.name,
        build.arg_shapes,
        build.arg_dtypes,
        build.total_flops,
        build.unique_dram_bytes,
        build_options(build, options),
    )


def compile_key_for(build, options: Optional[CompileOptions] = None) -> str:
    """The cache key :func:`compile_program` will use for ``build`` —
    the key half of :func:`build_step`, for callers that need it
    without compiling."""
    return build_step(build, options)[0]


def _block_instance(spec: MappingSpec) -> Optional[TaskMapping]:
    """The BLOCK-level instance carrying warpspec/pipeline directives.

    Prefers an instance that explicitly requests warp specialization or
    a pipeline; falls back to a BLOCK-level instance reached from the
    entrypoint. Candidates are sorted by instance name so the choice is
    deterministic (dict iteration order must not influence compiler
    output — the compile-cache key assumes reproducible compiles).
    """
    candidates = sorted(
        (
            m
            for m in spec.by_instance.values()
            if m.proc is ProcessorKind.BLOCK
            and (m.warpspecialize or m.pipeline > 1)
        ),
        key=lambda m: m.instance,
    )
    if candidates:
        return candidates[0]
    blocks = sorted(
        (
            m
            for m in spec.by_instance.values()
            if m.proc is ProcessorKind.BLOCK
        ),
        key=lambda m: m.instance,
    )
    return blocks[0] if blocks else None
