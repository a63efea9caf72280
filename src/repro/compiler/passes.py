"""The pass manager: the compiler pipeline as data (paper Figure 6).

The paper's pipeline was originally a hardcoded straight-line driver.
This module makes it explicit: every compiler stage is a named
:class:`Pass` in :data:`PASS_REGISTRY`, and a :class:`PassManager` runs
an ordered list of them over the IR with per-pass wall-time and IR-size
instrumentation and a configurable verification policy. The resulting
:class:`PassTrace` is attached to ``CompiledKernel.metadata`` so tools
(and the autotuner) can see where compile time goes.

Passes communicate through a :class:`PassContext`: IR-mutating passes
rewrite the :class:`~repro.ir.module.IRFunction` in place, while
artifact-producing passes (allocation, warp specialization, both
backends) deposit their reports into ``ctx.artifacts``.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.compiler.allocation import allocate_shared
from repro.compiler.codegen_cuda import generate_cuda
from repro.compiler.copy_elim import eliminate_copies
from repro.compiler.lowering import lower, schedule_of
from repro.compiler.vectorize import vectorize
from repro.compiler.warpspec import specialize_warps
from repro.errors import CompileError
from repro.frontend.mapping import MappingSpec, TaskMapping
from repro.ir.module import IRFunction
from repro.ir.verifier import verify_function
from repro.tensors.dtype import DType


class VerifyPolicy(enum.Enum):
    """When the pass manager runs the IR verifier.

    ``EVERY_PASS`` verifies the input IR and the IR after each mutating
    pass (the paper's debug discipline); ``ENDS`` verifies only the
    input and the final IR (what autotuning sweeps use).
    """

    EVERY_PASS = "every-pass"
    ENDS = "ends"


@dataclass
class CompileOptions:
    """Everything that parameterizes one compilation, besides the build.

    Attributes:
        use_tma: force the bulk-copy mechanism; ``None`` defers to the
            machine's capability.
        scalar_args: values for non-tensor entrypoint parameters.
        verify: the :class:`VerifyPolicy` (strings are coerced).
        cache: consult/populate the global compile cache.
        passes: override the pass list by registry name; ``None`` runs
            :data:`DEFAULT_PIPELINE`.
    """

    use_tma: Optional[bool] = None
    scalar_args: Optional[Dict[str, Any]] = None
    verify: Union[VerifyPolicy, str] = VerifyPolicy.EVERY_PASS
    cache: bool = True
    passes: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        self.verify = VerifyPolicy(self.verify)
        if self.passes is not None:
            self.passes = tuple(self.passes)


@dataclass
class PassContext:
    """Shared state threaded through one pass-manager run."""

    spec: MappingSpec
    kernel_name: str
    arg_shapes: Sequence[Tuple[int, ...]]
    arg_dtypes: Sequence[DType]
    total_flops: float
    unique_dram_bytes: float
    options: CompileOptions
    block_mapping: Optional[TaskMapping] = None
    artifacts: Dict[str, Any] = field(default_factory=dict)


@dataclass
class PassRecord:
    """Instrumentation for one executed pass.

    ``started_at_s`` is the pass's start on the process-wide
    ``time.perf_counter`` clock — the same clock trace spans use — so
    observability can lift each record into a child span of the
    enclosing compile without re-timing anything.
    """

    name: str
    wall_time_s: float
    ops_before: int
    ops_after: int
    started_at_s: float = 0.0


@dataclass
class PassTrace:
    """The structured result of one pass-manager run."""

    pass_names: Tuple[str, ...]
    verify_policy: VerifyPolicy
    records: List[PassRecord] = field(default_factory=list)
    verified_after: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Pass registry
# ----------------------------------------------------------------------
class Pass:
    """One compiler stage. Subclasses set ``name`` and override ``run``.

    ``mutates_ir`` tells the manager whether the pass rewrites the
    function (and therefore needs re-verification under
    ``VerifyPolicy.EVERY_PASS``); backend passes only read the IR.
    """

    name: str = "<unnamed>"
    mutates_ir: bool = True

    def run(self, fn: IRFunction, ctx: PassContext) -> None:
        raise NotImplementedError


PASS_REGISTRY: Dict[str, Type[Pass]] = {}


def register_pass(cls: Type[Pass]) -> Type[Pass]:
    """Class decorator adding a pass to the global registry by name."""
    if cls.name in PASS_REGISTRY:
        raise CompileError(f"duplicate pass registration: {cls.name!r}")
    PASS_REGISTRY[cls.name] = cls
    return cls


def build_pass(name: str) -> Pass:
    """Instantiate a registered pass, with a helpful unknown-name error."""
    if name not in PASS_REGISTRY:
        raise CompileError(
            f"unknown pass {name!r}; registered passes: "
            f"{sorted(PASS_REGISTRY)}"
        )
    return PASS_REGISTRY[name]()


@register_pass
class VectorizePass(Pass):
    """Flatten intra-block parallel loops into vectorized ops."""

    name = "vectorize"

    def run(self, fn: IRFunction, ctx: PassContext) -> None:
        vectorize(fn)


@register_pass
class CopyElimPass(Pass):
    """Remove copy-in/copy-out noise left by dependence analysis."""

    name = "copy-elim"

    def run(self, fn: IRFunction, ctx: PassContext) -> None:
        eliminate_copies(fn)


@register_pass
class AllocateSharedPass(Pass):
    """Interference-based shared-memory allocation (section 4.2.4)."""

    name = "allocate-shared"

    def run(self, fn: IRFunction, ctx: PassContext) -> None:
        limit = (
            ctx.spec.smem_limit(ctx.block_mapping)
            if ctx.block_mapping
            else None
        )
        ctx.artifacts["allocation"] = allocate_shared(fn, limit)


@register_pass
class WarpSpecializePass(Pass):
    """Warp specialization + software pipelining (section 4.2.5)."""

    name = "warp-specialize"

    def run(self, fn: IRFunction, ctx: PassContext) -> None:
        block = ctx.block_mapping
        ctx.artifacts["warpspec"] = specialize_warps(
            fn,
            enabled=bool(block and block.warpspecialize),
            pipeline_depth=block.pipeline if block else 1,
        )


@register_pass
class LowerSchedulePass(Pass):
    """The one lowering of the final IR, printed as a KernelSchedule."""

    name = "lower-schedule"
    mutates_ir = False

    def run(self, fn: IRFunction, ctx: PassContext) -> None:
        lowered = lower(fn, ctx.spec.registry, ctx.options.use_tma)
        ctx.artifacts["lowered"] = lowered
        ctx.artifacts["schedule"] = schedule_of(
            lowered, ctx.total_flops, ctx.unique_dram_bytes
        )


@register_pass
class CodegenCudaPass(Pass):
    """CUDA backend: print the lowered form as warp-specialized C++."""

    name = "codegen-cuda"
    mutates_ir = False

    def run(self, fn: IRFunction, ctx: PassContext) -> None:
        if "lowered" not in ctx.artifacts:
            raise CompileError(
                "codegen-cuda prints the lowered form that lower-schedule "
                "leaves behind; put 'lower-schedule' before it in the pass "
                "list"
            )
        ctx.artifacts["cuda_source"] = generate_cuda(ctx.artifacts["lowered"])


#: The Figure-6 pipeline, in order. Dependence analysis runs before the
#: pass manager (it *creates* the IR from the mapped task tree).
DEFAULT_PIPELINE: Tuple[str, ...] = (
    "vectorize",
    "copy-elim",
    "allocate-shared",
    "warp-specialize",
    "lower-schedule",
    "codegen-cuda",
)


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------
def _ir_size(fn: IRFunction) -> int:
    return sum(1 for _ in fn.walk())


class PassManager:
    """Runs an ordered list of passes with instrumentation.

    Args:
        passes: registry names or :class:`Pass` instances; ``None``
            means :data:`DEFAULT_PIPELINE`.
        verify: a :class:`VerifyPolicy` or its string value.
    """

    def __init__(
        self,
        passes: Optional[Sequence[Union[str, Pass]]] = None,
        verify: Union[VerifyPolicy, str] = VerifyPolicy.EVERY_PASS,
    ):
        if passes is None:
            passes = DEFAULT_PIPELINE
        self.passes: List[Pass] = [
            p if isinstance(p, Pass) else build_pass(p) for p in passes
        ]
        self.verify = VerifyPolicy(verify)

    @property
    def pass_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def run(self, fn: IRFunction, ctx: PassContext) -> PassTrace:
        """Execute every pass over ``fn``, returning the trace."""
        trace = PassTrace(
            pass_names=self.pass_names, verify_policy=self.verify
        )
        verify_function(fn)
        trace.verified_after.append("input")
        for p in self.passes:
            ops_before = _ir_size(fn)
            start = time.perf_counter()
            p.run(fn, ctx)
            elapsed = time.perf_counter() - start
            trace.records.append(
                PassRecord(
                    name=p.name,
                    wall_time_s=elapsed,
                    ops_before=ops_before,
                    ops_after=_ir_size(fn),
                    started_at_s=start,
                )
            )
            if self.verify is VerifyPolicy.EVERY_PASS and p.mutates_ir:
                verify_function(fn)
                trace.verified_after.append(p.name)
        if self.verify is VerifyPolicy.ENDS:
            verify_function(fn)
            trace.verified_after.append("output")
        return trace
