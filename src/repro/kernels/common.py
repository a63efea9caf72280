"""Shared task registry and external functions for the kernel zoo.

Every kernel module registers its tasks into one shared registry (they
reuse the ``clear``/``copy`` trees and the leaf externals). External
functions carry both a numpy implementation — FP16 operands, products
in FP32 rounded to the accumulator's dtype (FP16 in the GEMM family,
FP32 in attention) — and a cost kind for the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.frontend.mapping import MappingSpec
from repro.frontend.task import TaskRegistry
from repro.frontend import Inner, Leaf, call_external, launch, prange, tunable
from repro.machine.processor import ProcessorKind
from repro.tensors import (
    WGMMA_64x256x16,
    partition_by_blocks,
    partition_by_mma,
)

#: The registry all paper kernels live in.
kernel_registry = TaskRegistry()


@dataclass
class KernelBuild:
    """A mapped kernel instantiation ready for the compiler.

    Every ``build_*`` function in the kernel zoo returns one of these;
    ``api.compile_kernel`` / ``api.compile_many`` consume them.

    Attributes:
        name: kernel name for reports and generated code.
        spec: the validated mapping specification.
        arg_shapes / arg_dtypes: one entry per entrypoint tensor
            parameter.
        total_flops / unique_dram_bytes: roofline inputs for the
            simulator.
        scalar_args: values for non-tensor entrypoint parameters,
            forwarded to the compiler by default.
        params: the mapping parameters this build was constructed with
            (tile shapes, warpgroups, ...), for tuning reports.
    """

    name: str
    spec: MappingSpec
    arg_shapes: Tuple[Tuple[int, ...], ...]
    arg_dtypes: Tuple
    total_flops: float
    unique_dram_bytes: float
    scalar_args: Optional[Dict[str, Any]] = None
    params: Dict[str, Any] = field(default_factory=dict)


def _prod(shape) -> int:
    out = 1
    for extent in shape:
        out *= extent
    return out


# ------------------------------------------------------------------
# External leaf functions
# ------------------------------------------------------------------
@kernel_registry.external_function(
    "wgmma_f16",
    cost_kind="wgmma",
    flops_fn=lambda shapes: 2 * _prod(shapes[0]) * shapes[1][-1],
)
def wgmma_f16(C: np.ndarray, A: np.ndarray, B: np.ndarray) -> None:
    """Warpgroup MMA: C += A @ B, the product computed in FP32 and
    rounded to C's dtype (FP16 for GEMMs' ``Cacc``, FP32 in attention).

    Called per thread on co-aligned fragments: C holds the thread's
    Figure-4 output elements, A the matching rows (all K), B the
    matching columns (all K)."""
    acc = A.astype(np.float32) @ B.astype(np.float32)
    C += acc.astype(C.dtype)


@kernel_registry.external_function(
    "wgmma_f16_st",
    cost_kind="wgmma",
    flops_fn=lambda shapes: 2 * _prod(shapes[0]) * shapes[1][-1],
)
def wgmma_f16_st(C: np.ndarray, A: np.ndarray, B: np.ndarray) -> None:
    """Warpgroup MMA, overwriting: C = A @ B in FP32, rounded to C's dtype."""
    acc = A.astype(np.float32) @ B.astype(np.float32)
    C[...] = acc.astype(C.dtype)


@kernel_registry.external_function(
    "copy_tile_reg",
    cost_kind="simt",
    flops_fn=lambda shapes: _prod(shapes[0]) // 4,
)
def copy_tile_reg(dst: np.ndarray, src: np.ndarray) -> None:
    """Register-to-register tile copy (Flash Attention 3's S copy)."""
    dst[...] = src.astype(dst.dtype)


@kernel_registry.external_function(
    "zero_frag",
    cost_kind="simt",
    flops_fn=lambda shapes: _prod(shapes[0]),
)
def zero_frag(C: np.ndarray) -> None:
    """Zero-initialize a register fragment."""
    C[...] = 0


@kernel_registry.external_function(
    "tma_store_tile",
    cost_kind="tma_store",
    flops_fn=lambda shapes: 0,
)
def tma_store_tile(dst: np.ndarray, src: np.ndarray) -> None:
    """TMA bulk store of a staged shared-memory tile."""
    dst[...] = src.astype(dst.dtype)


_NEG_INF = -1.0e30


@kernel_registry.external_function(
    "online_softmax_update",
    cost_kind="sfu",
    # One exp per score element dominates; reductions ride along.
    flops_fn=lambda shapes: 2 * _prod(shapes[3]),
)
def online_softmax_update(
    m: np.ndarray,
    l: np.ndarray,
    acc: np.ndarray,
    S: np.ndarray,
    P: np.ndarray,
    scale: float,
) -> None:
    """One online-softmax step of Flash Attention.

    Updates the running row max ``m`` and row sum ``l`` with the scaled
    score tile ``S`` (all in FP32), rescales the output accumulator
    ``acc`` and writes the unnormalized probabilities into ``P``,
    rounded to its dtype. Rows whose running max is still the -inf
    sentinel contribute nothing, which makes the Flash-Attention-3
    software-pipeline prologue (an all-sentinel score buffer) a no-op."""
    s32 = S.astype(np.float32) * scale
    s32 = np.where(S.astype(np.float32) <= _NEG_INF / 2, -np.inf, s32)
    m_new = np.maximum(m, s32.max(axis=-1, keepdims=True))
    live = m_new > -np.inf
    p = np.where(live, np.exp(s32 - np.where(live, m_new, 0.0)), 0.0)
    rescale = np.where(live, np.exp(m - np.where(live, m_new, 0.0)), 1.0)
    l[...] = rescale * l + p.sum(axis=-1, keepdims=True)
    acc *= rescale.astype(acc.dtype)
    m[...] = np.where(live, m_new, m)
    P[...] = p.astype(P.dtype)


@kernel_registry.external_function(
    "init_softmax_state",
    cost_kind="simt",
    flops_fn=lambda shapes: _prod(shapes[0]),
)
def init_softmax_state(m: np.ndarray, l: np.ndarray) -> None:
    """Initialize the online-softmax running max and sum."""
    m[...] = _NEG_INF
    l[...] = 0.0


@kernel_registry.external_function(
    "fill_neg_inf",
    cost_kind="simt",
    flops_fn=lambda shapes: _prod(shapes[0]) // 4,
)
def fill_neg_inf(S: np.ndarray) -> None:
    """Fill a score buffer with the -inf sentinel (FA3 prologue)."""
    S[...] = _NEG_INF


@kernel_registry.external_function(
    "softmax_finalize",
    cost_kind="simt",
    flops_fn=lambda shapes: 2 * _prod(shapes[0]),
)
def softmax_finalize(acc: np.ndarray, l: np.ndarray) -> None:
    """Divide the attention accumulator by the softmax row sums."""
    acc /= np.maximum(l, 1e-20).astype(acc.dtype)

# ------------------------------------------------------------------
# The `clear` task tree (zero an accumulator, Figure 8a)
# ------------------------------------------------------------------
@kernel_registry.task("clear", Inner, writes=["C"])
def clear_block(C):
    wgs = tunable("WGS")
    m, n = C.shape
    pieces = partition_by_blocks(C, (m // wgs, n))
    for i in prange(wgs):
        launch("clear", pieces[i, 0])


@kernel_registry.task("clear", Inner, writes=["C"])
def clear_inner(C):
    pieces_count = tunable("PIECES")
    proc = tunable("PROC")
    pieces = partition_by_mma(C, WGMMA_64x256x16(), proc, "C")
    for i in prange(pieces_count):
        launch("clear", pieces[i])


@kernel_registry.task("clear", Leaf, writes=["C"])
def clear_thread(C):
    call_external("zero_frag", C)

# ------------------------------------------------------------------
# The `copy` task (accumulator -> global through smem + TMA store)
# ------------------------------------------------------------------
@kernel_registry.task("copy", Leaf, reads=["src"], writes=["dst"])
def copy_store(dst, src):
    call_external("tma_store_tile", dst, src)


def clear_tree_mappings(wgs: int) -> list:
    """Task mappings for the clear tree rooted at ``clear_block``."""
    from repro.frontend.mapping import TaskMapping
    from repro.machine.memory import MemoryKind

    none = MemoryKind.NONE
    return [
        TaskMapping(
            instance="clear_block",
            variant="clear_block",
            proc=ProcessorKind.BLOCK,
            mems=(none,),
            tunables={"WGS": wgs},
            calls=("clear_wg",),
        ),
        TaskMapping(
            instance="clear_wg",
            variant="clear_inner",
            proc=ProcessorKind.WARPGROUP,
            mems=(none,),
            tunables={"PIECES": 4, "PROC": ProcessorKind.WARP},
            calls=("clear_warp",),
        ),
        TaskMapping(
            instance="clear_warp",
            variant="clear_inner",
            proc=ProcessorKind.WARP,
            mems=(none,),
            tunables={"PIECES": 32, "PROC": ProcessorKind.THREAD},
            calls=("clear_thread",),
        ),
        TaskMapping(
            instance="clear_thread",
            variant="clear_thread",
            proc=ProcessorKind.THREAD,
            mems=(MemoryKind.REGISTER,),
        ),
    ]


def copy_store_mapping() -> "TaskMapping":
    """Mapping for the TMA store-out leaf."""
    from repro.frontend.mapping import TaskMapping
    from repro.machine.memory import MemoryKind

    return TaskMapping(
        instance="copy_store",
        variant="copy_store",
        proc=ProcessorKind.BLOCK,
        mems=(MemoryKind.GLOBAL, MemoryKind.SHARED),
    )
