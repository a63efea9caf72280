"""Fused GEMM+Reduction (paper Figure 13d).

Computes ``C = A x B`` and ``y[i] = sum_k A[i, k]`` in one kernel. The
row reduction runs on the SIMT units while the Tensor Core is busy with
the matrix multiply; both consume the same shared-memory A tile (the
duplicate-load elimination leaves one TMA load per K step). The mapping
places the reduction accumulator in the register file — the paper shows
that Triton's heuristic of placing it in shared memory, combined with
its explicit wait on the Tensor Core, costs it 2.02-2.18x.

``build_gemm_reduction(accumulator="shared")`` reproduces the paper's
ablation: remapping only the accumulator's memory recreates the Triton
behaviour without touching the logical description.
"""

from __future__ import annotations

import numpy as np

from repro.frontend import Inner, Leaf
from repro.frontend import call_external, launch, make_tensor, prange, srange
from repro.frontend import tunable
from repro.frontend.mapping import MappingSpec, TaskMapping
from repro.machine.machine import MachineModel
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind
from repro.tensors import f16, f32, partition_by_blocks
from repro.kernels.common import (
    clear_tree_mappings,
    copy_store_mapping,
    kernel_registry,
)
from repro.kernels.common import KernelBuild
from repro.kernels.gemm import gemm_tile_mappings


@kernel_registry.task("gemm_red", Inner, reads=["A", "B"], writes=["C", "y"])
def gemm_red_host(C, y, A, B):
    u, v = tunable("U"), tunable("V")
    m, n, k = C.shape[0], C.shape[1], A.shape[1]
    cp = partition_by_blocks(C, (u, v))
    yp = partition_by_blocks(y, (u,))
    ap = partition_by_blocks(A, (u, k))
    bp = partition_by_blocks(B, (k, v))
    for ij in prange(-(-m // u), -(-n // v)):
        i, j = ij
        launch("gemm_red", cp[i, j], yp[i], ap[i, 0], bp[0, j])


@kernel_registry.task("gemm_red", Inner, reads=["A", "B"], writes=["C", "y"])
def gemm_red_block(C, y, A, B):
    w = tunable("W")
    # Every column tile of the grid recomputes the row sums of its
    # row panel; weighting by the number of column tiles keeps the
    # total correct without inter-CTA atomics.
    n_tiles = tunable("NT")
    m, n, k = C.shape[0], C.shape[1], A.shape[1]
    ap = partition_by_blocks(A, (m, w))
    bp = partition_by_blocks(B, (w, n))
    acc = make_tensor((m, n), f16, name="Cacc")
    yacc = make_tensor((m,), f32, name="yacc")
    launch("clear", acc)
    launch("clear_vec", yacc)
    for kk in srange(-(-k // w)):
        launch("gemm", acc, ap[0, kk], bp[kk, 0])
        launch("row_sum", yacc, ap[0, kk], 1.0 / n_tiles)
    launch("copy", C, acc)
    launch("copy_vec", y, yacc)


@kernel_registry.task("clear_vec", Leaf, writes=["v"])
def clear_vec_leaf(v):
    call_external("zero_frag", v)


@kernel_registry.task("row_sum", Leaf, reads=["A", "y"], writes=["y"])
def row_sum_leaf(y, A, weight):
    call_external("row_sum_weighted", y, A, weight)


@kernel_registry.task("copy_vec", Leaf, reads=["src"], writes=["dst"])
def copy_vec_leaf(dst, src):
    call_external("tma_store_tile", dst, src)


# The y rows are recomputed by every column tile of the grid; weighting
# by 1/n_tiles keeps the total correct without inter-CTA atomics.
@kernel_registry.external_function(
    "row_sum_weighted",
    cost_kind="simt",
    flops_fn=lambda shapes: 2
    * (shapes[1][0] * shapes[1][1] if len(shapes) > 1 else 0),
)
def row_sum_weighted(y: np.ndarray, A: np.ndarray, weight: float) -> None:
    """y += weight * rowsum(A); the GEMM+Reduction leaf."""
    y += (A.astype(np.float32).sum(axis=-1) * weight).astype(y.dtype)


def build_gemm_reduction(
    machine: MachineModel,
    m: int,
    n: int,
    k: int,
    tile_m: int = 256,
    tile_n: int = 256,
    tile_k: int = 64,
    wgs: int = 2,
    pipeline: int = 3,
    warpspecialize: bool = True,
    accumulator: str = "register",
) -> KernelBuild:
    """Build the fused GEMM+Reduction kernel.

    ``accumulator`` places the reduction accumulator: ``"register"``
    (the tuned Cypress mapping) or ``"shared"`` (the paper's ablation
    reproducing Triton's heuristic placement).
    """
    if accumulator not in ("register", "shared"):
        raise ValueError("accumulator must be 'register' or 'shared'")
    g = MemoryKind.GLOBAL
    acc_mem = (
        MemoryKind.NONE
        if accumulator == "register"
        else MemoryKind.SHARED
    )
    mappings = [
        TaskMapping(
            instance="gemm_red_host",
            variant="gemm_red_host",
            proc=ProcessorKind.HOST,
            mems=(g, g, g, g),
            tunables={"U": tile_m, "V": tile_n},
            entrypoint=True,
            calls=("gemm_red_block",),
        ),
        TaskMapping(
            instance="gemm_red_block",
            variant="gemm_red_block",
            proc=ProcessorKind.BLOCK,
            mems=(g, g, g, g),
            tunables={"W": tile_k, "NT": -(-n // tile_n)},
            calls=(
                "clear_block",
                "clear_vec_leaf",
                "gemm_tile",
                "row_sum_leaf",
                "copy_store",
                "copy_vec_leaf",
            ),
            warpspecialize=warpspecialize,
            pipeline=pipeline,
        ),
        TaskMapping(
            instance="clear_vec_leaf",
            variant="clear_vec_leaf",
            proc=ProcessorKind.BLOCK,
            mems=(MemoryKind.NONE,),
        ),
        TaskMapping(
            instance="row_sum_leaf",
            variant="row_sum_leaf",
            proc=ProcessorKind.BLOCK,
            mems=(acc_mem, MemoryKind.SHARED),
        ),
        TaskMapping(
            instance="copy_vec_leaf",
            variant="copy_vec_leaf",
            proc=ProcessorKind.BLOCK,
            mems=(g, MemoryKind.SHARED),
        ),
    ]
    mappings += gemm_tile_mappings("gemm", wgs, MemoryKind.NONE)
    mappings += clear_tree_mappings(wgs)
    mappings.append(copy_store_mapping())
    spec = MappingSpec(mappings, kernel_registry, machine)
    flops = 2.0 * m * n * k  # the reduction rides along
    unique = 2.0 * (m * k + k * n + m * n) + 4.0 * m
    return KernelBuild(
        name=f"gemm_reduction_{m}x{n}x{k}_{accumulator}",
        spec=spec,
        arg_shapes=((m, n), (m,), (m, k), (k, n)),
        arg_dtypes=(f16, f32, f16, f16),
        total_flops=flops,
        unique_dram_bytes=unique,
        params={
            "tile_m": tile_m,
            "tile_n": tile_n,
            "tile_k": tile_k,
            "wgs": wgs,
            "pipeline": pipeline,
            "warpspecialize": warpspecialize,
            "accumulator": accumulator,
        },
    )
