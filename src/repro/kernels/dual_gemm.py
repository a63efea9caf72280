"""Dual-GEMM (paper Figure 13c): ``C = A x B1 + A x B2`` in one kernel.

The core computation of Gated Linear Units. The logical description
simply launches two accumulating GEMMs per K tile; because both read the
same A tile, copy elimination's duplicate-load pattern leaves a single
TMA load of A per iteration, and the event graph lets the two B loads
and the two Tensor Core operations overlap — the paper's observation
that Cypress sustains GEMM-level throughput here while Triton loses
1.36-1.40x by serializing the B2 load.
"""

from __future__ import annotations

from repro.frontend import Inner, launch, make_tensor, prange, srange, tunable
from repro.frontend.mapping import MappingSpec, TaskMapping
from repro.machine.machine import MachineModel
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind
from repro.tensors import f16, partition_by_blocks
from repro.kernels.common import (
    clear_tree_mappings,
    copy_store_mapping,
    kernel_registry,
)
from repro.kernels.common import KernelBuild
from repro.kernels.gemm import gemm_tile_mappings


@kernel_registry.task(
    "dual_gemm", Inner, reads=["A", "B1", "B2"], writes=["C"]
)
def dual_gemm_host(C, A, B1, B2):
    u, v = tunable("U"), tunable("V")
    m, n, k = C.shape[0], C.shape[1], A.shape[1]
    cp = partition_by_blocks(C, (u, v))
    ap = partition_by_blocks(A, (u, k))
    b1p = partition_by_blocks(B1, (k, v))
    b2p = partition_by_blocks(B2, (k, v))
    for ij in prange(-(-m // u), -(-n // v)):
        i, j = ij
        launch(
            "dual_gemm", cp[i, j], ap[i, 0], b1p[0, j], b2p[0, j]
        )


@kernel_registry.task(
    "dual_gemm", Inner, reads=["A", "B1", "B2"], writes=["C"]
)
def dual_gemm_block(C, A, B1, B2):
    w = tunable("W")
    m, n, k = C.shape[0], C.shape[1], A.shape[1]
    ap = partition_by_blocks(A, (m, w))
    b1p = partition_by_blocks(B1, (w, n))
    b2p = partition_by_blocks(B2, (w, n))
    acc = make_tensor((m, n), f16, name="Cacc")
    launch("clear", acc)
    for kk in srange(-(-k // w)):
        launch("gemm", acc, ap[0, kk], b1p[kk, 0])
        launch("gemm", acc, ap[0, kk], b2p[kk, 0])
    launch("copy", C, acc)


def build_dual_gemm(
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
) -> KernelBuild:
    """Build the mapped Dual-GEMM ``C = A x B1 + A x B2``."""
    g = MemoryKind.GLOBAL
    mappings = [
        TaskMapping(
            instance="dual_gemm_host",
            variant="dual_gemm_host",
            proc=ProcessorKind.HOST,
            mems=(g, g, g, g),
            tunables={"U": tile_m, "V": tile_n},
            entrypoint=True,
            calls=("dual_gemm_block",),
        ),
        TaskMapping(
            instance="dual_gemm_block",
            variant="dual_gemm_block",
            proc=ProcessorKind.BLOCK,
            mems=(g, g, g, g),
            tunables={"W": tile_k},
            calls=("clear_block", "gemm_tile", "copy_store"),
            warpspecialize=warpspecialize,
            pipeline=pipeline,
        ),
    ]
    mappings += gemm_tile_mappings("gemm", wgs, MemoryKind.NONE)
    mappings += clear_tree_mappings(wgs)
    mappings.append(copy_store_mapping())
    spec = MappingSpec(mappings, kernel_registry, machine)
    flops = 4.0 * m * n * k  # two GEMMs
    unique = 2.0 * (m * k + 2 * k * n + m * n)
    return KernelBuild(
        name=f"dual_gemm_{m}x{n}x{k}",
        spec=spec,
        arg_shapes=((m, n), (m, k), (k, n), (k, n)),
        arg_dtypes=(f16, f16, f16, f16),
        total_flops=flops,
        unique_dram_bytes=unique,
        params={
            "tile_m": tile_m,
            "tile_n": tile_n,
            "tile_k": tile_k,
            "wgs": wgs,
            "pipeline": pipeline,
            "warpspecialize": warpspecialize,
        },
    )
