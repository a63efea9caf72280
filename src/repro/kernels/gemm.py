"""FP16 GEMM in Cypress (paper Figure 5, evaluated in Figure 13a).

The logical description decomposes ``C = A x B`` hierarchically: the
host tiles the output across thread blocks; each block iterates tiles of
the K-reduction dimension into a never-materialized accumulator; the
tile is split row-wise across warpgroups (lowering per-thread register
pressure, section 3.4); warpgroup and warp levels apply the
architecture-mandated ``mma`` partitioning; thread leaves dispatch to
the Tensor Core.
"""

from __future__ import annotations

from repro.frontend import Inner, Leaf, task, use_registry
from repro.frontend import call_external, launch, make_tensor, prange, srange
from repro.frontend import tunable
from repro.frontend.mapping import MappingSpec, TaskMapping
from repro.machine.machine import MachineModel
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind
from repro.tensors import (
    WGMMA_64x256x16,
    f16,
    partition_by_blocks,
    partition_by_mma,
)
from repro.kernels.common import (
    KernelBuild,
    clear_tree_mappings,
    copy_store_mapping,
    kernel_registry,
)


with use_registry(kernel_registry):

    @task("gemm", Inner, reads=["A", "B"], writes=["C"])
    def gemm_host(C, A, B):
        u, v = tunable("U"), tunable("V")
        m, n, k = C.shape[0], C.shape[1], A.shape[1]
        cp = partition_by_blocks(C, (u, v))
        ap = partition_by_blocks(A, (u, k))
        bp = partition_by_blocks(B, (k, v))
        for ij in prange(_cdiv(m, u), _cdiv(n, v)):
            i, j = ij
            launch("gemm", cp[i, j], ap[i, 0], bp[0, j])

    @task("gemm", Inner, reads=["A", "B"], writes=["C"])
    def gemm_block(C, A, B):
        w = tunable("W")
        m, n, k = C.shape[0], C.shape[1], A.shape[1]
        ap = partition_by_blocks(A, (m, w))
        bp = partition_by_blocks(B, (w, n))
        acc = make_tensor((m, n), f16, name="Cacc")
        launch("clear", acc)
        for kk in srange(_cdiv(k, w)):
            launch("gemm", acc, ap[0, kk], bp[kk, 0])
        launch("copy", C, acc)

    @task("gemm", Inner, reads=["A", "B", "C"], writes=["C"])
    def gemm_tile(C, A, B):
        wgs = tunable("WGS")
        m, n = C.shape
        cp = partition_by_blocks(C, (m // wgs, n))
        ap = partition_by_blocks(A, (m // wgs, A.shape[1]))
        for i in prange(wgs):
            launch("gemm", cp[i, 0], ap[i, 0], B)

    @task("gemm", Inner, reads=["A", "B", "C"], writes=["C"])
    def gemm_inner(C, A, B):
        pieces_count = tunable("PIECES")
        proc = tunable("PROC")
        cp = partition_by_mma(C, WGMMA_64x256x16(), proc, "C")
        ap = partition_by_mma(A, WGMMA_64x256x16(), proc, "A")
        bp = partition_by_mma(B, WGMMA_64x256x16(), proc, "B")
        for i in prange(pieces_count):
            launch("gemm", cp[i], ap[i], bp[i])

    @task("gemm", Leaf, reads=["A", "B", "C"], writes=["C"])
    def gemm_thread(C, A, B):
        call_external("wgmma_f16", C, A, B)

    # A non-accumulating variant tree (`gemm0`: C = A x B, overwriting)
    # used by kernels that compute fresh score tiles each iteration,
    # like the first GEMM of Flash Attention.
    @task("gemm0", Inner, reads=["A", "B"], writes=["C"])
    def gemm0_tile(C, A, B):
        wgs = tunable("WGS")
        m, n = C.shape
        cp = partition_by_blocks(C, (m // wgs, n))
        ap = partition_by_blocks(A, (m // wgs, A.shape[1]))
        for i in prange(wgs):
            launch("gemm0", cp[i, 0], ap[i, 0], B)

    @task("gemm0", Inner, reads=["A", "B"], writes=["C"])
    def gemm0_inner(C, A, B):
        pieces_count = tunable("PIECES")
        proc = tunable("PROC")
        cp = partition_by_mma(C, WGMMA_64x256x16(), proc, "C")
        ap = partition_by_mma(A, WGMMA_64x256x16(), proc, "A")
        bp = partition_by_mma(B, WGMMA_64x256x16(), proc, "B")
        for i in prange(pieces_count):
            launch("gemm0", cp[i], ap[i], bp[i])

    @task("gemm0", Leaf, reads=["A", "B"], writes=["C"])
    def gemm0_thread(C, A, B):
        call_external("wgmma_f16_st", C, A, B)


def _cdiv(a: int, b: int) -> int:
    return -(-a // b)


def gemm_mappings(
    machine: MachineModel,
    tile_m: int,
    tile_n: int,
    tile_k: int,
    wgs: int,
    pipeline: int,
    warpspecialize: bool,
) -> list:
    """The Figure-5b mapping for the GEMM task tree."""
    g = MemoryKind.GLOBAL
    mappings = [
        TaskMapping(
            instance="gemm_host",
            variant="gemm_host",
            proc=ProcessorKind.HOST,
            mems=(g, g, g),
            tunables={"U": tile_m, "V": tile_n},
            entrypoint=True,
            calls=("gemm_block",),
        ),
        TaskMapping(
            instance="gemm_block",
            variant="gemm_block",
            proc=ProcessorKind.BLOCK,
            mems=(g, g, g),
            tunables={"W": tile_k},
            calls=("clear_block", "gemm_tile", "copy_store"),
            warpspecialize=warpspecialize,
            pipeline=pipeline,
        ),
    ]
    mappings += gemm_tile_mappings("gemm", wgs, MemoryKind.NONE)
    mappings += clear_tree_mappings(wgs)
    mappings.append(copy_store_mapping())
    return mappings


def gemm_tile_mappings(
    task_name: str,
    wgs: int,
    c_mem: MemoryKind,
    prefix: str = "",
) -> list:
    """Mappings for a tile-rooted gemm/gemm0 sub-tree.

    Used by every kernel that launches GEMMs from its own block-level
    task (the GEMM family and attention); the returned root instance is
    ``{prefix}{task_name}_tile``.
    """
    s, n, r = MemoryKind.SHARED, MemoryKind.NONE, MemoryKind.REGISTER
    return [
        TaskMapping(
            instance=f"{prefix}{task_name}_tile",
            variant=f"{task_name}_tile",
            proc=ProcessorKind.BLOCK,
            mems=(c_mem, s, s),
            tunables={"WGS": wgs},
            calls=(f"{prefix}{task_name}_warpgroup",),
        ),
        TaskMapping(
            instance=f"{prefix}{task_name}_warpgroup",
            variant=f"{task_name}_inner",
            proc=ProcessorKind.WARPGROUP,
            mems=(n, s, s),
            tunables={"PIECES": 4, "PROC": ProcessorKind.WARP},
            calls=(f"{prefix}{task_name}_warp",),
        ),
        TaskMapping(
            instance=f"{prefix}{task_name}_warp",
            variant=f"{task_name}_inner",
            proc=ProcessorKind.WARP,
            mems=(n, s, s),
            tunables={"PIECES": 32, "PROC": ProcessorKind.THREAD},
            calls=(f"{prefix}{task_name}_thread",),
        ),
        TaskMapping(
            instance=f"{prefix}{task_name}_thread",
            variant=f"{task_name}_thread",
            proc=ProcessorKind.THREAD,
            mems=(r, s, s),
        ),
    ]


def build_gemm(
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
    """Build the mapped FP16 GEMM ``C[m,n] = A[m,k] x B[k,n]``."""
    spec = MappingSpec(
        gemm_mappings(
            machine, tile_m, tile_n, tile_k, wgs, pipeline, warpspecialize
        ),
        kernel_registry,
        machine,
    )
    flops = 2.0 * m * n * k
    unique = 2.0 * (m * k + k * n + m * n)
    return KernelBuild(
        name=f"gemm_{m}x{n}x{k}",
        spec=spec,
        arg_shapes=((m, n), (m, k), (k, n)),
        arg_dtypes=(f16, f16, f16),
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
