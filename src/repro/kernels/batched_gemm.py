"""Batched GEMM (paper Figure 13b): L independent GEMMs in one launch.

The host-level task adds a batch dimension to the grid decomposition and
squeezes each rank-3 piece down to the rank-2 tiles the shared
``gemm_block`` tree consumes — the per-block program is byte-for-byte
the Figure 5 GEMM, demonstrating task-variant reuse across kernels.
"""

from __future__ import annotations

from repro.frontend import Inner, launch, prange, tunable
from repro.frontend.mapping import MappingSpec, TaskMapping
from repro.machine.machine import MachineModel
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind
from repro.tensors import f16, partition_by_blocks
from repro.tensors.partition import squeeze
from repro.kernels.common import kernel_registry
from repro.kernels.common import KernelBuild
from repro.kernels.gemm import gemm_mappings


@kernel_registry.task("bgemm", Inner, reads=["A", "B"], writes=["C"])
def bgemm_host(C, A, B):
    u, v = tunable("U"), tunable("V")
    batch, m, n = C.shape
    k = A.shape[2]
    cp = partition_by_blocks(C, (1, u, v))
    ap = partition_by_blocks(A, (1, u, k))
    bp = partition_by_blocks(B, (1, k, v))
    for idx in prange(batch, -(-m // u), -(-n // v)):
        b, i, j = idx
        launch(
            "gemm",
            squeeze(cp[b, i, j]),
            squeeze(ap[b, i, 0]),
            squeeze(bp[b, 0, j]),
        )


def build_batched_gemm(
    machine: MachineModel,
    batch: int,
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
    """Build the mapped batched GEMM (L x [m,n,k], FP16)."""
    mappings = [
        TaskMapping(
            instance="bgemm_host",
            variant="bgemm_host",
            proc=ProcessorKind.HOST,
            mems=(MemoryKind.GLOBAL,) * 3,
            tunables={"U": tile_m, "V": tile_n},
            entrypoint=True,
            calls=("gemm_block",),
        )
    ]
    # Reuse the whole single-GEMM tree below the host level, dropping
    # its own host instance.
    tree = gemm_mappings(
        machine, tile_m, tile_n, tile_k, wgs, pipeline, warpspecialize
    )
    mappings += [m_ for m_ in tree if m_.instance != "gemm_host"]
    spec = MappingSpec(mappings, kernel_registry, machine)
    flops = 2.0 * batch * m * n * k
    unique = 2.0 * batch * (m * k + k * n + m * n)
    return KernelBuild(
        name=f"batched_gemm_{batch}x{m}x{n}x{k}",
        spec=spec,
        arg_shapes=((batch, m, n), (batch, m, k), (batch, k, n)),
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
