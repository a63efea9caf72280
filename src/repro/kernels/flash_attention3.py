"""Flash Attention 3 forward kernel in Cypress (paper section 5.3).

FA3 restructures the FA2 main loop: the results of the score GEMM are
*copied* into a second buffer so the softmax of iteration ``k`` can
overlap the score GEMM of iteration ``k + 1`` — the manual software
pipelining of the FlashAttention-3 paper. In Cypress the restructure is
purely a change to the logical description (the loop body operates on
the previous iteration's copied scores and refreshes the copy at the
end); the compiler infers all the interleaved communication and
synchronization the FA3 authors describe by hand.

The pipeline prologue fills the score copy with a -inf sentinel (a
no-op softmax step) and an epilogue drains the final tile.
"""

from __future__ import annotations

import math

from repro.frontend import Inner, Leaf
from repro.frontend import call_external, launch, make_tensor, prange, srange
from repro.frontend import tunable
from repro.frontend.mapping import MappingSpec, TaskMapping
from repro.machine.machine import MachineModel
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind
from repro.tensors import f16, f32, partition_by_blocks
from repro.tensors.partition import squeeze
from repro.kernels.common import (
    clear_tree_mappings,
    copy_store_mapping,
    kernel_registry,
)
from repro.kernels.flash_attention2 import attention_support_mappings
from repro.kernels.common import KernelBuild
from repro.kernels.gemm import gemm_tile_mappings


@kernel_registry.task("attn3", Inner, reads=["Q", "KT", "V"], writes=["O"])
def attn3_host(O, Q, KT, V):
    qt = tunable("QT")
    heads, seq, d = O.shape
    op = partition_by_blocks(O, (1, qt, d))
    qp = partition_by_blocks(Q, (1, qt, d))
    ktp = partition_by_blocks(KT, (1, d, seq))
    vp = partition_by_blocks(V, (1, seq, d))
    for hi in prange(heads, seq // qt):
        h, i = hi
        launch(
            "attn3",
            squeeze(op[h, i, 0]),
            squeeze(qp[h, i, 0]),
            squeeze(ktp[h, 0, 0]),
            squeeze(vp[h, 0, 0]),
        )


@kernel_registry.task("attn3", Inner, reads=["Q", "KT", "V"], writes=["O"])
def attn3_block(O, Q, KT, V):
    kv = tunable("KV")
    qt, d = Q.shape
    seq = KT.shape[1]
    tiles = seq // kv
    scale = 1.0 / math.sqrt(d)
    ktp = partition_by_blocks(KT, (d, kv))
    vp = partition_by_blocks(V, (kv, d))
    acc = make_tensor((qt, d), f32, name="Oacc")
    scores = make_tensor((qt, kv), f32, name="S")
    scores_prev = make_tensor((qt, kv), f32, name="S_prev")
    probs = make_tensor((qt, kv), f16, name="P")
    row_max = make_tensor((qt, 1), f32, name="mrow")
    row_sum = make_tensor((qt, 1), f32, name="lrow")
    launch("clear", acc)
    launch("init_softmax", row_max, row_sum)
    launch("fill_sentinel", scores_prev)
    for kk in srange(tiles):
        # Compute this tile's scores asynchronously...
        launch("gemm0", scores, Q, ktp[0, kk], to="s_gemm0_tile")
        # ...while the softmax and output GEMM drain the *previous*
        # tile out of the copied score buffer.
        launch(
            "softmax_step",
            row_max,
            row_sum,
            acc,
            scores_prev,
            probs,
            scale,
        )
        launch(
            "gemm", acc, probs, vp[(kk + tiles - 1) % tiles, 0],
            to="o_gemm_tile",
        )
        # Refresh the copy for the next iteration (the FA3 paper's
        # extra register copy of the first GEMM's accumulator).
        launch("copy_scores", scores_prev, scores)
    # Epilogue: drain the last tile.
    launch(
        "softmax_step", row_max, row_sum, acc, scores_prev, probs, scale
    )
    launch("gemm", acc, probs, vp[tiles - 1, 0], to="o_gemm_tile")
    launch("softmax_fin", acc, row_sum)
    launch("copy", O, acc)


@kernel_registry.task("copy_scores", Leaf, reads=["src"], writes=["dst"])
def copy_scores_leaf(dst, src):
    call_external("copy_tile_reg", dst, src)


@kernel_registry.task("fill_sentinel", Leaf, writes=["S"])
def fill_sentinel_leaf(S):
    call_external("fill_neg_inf", S)


def build_flash_attention3(
    machine: MachineModel,
    heads: int,
    seq: int,
    head_dim: int = 128,
    q_tile: int = 128,
    kv_tile: int = 128,
    wgs: int = 2,
    pipeline: int = 2,
    warpspecialize: bool = True,
) -> KernelBuild:
    """Build the mapped Flash Attention 3 forward kernel."""
    g = MemoryKind.GLOBAL
    n = MemoryKind.NONE
    mappings = [
        TaskMapping(
            instance="attn3_host",
            variant="attn3_host",
            proc=ProcessorKind.HOST,
            mems=(g, g, g, g),
            tunables={"QT": q_tile},
            entrypoint=True,
            calls=("attn3_block",),
        ),
        TaskMapping(
            instance="attn3_block",
            variant="attn3_block",
            proc=ProcessorKind.BLOCK,
            mems=(g, g, g, g),
            tunables={"KV": kv_tile},
            calls=(
                "clear_block",
                "init_softmax_leaf",
                "fill_sentinel_leaf",
                "s_gemm0_tile",
                "softmax_step_leaf",
                "o_gemm_tile",
                "copy_scores_leaf",
                "softmax_fin_leaf",
                "copy_store",
            ),
            warpspecialize=warpspecialize,
            pipeline=pipeline,
        ),
        TaskMapping(
            instance="copy_scores_leaf",
            variant="copy_scores_leaf",
            proc=ProcessorKind.BLOCK,
            mems=(n, n),
        ),
        TaskMapping(
            instance="fill_sentinel_leaf",
            variant="fill_sentinel_leaf",
            proc=ProcessorKind.BLOCK,
            mems=(n,),
        ),
    ]
    mappings += gemm_tile_mappings("gemm0", wgs, n, prefix="s_")
    mappings += gemm_tile_mappings("gemm", wgs, n, prefix="o_")
    mappings += attention_support_mappings(wgs)
    mappings += clear_tree_mappings(wgs)
    mappings.append(copy_store_mapping())
    spec = MappingSpec(mappings, kernel_registry, machine)
    flops = 4.0 * heads * seq * seq * head_dim
    unique = 2.0 * heads * seq * head_dim * 4
    return KernelBuild(
        name=f"fa3_h{heads}_s{seq}_d{head_dim}",
        spec=spec,
        arg_shapes=(
            (heads, seq, head_dim),
            (heads, seq, head_dim),
            (heads, head_dim, seq),
            (heads, seq, head_dim),
        ),
        arg_dtypes=(f16, f16, f16, f16),
        total_flops=flops,
        unique_dram_bytes=unique,
        params={
            "q_tile": q_tile,
            "kv_tile": kv_tile,
            "wgs": wgs,
            "pipeline": pipeline,
            "warpspecialize": warpspecialize,
        },
    )
