"""Flash Attention 2 forward kernel in Cypress (paper section 5.3).

One thread block owns a tile of query rows and iterates over tiles of
keys/values: ``S = Q x K^T``, an online-softmax update of the running
row max/sum with accumulator rescaling, then ``O_acc += P x V``. The
score GEMM uses the non-accumulating ``gemm0`` tree; the output GEMM
reuses the accumulating ``gemm`` tree, each dispatched by instance hint.

The paper's tuned FA2 uses three consumer warpgroups so the warp
scheduler interleaves one warpgroup's softmax with the others' Tensor
Core work (pass ``q_tile=192, wgs=3``, usable whenever the sequence
length divides 192); the default two-warpgroup, 128-row configuration
divides the power-of-two sequence lengths of the paper's Figure 14.
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
from repro.kernels.common import KernelBuild
from repro.kernels.gemm import gemm_tile_mappings


@kernel_registry.task("attn2", Inner, reads=["Q", "KT", "V"], writes=["O"])
def attn2_host(O, Q, KT, V):
    qt = tunable("QT")
    heads, seq, d = O.shape
    op = partition_by_blocks(O, (1, qt, d))
    qp = partition_by_blocks(Q, (1, qt, d))
    ktp = partition_by_blocks(KT, (1, d, seq))
    vp = partition_by_blocks(V, (1, seq, d))
    for hi in prange(heads, seq // qt):
        h, i = hi
        launch(
            "attn2",
            squeeze(op[h, i, 0]),
            squeeze(qp[h, i, 0]),
            squeeze(ktp[h, 0, 0]),
            squeeze(vp[h, 0, 0]),
        )


@kernel_registry.task("attn2", Inner, reads=["Q", "KT", "V"], writes=["O"])
def attn2_block(O, Q, KT, V):
    kv = tunable("KV")
    qt, d = Q.shape
    seq = KT.shape[1]
    scale = 1.0 / math.sqrt(d)
    ktp = partition_by_blocks(KT, (d, kv))
    vp = partition_by_blocks(V, (kv, d))
    acc = make_tensor((qt, d), f32, name="Oacc")
    scores = make_tensor((qt, kv), f32, name="S")
    probs = make_tensor((qt, kv), f16, name="P")
    row_max = make_tensor((qt, 1), f32, name="mrow")
    row_sum = make_tensor((qt, 1), f32, name="lrow")
    launch("clear", acc)
    launch("init_softmax", row_max, row_sum)
    for kk in srange(seq // kv):
        launch("gemm0", scores, Q, ktp[0, kk], to="s_gemm0_tile")
        launch(
            "softmax_step", row_max, row_sum, acc, scores, probs, scale
        )
        launch("gemm", acc, probs, vp[kk, 0], to="o_gemm_tile")
    launch("softmax_fin", acc, row_sum)
    launch("copy", O, acc)


@kernel_registry.task(
    "softmax_step",
    Leaf,
    reads=["m", "l", "acc", "S"],
    writes=["m", "l", "acc", "P"],
)
def softmax_step_leaf(m, l, acc, S, P, scale):
    call_external("online_softmax_update", m, l, acc, S, P, scale)


@kernel_registry.task("init_softmax", Leaf, writes=["m", "l"])
def init_softmax_leaf(m, l):
    call_external("init_softmax_state", m, l)


@kernel_registry.task("softmax_fin", Leaf, reads=["acc", "l"], writes=["acc"])
def softmax_fin_leaf(acc, l):
    call_external("softmax_finalize", acc, l)


def attention_support_mappings(wgs: int) -> list:
    """Mappings shared by the attention kernels (softmax + epilogue).

    The softmax operates on register-resident fragments (all operands
    NONE), as hand-tuned Hopper attention kernels do; the probabilities
    reach shared memory only as the output GEMM's A operand.
    """
    n = MemoryKind.NONE
    return [
        TaskMapping(
            instance="softmax_step_leaf",
            variant="softmax_step_leaf",
            proc=ProcessorKind.BLOCK,
            mems=(n, n, n, n, n),
        ),
        TaskMapping(
            instance="init_softmax_leaf",
            variant="init_softmax_leaf",
            proc=ProcessorKind.BLOCK,
            mems=(n, n),
        ),
        TaskMapping(
            instance="softmax_fin_leaf",
            variant="softmax_fin_leaf",
            proc=ProcessorKind.BLOCK,
            mems=(n, n),
        ),
    ]


def build_flash_attention2(
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
    """Build the mapped Flash Attention 2 forward kernel.

    Inputs are per-head matrices: Q/V as ``(heads, seq, d)`` and K
    pre-transposed as ``(heads, d, seq)``, the layout attention kernels
    consume.
    """
    g = MemoryKind.GLOBAL
    mappings = [
        TaskMapping(
            instance="attn2_host",
            variant="attn2_host",
            proc=ProcessorKind.HOST,
            mems=(g, g, g, g),
            tunables={"QT": q_tile},
            entrypoint=True,
            calls=("attn2_block",),
        ),
        TaskMapping(
            instance="attn2_block",
            variant="attn2_block",
            proc=ProcessorKind.BLOCK,
            mems=(g, g, g, g),
            tunables={"KV": kv_tile},
            calls=(
                "clear_block",
                "init_softmax_leaf",
                "s_gemm0_tile",
                "softmax_step_leaf",
                "o_gemm_tile",
                "softmax_fin_leaf",
                "copy_store",
            ),
            warpspecialize=warpspecialize,
            pipeline=pipeline,
        ),
    ]
    mappings += gemm_tile_mappings(
        "gemm0", wgs, MemoryKind.NONE, prefix="s_"
    )
    mappings += gemm_tile_mappings("gemm", wgs, MemoryKind.NONE, prefix="o_")
    mappings += attention_support_mappings(wgs)
    mappings += clear_tree_mappings(wgs)
    mappings.append(copy_store_mapping())
    spec = MappingSpec(mappings, kernel_registry, machine)
    flops = 4.0 * heads * seq * seq * head_dim  # two GEMMs over seq^2
    unique = 2.0 * heads * seq * head_dim * 4  # Q, K, V, O
    return KernelBuild(
        name=f"fa2_h{heads}_s{seq}_d{head_dim}",
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
