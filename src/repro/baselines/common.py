"""Shared schedule-building helpers for baseline models."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.gpusim.kernel import Instr, KernelSchedule, Segment
from repro.machine.machine import MachineModel
from repro.numbering import next_number


def fresh_uid() -> int:
    return next_number("op")


def gemm_like_schedule(
    name: str,
    machine: MachineModel,
    m: int,
    n: int,
    k: int,
    tile_m: int,
    tile_n: int,
    tile_k: int,
    n_warpgroups: int = 2,
    pipeline: int = 3,
    use_tma: bool = True,
    warpspecialized: bool = True,
    batch: int = 1,
    b_operands: int = 1,
    serialize_second_b: bool = False,
    reduction_cycles_flops: float = 0.0,
    reduction_waits_tensor: bool = False,
    smem_accumulator_bytes: int = 0,
    loads_pipelined: bool = True,
    epilogue_through_smem: bool = True,
    total_flops: Optional[float] = None,
    unique_dram_bytes: Optional[float] = None,
) -> KernelSchedule:
    """A parametric warp-specialized (or multistage) GEMM schedule.

    Encodes the main-loop structures of CUTLASS-style kernels and of the
    Triton behaviours the paper diagnoses. One schedule instruction per
    logical operation per K step; the executor supplies overlap.
    """
    copy_kind = "tma_load" if use_tma else "cp_async"
    store_kind = "tma_store" if use_tma else "st_global"
    k_steps = max(1, k // tile_k)
    a_bytes = tile_m * tile_k * 2
    b_bytes = tile_k * tile_n * 2
    c_bytes = tile_m * tile_n * 2

    load_a = Instr(
        uid=fresh_uid(), kind=copy_kind, role="dma", bytes_moved=a_bytes,
        war_distance=pipeline if loads_pipelined else 1, label="load A",
    )
    loop: List[Instr] = [load_a]
    mma_uids: List[int] = []
    b_loads: List[Instr] = []
    previous_mma: Optional[Instr] = None
    for which in range(b_operands):
        load_b = Instr(
            uid=fresh_uid(), kind=copy_kind, role="dma",
            bytes_moved=b_bytes,
            war_distance=pipeline if loads_pipelined else 1,
            label=f"load B{which}",
        )
        if which > 0 and serialize_second_b and previous_mma is not None:
            # Triton's Dual-GEMM behaviour: the second operand's load is
            # not overlapped with the first multiplication.
            load_b.deps = [previous_mma.uid]
        loop.append(load_b)
        b_loads.append(load_b)
        mma = Instr(
            uid=fresh_uid(), kind="wgmma", role="compute",
            flops=2.0 * tile_m * tile_n * tile_k,
            deps=[load_a.uid, load_b.uid],
            label=f"wgmma{which}",
        )
        loop.append(mma)
        mma_uids.append(mma.uid)
        previous_mma = mma
    load_a.war_consumers = list(mma_uids)
    for load_b in b_loads:
        load_b.war_consumers = list(mma_uids)

    if reduction_cycles_flops > 0:
        red = Instr(
            uid=fresh_uid(), kind="simt", role="compute",
            flops=reduction_cycles_flops,
            deps=[load_a.uid]
            + (mma_uids if reduction_waits_tensor else []),
            label="row reduction",
        )
        loop.append(red)
        if smem_accumulator_bytes > 0:
            rmw = Instr(
                uid=fresh_uid(), kind="smem_copy", role="compute",
                bytes_moved=smem_accumulator_bytes,
                deps=[red.uid], label="smem accumulator rmw",
            )
            loop.append(rmw)

    postamble: List[Instr] = []
    if epilogue_through_smem:
        stage = Instr(
            uid=fresh_uid(), kind="smem_copy", role="compute",
            bytes_moved=c_bytes, deps=list(mma_uids), label="stage C",
        )
        store = Instr(
            uid=fresh_uid(), kind=store_kind, role="dma",
            bytes_moved=c_bytes, deps=[stage.uid], label="store C",
        )
        postamble = [stage, store]
    else:
        store = Instr(
            uid=fresh_uid(), kind=store_kind, role="dma",
            bytes_moved=c_bytes, deps=list(mma_uids), label="store C",
        )
        postamble = [store]

    grid = batch * (m // tile_m) * (n // tile_n)
    smem = (a_bytes + b_operands * b_bytes) * pipeline
    if epilogue_through_smem:
        smem += 0  # staging aliases the loop tiles, as the allocator does
    smem += smem_accumulator_bytes
    if total_flops is None:
        total_flops = 2.0 * batch * m * n * k * b_operands
    if unique_dram_bytes is None:
        unique_dram_bytes = 2.0 * batch * (
            m * k + b_operands * k * n + m * n
        )
    regs = 168 if n_warpgroups >= 2 else 232
    return KernelSchedule(
        name=name,
        segments=[
            Segment(loop, extent=k_steps, pipeline=pipeline),
            Segment(postamble),
        ],
        grid=grid,
        n_warpgroups=n_warpgroups,
        warpspecialized=warpspecialized,
        smem_bytes_per_cta=smem,
        regs_per_thread=regs,
        total_flops=total_flops,
        unique_dram_bytes=unique_dram_bytes,
        metadata={"machine": machine.name},
    )


def attention_schedule(
    name: str,
    machine: MachineModel,
    heads: int,
    seq: int,
    head_dim: int,
    q_tile: int,
    kv_tile: int,
    n_warpgroups: int = 2,
    pipeline: int = 2,
    use_tma: bool = True,
    warpspecialized: bool = True,
    softmax_overlapped: bool = True,
    softmax_sfu_per_elem: float = 2.0,
    probs_through_smem: bool = True,
    persistent: bool = False,
) -> KernelSchedule:
    """A parametric Flash-Attention-style forward schedule.

    ``softmax_overlapped=False`` reproduces the FA2 structure (the
    softmax explicitly waits on the score GEMM's Tensor Core result);
    ``True`` reproduces FA3's pipelined structure where the softmax of
    iteration k overlaps the score GEMM of k+1.
    """
    copy_kind = "tma_load" if use_tma else "cp_async"
    kv_steps = max(1, seq // kv_tile)
    k_bytes = head_dim * kv_tile * 2
    v_bytes = kv_tile * head_dim * 2
    s_elems = q_tile * kv_tile
    gemm_flops = 2.0 * q_tile * kv_tile * head_dim

    load_k = Instr(
        uid=fresh_uid(), kind=copy_kind, role="dma", bytes_moved=k_bytes,
        war_distance=pipeline, label="load K",
    )
    load_v = Instr(
        uid=fresh_uid(), kind=copy_kind, role="dma", bytes_moved=v_bytes,
        war_distance=pipeline, label="load V",
    )
    mma_s = Instr(
        uid=fresh_uid(), kind="wgmma", role="compute", flops=gemm_flops,
        deps=[load_k.uid], label="S = Q K^T",
    )
    softmax = Instr(
        uid=fresh_uid(), kind="sfu", role="compute",
        sfu_ops=softmax_sfu_per_elem * s_elems,
        deps=[] if softmax_overlapped else [mma_s.uid],
        carried_deps=[(mma_s.uid, 1)] if softmax_overlapped else [],
        label="online softmax",
    )
    rescale = Instr(
        uid=fresh_uid(), kind="simt", role="compute",
        flops=4.0 * q_tile * head_dim + s_elems,
        deps=[softmax.uid], label="rescale + row reductions",
    )
    loop = [load_k, load_v, mma_s, softmax, rescale]
    if probs_through_smem:
        stage_p = Instr(
            uid=fresh_uid(), kind="smem_copy", role="compute",
            bytes_moved=s_elems * 2, deps=[rescale.uid], label="stage P",
        )
        loop.append(stage_p)
        o_dep = stage_p.uid
    else:
        o_dep = rescale.uid
    mma_o = Instr(
        uid=fresh_uid(), kind="wgmma", role="compute", flops=gemm_flops,
        deps=[o_dep, load_v.uid], label="O += P V",
    )
    loop.append(mma_o)
    load_k.war_consumers = [mma_s.uid]
    load_v.war_consumers = [mma_o.uid]

    finalize = Instr(
        uid=fresh_uid(), kind="simt", role="compute",
        flops=2.0 * q_tile * head_dim, deps=[mma_o.uid], label="finalize",
    )
    stage_o = Instr(
        uid=fresh_uid(), kind="smem_copy", role="compute",
        bytes_moved=q_tile * head_dim * 2, deps=[finalize.uid],
        label="stage O",
    )
    store_o = Instr(
        uid=fresh_uid(), kind="tma_store" if use_tma else "st_global",
        role="dma", bytes_moved=q_tile * head_dim * 2,
        deps=[stage_o.uid], label="store O",
    )
    grid = heads * (seq // q_tile)
    smem = (k_bytes + v_bytes) * pipeline + q_tile * head_dim * 2
    return KernelSchedule(
        name=name,
        segments=[
            Segment(loop, extent=kv_steps, pipeline=pipeline),
            Segment([finalize, stage_o, store_o]),
        ],
        grid=grid,
        n_warpgroups=n_warpgroups,
        warpspecialized=warpspecialized,
        smem_bytes_per_cta=smem,
        regs_per_thread=180,
        total_flops=4.0 * heads * seq * seq * head_dim,
        unique_dram_bytes=2.0 * heads * seq * head_dim * 4,
        metadata={"machine": machine.name, "persistent": persistent},
    )
