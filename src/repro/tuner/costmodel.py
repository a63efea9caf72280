"""Analytic latency/occupancy prediction for mapped kernels.

The autotuner's expensive loop is ``compile + simulate`` per candidate:
every sweep pays the full pass pipeline and a discrete-event simulation
for mappings that a napkin calculation could have rejected. This module
is the napkin, made precise enough to rank: :class:`AnalyticCostModel`
scores a :class:`~repro.kernels.common.KernelBuild` (mapping parameters
+ concrete shapes) against a :class:`~repro.machine.machine.
MachineModel` using only the mapping arithmetic — tile FLOPs, bytes
moved per pipeline stage, shared-memory and register pressure, pipeline
depth versus DMA latency hiding, occupancy, waves, bandwidth roofs, and
the deterministic throttle — without running a single compiler pass.

Infeasible mappings (shared-memory overflow, WGMMA row-granule
violations) score ``inf`` with a reason instead of raising, mirroring
how the compiler reports them. The model predicts one CTA — its loop,
prologue, epilogue and per-resource busy time — and hands it to the
simulator's own launch model (:func:`repro.gpusim.roofline.occupancy`
and :func:`~repro.gpusim.roofline.launch`) over the rates of
:func:`~repro.gpusim.roofline.roofline`. The model and the simulator
can therefore only disagree about how one CTA behaves, never about
machine capability or how a grid fills the device. One difference is
in the inputs: the model's L2/HBM roofs count loaded bytes only, while
the simulator's add the stored bytes.

Accuracy contract: predictions are for *ranking*. On the seed kernels
the model tracks simulated cycles within :data:`AGREEMENT_FACTOR`
(absolute) and achieves Spearman rank correlation >= 0.8 against
simulation across the gemm and attention search spaces
(``tests/test_costmodel.py`` asserts both; ``python -m bench`` reports
``tuner.costmodel.spearman`` and ``.pred_err``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.compiler.cache import score_cache
from repro.errors import CypressError
from repro.frontend.mapping import canonicalize
from repro.gpusim.roofline import Roofline, launch, occupancy, roofline
from repro.kernels.common import KernelBuild
from repro.machine.machine import MachineModel
from repro.tuner.search_space import wgmma_rows_fit

#: Shared-memory allocation granule (mirrors the allocator's alignment).
SMEM_ALIGN = 128

#: Documented tolerance of predicted vs simulated cycles on the seed
#: kernels: ``pred / AGREEMENT_FACTOR <= sim <= pred * AGREEMENT_FACTOR``
#: (see ``tests/test_costmodel.py`` and ``docs/tuning.md``).
AGREEMENT_FACTOR = 3.0

INFEASIBLE = float("inf")


def _align(size: float) -> int:
    return -(-int(size) // SMEM_ALIGN) * SMEM_ALIGN


def _cdiv(a: int, b: int) -> int:
    return -(-a // b)


def _prod(values: Sequence[int]) -> int:
    out = 1
    for v in values:
        out *= v
    return out


@dataclass(frozen=True)
class CostEstimate:
    """One candidate's predicted execution profile.

    Attributes:
        name: the scored build's kernel name.
        family: which analytic sub-model produced the estimate
            (``"gemm"`` or ``"attention"``).
        cycles: predicted kernel cycles; ``inf`` for infeasible
            mappings (see ``reason``).
        seconds: predicted wall time including launch overhead.
        tflops: predicted throughput (0.0 when infeasible or no work).
        grid: CTAs launched.
        steps: main-loop iterations per CTA (0 for degenerate shapes).
        smem_bytes: predicted shared memory per CTA after aliasing.
        regs_per_thread: predicted register pressure per thread.
        occupancy: predicted CTAs resident per SM.
        waves: predicted grid waves.
        breakdown: named cycle contributions (``tensor``, ``dma``,
            ``exposed_latency``, ``epilogue``, ...) for reports.
        reason: why the mapping is infeasible (``None`` when feasible).
    """

    name: str
    family: str
    cycles: float
    seconds: float
    tflops: float
    grid: int
    steps: int
    smem_bytes: int
    regs_per_thread: int
    occupancy: int
    waves: int
    breakdown: Dict[str, float] = field(default_factory=dict)
    reason: Optional[str] = None

    @property
    def feasible(self) -> bool:
        """Whether the mapping can execute at all (finite cycles)."""
        return math.isfinite(self.cycles)


def _infeasible(name: str, family: str, reason: str) -> CostEstimate:
    return CostEstimate(
        name=name,
        family=family,
        cycles=INFEASIBLE,
        seconds=INFEASIBLE,
        tflops=0.0,
        grid=0,
        steps=0,
        smem_bytes=0,
        regs_per_thread=0,
        occupancy=0,
        waves=0,
        reason=reason,
    )


@dataclass
class _LoopModel:
    """Per-CTA quantities one analytic sub-model hands the shared solver."""

    grid: int
    steps: int
    tensor_per_step: float      # Tensor Core FLOPs per main-loop step
    serial_per_step: float      # SFU/SIMT ops serialized with tensor work
    dma_bytes_per_step: float   # global bytes fetched per step
    loads_per_step: int         # distinct bulk copies per step
    chain_dma_bytes: float      # bytes feeding the critical consumer
    chain_tensor_flops: float   # that consumer's Tensor Core FLOPs
    serialized_steps: bool      # in-step dependence chain gates fetches
    prologue_dma_bytes: float   # one-time loads (e.g. the Q tile)
    prologue_simt_flops: float  # accumulator clears, softmax init
    stage_bytes: float          # shared-memory staging traffic (epilogue)
    loop_smem: int              # main-loop shared memory per CTA
    epilogue_smem: int          # staging shared memory (aliasable)
    acc_bytes: int              # register bytes per CTA (all fragments)


class AnalyticCostModel:
    """Scores mappings analytically; stateless.

    ``score`` is a pure function of (build, machine), memoized
    process-wide in :data:`repro.compiler.cache.score_cache`, so any
    instance serves any caller.
    """

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_key(
        self, build: KernelBuild, machine: MachineModel
    ) -> Tuple[Any, ...]:
        """The memoization key for ``score(build, machine)``.

        Deliberately cheap — hashing must cost less than the scoring it
        saves, so this avoids the SHA-256 compile-key path and keys on
        the build's name, parameters, shapes, and the machine's full
        :class:`~repro.gpusim.roofline.Roofline` (every derived rate
        and limit the model consumes — two machines sharing a name but
        differing in capability cannot collide).

        Args:
            build: the kernel build being scored.
            machine: the target machine.

        Returns:
            A hashable tuple suitable for
            :class:`~repro.compiler.cache.ScoreCache`.
        """
        return (
            build.name,
            canonicalize(build.params),
            tuple(tuple(s) for s in build.arg_shapes),
            float(build.total_flops),
            float(build.unique_dram_bytes),
            machine.name,
            roofline(machine),
            self._family(build),
        )

    def score(
        self,
        build: KernelBuild,
        machine: MachineModel,
        *,
        memoize: bool = True,
    ) -> CostEstimate:
        """Predict the execution profile of ``build`` on ``machine``.

        Args:
            build: a mapped kernel instantiation from the kernel zoo
                (or any build exposing ``params``/``arg_shapes``/
                ``total_flops``/``unique_dram_bytes``).
            machine: the machine to predict for.
            memoize: consult/populate the process-wide
                :data:`~repro.compiler.cache.score_cache`.

        Returns:
            A :class:`CostEstimate`; infeasible mappings come back with
            ``cycles == inf`` and a ``reason`` — never an exception.
        """
        if not memoize:
            return self._score_uncached(build, machine)
        return score_cache.get_or_score(
            self.score_key(build, machine),
            lambda: self._score_uncached(build, machine),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _family(build: KernelBuild) -> str:
        params = build.params or {}
        if "q_tile" in params:
            return "attention"
        if "tile_m" in params:
            return "gemm"
        raise CypressError(
            f"{build.name}: the cost model scores builds with a tile_m "
            f"(gemm) or q_tile (attention) parameter, got {sorted(params)}"
        )

    def _score_uncached(
        self, build: KernelBuild, machine: MachineModel
    ) -> CostEstimate:
        family = self._family(build)
        if family == "attention":
            model = self._attention_loop(build)
        else:
            model = self._gemm_loop(build)
        if isinstance(model, CostEstimate):  # infeasibility short-circuit
            return model
        return self._solve(build, roofline(machine), family, model)

    def _gemm_loop(self, build: KernelBuild):
        params = build.params
        tile_m = int(params["tile_m"])
        tile_n = int(params.get("tile_n", tile_m))
        tile_k = int(params.get("tile_k", 64))
        wgs = int(params.get("wgs", 1))
        out = build.arg_shapes[0]
        batch = _prod(out[:-2]) if len(out) > 2 else 1
        m, n = out[-2], out[-1]
        k = build.arg_shapes[-1][-2] if len(build.arg_shapes[-1]) >= 2 else 0
        bad = self._wgmma_violation(build.name, "gemm", tile_m, wgs)
        if bad is not None:
            return bad

        elem = 2  # FP16 operands throughout the zoo
        # How many (k, n) operands feed each output tile: 1 for GEMM /
        # batched / +reduction, 2 for Dual-GEMM. Recovered from the
        # declared FLOPs so the model needs no per-kernel special case.
        denom = 2.0 * batch * m * n * k
        mults = max(1, round(build.total_flops / denom)) if denom else 1

        grid = max(1, batch * _cdiv(m, tile_m) * _cdiv(n, tile_n)) if (
            m and n
        ) else 1
        steps = _cdiv(k, tile_k) if k > 0 else 0

        a_tile = tile_m * tile_k * elem
        b_tile = tile_k * tile_n * elem
        c_stage = tile_m * tile_n * elem
        # The allocator assigns offsets before the pipelining pass
        # multi-buffers anything, so deep pipelines reuse the same
        # physical tiles (backward WAR edges, not extra smem) — the
        # footprint must NOT scale with pipeline depth.
        loop_smem = _align(a_tile) + mults * _align(b_tile)
        # One register fragment per MMA in the step plus the clear
        # tree's (mirrors the allocator's register report).
        acc_bytes = (1 + mults) * tile_m * tile_n * elem
        if params.get("accumulator") == "shared":
            # The GEMM+Reduction ablation parks the row accumulator in
            # shared memory and pays staging traffic for it.
            loop_smem += _align(tile_m * 4)

        return _LoopModel(
            grid=grid,
            steps=steps,
            tensor_per_step=2.0 * tile_m * tile_n * tile_k * mults,
            serial_per_step=0.0,
            dma_bytes_per_step=float(a_tile + mults * b_tile),
            loads_per_step=1 + mults,
            # The critical chain fetches one A/B pair; a Dual-GEMM's
            # second B load overlaps the first MMA, but both MMAs
            # serialize on the shared accumulator.
            chain_dma_bytes=float(a_tile + b_tile),
            chain_tensor_flops=2.0 * tile_m * tile_n * tile_k * mults,
            serialized_steps=mults >= 2,
            prologue_dma_bytes=0.0,
            prologue_simt_flops=float(tile_m * tile_n),
            stage_bytes=float(c_stage),
            loop_smem=loop_smem,
            epilogue_smem=_align(c_stage),
            acc_bytes=acc_bytes,
        )

    def _attention_loop(self, build: KernelBuild):
        params = build.params
        q_tile = int(params["q_tile"])
        kv_tile = int(params.get("kv_tile", 128))
        wgs = int(params.get("wgs", 1))
        heads, seq, d = build.arg_shapes[0]
        bad = self._wgmma_violation(build.name, "attention", q_tile, wgs)
        if bad is not None:
            return bad

        elem = 2
        grid = max(1, heads * _cdiv(seq, q_tile)) if seq else 1
        steps = _cdiv(seq, kv_tile) if seq > 0 else 0

        k_tile = d * kv_tile * elem
        v_tile = kv_tile * d * elem
        q_bytes = q_tile * d * elem
        p_tile = q_tile * kv_tile * elem       # probabilities, via smem
        o_stage = q_tile * d * 4               # FP32 accumulator staged out
        # No pipeline multiplier: allocation precedes multi-buffering
        # (see the gemm model).
        loop_smem = (
            _align(q_bytes)
            + _align(k_tile)
            + _align(v_tile)
            + _align(p_tile)
        )
        return _LoopModel(
            grid=grid,
            steps=steps,
            # Both GEMMs of one kv step: S = Q K^T and O += P V.
            tensor_per_step=4.0 * q_tile * kv_tile * d,
            # The online-softmax update: ~2 SFU ops per score element,
            # serialized between the two GEMMs by data dependence.
            serial_per_step=2.0 * q_tile * kv_tile,
            dma_bytes_per_step=float(k_tile + v_tile),
            loads_per_step=2,
            # The K and V tiles feed *different* GEMMs, so the critical
            # fetch chain covers one tile and one of the two GEMMs; the
            # rest of the step's serial work is free latency slack.
            chain_dma_bytes=float(k_tile),
            chain_tensor_flops=2.0 * q_tile * kv_tile * d,
            serialized_steps=True,
            prologue_dma_bytes=float(q_bytes),
            prologue_simt_flops=float(q_tile * d),
            stage_bytes=float(o_stage + p_tile),
            loop_smem=loop_smem,
            epilogue_smem=_align(o_stage),
            # The O accumulator appears twice (clear + compute trees)
            # plus the FP32 score fragment.
            acc_bytes=2 * q_tile * d * 4 + q_tile * kv_tile * 4,
        )

    @staticmethod
    def _wgmma_violation(
        name: str, family: str, rows: int, wgs: int
    ) -> Optional[CostEstimate]:
        if wgmma_rows_fit(rows, wgs):
            return None
        return _infeasible(
            name,
            family,
            f"warpgroup tile of {rows}/{wgs} rows violates the 64-row "
            "WGMMA granule",
        )

    def _solve(
        self,
        build: KernelBuild,
        roof: Roofline,
        family: str,
        lm: _LoopModel,
    ) -> CostEstimate:
        params = build.params or {}
        wgs = int(params.get("wgs", 1))
        pipeline = int(params.get("pipeline", 1))
        warpspec = bool(params.get("warpspecialize", False))
        name = build.name

        # -- shared memory and feasibility ------------------------------
        smem = lm.loop_smem + lm.epilogue_smem
        if smem > roof.smem_capacity_bytes:
            # The allocator aliases the epilogue staging buffer with the
            # (dead by then) main-loop tiles before giving up.
            smem = max(lm.loop_smem, lm.epilogue_smem)
            if smem > roof.smem_capacity_bytes:
                return _infeasible(
                    name,
                    family,
                    f"mapping needs {max(lm.loop_smem, lm.epilogue_smem)} B "
                    f"of shared memory per CTA, exceeding the "
                    f"{roof.smem_capacity_bytes}-byte capacity even with "
                    "maximal aliasing",
                )

        # -- occupancy --------------------------------------------------
        threads = 128 * wgs + (128 if warpspec else 0)
        regs_per_thread = lm.acc_bytes // max(1, wgs * 128) // 4 + 40
        ctas_per_sm = occupancy(roof, smem, threads, regs_per_thread)

        # -- per-step steady state --------------------------------------
        tensor = lm.tensor_per_step / roof.tensor_flops_per_cycle
        serial = lm.serial_per_step / roof.sfu_ops_per_cycle
        dma = lm.dma_bytes_per_step / roof.global_bytes_per_cycle
        latency = roof.copy_latency_cycles()
        issue = lm.loads_per_step * roof.copy_issue_cycles(
            lm.dma_bytes_per_step / max(1, lm.loads_per_step)
        )
        # Serial work (the online softmax) sits between the two GEMMs of
        # a step and synchronizes the whole block, so it extends the
        # critical path regardless of warpgroup count.
        compute = tensor + serial
        if warpspec:
            # The DMA warp runs ahead, bounded by per-buffer backward
            # WAR edges at distance `pipeline`: the steady-state period
            # is each server's service time, or the critical consumer's
            # fetch+compute chain amortized over its in-flight buffers.
            chain = (
                lm.chain_dma_bytes / roof.global_bytes_per_cycle
                + latency
                + lm.chain_tensor_flops / roof.tensor_flops_per_cycle
            )
            step_cycles = max(compute, dma, chain / max(1, pipeline))
        elif lm.serialized_steps:
            # Single-stream with an in-step dependence chain (blocking
            # softmax, or a load gated on the previous MMA): the stream
            # re-exposes the full chain every step.
            step_cycles = compute + dma + latency + issue
        else:
            # Single-stream, async copies, no blocking work: loads
            # stream ahead of the MMAs, but each step's consumer still
            # waits one full fetch; depth changes nothing because
            # multi-buffering only happens under warp specialization.
            step_cycles = max(tensor, dma + latency + issue)
        exposed = step_cycles - max(compute, dma)

        # -- prologue / epilogue ---------------------------------------
        prologue = lm.prologue_simt_flops / roof.simt_flops_per_cycle
        if lm.prologue_dma_bytes:
            prologue += (
                lm.prologue_dma_bytes / roof.global_bytes_per_cycle + latency
            )
        fill = (dma + latency) if (warpspec and lm.steps > 0) else 0.0
        # The TMA store itself is modeled as free by the simulator; the
        # epilogue cost is the register->shared staging plus one copy
        # latency.
        epilogue = lm.stage_bytes / roof.smem_bytes_per_cycle + (
            latency if lm.stage_bytes else 0.0
        )
        loop_cycles = lm.steps * step_cycles
        cta_cycles = prologue + fill + loop_cycles + epilogue

        # -- the launch (the simulator's grid model, shared) ------------
        tensor_busy = lm.steps * tensor
        dma_busy = (
            lm.steps * dma
            + lm.prologue_dma_bytes / roof.global_bytes_per_cycle
        )
        serial_busy = lm.steps * serial
        stage_busy = lm.stage_bytes / roof.smem_bytes_per_cycle
        # The roofs count loaded bytes only; the simulator's add the
        # stored ones.
        timing = launch(
            roof,
            grid=lm.grid,
            ctas_per_sm=ctas_per_sm,
            cta_cycles=cta_cycles,
            busy=(tensor_busy, dma_busy, serial_busy, stage_busy),
            hbm_bytes=build.unique_dram_bytes,
            l2_bytes=lm.grid * (
                lm.steps * lm.dma_bytes_per_step + lm.prologue_dma_bytes
            ),
            total_flops=build.total_flops,
        )
        return CostEstimate(
            name=name,
            family=family,
            cycles=timing.cycles,
            seconds=timing.seconds,
            tflops=timing.tflops,
            grid=lm.grid,
            steps=lm.steps,
            smem_bytes=smem,
            regs_per_thread=regs_per_thread,
            occupancy=ctas_per_sm,
            waves=timing.waves,
            breakdown={
                "tensor": tensor_busy,
                "dma": dma_busy,
                "serial": serial_busy,
                "exposed_latency": lm.steps * exposed,
                "prologue": prologue,
                "epilogue": epilogue,
                "hbm_floor": timing.hbm_floor,
                "l2_floor": timing.l2_floor,
            },
        )


def spearman(
    xs: Sequence[float], ys: Sequence[float]
) -> float:
    """Spearman rank correlation of two paired samples.

    Ties receive average ranks (the standard treatment), so repeated
    predicted cycles cannot fabricate correlation.

    Args:
        xs / ys: paired observations; must have equal length.

    Returns:
        The rank correlation in [-1, 1]; 0.0 when fewer than two pairs
        or when either sample is constant.

    Raises:
        ValueError: when the samples have different lengths.
    """
    if len(xs) != len(ys):
        raise ValueError(
            f"spearman needs paired samples, got {len(xs)} vs {len(ys)}"
        )
    n = len(xs)
    if n < 2:
        return 0.0

    def ranks(values: Sequence[float]) -> list:
        order = sorted(range(n), key=lambda i: values[i])
        out = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for idx in order[i : j + 1]:
                out[idx] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mean = (n + 1) / 2.0
    cov = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    var_x = sum((a - mean) ** 2 for a in rx)
    var_y = sum((b - mean) ** 2 for b in ry)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)
