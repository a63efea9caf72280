"""Performance-shape regression tests.

These assert the qualitative results of the paper's evaluation hold on
the simulator: who wins, by roughly what factor, and where crossovers
fall. Absolute TFLOP/s are not asserted (the substrate is a model, not
the authors' testbed); the ratio bands are deliberately wider than the
paper's. The figure tests run at every problem size the paper plots
(``SIZES`` / ``SEQLENS``, the points ``examples/paper_figures.py``
prints); the ablations run at ``SIZE``.
"""

import pytest

from repro import api
from repro.baselines import (
    cublas_batched_gemm,
    cublas_gemm,
    cudnn_attention,
    fa3_reference_attention,
    thunderkittens_attention,
    triton_attention,
    triton_dual_gemm,
    triton_gemm,
    triton_gemm_reduction,
)
from repro.kernels import (
    build_batched_gemm,
    build_dual_gemm,
    build_flash_attention2,
    build_flash_attention3,
    build_gemm,
    build_gemm_reduction,
)

SIZES = (4096, 6144, 8192)
SEQLENS = (2048, 4096, 8192, 16384)
SIZE = 4096
HEADS = 16
BATCH = 4
DEPTHS = (1, 2, 3, 4)


@pytest.fixture(scope="module")
def machine():
    from repro.machine import hopper_machine

    return hopper_machine()


def _cypress(machine, build):
    return api.simulate(api.compile_kernel(build), machine).tflops


class TestFig13aGemm:
    def test_competitive_with_cublas(self, machine):
        for n in SIZES:
            cy = _cypress(machine, build_gemm(machine, n, n, n))
            cb = cublas_gemm(machine, n, n, n).tflops
            assert 0.85 <= cy / cb <= 1.10, n  # paper: 0.88x - 1.06x

    def test_beats_triton_slightly(self, machine):
        for n in SIZES:
            cy = _cypress(machine, build_gemm(machine, n, n, n))
            tr = triton_gemm(machine, n, n, n).tflops
            assert 1.00 <= cy / tr <= 1.20, n  # paper: 1.05x - 1.11x

    def test_reasonable_absolute_throughput(self, machine):
        cy = _cypress(machine, build_gemm(machine, SIZE, SIZE, SIZE))
        peak = machine.spec("tensor_fp16_tflops")
        assert 0.5 * peak <= cy <= peak


class TestFig13bBatchedGemm:
    def test_competitive_with_cublas(self, machine):
        for n in SIZES:
            cy = _cypress(
                machine, build_batched_gemm(machine, BATCH, n, n, n)
            )
            cb = cublas_batched_gemm(machine, BATCH, n, n, n).tflops
            assert 0.85 <= cy / cb <= 1.15, n


class TestFig13cDualGemm:
    def test_dual_matches_plain_gemm(self, machine):
        for n in SIZES:
            gemm = _cypress(machine, build_gemm(machine, n, n, n))
            dual = _cypress(machine, build_dual_gemm(machine, n, n, n))
            # overlap keeps GEMM-level throughput
            assert dual >= 0.9 * gemm, n

    def test_beats_triton_substantially(self, machine):
        for n in SIZES:
            cy = _cypress(machine, build_dual_gemm(machine, n, n, n))
            tr = triton_dual_gemm(machine, n, n, n).tflops
            assert 1.25 <= cy / tr <= 1.60, n  # paper: 1.36x - 1.40x


class TestFig13dGemmReduction:
    def test_reduction_rides_free(self, machine):
        gemm = _cypress(machine, build_gemm(machine, SIZE, SIZE, SIZE))
        fused = _cypress(
            machine, build_gemm_reduction(machine, SIZE, SIZE, SIZE)
        )
        assert fused >= 0.9 * gemm

    def test_beats_triton_by_about_2x(self, machine):
        for n in SIZES:
            cy = _cypress(machine, build_gemm_reduction(machine, n, n, n))
            tr = triton_gemm_reduction(machine, n, n, n).tflops
            assert 1.9 <= cy / tr <= 2.5, n  # paper: 2.02x - 2.18x

    def test_smem_accumulator_ablation_reproduces_triton_penalty(
        self, machine
    ):
        """Remapping only the accumulator recreates part of the gap."""
        for n in (4096, 8192):
            reg, smem = (
                _cypress(
                    machine,
                    build_gemm_reduction(machine, n, n, n, accumulator=acc),
                )
                for acc in ("register", "shared")
            )
            assert smem < reg, n


class TestFig14Attention:
    def test_cypress_fa3_near_reference(self, machine):
        for seq in SEQLENS:
            cy = _cypress(
                machine, build_flash_attention3(machine, HEADS, seq)
            )
            ref = fa3_reference_attention(machine, HEADS, seq).tflops
            floor = 0.75 if seq == SIZE else 0.70
            assert floor <= cy / ref <= 1.0, seq  # paper: 0.80x - 0.98x

    def test_cypress_fa2_near_thunderkittens(self, machine):
        for seq in SEQLENS:
            cy = _cypress(
                machine, build_flash_attention2(machine, HEADS, seq)
            )
            tk = thunderkittens_attention(machine, HEADS, seq).tflops
            assert 0.85 <= cy / tk <= 1.15, seq  # paper: 0.87x - 1.06x

    def test_cypress_beats_triton(self, machine):
        for seq in SEQLENS:
            cy = _cypress(
                machine, build_flash_attention2(machine, HEADS, seq)
            )
            assert cy > triton_attention(machine, HEADS, seq).tflops, seq

    def test_cudnn_is_strong(self, machine):
        cy = _cypress(machine, build_flash_attention3(machine, HEADS, SIZE))
        cd = cudnn_attention(machine, HEADS, SIZE).tflops
        assert cd >= cy

    def test_throughput_rises_with_sequence_length(self, machine):
        small = _cypress(
            machine, build_flash_attention3(machine, HEADS, 2048)
        )
        large = _cypress(
            machine, build_flash_attention3(machine, HEADS, 8192)
        )
        assert large > small

    def test_reference_gap_widest_at_small_seqlen(self, machine):
        """The persistent-kernel advantage shrinks as seqlen grows."""
        ratios = []
        for seq in (2048, 8192):
            cy = _cypress(
                machine, build_flash_attention3(machine, HEADS, seq)
            )
            ref = fa3_reference_attention(machine, HEADS, seq).tflops
            ratios.append(cy / ref)
        assert ratios[0] <= ratios[1] + 0.02


class TestMappingAblations:
    def test_pipelining_helps(self, machine):
        deep = _cypress(
            machine, build_gemm(machine, SIZE, SIZE, SIZE, pipeline=3)
        )
        shallow = _cypress(
            machine, build_gemm(machine, SIZE, SIZE, SIZE, pipeline=1)
        )
        assert deep > shallow

    def test_warpspec_helps_or_matches(self, machine):
        ws = _cypress(
            machine,
            build_gemm(machine, SIZE, SIZE, SIZE, warpspecialize=True),
        )
        no_ws = _cypress(
            machine,
            build_gemm(machine, SIZE, SIZE, SIZE, warpspecialize=False),
        )
        assert ws >= no_ws * 0.98
        # ...and at each role's best pipeline depth.
        best_ws, best_no_ws = (
            max(
                _cypress(
                    machine,
                    build_gemm(
                        machine, SIZE, SIZE, SIZE,
                        pipeline=depth, warpspecialize=role,
                    ),
                )
                for depth in DEPTHS
            )
            for role in (True, False)
        )
        assert best_ws >= best_no_ws * 0.98

    def test_ampere_machine_compiles_and_runs(self, ampere):
        """The Figure-1 contrast: same program, older machine."""
        build = build_gemm(
            ampere, 2048, 2048, 2048, tile_m=128, tile_n=128, tile_k=64,
            wgs=2, pipeline=3, warpspecialize=False,
        )
        result = api.simulate(api.compile_kernel(build), ampere)
        peak = ampere.spec("tensor_fp16_tflops")
        assert 0.2 * peak < result.tflops <= peak

    def test_same_gemm_on_ampere_and_hopper(self, machine, ampere):
        """Paper Figure 1 at the flagship size: Hopper compiles to a
        TMA pipeline, Ampere (no TMA) to cp.async, each near its peak."""
        hopper_kernel, ampere_kernel = api.compile_many([
            build_gemm(machine, SIZE, SIZE, SIZE),
            build_gemm(
                ampere, SIZE, SIZE, SIZE, tile_m=128, tile_n=128,
                tile_k=64, pipeline=3, warpspecialize=False,
            ),
        ])
        on_hopper = api.simulate(hopper_kernel, machine).tflops
        on_ampere = api.simulate(ampere_kernel, ampere).tflops
        assert on_hopper > on_ampere
        assert on_ampere > 0.3 * ampere.spec("tensor_fp16_tflops")
        assert hopper_kernel.schedule.metadata["use_tma"]
        assert not ampere_kernel.schedule.metadata["use_tma"]
