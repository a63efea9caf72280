"""End-to-end correctness: compiled kernels versus numpy references.

These are the compiler's semantics-preservation tests: the same inputs
run through (a) the IR straight out of dependence analysis and (b) the
fully optimized IR (vectorized, copy-eliminated, allocated,
warp-specialized), and both must match the direct numpy computation.
"""

import numpy as np
import pytest

from repro import api
from repro.kernels import (
    build_batched_gemm,
    build_dual_gemm,
    build_flash_attention2,
    build_flash_attention3,
    build_gemm,
    build_gemm_reduction,
)

ATOL = 0.02


def _rand(rng, *shape):
    return (rng.standard_normal(shape) * 0.1).astype(np.float16)


class TestGemm:
    @pytest.mark.parametrize(
        "m,n,k", [(128, 256, 64), (256, 256, 128), (384, 512, 192)]
    )
    def test_matches_numpy(self, hopper, rng, m, n, k):
        build = build_gemm(
            hopper, m, n, k, tile_m=128, tile_n=256, tile_k=64
        )
        kernel = api.compile_kernel(build)
        A, B = _rand(rng, m, k), _rand(rng, k, n)
        ref = A.astype(np.float32) @ B.astype(np.float32)
        for stage in ("dependence", "final"):
            out = api.run_functional(
                kernel,
                {"C": np.zeros((m, n), np.float16), "A": A, "B": B},
                stage=stage,
            )
            np.testing.assert_allclose(
                out["C"].astype(np.float32), ref, atol=ATOL
            )

    def test_single_warpgroup_mapping(self, hopper, rng):
        build = build_gemm(
            hopper, 128, 256, 128, tile_m=128, tile_n=256, tile_k=64,
            wgs=2,
        )
        kernel = api.compile_kernel(build)
        A, B = _rand(rng, 128, 128), _rand(rng, 128, 256)
        out = api.run_functional(
            kernel, {"C": np.zeros((128, 256), np.float16), "A": A, "B": B}
        )
        ref = A.astype(np.float32) @ B.astype(np.float32)
        np.testing.assert_allclose(
            out["C"].astype(np.float32), ref, atol=ATOL
        )

    def test_overwrites_stale_output(self, hopper, rng):
        build = build_gemm(
            hopper, 128, 256, 64, tile_m=128, tile_n=256, tile_k=64
        )
        kernel = api.compile_kernel(build)
        A, B = _rand(rng, 128, 64), _rand(rng, 64, 256)
        stale = np.full((128, 256), 7.0, np.float16)
        out = api.run_functional(kernel, {"C": stale, "A": A, "B": B})
        ref = A.astype(np.float32) @ B.astype(np.float32)
        np.testing.assert_allclose(
            out["C"].astype(np.float32), ref, atol=ATOL
        )


class TestBatchedGemm:
    def test_matches_numpy(self, hopper, rng):
        build = build_batched_gemm(
            hopper, 3, 128, 256, 128, tile_m=128, tile_n=256, tile_k=64
        )
        kernel = api.compile_kernel(build)
        A, B = _rand(rng, 3, 128, 128), _rand(rng, 3, 128, 256)
        out = api.run_functional(
            kernel,
            {"C": np.zeros((3, 128, 256), np.float16), "A": A, "B": B},
        )
        ref = np.einsum(
            "bij,bjk->bik", A.astype(np.float32), B.astype(np.float32)
        )
        np.testing.assert_allclose(
            out["C"].astype(np.float32), ref, atol=ATOL
        )


class TestDualGemm:
    def test_matches_numpy(self, hopper, rng):
        build = build_dual_gemm(
            hopper, 128, 256, 128, tile_m=128, tile_n=256, tile_k=64
        )
        kernel = api.compile_kernel(build)
        A = _rand(rng, 128, 128)
        B1, B2 = _rand(rng, 128, 256), _rand(rng, 128, 256)
        out = api.run_functional(
            kernel,
            {
                "C": np.zeros((128, 256), np.float16),
                "A": A,
                "B1": B1,
                "B2": B2,
            },
        )
        ref = A.astype(np.float32) @ B1.astype(np.float32) + A.astype(
            np.float32
        ) @ B2.astype(np.float32)
        np.testing.assert_allclose(
            out["C"].astype(np.float32), ref, atol=2 * ATOL
        )

    def test_single_a_load_per_iteration(self, hopper):
        """Duplicate-load elimination must leave one A load per K step."""
        build = build_dual_gemm(
            hopper, 128, 256, 128, tile_m=128, tile_n=256, tile_k=64
        )
        kernel = api.compile_kernel(build)
        loop = [
            s for s in kernel.schedule.segments if s.extent > 1
        ][0]
        loads = [i for i in loop.instrs if i.kind == "tma_load"]
        assert len(loads) == 3  # A, B1, B2 — not A twice


class TestGemmReduction:
    @pytest.mark.parametrize("accumulator", ["register", "shared"])
    def test_matches_numpy(self, hopper, rng, accumulator):
        build = build_gemm_reduction(
            hopper, 128, 256, 128, tile_m=128, tile_n=256, tile_k=64,
            accumulator=accumulator,
        )
        kernel = api.compile_kernel(build)
        A, B = _rand(rng, 128, 128), _rand(rng, 128, 256)
        out = api.run_functional(
            kernel,
            {
                "C": np.zeros((128, 256), np.float16),
                "y": np.zeros((128,), np.float32),
                "A": A,
                "B": B,
            },
        )
        refC = A.astype(np.float32) @ B.astype(np.float32)
        refy = A.astype(np.float32).sum(axis=1)
        np.testing.assert_allclose(
            out["C"].astype(np.float32), refC, atol=ATOL
        )
        np.testing.assert_allclose(out["y"], refy, atol=1e-3)


def _attention_ref(Q, KT, V):
    out = np.zeros_like(V, dtype=np.float32)
    for h in range(Q.shape[0]):
        S = Q[h].astype(np.float32) @ KT[h].astype(np.float32)
        S /= np.sqrt(Q.shape[2])
        P = np.exp(S - S.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        out[h] = P @ V[h].astype(np.float32)
    return out


class TestAttention:
    @pytest.mark.parametrize("builder,q_tile,wgs", [
        (build_flash_attention2, 128, 2),
        (build_flash_attention2, 192, 3),
        (build_flash_attention3, 128, 2),
    ])
    def test_matches_reference(self, hopper, rng, builder, q_tile, wgs):
        heads, seq, d = 2, 384, 128
        build = builder(
            hopper, heads, seq, head_dim=d, q_tile=q_tile, kv_tile=128,
            wgs=wgs,
        )
        kernel = api.compile_kernel(build)
        Q, V = _rand(rng, heads, seq, d), _rand(rng, heads, seq, d)
        KT = _rand(rng, heads, d, seq)
        out = api.run_functional(
            kernel,
            {
                "O": np.zeros((heads, seq, d), np.float16),
                "Q": Q,
                "KT": KT,
                "V": V,
            },
        )
        ref = _attention_ref(Q, KT, V)
        np.testing.assert_allclose(
            out["O"].astype(np.float32), ref, atol=ATOL
        )

    def test_fa2_fa3_agree(self, hopper, rng):
        heads, seq, d = 1, 256, 128
        Q, V = _rand(rng, heads, seq, d), _rand(rng, heads, seq, d)
        KT = _rand(rng, heads, d, seq)
        inputs = lambda: {
            "O": np.zeros((heads, seq, d), np.float16),
            "Q": Q, "KT": KT, "V": V,
        }
        out2 = api.run_functional(
            api.compile_kernel(build_flash_attention2(hopper, heads, seq)),
            inputs(),
        )
        out3 = api.run_functional(
            api.compile_kernel(build_flash_attention3(hopper, heads, seq)),
            inputs(),
        )
        np.testing.assert_allclose(
            out2["O"].astype(np.float32),
            out3["O"].astype(np.float32),
            atol=ATOL,
        )


class TestCudaBackend:
    def test_generates_warpspec_structure(self, hopper, ampere):
        for machine, bulk_copy, other in (
            (hopper, "tma_load(", "cp_async("),
            (ampere, "cp_async(", "tma_load("),
        ):
            build = build_gemm(
                machine, 256, 256, 128, tile_m=128, tile_n=256, tile_k=64
            )
            kernel = api.compile_kernel(build)
            src = kernel.cuda_source
            assert "__global__" in src
            assert "DMA_WARP" in src
            assert bulk_copy in src and other not in src
            assert "warpgroup_commit_batch" in src
            assert "__shared__" in src
            assert "<<<" in src  # host launcher
