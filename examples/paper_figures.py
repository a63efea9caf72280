"""The paper's evaluation as tables: Figures 13a-d, 14 and the ablations.

What it demonstrates
--------------------
Every number the paper's evaluation plots, regenerated on the
simulator: Cypress against each modeled comparator
(:mod:`repro.baselines`) on the GEMM family at M=N=K in {4096, 6144,
8192} (Figure 13a-d) and on Flash Attention forward, 16 heads, d=128,
at sequence lengths 2048-16384 (Figure 14) — the 20 points the
``cold_compile`` workload of ``python -m bench`` compiles — followed by
the three mapping ablations: reduction-accumulator placement (section
5.2), pipeline depth x warp specialization (sections 4.2.5 / 5.4), and
the same logical GEMM on Hopper and Ampere (Figure 1). The ratio bands
these tables must stay inside are asserted in
``tests/test_performance_shape.py``; wall-clock numbers for the
toolchain itself come from ``python -m bench``, not from here.

Expected output
---------------
One ``=== title ===`` block per figure or ablation, in paper order: a
header row of problem sizes, then one row per system with its
simulated TFLOP/s at each size (the two-machine ablation adds a
``% of peak`` row). Cypress lands within a few percent of cuBLAS, ahead
of Triton everywhere (about 1.5x on Dual-GEMM, 2.4x on GEMM+Reduction),
and at about 0.8x of the Flash Attention 3 reference.

Run it (``--tiny`` swaps in one 512-sized point per table)::

    PYTHONPATH=src python examples/paper_figures.py
"""

import argparse

from repro import api, baselines, kernels
from repro.machine import ampere_machine, hopper_machine

BATCH = 4
HEADS = 16
DEPTHS = (1, 2, 3, 4)
#: Ampere has no TMA and no warpgroup MMA: the same GEMM, remapped.
AMPERE_MAPPING = dict(
    tile_m=128, tile_n=128, tile_k=64, pipeline=3, warpspecialize=False
)


def _table(title, columns, rows) -> None:
    """Print one figure in paper form (rows: system, columns: size)."""
    print(f"\n=== {title} ===")
    print(f"{'system':<18}" + " ".join(f"{col:>10}" for col in columns))
    for name, at in rows.items():
        values = " ".join(f"{at(col):>10.1f}" for col in columns)
        print(f"{name:<18}{values}")


def main(tiny: bool = False) -> None:
    hopper, ampere = hopper_machine(), ampere_machine()
    sizes = (512,) if tiny else (4096, 6144, 8192)
    seqs = (512,) if tiny else (2048, 4096, 8192, 16384)
    flagship = sizes[0]

    def cypress(build, machine=hopper):
        return api.simulate(api.compile_kernel(build), machine).tflops

    def cube(builder, **mapping):
        return lambda n: cypress(builder(hopper, n, n, n, **mapping))

    def modeled(baseline, *lead):
        return lambda n: baseline(hopper, *lead, n, n, n).tflops

    def attention(baseline):
        return lambda seq: baseline(hopper, HEADS, seq).tflops

    _table("Figure 13a: GEMM (TFLOP/s)", sizes, {
        "Cypress": cube(kernels.build_gemm),
        "Triton": modeled(baselines.triton_gemm),
        "cuBLAS": modeled(baselines.cublas_gemm),
    })
    _table(f"Figure 13b: Batched-GEMM L={BATCH} (TFLOP/s)", sizes, {
        "Cypress": lambda n: cypress(
            kernels.build_batched_gemm(hopper, BATCH, n, n, n)
        ),
        "Triton": modeled(baselines.triton_batched_gemm, BATCH),
        "cuBLAS": modeled(baselines.cublas_batched_gemm, BATCH),
    })
    _table("Figure 13c: Dual-GEMM (TFLOP/s)", sizes, {
        "Cypress": cube(kernels.build_dual_gemm),
        "Triton": modeled(baselines.triton_dual_gemm),
        "Cypress GEMM": cube(kernels.build_gemm),
    })
    _table("Figure 13d: GEMM+Reduction (TFLOP/s)", sizes, {
        "Cypress": cube(kernels.build_gemm_reduction),
        "Triton": modeled(baselines.triton_gemm_reduction),
    })
    _table("Figure 14: Flash Attention fwd, d=128 (TFLOP/s)", seqs, {
        "Cypress (FA2)": lambda seq: cypress(
            kernels.build_flash_attention2(hopper, HEADS, seq)
        ),
        "Cypress (FA3)": lambda seq: cypress(
            kernels.build_flash_attention3(hopper, HEADS, seq)
        ),
        "Triton (FA2)": attention(baselines.triton_attention),
        "ThunderKittens": attention(baselines.thunderkittens_attention),
        "FlashAttention3": attention(baselines.fa3_reference_attention),
        "cuDNN": attention(baselines.cudnn_attention),
    })

    _table(
        "Ablation: GEMM+Reduction accumulator placement (TFLOP/s)",
        sorted({flagship, sizes[-1]}),
        {
            f"{where} acc": cube(
                kernels.build_gemm_reduction, accumulator=where
            )
            for where in ("register", "shared")
        },
    )
    _table(f"Ablation: pipeline depth (GEMM {flagship}, TFLOP/s)", DEPTHS, {
        name: lambda depth, role=role: cypress(
            kernels.build_gemm(
                hopper, flagship, flagship, flagship,
                pipeline=depth, warpspecialize=role,
            )
        )
        for name, role in (("warpspec", True), ("single-role", False))
    })
    same_gemm = {}  # gpu -> (TFLOP/s, Tensor Core peak)
    for gpu, machine, mapping in (
        ("H100", hopper, {}), ("A100", ampere, AMPERE_MAPPING)
    ):
        build = kernels.build_gemm(
            machine, flagship, flagship, flagship, **mapping
        )
        same_gemm[gpu] = (
            cypress(build, machine), machine.spec("tensor_fp16_tflops")
        )
    _table("Ablation: same GEMM, two machines", tuple(same_gemm), {
        "TFLOP/s": lambda gpu: same_gemm[gpu][0],
        "% of peak": lambda gpu: 100 * same_gemm[gpu][0] / same_gemm[gpu][1],
    })


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true",
        help="one 512-sized point per table (the CI smoke)",
    )
    main(tiny=parser.parse_args().tiny)
