"""Exploring the mapping space (paper section 5.4): rank, then walk.

What it demonstrates
--------------------
The separation of logical description and mapping specification means
tuning is data, not code: this example sweeps tile shapes, warpgroup
counts, pipeline depths, and warp specialization for one GEMM size
without touching the logical program — the exploration the paper calls
out as impossible in Triton and invasive in CUTLASS. Both runs share
one flow: the analytic cost model (:mod:`repro.tuner.costmodel`) ranks
the whole space in microseconds, then ``autotune`` batch-compiles the
ranking best-first through ``api.compile_many`` (behind the
content-keyed compile cache) and times each candidate on the simulated
GPU. The two runs differ only in where the walk stops:

1. **Exhaustive** (``top_k`` omitted) — the whole ranking, then the
   candidates the model rejected, so every mapping carries the
   compiler's verdict; the report's ``spearman()`` shows how honestly
   the model ranked.
2. **Top-k** — the walk stops once ``top_k`` candidates have compiled
   and simulated; the rest are pruned.

Expected output
---------------
Two ranked mapping tables (columns: mapping label, simulated TFLOP/s,
predicted TFLOP/s; pruned candidates say ``pruned``), then a closing
line per mode naming the best mapping and its throughput, and the
honesty line (Spearman rank correlation, typically > 0.9,
and the search-time ratio).

Run it::

    PYTHONPATH=src python examples/mapping_tuning.py

Adapting to other kernels
-------------------------
The default axes match the GEMM-family builders (``tile_m``/``tile_n``
/``tile_k``, ``wgs``, ``pipeline``, ``warpspecialize``); extra axes
like the GEMM+Reduction accumulator placement go in
``MappingSearchSpace(extra={"accumulator": ("register", "shared")})``.
Builders with different tiling knobs (the attention builders take
``q_tile``/``kv_tile``) adapt in the closure, e.g.::

    autotune(
        lambda m, **p: build_flash_attention2(
            m, heads, seq, q_tile=p["tile_m"], kv_tile=p["tile_n"],
            wgs=p["wgs"], pipeline=p["pipeline"],
            warpspecialize=p["warpspecialize"],
        ),
        machine, space, top_k=4,
    )

A candidate whose parameters a builder rejects is recorded as a failed
result rather than aborting the sweep.
"""

import time

from repro import api
from repro.kernels import build_gemm
from repro.machine import hopper_machine
from repro.tuner import MappingSearchSpace, autotune

SIZE = 4096

#: The paper's section-5.4 exploration, as data.
SEARCH_SPACE = MappingSearchSpace(
    tiles=((256, 256), (128, 256), (128, 128)),
    tile_k=(64,),
    warpgroups=(1, 2),
    pipeline_depths=(1, 2, 3, 4),
    warpspecialize=(True, False),
)


def _describe(report, mode: str, wall_s: float) -> None:
    best = report.best
    print(report.summary())
    print(
        f"\n{mode}: best mapping {best.label()} "
        f"-> {best.tflops:.1f} TFLOP/s "
        f"({report.search.compiled} compiled in {wall_s:.2f}s)\n"
    )


def main(size: int = SIZE, space: MappingSearchSpace = SEARCH_SPACE,
         top_k: int = 4) -> None:
    """Run the exhaustive and top-k sweeps and compare them.

    Args:
        size: square GEMM problem size.
        space: the candidate axes to sweep.
        top_k: candidates the top-k walk compiles and simulates.
    """
    machine = hopper_machine()

    def builder(m, **params):
        return build_gemm(m, size, size, size, **params)

    api.clear_compile_cache()
    start = time.perf_counter()
    exhaustive = autotune(builder, machine, space)
    exhaustive_s = time.perf_counter() - start
    _describe(exhaustive, "exhaustive", exhaustive_s)

    api.clear_compile_cache()
    start = time.perf_counter()
    two_stage = autotune(builder, machine, space, top_k=top_k)
    two_stage_s = time.perf_counter() - start
    _describe(two_stage, f"top-k (top_k={top_k})", two_stage_s)

    rho = exhaustive.spearman()
    ratio = exhaustive_s / two_stage_s if two_stage_s else 0.0
    rho_text = f"{rho:.3f}" if rho is not None else "n/a (space too small)"
    print(
        f"cost-model honesty: spearman={rho_text} vs simulation; "
        f"top-k search ran {ratio:.1f}x faster"
    )


if __name__ == "__main__":
    main()
