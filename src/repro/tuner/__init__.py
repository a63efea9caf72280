"""Mapping autotuning (paper section 5.4, as a subsystem).

The separation of logical program and mapping specification makes the
search over mappings data: :class:`MappingSearchSpace` declares the
candidate axes, :class:`AnalyticCostModel` predicts each candidate's
latency and occupancy straight from the mapping arithmetic (no compiler
pass executed), and :func:`autotune` walks that ranking — compiling and
simulating candidates best-first through the cached pass-manager
pipeline until ``top_k`` have succeeded (every candidate when
``top_k`` is omitted).

    from repro.tuner import MappingSearchSpace, autotune
    report = autotune(
        lambda m, **p: build_gemm(m, 4096, 4096, 4096, **p),
        hopper_machine(),
        MappingSearchSpace(),
        top_k=5,                      # omit for the exhaustive sweep
    )
    print(report.summary())
    print(report.best.label())
    print(report.spearman())          # predicted-vs-simulated honesty

See ``docs/tuning.md`` for the full guide.
"""

from repro.tuner.autotune import (
    SearchStats,
    TuningReport,
    TuningResult,
    autotune,
)
from repro.tuner.costmodel import (
    AGREEMENT_FACTOR,
    AnalyticCostModel,
    CostEstimate,
    spearman,
)
from repro.tuner.search_space import MappingSearchSpace, wgmma_row_constraint

__all__ = [
    "AGREEMENT_FACTOR",
    "AnalyticCostModel",
    "CostEstimate",
    "MappingSearchSpace",
    "SearchStats",
    "TuningReport",
    "TuningResult",
    "autotune",
    "spearman",
    "wgmma_row_constraint",
]
