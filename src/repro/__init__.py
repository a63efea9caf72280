"""Cypress reproduction: task-based tensor computations on modern GPUs.

Reproduction of Yadav, Garland, Aiken, Bauer — *Task-Based Tensor
Computations on Modern GPUs*, PLDI 2025. See README.md for a tour,
docs/architecture.md for the system inventory, and
``examples/paper_figures.py`` for the paper-vs-measured results.

Entry points:

- :mod:`repro.api` — compile / run / simulate / batch-compile / serve.
- :mod:`repro.runtime` — the async kernel-serving runtime
  (shape-bucketed dispatch, persistent compile cache, telemetry).
- :mod:`repro.tuner` — the parallel mapping autotuner.
- :mod:`repro.kernels` — the paper's kernel zoo (GEMM family, attention).
- :mod:`repro.machine` — H100 / A100 machine models.
- :mod:`repro.baselines` — comparator system models.
"""

__version__ = "1.2.0"

__all__ = [
    "api",
    "kernels",
    "machine",
    "baselines",
    "runtime",
    "tuner",
    "__version__",
]
