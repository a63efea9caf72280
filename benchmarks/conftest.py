"""Shared helpers for the benchmark harness.

Each ``bench_fig*`` module regenerates one figure of the paper's
evaluation: it sweeps the paper's workload sizes, runs Cypress and every
comparator through the simulator, prints the figure's series (TFLOP/s
per system per size), and registers the Cypress compile+simulate path
with pytest-benchmark so the harness also measures our own toolchain.

At the end of a benchmark session every printed series — plus compiler
pipeline metrics (cold/warm compile wall time for the flagship 4096
GEMM, per-pass timings, compile-cache hit rate) — is written to
``benchmarks/BENCH_pipeline.json`` so the performance trajectory of the
toolchain itself is tracked across PRs.

Serving benchmarks draw their request traces from the shared seeded
generators in :mod:`trafficgen` (this directory) — Zipfian,
phase-shift, and repeated-mix traces — instead of ad-hoc loops, so
every benchmark and the runtime test suites replay identical traffic.
"""

import json
import time
from pathlib import Path

import pytest

from repro import api
from repro.machine import hopper_machine

_RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_pipeline.json"
_recorded_series = {}

#: Benchmark modules that own their own output file; a session running
#: only these must not rewrite BENCH_pipeline.json (it would clobber
#: the pipeline trajectory with an unrelated session's cache counters).
_SELF_CONTAINED = {
    "bench_chaos",
    "bench_compile",
    "bench_costmodel",
    "bench_runtime_serving",
    "bench_graph",
    "bench_specialize",
    "bench_speculation",
    "bench_trace",
}


@pytest.fixture(scope="session")
def machine():
    return hopper_machine()


def print_series(title, sizes, series):
    """Print one figure's data in paper form (rows: system, cols: size)."""
    header = " ".join(f"{s:>10}" for s in sizes)
    print(f"\n=== {title} ===")
    print(f"{'system':<18}{header}")
    for name, values in series.items():
        row = " ".join(f"{v:>10.1f}" for v in values)
        print(f"{name:<18}{row}")
    _recorded_series[title] = {
        "sizes": list(sizes),
        "series": {name: list(values) for name, values in series.items()},
    }


def _pipeline_metrics():
    """Cold/warm compile timings for the flagship GEMM instantiation."""
    from repro.kernels import build_gemm

    machine = hopper_machine()
    build = build_gemm(machine, 4096, 4096, 4096)
    api.clear_compile_cache()
    start = time.perf_counter()
    kernel = api.compile_kernel(build)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    api.compile_kernel(build_gemm(machine, 4096, 4096, 4096))
    warm_s = time.perf_counter() - start
    trace = kernel.pass_trace
    return {
        "kernel": kernel.name,
        "cold_compile_s": cold_s,
        "warm_compile_s": warm_s,
        "passes": [
            {
                "name": record.name,
                "wall_time_s": record.wall_time_s,
                "ops_before": record.ops_before,
                "ops_after": record.ops_after,
            }
            for record in trace.records
        ],
    }


def pytest_sessionfinish(session, exitstatus):
    # Only a clean benchmark run may update the tracked trajectory:
    # collect-only and failed/partial sessions would clobber it.
    if exitstatus != 0 or session.config.getoption("collectonly"):
        return
    # Sessions running only self-contained benchmarks don't touch it,
    # and neither does one that ran nothing from this directory: a plain
    # `pytest` from the repo root loads this conftest while walking the
    # tree and would otherwise rewrite a tracked file on every tier-1 run.
    # session.items is the post-deselection list, so -k/-m filtered
    # runs are classified by what actually ran, not what was collected.
    ran = {
        Path(item.fspath).stem
        for item in session.items
        if Path(item.fspath).resolve().parent == _RESULTS_PATH.parent
    }
    if ran <= _SELF_CONTAINED:
        return
    stats = api.compile_cache_stats()
    figures = {}
    if _RESULTS_PATH.exists():
        try:
            figures = json.loads(_RESULTS_PATH.read_text()).get(
                "figures", {}
            )
        except (ValueError, OSError):
            figures = {}
    figures.update(_recorded_series)
    payload = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "pipeline": _pipeline_metrics(),
        "compile_cache": {"hits": stats.hits, "misses": stats.misses},
        "figures": figures,
    }
    _RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
