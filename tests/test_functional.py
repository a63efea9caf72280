"""The functional interpreter: collective calls, and its memos — not
persisted, not stale, not racy.

``TensorRef`` memoises how each reference resolves to a numpy view,
per environment, on the reference itself — and references live as long
as the cached kernel whose IR holds them. These tests pin what that
must not change: the bytes a kernel pickles to (the disk cache tier
stores kernels with their references), the result after the IR is
rewritten under a warm memo, and the result when the first requests
for one kernel race.
"""

import pickle
import sys
import threading

import numpy as np

from repro import api
from repro.compiler import CompileOptions
from repro.compiler.copy_elim import eliminate_copies
from repro.compiler.dependence import DependenceAnalysis
from repro.compiler.vectorize import vectorize
from repro.compiler.warpspec import specialize_warps
from repro.frontend import TaskRegistry, external_function, use_registry
from repro.gpusim import interpret_function
from repro.ir.module import IRFunction
from repro.ir.ops import CallOp
from repro.kernels.common import kernel_registry
from repro.machine.processor import ProcessorKind
from repro.runtime import default_registry
from repro.sym import ProcIndex
from repro.tensors import WGMMA_64x64x16, f16, partition_by_mma

ATOL = 0.02
SHAPE = dict(m=256, n=256, k=128)  # the smallest gemm serving bucket


def _gemm_inputs(seed=0):
    rng = np.random.default_rng(seed)
    m, n, k = SHAPE["m"], SHAPE["n"], SHAPE["k"]
    return {
        "C": np.zeros((m, n), np.float16),
        "A": (rng.standard_normal((m, k)) * 0.1).astype(np.float16),
        "B": (rng.standard_normal((k, n)) * 0.1).astype(np.float16),
    }


def _build(hopper):
    """The build a default server compiles for ``SHAPE``."""
    registered = default_registry().get("gemm")
    return registered.build(hopper, registered.bucket(SHAPE))


def _fresh_kernel(hopper):
    """A kernel no other test has interpreted (its memos are empty)."""
    return api.compile_kernel(
        _build(hopper), options=CompileOptions(cache=False)
    )


def test_functional_run_does_not_change_pickled_kernel(hopper):
    kernel = _fresh_kernel(hopper)
    before = len(pickle.dumps(kernel))
    for stage in (api.Stage.DEPENDENCE, api.Stage.FINAL):
        api.run_functional(kernel, _gemm_inputs(), stage=stage)
    assert len(pickle.dumps(kernel)) == before
    # ... and the copy that comes back runs, starting from no memo.
    restored = pickle.loads(pickle.dumps(kernel))
    np.testing.assert_array_equal(
        api.run_functional(restored, _gemm_inputs())["C"],
        api.run_functional(kernel, _gemm_inputs())["C"],
    )


def test_interpreting_between_passes_stays_correct(hopper):
    """Passes rewrite the IR in place and share its references: what an
    earlier interpretation memoised must not leak into a later one."""
    build = _build(hopper)
    fn = DependenceAnalysis(build.spec, build.name).run(
        build.arg_shapes, build.arg_dtypes, build.scalar_args
    )
    inputs = _gemm_inputs()
    want = inputs["A"].astype(np.float32) @ inputs["B"].astype(np.float32)
    # Vectorized IR is interpretable once copy elimination has run, so
    # those two go together; warp specialization then moves ops around.
    for rewrites in (
        (),
        (vectorize, eliminate_copies),
        (lambda f: specialize_warps(f, enabled=True, pipeline_depth=2),),
    ):
        for rewrite in rewrites:
            rewrite(fn)
        got = interpret_function(fn, kernel_registry, inputs)["C"]
        np.testing.assert_allclose(
            got.astype(np.float32), want, atol=ATOL,
            err_msg=f"after {len(rewrites)} more pass(es)",
        )


def test_collective_call_runs_once_on_whole_operands(hopper):
    """A collective external sees the unfragmented operands, once per
    group: only the index-0 member of each ``mma`` level executes it."""
    calls = []
    registry = TaskRegistry()
    with use_registry(registry):

        @external_function("bump", cost_kind="wgmma", collective=True)
        def bump(c, a, scale):
            calls.append((c.shape, a.shape, scale))
            c += a * scale

    fn = IRFunction("collective", hopper)
    atom = WGMMA_64x64x16()

    def fragment(buffer):
        warp = partition_by_mma(buffer.ref(), atom, ProcessorKind.WARP, "C")
        return partition_by_mma(
            warp[ProcIndex("warp")], atom, ProcessorKind.THREAD, "C"
        )[ProcIndex("thread")]

    c = fragment(fn.add_param("C", (64, 64), f16))
    a = fragment(fn.add_param("A", (64, 64), f16))
    fn.body.ops.append(CallOp("bump", (c, a, 2.0), reads=(c, a), writes=(c,)))
    out = interpret_function(
        fn,
        registry,
        {"C": np.ones((64, 64), np.float16),
         "A": np.full((64, 64), 3, np.float16)},
    )
    assert calls == [((64, 64), (64, 64), 2.0)]
    assert (out["C"] == 7).all() and (out["A"] == 3).all()


def test_racing_first_requests_match_single_threaded_run(hopper):
    """More workers than cores, every request the first to interpret its
    kernel as far as it can tell, and a switch interval short enough to
    interleave them inside the memo's check-then-fill."""
    requests = [_gemm_inputs(seed) for seed in range(4)]
    reference = _fresh_kernel(hopper)
    want = [api.run_functional(reference, inputs)["C"] for inputs in requests]

    api.clear_compile_cache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with api.serve(hopper, workers=4, max_batch=1) as server:
            server.warm("gemm", [SHAPE])  # compiled, never interpreted
            start = threading.Barrier(len(requests))
            results = [None] * len(requests)

            def request(slot):
                start.wait(timeout=60)
                results[slot] = server.submit(
                    "gemm", SHAPE, inputs=requests[slot]
                ).result(timeout=120)

            threads = [
                threading.Thread(target=request, args=(slot,))
                for slot in range(len(requests))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    for result, expected in zip(results, want):
        assert result.tier == "memory"  # one cached kernel served all
        np.testing.assert_array_equal(result.outputs["C"], expected)
