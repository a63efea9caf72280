"""The functional interpreter: collective calls, instance order,
batched externals, and its memos — not persisted, not stale, not racy.

The interpreter keeps one plan per op, with the layouts it fitted per
environment, on the interpreted ``IRFunction``, and ``TensorRef``
memoises how each reference resolves to a numpy view on the reference
itself — both live as long as the cached kernel whose IR holds them.
These tests pin what that must not change: the bytes a kernel pickles
to (the disk cache tier stores kernels with their references), the
result after the IR is rewritten under a warm memo, and the result
when the first requests for one kernel race.
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
from repro.ir.ops import CallOp, CopyOp
from repro.kernels.common import kernel_registry
from repro.machine.processor import ProcessorKind
from repro.runtime import default_registry
from repro.sym import ProcIndex
from repro.tensors import (
    MmaAtom, f16, f32, partition_by_blocks, partition_by_mma,
)

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
    atom = MmaAtom(64, 64, 16)

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


def test_overlapping_instances_run_in_instance_order(hopper):
    """Processor instances of one op run as if one after another, in
    index order, whenever they touch each other's elements: when every
    thread writes the same element the last thread's value stays, a
    thread reads what the thread before it wrote in the same op, and
    two threads reading one element see what an earlier thread wrote
    there."""
    registry = TaskRegistry()
    with use_registry(registry):

        @external_function("inc", cost_kind="simt")
        def inc(dst, src):
            dst[...] = src + 1

    thread = ProcIndex("thread")
    fn = IRFunction("overlap", hopper)
    x = partition_by_blocks(fn.add_param("X", (32,), f32).ref(), (1,))
    y = fn.add_param("Y", (1,), f32).ref()
    scan = partition_by_blocks(fn.add_param("S", (33,), f32).ref(), (1,))
    # Every thread copies its element of X into the one element of Y.
    fn.body.ops.append(CopyOp(x[thread], y))
    # Thread t writes S[t + 1] from S[t]: a running count from S[0].
    fn.body.ops.append(CallOp(
        "inc", (scan[thread + 1], scan[thread]),
        reads=(scan[thread],), writes=(scan[thread + 1],),
    ))
    # Thread t copies M[t // 2] to M[t]: threads 2k and 2k+1 both read
    # what thread k wrote, so M[0] spreads to every element.
    half = partition_by_blocks(fn.add_param("M", (32,), f32).ref(), (1,))
    fn.body.ops.append(CopyOp(half[thread // 2], half[thread]))
    start = np.zeros(33, np.float32)
    start[0] = 5
    out = interpret_function(fn, registry, {
        "X": np.arange(32, dtype=np.float32),
        "Y": np.zeros(1, np.float32),
        "S": start,
        "M": np.arange(100, 132, dtype=np.float32),
    })
    assert out["Y"].tolist() == [31.0]
    np.testing.assert_array_equal(out["S"], np.arange(5, 38, dtype=np.float32))
    np.testing.assert_array_equal(out["M"], np.full(32, 100, np.float32))


def test_instance_offsets_off_any_stride_fit_run_one_at_a_time(hopper):
    """Thread t reads element t*t mod 32: offsets no per-digit stride
    fits, so the fit is refused and each instance reads its own."""
    thread = ProcIndex("thread")
    fn = IRFunction("unstrided", hopper)
    x = partition_by_blocks(fn.add_param("X", (32,), f32).ref(), (1,))
    z = partition_by_blocks(fn.add_param("Z", (32,), f32).ref(), (1,))
    fn.body.ops.append(CopyOp(x[(thread * thread) % 32], z[thread]))
    out = interpret_function(fn, TaskRegistry(), {
        "X": np.arange(32, dtype=np.float32),
        "Z": np.zeros(32, np.float32),
    })
    squares = np.arange(32) ** 2 % 32
    np.testing.assert_array_equal(out["Z"], squares.astype(np.float32))


#: Per external: each argument as one instance sees it — a tensor as
#: ``(shape, dtype, read_only)``, anything else as the value passed.
EXTERNAL_ARGS = {
    "wgmma_f16": (((4, 64), np.float16, False), ((4, 64), np.float16, True),
                  ((64, 64), np.float16, True)),
    "wgmma_f16_st": (((4, 64), np.float16, False),
                     ((4, 64), np.float16, True),
                     ((64, 64), np.float16, True)),
    "copy_tile_reg": (((4, 16), np.float16, False),
                      ((4, 16), np.float32, True)),
    "zero_frag": (((4, 64), np.float16, False),),
    "tma_store_tile": (((8, 16), np.float16, False),
                       ((8, 16), np.float16, True)),
    "row_sum_accum": (((4,), np.float32, False), ((4, 64), np.float16, True)),
    "row_sum_weighted": (((4,), np.float32, False),
                         ((4, 64), np.float16, True), 0.25),
    "online_softmax_update": (
        ((4, 1), np.float32, False), ((4, 1), np.float32, False),
        ((4, 16), np.float32, False), ((4, 16), np.float32, True),
        ((4, 16), np.float16, False), 0.125,
    ),
    "init_softmax_state": (((4, 1), np.float32, False),
                           ((4, 1), np.float32, False)),
    "fill_neg_inf": (((4, 16), np.float32, False),),
    "softmax_finalize": (((4, 16), np.float32, False),
                         ((4, 1), np.float32, True)),
}
#: Arguments that also carry the -inf sentinel: the running max of rows
#: that have seen no score yet, and masked scores.
SENTINELS = {"online_softmax_update": (0, 3)}


def test_externals_act_on_trailing_axes():
    """One call on operands stacked along leading instance axes — a
    read-only operand broadcast along one of them — is bit-identical
    to one call per instance."""
    assert set(EXTERNAL_ARGS) == set(kernel_registry.externals)
    rng = np.random.default_rng(7)
    lead = (3, 2)
    for name, spec in EXTERNAL_ARGS.items():
        impl = kernel_registry.external(name).numpy_impl
        stacked = []
        for pos, arg in enumerate(spec):
            if not isinstance(arg, tuple):
                stacked.append(arg)
                continue
            shape, dtype, read_only = arg
            # A read-only operand is shared along the last instance axis.
            outer = lead[:-1] + (1,) if read_only else lead
            values = rng.standard_normal(outer + shape)
            if pos in SENTINELS.get(name, ()):
                values[values > 1.0] = -1.0e30
            stacked.append(values.astype(dtype))
        batch = [a.copy() if isinstance(a, np.ndarray) else a for a in stacked]
        impl(*batch)
        for index in np.ndindex(*lead):
            one = [
                a[tuple(min(i, n - 1) for i, n in zip(index, a.shape))].copy()
                if isinstance(a, np.ndarray) else a
                for a in stacked
            ]
            impl(*one)
            for got, want in zip(batch, one):
                if isinstance(got, np.ndarray) and got.shape[:2] == lead:
                    assert got[index].tobytes() == want.tobytes(), name


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
