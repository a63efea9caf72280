"""Property: every pass preserves the functional result.

The example-based end-to-end tests pin a handful of mappings. This one
draws them: a GEMM-family or Flash Attention kernel, any candidate of
the mapping search space that family is registered with (tile shape,
warpgroups, pipeline depth, warp specialization) that the analytic cost
model calls feasible, and a shape from the bottom of the serving
ladders. The IR straight out of dependence analysis and the IR after
the whole pass pipeline must both compute what numpy computes.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro import api
from repro.machine import hopper_machine
from repro.runtime import default_registry
from repro.tuner import AnalyticCostModel

#: Absolute tolerance per output: ``C`` is an FP16 product, ``y`` an
#: FP32 row sum (only the summation order differs), ``O`` FP16
#: attention (≈ 2e-4 off at unit-scale inputs).
ATOL = {"C": 0.02, "y": 1e-3, "O": 0.01}
#: Attention inputs are drawn at unit scale. At the GEMM scale of 0.1
#: the scores are so flat that every row of ``O`` is ≈ the mean of
#: ``V`` (|O| ≤ 0.018), and a q-tile of ``O`` left at zero would pass
#: a 0.02 tolerance; at unit scale it is off by ≈ 0.44.
INPUT_SCALE = {"flash_attention2": 1.0, "flash_attention3": 1.0}
#: The frontend's aliasing-write probe rejects gemm_reduction's
#: cross-tile reduction into ``y`` on grids with fewer than three row
#: tiles (one and two raise, three compiles; the strict xfail
#: ``test_gemm_reduction_column_tiles_alias_y[3]`` pins that boundary),
#: so its ``m`` starts at the first rung giving every tile height three.
MIN_M = {"gemm_reduction": 1024}
#: The interpreter's cost follows m*n and seq^2; the other dims are cheap.
COSTLY_DIMS = ("m", "n", "seq")

FAMILIES = (
    "gemm", "batched_gemm", "gemm_reduction", "dual_gemm",
    "flash_attention2", "flash_attention3",
)
MACHINE = hopper_machine()
REGISTRY = default_registry()
MODEL = AnalyticCostModel()


@st.composite
def feasible_builds(draw):
    """(family, build) for a drawn mapping the cost model accepts."""
    family = draw(st.sampled_from(FAMILIES))
    registered = REGISTRY.get(family)
    shape = {}
    for dim in registered.dims:
        floor = MIN_M.get(family, 0) if dim == "m" else 0
        rungs = [r for r in registered.policy.ladders[dim] if r >= floor]
        shape[dim] = draw(
            st.sampled_from(rungs[: 1 if dim in COSTLY_DIMS else 2])
        )
    candidate = draw(st.sampled_from(registered.search_space.as_list()))
    build = registered.build(
        MACHINE,
        registered.exact_bucket(shape),
        registered.tuned_params(candidate),
    )
    assume(MODEL.score(build, MACHINE, memoize=False).feasible)
    return family, build


def _inputs_and_reference(family, kernel, params):
    """Random FP16 operands, zeroed outputs, and the FP32 reference."""
    rng = np.random.default_rng(12345)
    scale = INPUT_SCALE.get(family, 0.1)
    inputs = {}
    for param in kernel.final_ir.params:
        if param.name in ATOL:
            inputs[param.name] = np.zeros(param.shape, param.dtype.to_numpy())
        else:
            inputs[param.name] = (
                rng.standard_normal(param.shape) * scale
            ).astype(np.float16)
    f32 = {name: array.astype(np.float32) for name, array in inputs.items()}
    if family.startswith("flash_attention"):
        scores = f32["Q"] @ f32["KT"] / np.sqrt(f32["Q"].shape[-1])
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        return inputs, {"O": probs @ f32["V"]}
    if family == "dual_gemm":
        want = {"C": f32["A"] @ f32["B1"] + f32["A"] @ f32["B2"]}
    else:
        want = {"C": f32["A"] @ f32["B"]}  # matmul broadcasts over batch
    if family == "gemm_reduction":
        # Every column tile of the grid stores its row panel's sums
        # weighted by 1/(column tiles) — the kernel presumes a store
        # that accumulates across CTAs. Under the sequential semantics
        # the stores overwrite, so that weight is what ``y`` holds.
        column_tiles = -(-f32["C"].shape[1] // params["tile_n"])
        want["y"] = f32["A"].sum(axis=1) / column_tiles
    return inputs, want


@given(case=feasible_builds())
@settings(max_examples=30)
def test_dependence_and_final_ir_match_numpy(case):
    family, build = case
    kernel = api.compile_kernel(build)
    inputs, want = _inputs_and_reference(family, kernel, build.params)
    for stage in (api.Stage.DEPENDENCE, api.Stage.FINAL):
        outputs = api.run_functional(kernel, inputs, stage=stage)
        for name, reference in want.items():
            atol = ATOL[name]
            if family == "dual_gemm":
                atol *= 2  # two products sum
            np.testing.assert_allclose(
                outputs[name].astype(np.float32),
                reference,
                atol=atol,
                err_msg=f"{build.name} {build.params} {stage.value} {name}",
            )
