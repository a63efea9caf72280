"""Simulated timings and cost-model estimates are the numbers they were.

``tests/golden_timing.json`` holds SHA-256 digests of ``repr`` of:

* ``estimate:`` — :meth:`AnalyticCostModel.score` (unmemoized) for every
  search-space candidate of every registered kernel, joined in
  search-space order, at each of a fixed list of bucket-ladder shapes,
  on Hopper and on Ampere;
* ``paper:`` — ``api.simulate`` of the compiled default build at the
  paper's 20 points (Figure 13a-d, Figure 14), plus the cost model's
  estimate of that build;
* ``ampere:`` — ``api.simulate`` of a few compiled builds on the Ampere
  model (no TMA, no warp specialization);
* ``baseline:`` — the :class:`~repro.gpusim.gpu.GpuResult` of every
  baseline system at a few sizes, including the FA3 reference's
  persistent grid.

``repr`` of a float is exact, so a digest matches only when every
field is bit-identical. Re-record only on a deliberate change to the
timing model: ``PYTHONPATH=src python tests/test_golden_timing.py``.
"""

import hashlib
import json
from pathlib import Path

from repro import api, baselines
from repro.kernels import KERNEL_BUILDERS
from repro.machine import ampere_machine, hopper_machine
from repro.runtime import default_registry
from repro.runtime.bucketing import Bucket
from repro.tuner.costmodel import AnalyticCostModel

GOLDEN = Path(__file__).with_name("golden_timing.json")

GEMM_FAMILIES = ("gemm", "batched_gemm", "dual_gemm", "gemm_reduction")
ATTENTION = ("flash_attention2", "flash_attention3")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ladder_shapes(registered):
    """The ladders' diagonal (rung ``i`` of every dimension, a shorter
    ladder staying on its last rung) plus every corner of the ladder
    box (each dimension at its first or last rung)."""
    ladders = [registered.policy.ladders[dim] for dim in registered.dims]
    rungs = [
        [min(i, len(ladder) - 1) for ladder in ladders]
        for i in range(max(len(ladder) for ladder in ladders))
    ]
    for corner in range(2 ** len(ladders)):
        rungs.append([
            len(ladder) - 1 if corner >> d & 1 else 0
            for d, ladder in enumerate(ladders)
        ])
    seen = []
    for rung in rungs:
        shape = tuple(
            (dim, ladder[i])
            for dim, ladder, i in zip(registered.dims, ladders, rung)
        )
        if shape not in seen:
            seen.append(shape)
    return [Bucket(shape) for shape in seen]


def paper_points():
    """Figure 13a-d at M=N=K in {4096, 6144, 8192} (batch 4 for 13b)
    and Figure 14 FA2/FA3 at 16 heads, sequence 2048..16384."""
    points = []
    for family in GEMM_FAMILIES:
        for size in (4096, 6144, 8192):
            shape = dict(m=size, n=size, k=size)
            if family == "batched_gemm":
                shape = dict(batch=4, **shape)
            points.append((family, shape))
    for family in ATTENTION:
        for seq in (2048, 4096, 8192, 16384):
            points.append((family, dict(heads=16, seq=seq, head_dim=128)))
    return points


def baseline_runs(hopper):
    """``(label, thunk)`` for every baseline at a few sizes."""
    runs = []
    for size in (1024, 4096):
        for fn in (baselines.cublas_gemm, baselines.triton_gemm,
                   baselines.triton_dual_gemm,
                   baselines.triton_gemm_reduction):
            runs.append((f"{fn.__name__}/{size}",
                         lambda fn=fn, s=size: fn(hopper, s, s, s)))
        for fn in (baselines.cublas_batched_gemm,
                   baselines.triton_batched_gemm):
            runs.append((f"{fn.__name__}/4x{size}",
                         lambda fn=fn, s=size: fn(hopper, 4, s, s, s)))
    for heads, seq in ((16, 512), (16, 4096), (4, 16384)):
        for fn in (baselines.triton_attention,
                   baselines.thunderkittens_attention,
                   baselines.cudnn_attention,
                   baselines.fa3_reference_attention):
            runs.append((f"{fn.__name__}/h{heads}s{seq}",
                         lambda fn=fn, h=heads, s=seq: fn(hopper, h, s)))
    return runs


def compute_digests():
    machines = {"hopper": hopper_machine(), "ampere": ampere_machine()}
    model = AnalyticCostModel()
    registry = default_registry()
    out = {}
    for family in registry.names():
        registered = registry.get(family)
        candidates = registered.search_space.as_list()
        for bucket in ladder_shapes(registered):
            for name, machine in machines.items():
                text = "\n".join(
                    repr(model.score(
                        registered.build(
                            machine, bucket,
                            registered.tuned_params(candidate),
                        ),
                        machine,
                        memoize=False,
                    ))
                    for candidate in candidates
                )
                label = f"{family}@{name}/{bucket.label()}"
                out[f"estimate:{label}"] = _sha(text)

    hopper = machines["hopper"]
    for family, shape in paper_points():
        build = KERNEL_BUILDERS[family](hopper, **shape)
        dims = "x".join(f"{k}{v}" for k, v in shape.items())
        gpu = api.simulate(api.compile_kernel(build), hopper)
        estimate = model.score(build, hopper, memoize=False)
        out[f"paper:{family}/{dims}"] = _sha(f"{gpu!r}\n{estimate!r}")

    ampere = machines["ampere"]
    for family in GEMM_FAMILIES:
        shape = dict(m=1024, n=1024, k=1024)
        if family == "batched_gemm":
            shape = dict(batch=2, **shape)
        build = KERNEL_BUILDERS[family](
            ampere, **shape, warpspecialize=False
        )
        gpu = api.simulate(api.compile_kernel(build), ampere)
        out[f"ampere:{family}/1024"] = _sha(repr(gpu))

    for label, run in baseline_runs(hopper):
        out[f"baseline:{label}"] = _sha(repr(run()))
    return out


def test_timing_matches_the_recorded_digests():
    golden = json.loads(GOLDEN.read_text())
    got = compute_digests()
    assert sorted(got) == sorted(golden)
    wrong = sorted(k for k in golden if got[k] != golden[k])
    assert not wrong, f"{len(wrong)} of {len(golden)} differ: {wrong}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1) + "\n")
