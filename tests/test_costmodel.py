"""The analytic cost model and the autotuner's walk down its ranking.

Covers the edge cases the model must absorb without crashing
(zero-iteration loops, shared-memory overflow, WGMMA granule
violations), its documented agreement with the simulator on the seed
kernels, verdict memoization, and the ``top_k`` walk (pruning, the
fallback past compile failures, honesty metrics).
"""

import dataclasses
import math

import pytest

from repro import api
from repro.compiler.cache import score_cache
from repro.errors import CypressError
from repro.kernels import (
    build_dual_gemm,
    build_flash_attention2,
    build_gemm,
    build_gemm_reduction,
)
from repro.tuner import (
    AGREEMENT_FACTOR,
    AnalyticCostModel,
    MappingSearchSpace,
    autotune,
    spearman,
)

SIZE = 512

SPACE = MappingSearchSpace(
    tiles=((128, 128), (128, 256)),
    tile_k=(64,),
    warpgroups=(1, 2),
    pipeline_depths=(1, 3),
    warpspecialize=(True, False),
)


def _builder(machine, **params):
    return build_gemm(machine, SIZE, SIZE, SIZE, **params)


def _gemm_2048(machine, **params):
    return build_gemm(machine, 2048, 2048, 2048, **params)


def _fa2_2048(machine, tile_m, tile_n, tile_k, **params):
    return build_flash_attention2(
        machine, 8, 2048, q_tile=tile_m, kv_tile=tile_n, **params
    )


def _wide_space(*tiles):
    return MappingSearchSpace(
        tiles=tiles,
        tile_k=(64,),
        warpgroups=(1, 2),
        pipeline_depths=(1, 2, 3, 4),
        warpspecialize=(True, False),
    )


#: The searches the two-stage claims are held on: the small gemm every
#: test here uses, plus a 48-candidate gemm space and a 64-candidate
#: attention space whose 256x256 tiles the model must reject unbuilt.
SEARCHES = (
    (_builder, SPACE),
    (_gemm_2048, _wide_space((256, 256), (128, 256), (128, 128))),
    (
        _fa2_2048,
        _wide_space((128, 128), (128, 256), (256, 128), (256, 256)),
    ),
)


def _feasible(report):
    return [r for r in report.results if r.ok]


def _failed(report):
    return [r for r in report.results if not r.ok and not r.pruned]


def _pruned(report):
    return [r for r in report.results if r.pruned]


class TestCostEstimate:
    def test_feasible_gemm_estimate_is_sane(self, hopper):
        model = AnalyticCostModel()
        est = model.score(_builder(hopper), hopper)
        assert est.feasible
        assert est.cycles > 0 and math.isfinite(est.cycles)
        assert est.tflops > 0
        assert est.smem_bytes > 0
        assert est.occupancy >= 1
        assert est.grid >= 1
        assert est.reason is None

    def test_zero_iteration_loop_scores_without_crashing(self, hopper):
        """k=0 means a zero-trip reduction loop: finite, zero-work."""
        model = AnalyticCostModel()
        build = build_gemm(hopper, 256, 256, 0)
        est = model.score(build, hopper)
        assert est.feasible
        assert est.steps == 0
        assert math.isfinite(est.cycles)
        assert est.tflops == 0.0

    def test_sub_tile_problem_is_one_step(self, hopper):
        build = build_gemm(hopper, 128, 128, 32, tile_m=128, tile_n=128)
        est = AnalyticCostModel().score(build, hopper)
        assert est.feasible and est.steps == 1 and est.grid == 1

    def test_a_build_without_mapping_parameters_is_rejected(self, hopper):
        build = dataclasses.replace(build_gemm(hopper, 256, 256, 128),
                                    params={})
        with pytest.raises(CypressError, match="tile_m"):
            AnalyticCostModel().score(build, hopper, memoize=False)

    def test_smem_overflow_scores_inf_never_raises(self, hopper):
        """A mapping the allocator would reject must score inf."""
        model = AnalyticCostModel()
        build = build_gemm(
            hopper, 2048, 2048, 2048,
            tile_m=256, tile_n=256, tile_k=256,
        )
        est = model.score(build, hopper)
        assert not est.feasible
        assert est.cycles == float("inf")
        assert "shared memory" in est.reason
        # The compiler agrees this mapping is infeasible.
        with pytest.raises(CypressError):
            api.compile_kernel(build)

    def test_wgmma_violation_scores_inf(self, hopper):
        build = build_gemm(
            hopper, 512, 512, 512, tile_m=192, tile_n=128, wgs=2
        )
        est = AnalyticCostModel().score(build, hopper)
        assert not est.feasible
        assert "WGMMA" in est.reason

    def test_attention_zero_seq_scores_without_crashing(self, hopper):
        build = build_flash_attention2(hopper, 1, 0)
        est = AnalyticCostModel().score(build, hopper)
        assert est.steps == 0
        assert math.isfinite(est.cycles)

    @pytest.mark.parametrize(
        "make",
        [
            lambda m: build_gemm(m, 1024, 1024, 1024),
            lambda m: build_dual_gemm(m, 1024, 1024, 1024),
            lambda m: build_gemm_reduction(m, 1024, 1024, 1024),
            lambda m: build_flash_attention2(m, 4, 1024),
        ],
        ids=["gemm", "dual_gemm", "gemm_reduction", "fa2"],
    )
    def test_agreement_with_simulation_on_seed_kernels(self, hopper, make):
        """Predicted cycles track simulation within AGREEMENT_FACTOR."""
        build = make(hopper)
        est = AnalyticCostModel().score(build, hopper)
        sim = api.simulate(api.compile_kernel(build), hopper)
        assert est.feasible
        assert sim.cycles / AGREEMENT_FACTOR <= est.cycles
        assert est.cycles <= sim.cycles * AGREEMENT_FACTOR


class TestMemoization:
    def test_score_is_memoized_process_wide(self, hopper):
        model = AnalyticCostModel()
        build = _builder(hopper)
        first = model.score(build, hopper)
        misses = score_cache.stats.misses
        second = model.score(_builder(hopper), hopper)
        assert second is first
        assert score_cache.stats.misses == misses
        assert score_cache.stats.hits >= 1


class TestSpearman:
    def test_perfect_and_reversed(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_ties_get_average_ranks(self):
        assert spearman([1, 1, 2], [1, 1, 2]) == pytest.approx(1.0)
        assert spearman([1, 1, 1], [1, 2, 3]) == 0.0  # constant sample

    def test_short_and_mismatched_samples(self):
        assert spearman([], []) == 0.0
        assert spearman([1.0], [2.0]) == 0.0
        with pytest.raises(ValueError, match="paired"):
            spearman([1, 2], [1])


class TestTwoStageAutotune:
    def test_top_k_limits_compilation(self, hopper, monkeypatch):
        compiled = {}
        original = api.compile_many

        def spy(builds, **kwargs):
            builds = list(builds)
            compiled["count"] = compiled.get("count", 0) + len(builds)
            return original(builds, **kwargs)

        monkeypatch.setattr(api, "compile_many", spy)
        report = autotune(_builder, hopper, SPACE, top_k=3)
        assert compiled["count"] == 3
        assert report.search.compiled == 3
        assert len(_pruned(report)) == len(SPACE) - 3
        assert len(report.results) == len(SPACE)

    def test_two_stage_finds_the_exhaustive_best(self, hopper):
        for builder, space in SEARCHES:
            exhaustive = autotune(builder, hopper, space)
            two_stage = autotune(builder, hopper, space, top_k=4)
            assert (
                two_stage.best.tflops >= exhaustive.best.tflops * 0.999
            ), (builder.__name__, two_stage.best.label())

    def test_exhaustive_report_carries_honesty_metrics(self, hopper):
        for builder, space in SEARCHES:
            report = autotune(builder, hopper, space)
            rho = report.spearman()
            assert rho is not None and rho >= 0.8, builder.__name__
            errors = [
                abs(r.simulated_cycles / r.predicted_cycles - 1.0)
                for r in report.results
                if r.predicted_cycles and r.simulated_cycles
            ]
            assert errors, builder.__name__
            assert sum(errors) / len(errors) < AGREEMENT_FACTOR

    def test_all_failing_survivors_fall_back_down_the_ranking(
        self, hopper, monkeypatch
    ):
        """A cost-model blind spot among the top-k must not sink the
        sweep: evaluation walks on until something compiles."""
        original = api.compile_many
        calls = {"n": 0}

        def flaky(builds, **kwargs):
            builds = list(builds)
            calls["n"] += 1
            if calls["n"] == 1:
                return [
                    api.CompileFailure(
                        name=b.name, error=CypressError("boom")
                    )
                    for b in builds
                ]
            return original(builds, **kwargs)

        monkeypatch.setattr(api, "compile_many", flaky)
        report = autotune(_builder, hopper, SPACE, top_k=2)
        assert _feasible(report)            # fallback found a winner
        assert report.search.compiled > 2 # walked past the failed cut
        assert calls["n"] >= 2

    def test_model_infeasible_candidates_skip_compilation(
        self, hopper, monkeypatch
    ):
        """Under ``top_k`` the model's rejects never reach the compiler;
        the exhaustive sweep walks on to them after the ranking and
        records the compiler's own verdict."""
        space = MappingSearchSpace(
            tiles=((128, 128), (192, 128)),
            warpgroups=(2,),
            pipeline_depths=(1,),
            warpspecialize=(True,),
            constraint=None,  # let the 192-row violation through
        )
        compiled = []
        original = api.compile_many

        def spy(builds, **kwargs):
            builds = list(builds)
            compiled.extend(build.params["tile_m"] for build in builds)
            return original(builds, **kwargs)

        monkeypatch.setattr(api, "compile_many", spy)
        report = autotune(_builder, hopper, space, top_k=4)
        assert _feasible(report)
        assert compiled == [128]
        assert any(
            r.error and r.error.startswith("cost model:")
            for r in _failed(report)
        )

        compiled.clear()
        exhaustive = autotune(_builder, hopper, space)
        assert compiled == [128, 192]
        (rejected,) = _failed(exhaustive)
        assert rejected.candidate["tile_m"] == 192
        assert not rejected.error.startswith("cost model:")

    def test_pruned_candidates_rank_between_ok_and_failed(self, hopper):
        space = MappingSearchSpace(
            tiles=((128, 128), (192, 128)),
            warpgroups=(2,),
            pipeline_depths=(1, 3),
            warpspecialize=(True,),
            constraint=None,
        )
        report = autotune(_builder, hopper, space, top_k=1)
        kinds = [
            "ok" if r.ok else ("pruned" if r.pruned else "failed")
            for r in report.results
        ]
        assert kinds == sorted(
            kinds, key=["ok", "pruned", "failed"].index
        )

    def test_summary_renders_predictions_and_pruned(self, hopper):
        report = autotune(_builder, hopper, SPACE, top_k=2)
        summary = report.summary()
        assert "predicted" in summary
        assert "pruned" in summary
        assert summary.count("\n") == len(SPACE)
