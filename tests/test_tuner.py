"""The autotuning subsystem, end-to-end on a small GEMM.

``autotune`` must agree with a plain sequential sweep (same best
mapping, same throughput) while batch-compiling candidates through
``api.compile_many``, and must record infeasible mappings as failures
instead of aborting.
"""

import pytest

from repro import api
from repro.errors import CypressError
from repro.kernels.gemm import build_gemm
from repro.runtime import default_registry
from repro.tuner import (
    AnalyticCostModel,
    MappingSearchSpace,
    TuningReport,
    TuningResult,
    autotune,
    wgmma_row_constraint,
)
from repro.tuner.search_space import wgmma_rows_fit

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


class TestSearchSpace:
    def test_candidates_are_builder_kwargs(self):
        for candidate in SPACE.candidates():
            assert set(candidate) == {
                "tile_m", "tile_n", "tile_k", "wgs", "pipeline",
                "warpspecialize",
            }

    def test_default_constraint_drops_odd_warpgroup_tiles(self):
        space = MappingSearchSpace(
            tiles=((192, 128),), warpgroups=(2,), pipeline_depths=(1,),
            warpspecialize=(False,),
        )
        assert len(space) == 0  # 192/2 = 96 rows, not 64-divisible
        space.constraint = None
        assert len(space) == 1

    def test_extra_axes_swept(self):
        space = MappingSearchSpace(
            tiles=((128, 128),), warpgroups=(1,), pipeline_depths=(1,),
            warpspecialize=(False,),
            extra={"accumulator": ("register", "shared")},
        )
        candidates = space.as_list()
        assert len(candidates) == 2
        assert {c["accumulator"] for c in candidates} == {
            "register", "shared",
        }

    def test_wgmma_constraint(self):
        assert wgmma_row_constraint({"tile_m": 128, "wgs": 2})
        assert not wgmma_row_constraint({"tile_m": 128, "wgs": 4})

    def test_one_wgmma_rule_for_the_space_and_the_cost_model(self, hopper):
        assert not wgmma_rows_fit(128, 0)
        assert not wgmma_rows_fit(129, 2)  # 129 // 2 = 64, but uneven
        model = AnalyticCostModel()
        for rows in (64, 96, 128, 129, 192, 256):
            for wgs in (0, 1, 2, 3, 4):
                fits = wgmma_rows_fit(rows, wgs)
                assert wgmma_row_constraint(
                    {"tile_m": rows, "wgs": wgs}
                ) == fits
                violation = model._wgmma_violation("k", "gemm", rows, wgs)
                assert (violation is None) == fits, (rows, wgs)

    def test_registered_spaces_yield_the_pinned_candidates(self):
        """``python -m bench``'s cold compiles draw from these lists by
        index, so their contents and order are pinned."""

        def expected(tiles):
            return [
                dict(tile_m=tile_m, tile_n=tile_n, tile_k=64, wgs=wgs,
                     pipeline=pipeline, warpspecialize=warpspec)
                for tile_m, tile_n in tiles
                for wgs in (1, 2)
                for pipeline in (1, 2, 3)
                for warpspec in (True, False)
            ]

        gemm = expected(((256, 256), (128, 256), (128, 128)))
        attention = expected(((128, 128), (128, 256)))
        registry = default_registry()
        for name in registry.names():
            space = registry.get(name).search_space
            want = attention if name.startswith("flash") else gemm
            assert space.as_list() == want, name


class TestAutotune:
    def test_matches_sequential_sweep(self, hopper):
        api.clear_compile_cache()
        report = autotune(_builder, hopper, SPACE)
        assert report.feasible

        best_candidate, best_tflops = None, float("-inf")
        for candidate in SPACE.candidates():
            build = build_gemm(hopper, SIZE, SIZE, SIZE, **candidate)
            tflops = api.tflops(api.compile_kernel(build), hopper)
            if tflops > best_tflops:
                best_candidate, best_tflops = candidate, tflops

        assert report.best.candidate == best_candidate
        assert report.best.tflops == pytest.approx(best_tflops)

    def test_compiles_through_compile_many(self, hopper, monkeypatch):
        calls = {}
        original = api.compile_many

        def spy(builds, **kwargs):
            builds = list(builds)
            calls["count"] = len(builds)
            return original(builds, **kwargs)

        monkeypatch.setattr(api, "compile_many", spy)
        report = autotune(_builder, hopper, SPACE)
        assert calls["count"] == len(SPACE)
        assert len(report.results) == len(SPACE)

    def test_ranked_descending_with_failures_last(self, hopper):
        space = MappingSearchSpace(
            tiles=((128, 128), (192, 128)),
            warpgroups=(2,),
            pipeline_depths=(1, 3),
            warpspecialize=(True,),
            constraint=None,  # let the infeasible 192-row tiles through
        )
        report = autotune(_builder, hopper, space)
        assert report.feasible and report.failed
        feasible_tflops = [r.tflops for r in report.feasible]
        assert feasible_tflops == sorted(feasible_tflops, reverse=True)
        # failures are ranked after every feasible result
        first_failure = report.results.index(report.failed[0])
        assert first_failure == len(report.feasible)
        assert all(r.error for r in report.failed)

    def test_summary_lists_every_candidate(self, hopper):
        report = autotune(_builder, hopper, SPACE)
        summary = report.summary()
        assert summary.count("\n") == len(SPACE)  # header + one row each

    def test_all_infeasible_raises_on_best(self):
        report = TuningReport(
            results=[TuningResult(candidate={}, error="boom")]
        )
        with pytest.raises(CypressError, match="no feasible mapping"):
            report.best

    def test_builder_signature_mismatch_recorded_not_fatal(self, hopper):
        """A builder lacking a swept axis fails per candidate."""
        from repro.kernels import build_flash_attention2

        space = MappingSearchSpace(
            tiles=((128, 128),), warpgroups=(2,), pipeline_depths=(1,),
            warpspecialize=(False,),
        )
        report = autotune(
            lambda m, **p: build_flash_attention2(m, 1, 256, **p),
            hopper,
            space,
        )
        assert not report.feasible
        assert "tile_m" in report.failed[0].error
        report.summary()  # label() must not KeyError on odd candidates

    def test_label_handles_partial_candidates(self):
        assert TuningResult(candidate={}).label() == "<defaults>"
        assert (
            TuningResult(candidate={"q_tile": 128, "wgs": 2}).label()
            == "wgs=2 q_tile=128"
        )
