"""Public-API surface: Stage enum, scalar_args plumbing, options."""

import numpy as np
import pytest

from repro import api
from repro.api import Stage
from repro.compiler import CompileOptions
from repro.compiler.pipeline import compile_key_for
from repro.errors import CypressError
from repro.kernels.gemm import build_gemm


@pytest.fixture(scope="module")
def kernel(hopper):
    return api.compile_kernel(
        build_gemm(hopper, 128, 256, 64, tile_m=128, tile_n=256, tile_k=64)
    )


def _inputs(rng):
    A = (rng.standard_normal((128, 64)) * 0.1).astype(np.float16)
    B = (rng.standard_normal((64, 256)) * 0.1).astype(np.float16)
    return {"C": np.zeros((128, 256), np.float16), "A": A, "B": B}


class TestStage:
    def test_enum_members_select_irs(self, kernel, rng):
        inputs = _inputs(rng)
        final = api.run_functional(kernel, dict(inputs), stage=Stage.FINAL)
        dep = api.run_functional(
            kernel, dict(inputs), stage=Stage.DEPENDENCE
        )
        np.testing.assert_allclose(
            final["C"].astype(np.float32),
            dep["C"].astype(np.float32),
            atol=0.02,
        )

    def test_string_form_still_accepted(self, kernel, rng):
        inputs = _inputs(rng)
        out_str = api.run_functional(kernel, dict(inputs), stage="final")
        out_enum = api.run_functional(
            kernel, dict(inputs), stage=Stage.FINAL
        )
        np.testing.assert_array_equal(out_str["C"], out_enum["C"])

    def test_unknown_stage_lists_valid_stages(self, kernel, rng):
        with pytest.raises(CypressError) as excinfo:
            api.run_functional(kernel, _inputs(rng), stage="optimized")
        message = str(excinfo.value)
        assert "'final'" in message and "'dependence'" in message

    def test_stage_values_are_strings(self):
        assert Stage.FINAL.value == "final"
        assert Stage.DEPENDENCE.value == "dependence"


class TestScalarArgs:
    def _capture_run(self, monkeypatch):
        from repro.compiler.dependence import DependenceAnalysis

        captured = {}
        original = DependenceAnalysis.run

        def spy(self, arg_shapes, arg_dtypes, scalar_args=None):
            captured["scalar_args"] = scalar_args
            return original(self, arg_shapes, arg_dtypes, scalar_args)

        monkeypatch.setattr(DependenceAnalysis, "run", spy)
        return captured

    def test_compile_kernel_forwards_scalar_args(self, hopper, monkeypatch):
        """The caller's ``options.scalar_args`` win over the build's
        own, in the compile and in the key the cache files it under."""
        captured = self._capture_run(monkeypatch)
        build = build_gemm(
            hopper, 128, 256, 64, tile_m=128, tile_n=256, tile_k=64
        )
        build.scalar_args = {"beta": 0.5}
        options = CompileOptions(cache=False, scalar_args={"alpha": 2.0})
        kernel = api.compile_kernel(build, options=options)
        assert captured["scalar_args"] == {"alpha": 2.0}
        assert kernel.metadata["cache_key"] == compile_key_for(build, options)
        assert compile_key_for(build, options) != compile_key_for(build)

    def test_build_scalar_args_used_by_default(self, hopper, monkeypatch):
        captured = self._capture_run(monkeypatch)
        build = build_gemm(
            hopper, 128, 256, 64, tile_m=128, tile_n=256, tile_k=64
        )
        build.scalar_args = {"beta": 0.5}
        api.compile_kernel(build, options=CompileOptions(cache=False))
        assert captured["scalar_args"] == {"beta": 0.5}

    def test_options_carry_scalar_args(self, hopper, monkeypatch):
        captured = self._capture_run(monkeypatch)
        build = build_gemm(
            hopper, 128, 256, 64, tile_m=128, tile_n=256, tile_k=64
        )
        api.compile_kernel(
            build,
            options=CompileOptions(cache=False, scalar_args={"gamma": 3}),
        )
        assert captured["scalar_args"] == {"gamma": 3}


class TestDeterministicBlockInstance:
    def test_block_instance_sorted_by_name(self, hopper):
        from repro.compiler.pipeline import _block_instance

        build = build_gemm(
            hopper, 128, 256, 64, tile_m=128, tile_n=256, tile_k=64
        )
        chosen = _block_instance(build.spec)
        # Reversing the spec's insertion order must not change the pick.
        reversed_order = dict(reversed(list(build.spec.by_instance.items())))
        build.spec.by_instance.clear()
        build.spec.by_instance.update(reversed_order)
        assert _block_instance(build.spec).instance == chosen.instance


class TestCompileManyFailures:
    """Per-kernel failure collection (raise_on_error=False)."""

    def _good(self, hopper):
        return build_gemm(
            hopper, 256, 256, 128, tile_m=128, tile_n=256, tile_k=64
        )

    def _bad(self, hopper):
        # Survives building but fails in the compiler: 192-row tiles
        # cannot be partitioned for the 64-row WGMMA granule.
        return build_gemm(
            hopper, 256, 256, 128, tile_m=192, tile_n=128, tile_k=64
        )

    def test_default_raises_on_first_failure(self, hopper):
        with pytest.raises(CypressError):
            api.compile_many([self._good(hopper), self._bad(hopper)])

    def test_failures_collected_with_name_and_error(self, hopper):
        results = api.compile_many(
            [self._good(hopper), self._bad(hopper), self._good(hopper)],
            raise_on_error=False,
        )
        assert results[0].name == "gemm_256x256x128"
        assert results[0] is results[2]  # cache dedupes the good pair
        failure = results[1]
        assert isinstance(failure, api.CompileFailure)
        assert failure.name == "gemm_256x256x128"
        assert isinstance(failure.error, CypressError)
        assert "gemm_256x256x128" in str(failure)
