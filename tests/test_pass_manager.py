"""Pass-manager contract: registry, ordering, instrumentation, verify.

The compiler pipeline is data now: every stage is a named pass in
``PASS_REGISTRY`` and the ``PassManager`` runs an ordered list of them.
These tests pin the registry contents, the default order, the per-pass
trace attached to compiled kernels, and the verification policies.
"""

import pytest

from repro import api
from repro.compiler import (
    DEFAULT_PIPELINE,
    PASS_REGISTRY,
    CompileOptions,
    Pass,
    PassContext,
    PassManager,
    VerifyPolicy,
    build_pass,
    register_pass,
)
from repro.compiler.dependence import DependenceAnalysis
from repro.errors import CompileError
from repro.kernels.gemm import build_gemm


@pytest.fixture(scope="module")
def small_build(hopper):
    return build_gemm(
        hopper, 256, 256, 128, tile_m=128, tile_n=256, tile_k=64
    )


def _dependence_ir(build):
    return DependenceAnalysis(build.spec, build.name).run(
        build.arg_shapes, build.arg_dtypes
    )


def _context(build, options):
    from repro.compiler.pipeline import _block_instance

    return PassContext(
        spec=build.spec,
        kernel_name=build.name,
        arg_shapes=build.arg_shapes,
        arg_dtypes=build.arg_dtypes,
        total_flops=build.total_flops,
        unique_dram_bytes=build.unique_dram_bytes,
        options=options,
        block_mapping=_block_instance(build.spec),
    )


class TestRegistry:
    def test_default_pipeline_registered_in_order(self):
        assert DEFAULT_PIPELINE == (
            "vectorize",
            "copy-elim",
            "allocate-shared",
            "warp-specialize",
            "lower-schedule",
            "codegen-cuda",
        )
        for name in DEFAULT_PIPELINE:
            assert name in PASS_REGISTRY

    def test_manager_resolves_names_in_order(self):
        manager = PassManager()
        assert manager.pass_names == DEFAULT_PIPELINE

    def test_unknown_pass_name_rejected(self):
        with pytest.raises(CompileError, match="unknown pass"):
            build_pass("no-such-pass")
        with pytest.raises(CompileError, match="registered passes"):
            PassManager(["vectorize", "no-such-pass"])

    def test_duplicate_registration_rejected(self):
        with pytest.raises(CompileError, match="duplicate"):

            @register_pass
            class Duplicate(Pass):
                name = "vectorize"

    def test_custom_pass_runs_in_sequence(self, small_build):
        calls = []

        class Probe(Pass):
            name = "probe"
            mutates_ir = False

            def run(self, fn, ctx):
                calls.append(ctx.kernel_name)
                ctx.artifacts["probe"] = True

        fn = _dependence_ir(small_build)
        options = CompileOptions(cache=False)
        ctx = _context(small_build, options)
        manager = PassManager(
            ["vectorize", Probe(), "copy-elim"], verify="ends"
        )
        trace = manager.run(fn, ctx)
        assert trace.pass_names == ("vectorize", "probe", "copy-elim")
        assert calls == [small_build.name]
        assert ctx.artifacts["probe"] is True


class TestInstrumentation:
    def test_trace_attached_to_metadata(self, small_build):
        kernel = api.compile_kernel(
            small_build, options=CompileOptions(cache=False)
        )
        trace = kernel.pass_trace
        assert trace is not None
        assert trace.pass_names == DEFAULT_PIPELINE
        assert [record.name for record in trace.records] == list(
            DEFAULT_PIPELINE
        )
        for record in trace.records:
            assert record.wall_time_s >= 0
            assert record.ops_before > 0
            assert record.ops_after > 0
        assert sum(record.wall_time_s for record in trace.records) > 0
        # copy elimination must shrink the IR; the trace shows it.
        elim = next(r for r in trace.records if r.name == "copy-elim")
        assert elim.ops_after < elim.ops_before

    def test_ir_counted_once_per_pass_boundary(self, small_build, monkeypatch):
        """Six passes have seven boundaries; each pass's ``ops_before``
        is its predecessor's ``ops_after`` and every count is exact."""
        from repro.compiler import passes

        counts = []

        def counted(fn):
            counts.append(sum(1 for _ in fn.walk()))
            return counts[-1]

        monkeypatch.setattr(passes, "_ir_size", counted)
        fn = _dependence_ir(small_build)
        ctx = _context(small_build, CompileOptions(cache=False))
        trace = PassManager().run(fn, ctx)
        assert len(counts) == len(DEFAULT_PIPELINE) + 1
        assert [r.ops_before for r in trace.records] == counts[:-1]
        assert [r.ops_after for r in trace.records] == counts[1:]
        assert counts[-1] == sum(1 for _ in fn.walk())


class TestVerifyPolicy:
    def _trace(self, small_build, verify):
        fn = _dependence_ir(small_build)
        options = CompileOptions(cache=False, verify=verify)
        ctx = _context(small_build, options)
        return PassManager(verify=options.verify).run(fn, ctx)

    def test_every_pass_checks_each_mutating_pass(self, small_build):
        trace = self._trace(small_build, "every-pass")
        assert trace.verified_after == [
            "input",
            "vectorize",
            "copy-elim",
            "allocate-shared",
            "warp-specialize",
        ]

    def test_ends_checks_input_and_output_only(self, small_build):
        trace = self._trace(small_build, "ends")
        assert trace.verified_after == ["input", "output"]

    def test_string_policy_coerced_in_options(self):
        options = CompileOptions(verify="ends")
        assert options.verify is VerifyPolicy.ENDS
        with pytest.raises(ValueError):
            CompileOptions(verify="sometimes")


class TestPartialPipeline:
    def test_missing_backend_artifact_rejected(self, small_build):
        options = CompileOptions(
            cache=False, passes=("vectorize", "copy-elim")
        )
        with pytest.raises(CompileError, match="artifact"):
            api.compile_kernel(small_build, options=options)
