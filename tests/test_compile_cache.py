"""Compile-cache behavior: hits, misses, and key sensitivity.

The cache keys on content — mapping spec, argument shapes/dtypes,
machine, compile options — so identical instantiations hit (executing
zero passes) while any semantic difference, including mutating a spec
in place after building it, misses.
"""

import pytest

from repro import api
from repro.compiler import CompileOptions, compile_cache
from repro.kernels.gemm import build_gemm


@pytest.fixture(autouse=True)
def fresh_cache():
    api.clear_compile_cache()
    yield
    api.clear_compile_cache()


def _build(hopper, **overrides):
    params = dict(
        m=256, n=256, k=128, tile_m=128, tile_n=256, tile_k=64
    )
    params.update(overrides)
    return build_gemm(hopper, **params)


class TestCacheHit:
    def test_identical_instantiation_executes_no_passes(self, hopper):
        first = api.compile_kernel(_build(hopper))
        second = api.compile_kernel(_build(hopper))
        assert second is first
        stats = api.compile_cache_stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_hit_preserves_simulated_result(self, hopper):
        first = api.compile_kernel(_build(hopper))
        second = api.compile_kernel(_build(hopper))
        assert (
            api.simulate(second, hopper).tflops
            == api.simulate(first, hopper).tflops
        )


class TestCacheMiss:
    def test_different_shapes_miss(self, hopper):
        api.compile_kernel(_build(hopper))
        api.compile_kernel(_build(hopper, m=384, n=512, k=192))
        assert api.compile_cache_stats().misses == 2

    def test_different_mapping_misses(self, hopper):
        api.compile_kernel(_build(hopper))
        api.compile_kernel(_build(hopper, pipeline=4))
        assert api.compile_cache_stats().misses == 2

    def test_mutated_spec_misses(self, hopper):
        build = _build(hopper)
        first = api.compile_kernel(build)
        # Mutating a mapping decision in place must invalidate the key:
        # the fingerprint is recomputed from current spec contents.
        build.spec.by_instance["gemm_block"].pipeline = 4
        second = api.compile_kernel(build)
        assert second is not first
        assert api.compile_cache_stats().misses == 2
        assert (
            second.metadata["cache_key"] != first.metadata["cache_key"]
        )

    def test_different_scalar_args_miss(self, hopper):
        for alpha in (1.0, 2.0):
            api.compile_kernel(
                _build(hopper),
                options=CompileOptions(scalar_args={"alpha": alpha}),
            )
        assert api.compile_cache_stats().misses == 2

    def test_use_tma_part_of_key(self, hopper):
        for use_tma in (True, False):
            api.compile_kernel(
                _build(hopper), options=CompileOptions(use_tma=use_tma)
            )
        assert api.compile_cache_stats().misses == 2

    def test_verify_policy_part_of_key(self, hopper):
        # A kernel cached with verification at the ends only must not
        # serve a caller asking for the verify-every-pass discipline.
        ends = api.compile_kernel(
            _build(hopper), options=CompileOptions(verify="ends")
        )
        strict = api.compile_kernel(_build(hopper))
        assert strict is not ends
        assert ends.pass_trace.verified_after == ["input", "output"]
        assert "copy-elim" in strict.pass_trace.verified_after

    def test_same_mapping_different_program_misses(self, hopper):
        """Task bodies are part of the fingerprint, not just names."""
        from repro.frontend import (
            Inner, Leaf, MappingSpec, TaskMapping, TaskRegistry,
            call_external, launch,
        )
        from repro.machine.memory import MemoryKind
        from repro.machine.processor import ProcessorKind
        from repro.tensors import f16

        def make_spec(fill_value):
            reg = TaskRegistry()

            @reg.external_function("fill", cost_kind="simt")
            def fill(x):
                x[...] = fill_value

            @reg.task("writer", Leaf, writes=["x"])
            def writer_leaf(x):
                call_external("fill", x)

            @reg.task("prog", Inner, writes=["x"])
            def prog_host(x):
                launch("writer", x)

            return MappingSpec(
                [
                    TaskMapping(
                        instance="prog", variant="prog_host",
                        proc=ProcessorKind.HOST,
                        mems=(MemoryKind.GLOBAL,),
                        entrypoint=True, calls=("writer",),
                    ),
                    TaskMapping(
                        instance="writer", variant="writer_leaf",
                        proc=ProcessorKind.BLOCK,
                        mems=(MemoryKind.GLOBAL,),
                    ),
                ],
                reg,
                hopper,
            )

        # Identical instance trees and names, different external bodies.
        assert make_spec(0).fingerprint() != make_spec(1).fingerprint()
        # Same program built twice still fingerprints identically.
        assert make_spec(0).fingerprint() == make_spec(0).fingerprint()


class TestCacheControl:
    def test_cache_disabled_recompiles(self, hopper):
        options = CompileOptions(cache=False)
        first = api.compile_kernel(_build(hopper), options=options)
        second = api.compile_kernel(_build(hopper), options=options)
        assert second is not first
        assert second.pass_trace is not first.pass_trace  # passes reran
        stats = api.compile_cache_stats()
        assert stats.hits + stats.misses + stats.second_tier_hits == 0

    def test_clear_resets_entries_and_stats(self, hopper):
        api.compile_kernel(_build(hopper))
        assert len(compile_cache) == 1
        api.clear_compile_cache()
        assert len(compile_cache) == 0
        stats = api.compile_cache_stats()
        assert stats.hits + stats.misses + stats.second_tier_hits == 0

    def test_lru_eviction_bounds_entries(self, hopper):
        from repro.compiler.cache import CompileCache

        small = CompileCache(capacity=2)
        small.put("a", 1)
        small.put("b", 2)
        small.put("c", 3)
        assert len(small) == 2
        assert "a" not in small and "b" in small and "c" in small
        assert small.get("b") == 2  # refresh b
        small.put("d", 4)
        assert "c" not in small and "b" in small


class TestCompileMany:
    DEPTHS = (1, 2, 3, 4)

    def _builds(self, hopper):
        return [_build(hopper, pipeline=depth) for depth in self.DEPTHS]

    def test_thread_pool_matches_sequential(self, hopper):
        sequential = [
            api.simulate(api.compile_kernel(build), hopper).tflops
            for build in self._builds(hopper)
        ]
        api.clear_compile_cache()
        parallel = [
            api.simulate(kernel, hopper).tflops
            for kernel in api.compile_many(self._builds(hopper))
        ]
        assert parallel == sequential

    def test_order_preserved(self, hopper):
        kernels = api.compile_many(self._builds(hopper))
        assert len(kernels) == len(self.DEPTHS)
        depths = [kernel.warpspec.pipeline_depth for kernel in kernels]
        assert depths == list(self.DEPTHS)

    def test_duplicates_compile_once(self, hopper):
        build = _build(hopper)
        api.compile_kernel(build)  # populate
        misses_before = api.compile_cache_stats().misses
        kernels = api.compile_many([_build(hopper) for _ in range(6)])
        assert api.compile_cache_stats().misses == misses_before
        assert all(kernel is kernels[0] for kernel in kernels)

    def test_concurrent_duplicates_deduped_in_flight(self, hopper):
        """Simultaneous misses on one key run the pipeline only once."""
        misses_before = api.compile_cache_stats().misses
        kernels = api.compile_many([_build(hopper) for _ in range(8)])
        assert api.compile_cache_stats().misses - misses_before == 1
        assert all(kernel is kernels[0] for kernel in kernels)

    def test_return_errors_captures_cypress_errors(self, hopper):
        from repro.errors import CypressError

        good = _build(hopper)
        bad = _build(hopper)
        bad.spec.by_instance["gemm_block"].smem_limit_bytes = 1024
        results = api.compile_many([good, bad], raise_on_error=False)
        assert not isinstance(results[0], api.CompileFailure)
        assert isinstance(results[1].error, CypressError)


class TestCapacityControls:
    def test_env_var_sets_default_capacity(self, monkeypatch):
        from repro.compiler.cache import CompileCache

        monkeypatch.setenv("REPRO_COMPILE_CACHE_SIZE", "7")
        cache = CompileCache()
        assert cache.capacity == 7
        assert cache.stats.capacity == 7

    def test_env_var_unset_uses_default(self, monkeypatch):
        from repro.compiler.cache import DEFAULT_CAPACITY, CompileCache

        monkeypatch.delenv("REPRO_COMPILE_CACHE_SIZE", raising=False)
        assert CompileCache().capacity == DEFAULT_CAPACITY

    @pytest.mark.parametrize("raw", ["zero", "0", "-3"])
    def test_bad_env_var_rejected(self, monkeypatch, raw):
        from repro.compiler.cache import CompileCache

        monkeypatch.setenv("REPRO_COMPILE_CACHE_SIZE", raw)
        with pytest.raises(ValueError, match="REPRO_COMPILE_CACHE_SIZE"):
            CompileCache()

    def test_explicit_capacity_beats_env(self, monkeypatch):
        from repro.compiler.cache import CompileCache

        monkeypatch.setenv("REPRO_COMPILE_CACHE_SIZE", "7")
        assert CompileCache(capacity=3).capacity == 3

    def test_resize_down_evicts_lru(self):
        from repro.compiler.cache import CompileCache

        cache = CompileCache(capacity=4)
        for key in "abcd":
            cache.put(key, key.upper())
        cache.resize(2)
        assert len(cache) == 2
        assert "a" not in cache and "b" not in cache
        assert "c" in cache and "d" in cache
        assert cache.stats.evictions == 2
        assert cache.stats.capacity == 2
        cache.resize(8)
        assert cache.capacity == 8

    def test_put_overflow_counts_evictions(self):
        from repro.compiler.cache import CompileCache

        cache = CompileCache(capacity=2)
        for key in "abc":
            cache.put(key, 1)
        assert cache.stats.evictions == 1

    def test_clear_preserves_capacity_in_stats(self):
        from repro.compiler.cache import CompileCache

        cache = CompileCache(capacity=5)
        cache.put("a", 1)
        cache.clear()
        assert cache.stats.capacity == 5
        assert cache.stats.evictions == 0

    def test_global_resize_via_api(self):
        previous = compile_cache.capacity
        try:
            api.resize_compile_cache(13)
            assert api.compile_cache_stats().capacity == 13
        finally:
            api.resize_compile_cache(previous)


class _DictTier:
    """An in-memory stand-in for the disk tier."""

    def __init__(self):
        self.entries = {}
        self.loads = 0
        self.stores = 0

    def load(self, key):
        self.loads += 1
        return self.entries.get(key)

    def store(self, key, kernel):
        self.stores += 1
        self.entries[key] = kernel


class TestSecondTier:
    def test_miss_consults_tier_and_promotes(self):
        from repro.compiler.cache import CompileCache

        cache = CompileCache(capacity=4)
        tier = _DictTier()
        tier.entries["k"] = "kernel"
        value = cache.get_or_compute(
            "k", lambda: pytest.fail("computed"), tier=tier
        )
        assert value == "kernel"
        assert cache.stats.second_tier_hits == 1
        assert cache.stats.misses == 0
        # Promoted into memory: the next lookup never touches the tier.
        assert cache.get_or_compute("k", lambda: None, tier=tier) == "kernel"
        assert tier.loads == 1
        assert cache.stats.hits == 1

    def test_compute_writes_through(self):
        from repro.compiler.cache import CompileCache

        cache = CompileCache(capacity=4)
        tier = _DictTier()
        value = cache.get_or_compute("k", lambda: "fresh", tier=tier)
        assert value == "fresh"
        assert tier.entries["k"] == "fresh"
        assert cache.stats.misses == 1

    def test_no_tier_passed_stores_nothing(self):
        from repro.compiler.cache import CompileCache

        cache = CompileCache(capacity=4)
        tier = _DictTier()
        cache.get_or_compute("a", lambda: "A", tier=tier)
        # The tier belongs to the lookup it was passed to, not to the
        # cache: the next lookup, given none, neither reads nor writes it.
        cache.get_or_compute("b", lambda: "B")
        assert (tier.loads, tier.stores) == (1, 1)
        assert "b" not in tier.entries

    def test_memory_eviction_leaves_tier_copy(self):
        from repro.compiler.cache import CompileCache

        cache = CompileCache(capacity=1)
        tier = _DictTier()
        cache.get_or_compute("a", lambda: "A", tier=tier)
        cache.get_or_compute("b", lambda: "B", tier=tier)  # evicts a
        assert "a" not in cache
        assert (
            cache.get_or_compute(
                "a", lambda: pytest.fail("computed"), tier=tier
            )
            == "A"
        )
        assert cache.stats.second_tier_hits == 1

    def test_lookup_labels_the_branch_that_answered(self):
        from repro.compiler.cache import CompileCache

        cache = CompileCache(capacity=1)
        tier = _DictTier()
        assert cache.lookup("a", lambda: "A", tier) == ("A", "compile")
        assert cache.lookup("a", lambda: "A2", tier) == ("A", "memory")
        assert cache.lookup("b", lambda: "B") == ("B", "compile")  # evicts a
        assert cache.lookup("a", lambda: "A3", tier) == ("A", "disk")
        # No tier passed: the copy on disk is out of this lookup's reach.
        assert cache.lookup("b", lambda: "B2") == ("B2", "compile")


class TestInFlight:
    def test_raising_compute_leaves_no_in_flight_lock(self):
        from repro.compiler.cache import CompileCache

        cache = CompileCache(capacity=4)

        def broken():
            raise RuntimeError("infeasible mapping")

        for index in range(5):
            with pytest.raises(RuntimeError, match="infeasible"):
                cache.get_or_compute(f"k{index}", broken)
        assert len(cache._in_flight) == 0
        assert cache.stats.misses == 5
        # The failure was the caller's alone: the next caller computes.
        assert cache.lookup("k0", lambda: "fine") == ("fine", "compile")
        assert len(cache._in_flight) == 0
