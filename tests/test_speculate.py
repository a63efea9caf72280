"""Speculative background compilation: neighbors, hits, accounting.

The speculator is driven synchronously through ``run_once()`` here so
nothing depends on thread timing: a cycle observes recorded traffic,
precompiles observed + neighbor buckets, and the next request in a
precompiled bucket must be a memory-tier hit with zero compiler passes
executed — indistinguishable from an explicit ``warm()``.
"""

import numpy as np
import pytest

from repro import api
from repro.errors import CypressError
from repro.kernels import build_gemm
from repro.runtime import (
    Bucket,
    BucketPolicy,
    KernelRegistry,
    RuntimeServer,
    Speculator,
    SpeculatorConfig,
)

SMALL = dict(tile_m=128, tile_n=256, tile_k=64)


@pytest.fixture(autouse=True)
def fresh_cache():
    api.clear_compile_cache()
    yield
    api.clear_compile_cache()


@pytest.fixture()
def registry():
    reg = KernelRegistry()
    reg.register(
        "gemm",
        build_gemm,
        ("m", "n", "k"),
        policy=BucketPolicy(
            ladders={"m": (128, 256), "n": (256,), "k": (64,)}
        ),
        defaults=dict(SMALL),
    )
    return reg


def _config(**overrides):
    base = dict(
        interval_s=60.0,  # dormant loop; tests drive run_once()
        max_compiles_per_cycle=32,
        neighbors=True,
    )
    base.update(overrides)
    return SpeculatorConfig(**base)


class TestNeighborEnumeration:
    def test_laddered_dim_steps_one_rung(self):
        policy = BucketPolicy(ladders={"m": (128, 256, 512)})
        assert policy.neighbor_extents("m", 128) == (256,)
        assert policy.neighbor_extents("m", 256) == (128, 512)
        # Top rung: one below, plus the first beyond-ladder multiple.
        assert policy.neighbor_extents("m", 512) == (256, 1024)

    def test_beyond_ladder_steps_by_top_rung(self):
        policy = BucketPolicy(ladders={"m": (128, 256)})
        assert policy.neighbor_extents("m", 512) == (256, 768)
        assert policy.neighbor_extents("m", 768) == (512, 1024)

    def test_unladdered_dim_steps_powers_of_two(self):
        policy = BucketPolicy(ladders={})
        assert policy.neighbor_extents("k", 128) == (64, 256)
        # The floor granule has no downward neighbor.
        assert policy.neighbor_extents("k", 64) == (128,)

    def test_neighbors_vary_one_dim_at_a_time(self):
        policy = BucketPolicy(ladders={"m": (128, 256), "n": (256,)})
        bucket = Bucket((("m", 128), ("n", 256)))
        neighbors = policy.neighbors(bucket)
        assert Bucket((("m", 256), ("n", 256))) in neighbors
        assert Bucket((("m", 128), ("n", 512))) in neighbors
        for neighbor in neighbors:
            diffs = sum(
                1
                for (_, a), (_, b) in zip(bucket.dims, neighbor.dims)
                if a != b
            )
            assert diffs == 1


class TestSpeculator:
    def test_neighbor_bucket_served_from_memory_zero_passes(
        self, hopper, registry
    ):
        with RuntimeServer(
            hopper, registry, workers=1, speculate=_config()
        ) as server:
            server.submit("gemm", dict(m=100, n=256, k=64)).result(
                timeout=120
            )
            compiled = server.speculator.run_once()
            assert compiled > 0  # neighbor buckets were precompiled
            before = api.compile_cache_stats().misses
            result = server.submit("gemm", dict(m=200, n=256, k=64)).result(
                timeout=120
            )
            assert result.bucket.as_dict() == dict(m=256, n=256, k=64)
            assert result.tier == "memory"
            assert api.compile_cache_stats().misses == before

    def test_run_once_is_idempotent(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, speculate=_config()
        ) as server:
            server.submit("gemm", dict(m=128, n=256, k=64)).result(
                timeout=120
            )
            assert server.speculator.run_once() > 0
            # Everything reachable is compiled (or attempted) now.
            assert server.speculator.run_once() == 0

    def test_speculation_never_changes_served_results(
        self, hopper, registry
    ):
        shape = dict(m=256, n=256, k=64)
        rng = np.random.default_rng(7)
        inputs = {
            "C": np.zeros((256, 256), np.float16),
            "A": (rng.standard_normal((256, 64)) * 0.1).astype(np.float16),
            "B": (rng.standard_normal((64, 256)) * 0.1).astype(np.float16),
        }
        with RuntimeServer(
            hopper, registry, workers=1, speculate=_config()
        ) as server:
            # Speculation precompiles m256 off traffic at m128.
            server.submit("gemm", dict(m=128, n=256, k=64)).result(
                timeout=120
            )
            server.speculator.run_once()
            speculated = server.submit("gemm", shape, inputs=inputs).result(
                timeout=120
            )
            assert speculated.tier == "memory"
        api.clear_compile_cache()
        with RuntimeServer(hopper, registry, workers=1) as server:
            on_demand = server.submit("gemm", shape, inputs=inputs).result(
                timeout=120
            )
            assert on_demand.tier == "compile"
        assert speculated.build_name == on_demand.build_name
        assert np.array_equal(
            speculated.outputs["C"], on_demand.outputs["C"]
        )
        assert speculated.gpu.cycles == on_demand.gpu.cycles

    def test_effectiveness_counters_and_table(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, speculate=_config()
        ) as server:
            server.submit("gemm", dict(m=128, n=256, k=64)).result(
                timeout=120
            )
            server.speculator.run_once()
            stats = server.stats()
            assert stats.speculative_compiles > 0
            assert stats.speculation_issued > 0
            assert stats.speculation_hits == 0
            assert stats.speculation_wasted == stats.speculation_issued
            assert stats.speculation_wasted_ratio == 1.0
            # First request in a precompiled bucket counts one hit;
            # repeats in the same bucket do not double-count.
            for _ in range(2):
                server.submit("gemm", dict(m=256, n=256, k=64)).result(
                    timeout=120
                )
            stats = server.stats()
            assert stats.speculation_hits == 1
            assert stats.speculation_wasted == stats.speculation_issued - 1
            assert "specul.:" in stats.table()

    def test_idle_only_cycles_yield_to_traffic(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, start=False, speculate=_config()
        ) as server:
            server.submit("gemm", dict(m=128, n=256, k=64))
            # A queued request means the server is not idle: the cycle
            # must yield without compiling anything.
            assert server.queue_depth == 1
            assert server.speculator.run_once() == 0

    def test_thread_lifecycle_follows_server(
        self, hopper, registry, new_threads
    ):
        server = RuntimeServer(
            hopper, registry, workers=1, speculate=True
        )
        assert isinstance(server.speculator, Speculator)
        assert new_threads().count("repro-maintenance") == 1
        server.close()
        assert "repro-maintenance" not in new_threads()

    def test_close_without_start_stops_cleanly(
        self, hopper, registry, new_threads
    ):
        server = RuntimeServer(
            hopper, registry, workers=1, start=False, speculate=True
        )
        assert "repro-maintenance" not in new_threads()
        server.close(drain=False)
        assert "repro-maintenance" not in new_threads()

    def test_speculation_disabled_by_default(self, hopper, registry):
        with RuntimeServer(hopper, registry, workers=1) as server:
            assert server.speculator is None
            server.submit("gemm", dict(m=128, n=256, k=64)).result(
                timeout=120
            )
            assert server.stats().speculation_issued == 0

    def test_errors_counted_not_raised(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, speculate=_config()
        ) as server:
            speculator = server.speculator
            server.submit("gemm", dict(m=128, n=256, k=64)).result(
                timeout=120
            )

            def boom(*args, **kwargs):
                raise CypressError("induced failure")

            server._launch = boom  # type: ignore[method-assign]
            before = speculator.errors
            assert speculator.run_once() == 0
            assert speculator.errors > before


class TestSharedFetch:
    """The speculator reaches the cache through the server's fetch."""

    def test_disk_answer_is_not_a_speculative_compile(
        self, hopper, registry, tmp_path
    ):
        shape = dict(m=128, n=256, k=64)
        with RuntimeServer(
            hopper, registry, workers=1, disk_cache=str(tmp_path),
            speculate=_config(neighbors=False),
        ) as server:
            server.submit("gemm", shape).result(timeout=120)
            api.clear_compile_cache()
            before = api.compile_cache_stats().misses
            # The lookup consults the server's own disk tier: the bucket
            # comes back into memory, and nothing was compiled.
            assert server.speculator.run_once() == 0
            assert api.compile_cache_stats().misses == before
            stats = server.stats()
            assert stats.speculative_compiles == 0
            assert stats.speculation_issued == 0
            result = server.submit("gemm", shape).result(timeout=120)
            assert result.tier == "memory"

    def test_background_compiles_skip_the_fault_stream(
        self, hopper, registry
    ):
        from repro.runtime import FaultPlan

        plan = FaultPlan(seed=0).inject("compile", 1.0)
        with RuntimeServer(
            hopper, registry, workers=1, start=False, speculate=_config(),
            faults=plan,
        ) as server:
            server.speculator.record_traffic(
                [("gemm", Bucket((("m", 128), ("n", 256), ("k", 64))))]
            )
            assert server.speculator.run_once() > 0
            # The armed fault site is not on the background path: chaos
            # draws stay the request path's.
            assert plan.injections("compile") == 0

    def test_noop_cycle_leaves_lru_order_alone(self, hopper, registry):
        from repro.compiler import compile_cache

        with RuntimeServer(
            hopper, registry, workers=1, speculate=_config(neighbors=False)
        ) as server:
            for m in (256, 128):
                server.submit("gemm", dict(m=m, n=256, k=64)).result(
                    timeout=120
                )
            order = list(compile_cache._entries)
            assert len(order) == 2
            assert server.speculator.run_once() == 0
            assert list(compile_cache._entries) == order

    def test_failed_key_is_not_retried(self, hopper, registry, monkeypatch):
        from repro.compiler import pipeline

        with RuntimeServer(
            hopper, registry, workers=1, speculate=_config()
        ) as server:
            server.submit("gemm", dict(m=128, n=256, k=64)).result(
                timeout=120
            )
            runs = []

            def rejecting(spec, name):
                runs.append(name)
                raise CypressError("infeasible mapping")

            monkeypatch.setattr(pipeline, "DependenceAnalysis", rejecting)
            assert server.speculator.run_once() == 0
            attempted = list(runs)
            assert "gemm_256x256x64" in attempted  # a ladder neighbor
            assert server.speculator.run_once() == 0
            assert runs == attempted  # barred from the next cycle
            assert server.stats().speculative_compiles == 0
