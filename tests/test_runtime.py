"""The serving runtime: registry, bucketing, dispatch, disk tier.

Uses a purpose-built registry with small GEMM shapes so every compile
is fast; the acceptance-style round-trip test checks the full story:
register -> warm -> mixed-shape traffic -> results identical to direct
``compile_kernel`` + ``simulate``, with shape-bucket (memory) hits, and
after a simulated restart a disk-tier hit that executes zero passes.
"""

import os
import threading
from concurrent.futures import CancelledError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.errors import CypressError
from repro.kernels import build_gemm
from repro.runtime import (
    Bucket,
    BucketPolicy,
    DeadlineExceeded,
    DiskCacheTier,
    KernelRegistry,
    ResilienceConfig,
    RuntimeServer,
    default_registry,
)
from repro.tuner import MappingSearchSpace

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
            ladders={"m": (128, 256), "n": (256,), "k": (64, 128)}
        ),
        defaults=dict(SMALL),
    )
    return reg


def _direct(hopper, m, n, k):
    build = build_gemm(hopper, m, n, k, **SMALL)
    return api.simulate(api.compile_kernel(build), hopper)


class TestBucketPolicy:
    def test_rounds_up_to_ladder_rung(self):
        policy = BucketPolicy(ladders={"m": (128, 256, 512)})
        assert policy.round_dim("m", 100) == 128
        assert policy.round_dim("m", 128) == 128
        assert policy.round_dim("m", 129) == 256
        assert policy.round_dim("m", 512) == 512

    def test_above_top_rung_rounds_to_multiple(self):
        policy = BucketPolicy(ladders={"m": (128, 256)})
        assert policy.round_dim("m", 300) == 512
        assert policy.round_dim("m", 513) == 768

    def test_unladdered_dim_uses_pow2_floor(self):
        policy = BucketPolicy(ladders={})
        assert policy.round_dim("k", 1) == 64
        assert policy.round_dim("k", 65) == 128
        assert policy.round_dim("k", 300) == 512

    def test_bucket_orders_and_labels(self):
        policy = BucketPolicy(ladders={"m": (128,), "n": (256,)})
        bucket = policy.bucket({"n": 10, "m": 10}, ("m", "n"))
        assert bucket == Bucket((("m", 128), ("n", 256)))
        assert bucket.label() == "m128xn256"

    def test_missing_dimension_rejected(self):
        policy = BucketPolicy(ladders={})
        with pytest.raises(CypressError, match="missing dimension"):
            policy.bucket({"m": 128}, ("m", "n"))

    def test_unknown_dimension_rejected(self):
        policy = BucketPolicy(ladders={})
        with pytest.raises(CypressError, match="unknown dimension"):
            policy.bucket({"m": 128, "zz": 1}, ("m",))

    def test_non_positive_extent_rejected(self):
        policy = BucketPolicy(ladders={})
        with pytest.raises(CypressError, match="positive integer"):
            policy.round_dim("m", 0)

    def test_bad_ladder_rejected(self):
        with pytest.raises(CypressError, match="ascending"):
            BucketPolicy(ladders={"m": (256, 128)})

    def test_non_positive_floor_rejected(self):
        # floor=0 would make the pow2 fallback loop forever.
        with pytest.raises(CypressError, match="floor"):
            BucketPolicy(ladders={}, floor=0)

    def test_duplicate_ladder_rung_rejected(self):
        # A duplicated rung would be its own neighbor: (128, 128) made
        # neighbor_extents("m", 128) return (128,) before validation
        # required strictly ascending rungs.
        with pytest.raises(CypressError, match="strictly"):
            BucketPolicy(ladders={"m": (128, 128)})


_ladders = st.lists(
    st.integers(1, 2048), min_size=1, max_size=5, unique=True
).map(lambda rungs: tuple(sorted(rungs)))
_extents = st.integers(1, 1 << 20)
_floors = st.integers(1, 256)


class TestBucketPolicyProperties:
    """Hypothesis properties of the rounding / neighbor algebra.

    ``round_dim`` must be a monotone idempotent covering (a closure
    operator) on every dimension — laddered, beyond-top, and pow2
    fallback alike — or requests near rung boundaries would flap
    between buckets. The neighbor relation must be irreflexive (the
    speculator never "precompiles" the bucket traffic already serves)
    and symmetric over bucketed extents (walking one rung up then one
    rung down always returns home).
    """

    @settings(max_examples=200, deadline=None)
    @given(
        rungs=st.one_of(st.none(), _ladders),
        floor=_floors,
        a=_extents,
        b=_extents,
    )
    def test_round_dim_monotone(self, rungs, floor, a, b):
        policy = BucketPolicy(
            ladders={"m": rungs} if rungs else {}, floor=floor
        )
        lo, hi = sorted((a, b))
        assert policy.round_dim("m", lo) <= policy.round_dim("m", hi)

    @settings(max_examples=200, deadline=None)
    @given(
        rungs=st.one_of(st.none(), _ladders),
        floor=_floors,
        value=_extents,
    )
    def test_round_dim_idempotent_and_covering(self, rungs, floor, value):
        policy = BucketPolicy(
            ladders={"m": rungs} if rungs else {}, floor=floor
        )
        rounded = policy.round_dim("m", value)
        assert rounded >= value
        assert policy.round_dim("m", rounded) == rounded

    @settings(max_examples=100, deadline=None)
    @given(rungs=_ladders, floor=_floors, m=_extents, k=_extents)
    def test_neighbors_never_contain_input(self, rungs, floor, m, k):
        policy = BucketPolicy(ladders={"m": rungs}, floor=floor)
        bucket = policy.bucket({"m": m, "k": k}, ("m", "k"))
        assert bucket not in policy.neighbors(bucket)

    @settings(max_examples=100, deadline=None)
    @given(rungs=_ladders, floor=_floors, value=_extents)
    def test_neighbor_relation_symmetric_on_bucketed_extents(
        self, rungs, floor, value
    ):
        policy = BucketPolicy(ladders={"m": rungs}, floor=floor)
        for name in ("m", "k"):  # laddered and pow2-fallback dims
            extent = policy.round_dim(name, value)
            for neighbor in policy.neighbor_extents(name, extent):
                # Every neighbor is itself a valid bucketed extent...
                assert policy.round_dim(name, neighbor) == neighbor
                # ...and sees the original extent as its neighbor.
                assert extent in policy.neighbor_extents(name, neighbor)


class TestRegistry:
    def test_default_registry_serves_the_zoo(self):
        reg = default_registry()
        assert reg.names() == [
            "batched_gemm",
            "dual_gemm",
            "flash_attention2",
            "flash_attention3",
            "gemm",
            "gemm_reduction",
        ]

    def test_duplicate_name_rejected(self, registry):
        with pytest.raises(CypressError, match="already registered"):
            registry.register("gemm", build_gemm, ("m", "n", "k"))

    def test_unknown_kernel_lists_known_names(self, registry):
        with pytest.raises(CypressError, match="unknown kernel 'nope'"):
            registry.get("nope")


class TestSubmitValidation:
    def test_unknown_kernel_name_raises_eagerly(self, hopper, registry):
        with RuntimeServer(hopper, registry, workers=1) as server:
            with pytest.raises(CypressError, match="unknown kernel"):
                server.submit("conv2d", dict(m=128, n=256, k=64))

    def test_positional_shape_arity_checked(self, hopper, registry):
        with RuntimeServer(hopper, registry, workers=1) as server:
            with pytest.raises(CypressError, match="expects 3 dimensions"):
                server.submit("gemm", (128, 256))

    def test_empty_batch_is_a_noop(self, hopper, registry):
        with RuntimeServer(hopper, registry, workers=1) as server:
            assert server.submit_many([]) == []
            assert server.stats().requests == 0

    def test_submit_after_close_raises(self, hopper, registry):
        server = RuntimeServer(hopper, registry, workers=1)
        server.close()
        with pytest.raises(CypressError, match="closed"):
            server.submit("gemm", dict(m=128, n=256, k=64))


class TestRoundTrip:
    def test_register_warm_serve_restart(self, hopper, registry, tmp_path):
        """The acceptance path: 50 mixed-shape requests, bucket hits,
        then a disk-tier warm restart executing zero passes."""
        disk = tmp_path / "kernels"
        shapes = [
            (100, 200, 60),
            (128, 256, 64),
            (90, 256, 64),
            (200, 250, 100),
            (256, 256, 128),
        ] * 10
        with RuntimeServer(
            hopper, registry, workers=3, disk_cache=str(disk)
        ) as server:
            warmed = server.warm("gemm", [dict(m=128, n=256, k=64)])
            assert warmed == {"m128xn256xk64": "gemm_128x256x64"}
            futures = [
                server.submit("gemm", dict(m=m, n=n, k=k))
                for m, n, k in shapes
            ]
            results = [f.result(timeout=120) for f in futures]
            assert len(results) == 50
            # Every result matches a direct compile+simulate of its
            # bucket shape.
            direct = {
                (128, 256, 64): _direct(hopper, 128, 256, 64),
                (256, 256, 128): _direct(hopper, 256, 256, 128),
            }
            for result in results:
                bucket = tuple(result.bucket.as_dict().values())
                assert bucket in direct
                assert result.gpu.tflops == direct[bucket].tflops
                assert result.gpu.cycles == direct[bucket].cycles
                assert result.build_name.startswith("gemm_")
            # Mixed shapes collapsed onto 2 buckets -> bucket hits.
            assert any(r.tier == "memory" for r in results)
            stats = server.stats()
            assert stats.completed == 50
            assert stats.tier_counts["memory"] >= 1
            assert stats.per_kernel["gemm"].requests == 50
        # --- simulated restart: new server, same disk, cold memory ---
        api.clear_compile_cache()
        with RuntimeServer(
            hopper, registry, workers=1, disk_cache=str(disk)
        ) as server:
            before = api.compile_cache_stats().misses
            result = server.submit(
                "gemm", dict(m=128, n=256, k=64)
            ).result(timeout=120)
            assert result.tier == "disk"
            assert api.compile_cache_stats().misses == before  # zero passes
            assert (
                result.gpu.tflops == direct[(128, 256, 64)].tflops
            )
            assert api.compile_cache_stats().second_tier_hits >= 1
            # ...and so is every other bucket the first server built:
            # the whole mixed workload replays without one compile.
            for m, n, k in shapes:
                server.submit("gemm", dict(m=m, n=n, k=k)).result(
                    timeout=120
                )
            assert server.stats().tier_counts["compile"] == 0
            assert api.compile_cache_stats().misses == before

    def test_cold_vs_warm_restart_equivalence(
        self, hopper, registry, tmp_path
    ):
        """A disk-warmed kernel is indistinguishable from a cold
        compile: same simulated timing and same functional outputs."""
        disk = tmp_path / "kernels"
        shape = dict(m=128, n=256, k=64)
        rng = np.random.default_rng(7)
        inputs = {
            "C": np.zeros((128, 256), np.float16),
            "A": (rng.standard_normal((128, 64)) * 0.1).astype(np.float16),
            "B": (rng.standard_normal((64, 256)) * 0.1).astype(np.float16),
        }
        with RuntimeServer(
            hopper, registry, workers=1, disk_cache=str(disk)
        ) as server:
            cold = server.submit(
                "gemm", shape, inputs=dict(inputs)
            ).result(timeout=120)
            assert cold.tier == "compile"
        api.clear_compile_cache()
        with RuntimeServer(
            hopper, registry, workers=1, disk_cache=str(disk)
        ) as server:
            warm = server.submit(
                "gemm", shape, inputs=dict(inputs)
            ).result(timeout=120)
            assert warm.tier == "disk"
        assert warm.gpu.tflops == cold.gpu.tflops
        np.testing.assert_array_equal(
            warm.outputs["C"], cold.outputs["C"]
        )


class TestConcurrency:
    def test_concurrent_submit_from_many_threads(self, hopper, registry):
        per_thread = 10
        futures = []
        futures_lock = threading.Lock()

        with RuntimeServer(hopper, registry, workers=4) as server:
            def hammer():
                mine = [
                    server.submit("gemm", dict(m=128, n=256, k=64))
                    for _ in range(per_thread)
                ]
                with futures_lock:
                    futures.extend(mine)

            threads = [
                threading.Thread(target=hammer) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results = [f.result(timeout=120) for f in futures]
            assert len(results) == 8 * per_thread
            assert len({r.gpu.tflops for r in results}) == 1
            assert server.stats().completed == 8 * per_thread

    def test_racing_first_requests_label_one_compile(
        self, hopper, registry
    ):
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RuntimeServer(
                hopper, registry, workers=4, max_batch=1, start=False
            ) as server:
                futures = [
                    server.submit("gemm", dict(m=128, n=256, k=64))
                    for _ in range(4)
                ]
                server.start()
                results = [f.result(timeout=120) for f in futures]
                stats = server.stats()
        finally:
            sys.setswitchinterval(interval)
        # The label is the branch of the lookup that answered: the
        # pipeline ran once, so exactly one request compiled.
        assert sorted(r.tier for r in results) == [
            "compile", "memory", "memory", "memory",
        ]
        assert api.compile_cache_stats().misses == 1
        assert sum(stats.tier_counts.values()) == stats.completed == 4

    def test_microbatching_groups_same_bucket(self, hopper, registry):
        server = RuntimeServer(
            hopper, registry, workers=1, max_batch=8, start=False
        )
        try:
            futures = [
                server.submit("gemm", dict(m=128, n=256, k=64))
                for _ in range(6)
            ]
            assert server.queue_depth == 6
            server.start()
            results = [f.result(timeout=120) for f in futures]
            # One worker popped the head and gathered the rest: a
            # single compile+simulate served the whole batch.
            assert max(r.batch_size for r in results) >= 2
            stats = server.stats()
            assert stats.batches < 6
            assert stats.max_batch_size >= 2
        finally:
            server.close()

    def test_priority_orders_service(self, hopper, registry):
        order = []
        server = RuntimeServer(
            hopper, registry, workers=1, max_batch=1, start=False
        )
        try:
            low = server.submit(
                "gemm", dict(m=128, n=256, k=64), priority=0
            )
            high = server.submit(
                "gemm", dict(m=256, n=256, k=64), priority=10
            )
            low.add_done_callback(lambda f: order.append("low"))
            high.add_done_callback(lambda f: order.append("high"))
            server.start()
            low.result(timeout=120)
            high.result(timeout=120)
            assert order == ["high", "low"]
        finally:
            server.close()


class TestDiskTier:
    def test_truncated_pickle_falls_back_to_recompile(
        self, hopper, registry, tmp_path
    ):
        disk = tmp_path / "kernels"
        shape = dict(m=128, n=256, k=64)
        with RuntimeServer(
            hopper, registry, workers=1, disk_cache=str(disk)
        ) as server:
            first = server.submit("gemm", shape).result(timeout=120)
        tier = DiskCacheTier(disk)
        (key,) = tier.keys()
        # Simulate a crash mid-write: truncate the pickle.
        path = disk / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[:20])
        api.clear_compile_cache()
        with RuntimeServer(
            hopper, registry, workers=1, disk_cache=tier
        ) as server:
            result = server.submit("gemm", shape).result(timeout=120)
            assert result.gpu.tflops == first.gpu.tflops
        assert tier.stats.corrupt == 1
        # The recompile healed the entry via write-through.
        assert tier.contains(key)
        assert tier.load(key) is not None

    def test_corrupt_load_quarantines_and_reports_miss(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        (tmp_path / "deadbeef.pkl").write_bytes(b"not a pickle")
        assert tier.load("deadbeef") is None
        assert tier.stats.corrupt == 1
        assert tier.stats.misses == 1
        assert not tier.contains("deadbeef")
        # The evidence survives as <key>.bad for postmortems.
        assert tier.quarantined_keys() == ["deadbeef"]
        assert tier.stats.corrupt_entries == 1

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(b"", id="zero-byte"),
            pytest.param(b"\x80", id="truncated-pickle"),
            pytest.param(b"GIF89a not a pickle at all", id="bad-header"),
        ],
    )
    def test_corrupt_flavors_all_quarantine(self, tmp_path, payload):
        tier = DiskCacheTier(tmp_path)
        (tmp_path / "cafe.pkl").write_bytes(payload)
        assert tier.load("cafe") is None
        assert tier.stats.corrupt == 1
        assert not tier.contains("cafe")
        assert tier.quarantined_keys() == ["cafe"]
        # A recompile heals the live entry; the evidence stays.
        tier.store("cafe", {"healed": True})
        assert tier.load("cafe") == {"healed": True}
        assert tier.quarantined_keys() == ["cafe"]

    def test_quarantine_is_bounded_lru(self, tmp_path):
        tier = DiskCacheTier(tmp_path, max_quarantine=3)
        for index in range(6):
            key = f"key{index}"
            (tmp_path / f"{key}.pkl").write_bytes(b"garbage")
            # Distinct mtimes so oldest-first pruning is deterministic.
            os.utime(tmp_path / f"{key}.pkl", (index, index))
            assert tier.load(key) is None
        assert tier.stats.corrupt == 6
        # Only the newest three .bad files survive.
        assert tier.quarantined_keys() == ["key3", "key4", "key5"]
        assert tier.stats.corrupt_entries == 3

    def test_quarantine_zero_deletes_outright(self, tmp_path):
        tier = DiskCacheTier(tmp_path, max_quarantine=0)
        (tmp_path / "dead.pkl").write_bytes(b"garbage")
        assert tier.load("dead") is None
        assert tier.quarantined_keys() == []
        assert list(tmp_path.iterdir()) == []

    def test_clear_removes_quarantined_entries(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        (tmp_path / "dead.pkl").write_bytes(b"garbage")
        tier.load("dead")
        tier.store("live", {"v": 1})
        assert tier.quarantined_keys() == ["dead"]
        tier.clear()
        assert tier.quarantined_keys() == []
        assert tier.keys() == []
        assert tier.stats.corrupt_entries == 0

    def test_store_load_roundtrip_and_clear(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        tier.store("k1", {"payload": 42})
        assert tier.load("k1") == {"payload": 42}
        assert len(tier) == 1
        tier.clear()
        assert len(tier) == 0
        assert tier.load("k1") is None

    def test_unpicklable_store_is_swallowed(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        tier.store("k1", lambda: None)  # locals don't pickle
        assert tier.stats.errors == 1
        assert not tier.contains("k1")

    def test_max_bytes_prunes_lru_on_write(self, tmp_path):
        import os
        import time

        payload = b"x" * 512
        tier = DiskCacheTier(tmp_path, max_bytes=1700)
        for index in range(3):
            tier.store(f"k{index}", payload)
            # File mtimes need to be distinguishable for LRU order.
            os.utime(
                tier.path / f"k{index}.pkl",
                (time.time() + index, time.time() + index),
            )
        assert len(tier) == 3
        tier.store("k3", payload)  # over budget: k0 is the LRU victim
        assert not tier.contains("k0")
        assert tier.contains("k3")
        assert tier.stats.pruned >= 1
        assert tier.stats.pruned_bytes >= len(payload)
        assert tier.total_bytes() <= 1700

    def test_max_bytes_load_touch_protects_hot_entry(self, tmp_path):
        import os

        payload = b"x" * 512
        tier = DiskCacheTier(tmp_path, max_bytes=1700)
        now = 1_000_000_000
        for index in range(3):
            tier.store(f"k{index}", payload)
            os.utime(tier.path / f"k{index}.pkl", (now + index, now + index))
        # A load touches k0's mtime, so k1 becomes the LRU victim.
        assert tier.load("k0") is not None
        tier.store("k3", payload)
        assert tier.contains("k0")
        assert not tier.contains("k1")

    def test_max_bytes_never_prunes_the_entry_just_stored(self, tmp_path):
        tier = DiskCacheTier(tmp_path, max_bytes=1)
        tier.store("k0", b"x" * 512)
        assert tier.contains("k0")  # transiently over budget, kept
        tier.store("k1", b"x" * 512)
        assert tier.contains("k1")
        assert not tier.contains("k0")

    def test_max_bytes_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            DiskCacheTier(tmp_path, max_bytes=0)
        assert DiskCacheTier(tmp_path, max_bytes=None).max_bytes is None

    def test_each_server_consults_its_own_directory(
        self, hopper, registry, tmp_path
    ):
        shape = dict(m=128, n=256, k=64)
        with RuntimeServer(
            hopper, registry, workers=1, disk_cache=str(tmp_path / "a")
        ) as server_a, RuntimeServer(
            hopper, registry, workers=1, disk_cache=str(tmp_path / "b")
        ) as server_b:
            cold = server_a.submit("gemm", shape).result(timeout=120)
            assert cold.tier == "compile"
            api.clear_compile_cache()
            before = api.compile_cache_stats().misses
            # Memory is cold, B was constructed last, and the kernel is
            # in A's directory only: A reads it back from there.
            warm = server_a.submit("gemm", shape).result(timeout=120)
            assert warm.tier == "disk"
            assert api.compile_cache_stats().misses == before
            assert api.compile_cache_stats().second_tier_hits == 1
            assert len(server_a.disk_tier) == 1
            assert len(server_b.disk_tier) == 0
            assert warm.gpu == cold.gpu


class TestWarmTuning:
    def test_warm_with_tuning_pins_bucket_params(self, hopper, registry):
        space = MappingSearchSpace(
            tiles=((128, 256),),
            tile_k=(64,),
            warpgroups=(1, 2),
            pipeline_depths=(1, 2),
            warpspecialize=(False,),
        )
        with RuntimeServer(hopper, registry, workers=1) as server:
            server.warm(
                "gemm",
                [dict(m=128, n=256, k=64)],
                tune=True,
                space=space,
            )
            result = server.submit(
                "gemm", dict(m=100, n=200, k=64)
            ).result(timeout=120)
            # The tuned mapping is pinned and served from cache.
            assert result.tier == "memory"
            assert result.params is not None
            assert result.params["tile_m"] == 128
            assert result.params["pipeline"] in (1, 2)

    def test_warm_without_space_raises(self, hopper, registry):
        with RuntimeServer(hopper, registry, workers=1) as server:
            with pytest.raises(CypressError, match="search space"):
                server.warm(
                    "gemm", [dict(m=128, n=256, k=64)], tune=True
                )

    def test_warm_is_idempotent(self, hopper, registry):
        shape = dict(m=128, n=256, k=64)
        with RuntimeServer(hopper, registry, workers=1) as server:
            first = server.warm("gemm", [shape])
            before = api.compile_cache_stats().misses
            second = server.warm("gemm", [shape])
            # The second call skips outright: no recompile, no passes.
            assert second == first
            assert api.compile_cache_stats().misses == before

    def test_warm_retune_skipped_once_params_pinned(
        self, hopper, registry
    ):
        shape = dict(m=128, n=256, k=64)
        space = MappingSearchSpace(
            tiles=((128, 256),),
            tile_k=(64,),
            warpgroups=(1, 2),
            pipeline_depths=(1, 2),
            warpspecialize=(False,),
        )
        with RuntimeServer(hopper, registry, workers=1) as server:
            # Untuned warm first: the bucket is compiled but unpinned.
            server.warm("gemm", [shape])
            # Tuned warm must still tune (params not pinned yet)...
            first = server.warm("gemm", [shape], tune=True, space=space)
            before = api.compile_cache_stats().misses
            # ...but a second tuned warm is a pure no-op.
            second = server.warm("gemm", [shape], tune=True, space=space)
            assert second == first
            assert api.compile_cache_stats().misses == before


class TestGraphShutdown:
    def _chain_graph(self, hopper, registry):
        from repro.graph import GraphBuilder

        gb = GraphBuilder(hopper, registry=registry)
        a = gb.tensor("A", (128, 64))
        w = gb.tensor("W", (64, 256))
        mid = gb.tensor("T", (128, 256))
        w2 = gb.tensor("W2", (256, 256))
        out = gb.tensor("C", (128, 256))
        gb.launch(
            "gemm",
            dict(m=128, n=256, k=64),
            reads=dict(A=a, B=w),
            writes=dict(C=mid),
        )
        gb.launch(
            "gemm",
            dict(m=128, n=256, k=256),
            reads=dict(A=mid, B=w2),
            writes=dict(C=out),
        )
        return gb.build()

    def test_close_without_drain_fails_inflight_graph(
        self, hopper, registry
    ):
        graph = self._chain_graph(hopper, registry)
        server = RuntimeServer(hopper, registry, workers=1, start=False)
        execution = server.submit_graph(graph)
        assert not execution.future.done()
        server.close(drain=False)
        # The graph future must resolve (with the shutdown error), not
        # hang forever on nodes that will never be served.
        error = execution.future.exception(timeout=10)
        assert isinstance(error, CypressError)

    def test_close_with_drain_completes_inflight_graph(
        self, hopper, registry
    ):
        from repro.graph import GraphBuilder

        # Independent launches: both are enqueued at submit time, so a
        # draining close serves them before the workers stop.  (A chain
        # would race: its second wave is only submitted after the first
        # completes, which a closing server rejects.)
        gb = GraphBuilder(hopper, registry=registry)
        w = gb.tensor("W", (64, 256))
        for index in range(2):
            gb.launch(
                "gemm",
                dict(m=128, n=256, k=64),
                reads=dict(A=gb.tensor(f"A{index}", (128, 64)), B=w),
                writes=dict(C=gb.tensor(f"C{index}", (128, 256))),
            )
        graph = gb.build()
        server = RuntimeServer(hopper, registry, workers=1)
        execution = server.submit_graph(graph)
        server.close()  # drain=True serves everything queued
        result = execution.result(timeout=120)
        assert len(result.results) == len(graph)


class TestTelemetry:
    def test_stats_table_renders(self, hopper, registry):
        with RuntimeServer(hopper, registry, workers=2) as server:
            futures = server.submit_many(
                [("gemm", dict(m=128, n=256, k=64))] * 5
            )
            for future in futures:
                future.result(timeout=120)
            stats = server.stats()
            table = stats.table()
            assert "gemm" in table
            assert "p50" in table or "p50 ms" in table
            assert stats.p50_latency_s >= 0.0
            assert stats.p95_latency_s >= stats.p50_latency_s
            assert 0.0 <= stats.tier_rate("memory") <= 1.0
            assert stats.throughput_rps > 0.0


SHAPE = dict(m=128, n=256, k=64)


def _served(server, monkeypatch):
    return server.submit("gemm", SHAPE)


def _compile_error(server, monkeypatch):
    return server.submit("bad_gemm", dict(m=256, n=256, k=128))


def _functional_error(server, monkeypatch):
    return server.submit(
        "gemm", SHAPE, inputs={"A": np.zeros((3, 3), np.float16)}
    )


def _expired(server, monkeypatch):
    return server.submit("gemm", SHAPE, deadline=0.0)


def _shed(server, monkeypatch):
    victim = server.submit("gemm", SHAPE)
    server.submit("gemm", SHAPE)  # over max_queue=1: evicts the victim
    return victim


def _cancelled(server, monkeypatch):
    future = server.submit("gemm", SHAPE)
    server.close(drain=False)
    return future


def _crashed(server, monkeypatch):
    def explode(size):
        raise RuntimeError("boom")

    monkeypatch.setattr(server.telemetry, "record_batch", explode)
    return server.submit("gemm", SHAPE)


class TestOutcomes:
    """Every way a request can leave the server ends in the same place
    (``RuntimeServer._settle``), so every exit is held to the same three
    checks: the future is done, exactly one terminal counter moved per
    request (the conservation law), and each request left exactly one
    closed ``request`` span saying how it ended."""

    @pytest.mark.parametrize(
        "drive, counter, raises",
        [
            pytest.param(_served, "completed", None, id="served"),
            # tile_m=192 survives build but fails in the compiler.
            pytest.param(
                _compile_error, "failed", CypressError, id="compile-error"
            ),
            pytest.param(
                _functional_error, "failed", CypressError,
                id="functional-error",
            ),
            pytest.param(_expired, "failed", DeadlineExceeded, id="expired"),
            pytest.param(_shed, "shed_requests", CypressError, id="shed"),
            pytest.param(_cancelled, "failed", CancelledError, id="cancelled"),
            pytest.param(_crashed, "failed", RuntimeError, id="worker-crash"),
        ],
    )
    def test_every_exit_settles_once(
        self, hopper, registry, monkeypatch, drive, counter, raises
    ):
        registry.register(
            "bad_gemm",
            build_gemm,
            ("m", "n", "k"),
            policy=BucketPolicy(ladders={}),
            defaults=dict(tile_m=192, tile_n=128, tile_k=64),
        )
        server = RuntimeServer(
            hopper,
            registry,
            workers=1,
            trace=True,
            start=False,
            resilience=ResilienceConfig(
                max_queue=1, shed_policy="drop-oldest"
            ),
        )
        try:
            future = drive(server, monkeypatch)
            if not server.closed:
                server.start()
        finally:
            server.close()
        assert future.done()
        if raises is None:
            assert future.result().tflops > 0
        elif raises is CancelledError:
            assert future.cancelled()
        else:
            assert isinstance(future.exception(), raises)
        stats = server.stats()
        assert getattr(stats, counter) >= 1
        assert (
            stats.completed + stats.failed + stats.shed_requests
            == stats.requests
        )
        spans = [s for s in server.tracer.spans() if s.name == "request"]
        assert len(spans) == stats.requests
        for span in spans:
            assert span.closed
            assert ("error" in span.args) != (
                {"tier", "batch_size"} <= set(span.args)
            )
        assert (
            sum("error" in span.args for span in spans)
            == stats.failed + stats.shed_requests
        )


class TestServeEntryPoint:
    def test_api_serve_round_trip(self, hopper):
        with api.serve(hopper, workers=1) as server:
            result = server.submit(
                "gemm", dict(m=256, n=256, k=128)
            ).result(timeout=120)
            assert result.kernel == "gemm"
            assert result.tflops > 0
