"""The serving runtime: registry, bucketing, dispatch, disk tier.

Uses a purpose-built registry with small GEMM shapes so every compile
is fast; the acceptance-style round-trip test checks the full story:
register -> warm -> mixed-shape traffic -> results identical to direct
``compile_kernel`` + ``simulate``, with shape-bucket (memory) hits, and
after a simulated restart a disk-tier hit that executes zero passes.
"""

import os
import sys
import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.errors import CypressError
from repro.kernels import KERNEL_BUILDERS, build_gemm
from repro.runtime import (
    Bucket,
    BucketPolicy,
    DeadlineExceeded,
    DiskCacheTier,
    FaultPlan,
    InjectedFault,
    KernelRegistry,
    ResilienceConfig,
    RuntimeServer,
    default_registry,
    faults,
)
from repro.tuner import MappingSearchSpace
from test_copy_elim_golden import default_buckets

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
        zoo = [
            "batched_gemm",
            "dual_gemm",
            "flash_attention2",
            "flash_attention3",
            "gemm",
            "gemm_reduction",
        ]
        assert sorted(KERNEL_BUILDERS) == zoo
        assert len(reg) == len(zoo) and all(name in reg for name in zoo)

    def test_registered_flops_match_the_build(self, hopper):
        reg = default_registry()
        for family, shape in default_buckets():
            registered = reg.get(family)
            build = registered.build(hopper, registered.bucket(shape))
            assert registered.flops(shape) == build.total_flops, (
                family, shape,
            )

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


def _recording(serve, calls, hold=None):
    """``RuntimeServer._serve`` that first appends ``(thread ident,
    batch)`` to ``calls``; ``hold(batch)`` runs next, if given."""

    def recording(self, batch, stages):
        calls.append((threading.get_ident(), list(batch)))
        if hold is not None:
            hold(batch)
        return serve(self, batch, stages)

    return recording


@pytest.fixture()
def serving_threads(monkeypatch):
    """Every ``_serve`` call as ``(thread ident, batch)``."""
    calls = []
    monkeypatch.setattr(
        RuntimeServer, "_serve", _recording(RuntimeServer._serve, calls)
    )
    return calls


def _route(server, calls, future):
    """``(thread that served future's request, the served_by of its
    batch's dispatch span)``."""
    future.result(timeout=120)
    (ident, head), = [
        (ident, batch[0])
        for ident, batch in calls
        if any(request.future is future for request in batch)
    ]
    (dispatch,) = [
        span for span in server.tracer.spans()
        if span.name == "dispatch" and span.parent == head.span.sid
    ]
    return ident, dispatch.args["served_by"]


def _gemm_inputs(seed=7):
    rng = np.random.default_rng(seed)
    return {
        "C": np.zeros((128, 256), np.float16),
        "A": (rng.standard_normal((128, 64)) * 0.1).astype(np.float16),
        "B": (rng.standard_normal((64, 256)) * 0.1).astype(np.float16),
    }


class TestInlineRouting:
    """A warm timing-only request on an idle, started server is served
    on the thread that submits it; every other request still goes
    through the queue to a worker."""

    def test_warm_timing_only_request_is_served_by_its_submitter(
        self, hopper, registry, serving_threads
    ):
        with RuntimeServer(hopper, registry, workers=1, trace=True) as server:
            server.warm("gemm", [SHAPE])
            future = server.submit("gemm", SHAPE)
            assert future.done()
            assert _route(server, serving_threads, future) == (
                threading.get_ident(), "submitter"
            )
            result = future.result()
            launch = server._launches[("gemm", result.bucket)]
            assert result.tier == "memory"
            assert result.batch_size == 1
            assert result.gpu is launch.gpu
            stats = server.stats()
        assert stats.completed == stats.requests == 1

    def _assert_worker_served(self, server, calls, future):
        ident, served_by = _route(server, calls, future)
        assert ident != threading.get_ident()
        assert served_by == "worker"

    def test_a_data_carrying_request_goes_to_a_worker(
        self, hopper, registry, serving_threads
    ):
        with RuntimeServer(hopper, registry, workers=1, trace=True) as server:
            server.warm("gemm", [SHAPE])
            future = server.submit("gemm", SHAPE, inputs=_gemm_inputs())
            self._assert_worker_served(server, serving_threads, future)
            assert future.result().outputs is not None

    def test_an_unstarted_server_queues(
        self, hopper, registry, serving_threads
    ):
        server = RuntimeServer(
            hopper, registry, workers=1, trace=True, start=False
        )
        try:
            server.warm("gemm", [SHAPE])
            future = server.submit("gemm", SHAPE)
            assert server.queue_depth == 1 and not future.done()
            server.start()
            self._assert_worker_served(server, serving_threads, future)
        finally:
            server.close()

    def test_a_request_queued_ahead_keeps_the_next_one_queued(
        self, hopper, registry, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()

        def hold_the_first(batch):
            if not entered.is_set():  # only the one worker serves here
                entered.set()
                release.wait(timeout=60)

        calls = []
        monkeypatch.setattr(
            RuntimeServer, "_serve",
            _recording(RuntimeServer._serve, calls, hold_the_first),
        )
        with RuntimeServer(
            hopper, registry, workers=1, max_batch=1, trace=True
        ) as server:
            server.warm("gemm", [SHAPE])
            try:
                # The only worker holds a data-carrying request...
                holding = server.submit("gemm", SHAPE, inputs=_gemm_inputs())
                assert entered.wait(timeout=60)
                # ...so the next one waits in the queue...
                ahead = server.submit("gemm", SHAPE, inputs=_gemm_inputs(8))
                # ...and a warm timing-only request queues behind it.
                future = server.submit("gemm", SHAPE)
                assert server.queue_depth == 2 and not future.done()
            finally:
                release.set()
            for done in (holding, ahead):
                done.result(timeout=120)
            self._assert_worker_served(server, calls, future)

    def test_the_first_request_of_a_bucket_goes_to_a_worker(
        self, hopper, registry, serving_threads
    ):
        with RuntimeServer(hopper, registry, workers=1, trace=True) as server:
            first = server.submit("gemm", SHAPE)
            self._assert_worker_served(server, serving_threads, first)
            assert first.result().tier == "compile"
            # Its batch timed the record: the next one needs no worker.
            second = server.submit("gemm", SHAPE)
            assert second.done()
            assert _route(server, serving_threads, second) == (
                threading.get_ident(), "submitter"
            )

    def test_an_evicted_kernel_goes_to_a_worker(
        self, hopper, registry, serving_threads
    ):
        capacity = api.compile_cache_stats().capacity
        api.resize_compile_cache(1)
        try:
            with RuntimeServer(
                hopper, registry, workers=1, trace=True
            ) as server:
                # The second bucket evicts the first one's kernel; the
                # first record keeps its timing.
                server.warm("gemm", [SHAPE, dict(m=256, n=256, k=128)])
                misses = api.compile_cache_stats().misses
                future = server.submit("gemm", SHAPE)
                self._assert_worker_served(server, serving_threads, future)
                assert future.result().tier == "compile"
                assert api.compile_cache_stats().misses == misses + 1
        finally:
            api.resize_compile_cache(capacity)

    def test_graph_nodes_keep_the_queue(
        self, hopper, registry, serving_threads
    ):
        graph = _chain_graph(hopper, registry)
        with RuntimeServer(hopper, registry, workers=1, trace=True) as server:
            server.submit_graph(graph).result(timeout=120)
            # Every node's record is now timed and its kernel resident.
            del serving_threads[:]
            result = server.submit_graph(graph).result(timeout=120)
            assert {r.tier for r in result.results.values()} == {"memory"}
            assert len(serving_threads) == len(graph)
            assert threading.get_ident() not in {
                ident for ident, _batch in serving_threads
            }
            dispatches = [
                span for span in server.tracer.spans()
                if span.name == "dispatch"
            ]
            assert {span.args["served_by"] for span in dispatches} == {
                "worker"
            }


def _quarantined(directory):
    """Compile keys quarantined as ``<key>.bad`` in a disk tier's directory."""
    return sorted(path.stem for path in directory.glob("*.bad"))


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
        assert _quarantined(tmp_path) == ["deadbeef"]
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
        assert _quarantined(tmp_path) == ["cafe"]
        # A recompile heals the live entry; the evidence stays.
        tier.store("cafe", {"healed": True})
        assert tier.load("cafe") == {"healed": True}
        assert _quarantined(tmp_path) == ["cafe"]

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
        assert _quarantined(tmp_path) == ["key3", "key4", "key5"]
        assert tier.stats.corrupt_entries == 3

    def test_quarantine_zero_deletes_outright(self, tmp_path):
        tier = DiskCacheTier(tmp_path, max_quarantine=0)
        (tmp_path / "dead.pkl").write_bytes(b"garbage")
        assert tier.load("dead") is None
        assert _quarantined(tmp_path) == []
        assert list(tmp_path.iterdir()) == []

    def test_store_load_roundtrip(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        tier.store("k1", {"payload": 42})
        assert tier.load("k1") == {"payload": 42}
        assert len(tier) == 1

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


def _chain_graph(hopper, registry):
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


class TestGraphShutdown:
    def test_close_without_drain_fails_inflight_graph(
        self, hopper, registry
    ):
        graph = _chain_graph(hopper, registry)
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


class _Clock:
    """The maintenance schedule's clock and sleep: ``wait`` advances
    time instead of sleeping, and closes ``server`` after ``waits``."""

    def __init__(self):
        self.now = 0.0
        self.server = None
        self.waits = 0

    def __call__(self):
        return self.now

    def wait(self, timeout):
        self.now += timeout
        self.waits -= 1
        if self.waits == 0:
            self.server.close(drain=False)


class _StubLoop:
    """A background loop whose every cycle takes ``run_s`` on the
    test's clock and records its ``(start, end)``."""

    def __init__(self, clock, interval_s, run_s, idle_only=True, fail=False):
        self.clock = clock
        self.interval_s = interval_s
        self.run_s = run_s
        self.idle_only = idle_only
        self.fail = fail
        self.errors = 0
        self.cycles = []

    def run_once(self):
        start = self.clock.now
        self.clock.now += self.run_s
        self.cycles.append((start, self.clock.now))
        if self.fail:
            raise CypressError("induced cycle failure")
        return 0


def _maintain(server, *loops, waits=40):
    """Drive the maintenance thread's body on ``loops`` until ``waits``
    sleeps have passed; no real time elapses."""
    clock = loops[0].clock
    clock.server, clock.waits = server, waits
    server._maintain(list(loops), clock=clock, wait=clock.wait)


class TestMaintenance:
    """One thread runs the speculator, specializer and SLO monitor."""

    def test_period_runs_from_the_end_of_the_previous_cycle(
        self, hopper, registry
    ):
        server = RuntimeServer(hopper, registry, workers=1, start=False)
        clock = _Clock()
        # Each cycle outlasts its period: counting the period from a
        # cycle's start would start the next one as soon as it ends.
        fast = _StubLoop(clock, interval_s=0.25, run_s=0.5)
        slow = _StubLoop(clock, interval_s=1.0, run_s=1.5, idle_only=False)
        _maintain(server, fast, slow)
        for loop in (fast, slow):
            assert len(loop.cycles) >= 3
            assert loop.cycles[0][0] >= loop.interval_s
            for (_, ended), (started, _) in zip(
                loop.cycles, loop.cycles[1:]
            ):
                assert started >= ended + loop.interval_s

    def test_idle_only_loops_skip_while_requests_are_queued(
        self, hopper, registry
    ):
        server = RuntimeServer(hopper, registry, workers=1, start=False)
        server.submit("gemm", dict(m=128, n=256, k=64))
        assert server.queue_depth == 1
        clock = _Clock()
        idle = _StubLoop(clock, interval_s=0.25, run_s=0.5)
        monitor = _StubLoop(clock, interval_s=0.25, run_s=0.5, idle_only=False)
        _maintain(server, idle, monitor)
        assert idle.cycles == []
        assert len(monitor.cycles) >= 3

    def test_a_failing_cycle_is_counted_and_the_others_run(
        self, hopper, registry
    ):
        server = RuntimeServer(hopper, registry, workers=1, start=False)
        clock = _Clock()
        failing = _StubLoop(clock, interval_s=0.25, run_s=0.5, fail=True)
        healthy = _StubLoop(clock, interval_s=0.25, run_s=0.5)
        _maintain(server, failing, healthy)
        assert len(failing.cycles) >= 3
        assert failing.errors == len(failing.cycles)
        assert len(healthy.cycles) >= 3
        assert healthy.errors == 0

    def test_one_thread_runs_every_loop(self, hopper, registry, new_threads):
        from repro.obs import DiagConfig, Slo

        server = RuntimeServer(
            hopper,
            registry,
            workers=1,
            speculate=True,
            specialize=True,
            diag=DiagConfig(slos=(Slo("availability"),), slo_tick_s=0.01),
        )
        try:
            assert new_threads() == [
                "repro-diag", "repro-maintenance", "repro-runtime-0",
            ]
            # The thread really ticks the monitor: its ring fills.
            ring = server.slo_monitor._rings["availability"]
            deadline = time.monotonic() + 30
            while len(ring) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(ring) >= 2
        finally:
            server.close()
            server.diag.stop()
        assert new_threads() == []

    def test_demand_counts_every_admitted_request(self, hopper, registry):
        from repro.runtime import SpecializerConfig, SpeculatorConfig

        server = RuntimeServer(
            hopper,
            registry,
            workers=1,
            start=False,
            speculate=SpeculatorConfig(interval_s=60.0),
            specialize=SpecializerConfig(interval_s=60.0),
        )
        shapes = [dict(m=100, n=256, k=64), dict(m=200, n=256, k=64)]

        def submit_many():
            for index in range(100):
                server.submit("gemm", shapes[index % 2])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit_many) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        # A lost update under contention would drop a count.
        assert sum(server.speculator._traffic.values()) == 400
        assert sorted(server.specializer.traffic().values()) == [200, 200]
        server.close(drain=False)

    def test_a_server_without_loops_has_no_maintenance_thread(
        self, hopper, registry, new_threads
    ):
        with RuntimeServer(hopper, registry, workers=1):
            assert new_threads() == ["repro-runtime-0"]


class TestTelemetry:
    def test_stats_table_renders(self, hopper, registry):
        with RuntimeServer(hopper, registry, workers=2) as server:
            futures = [
                server.submit("gemm", dict(m=128, n=256, k=64))
                for _ in range(5)
            ]
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


def _explode(size):
    raise RuntimeError("boom")


def _crashed(server, monkeypatch):
    monkeypatch.setattr(server.telemetry, "record_batch", _explode)
    return server.submit("gemm", SHAPE)


def _submit_inline(server):
    """A warm timing-only submit on the started server, served before
    ``submit`` returns."""
    future = server.submit("gemm", SHAPE)
    assert future.done()
    return future


def _warm_started(server):
    server.start()
    server.warm("gemm", [SHAPE])


def _served_inline(server, monkeypatch):
    _warm_started(server)
    return _submit_inline(server)


def _execute_fault_inline(server, monkeypatch):
    _warm_started(server)
    plan = FaultPlan(seed=0).inject("worker.execute", 1.0)
    with faults.active(plan):
        future = _submit_inline(server)
    assert plan.injections("worker.execute") == 1
    return future


def _crashed_inline(server, monkeypatch):
    _warm_started(server)
    # An exception escaping ``_serve``: the future fails, ``submit``
    # does not raise.
    monkeypatch.setattr(server.telemetry, "record_batch", _explode)
    return _submit_inline(server)


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
            pytest.param(_served_inline, "completed", None, id="inline"),
            pytest.param(
                _execute_fault_inline, "failed", InjectedFault,
                id="inline-execute-fault",
            ),
            pytest.param(
                _crashed_inline, "failed", RuntimeError, id="inline-crash"
            ),
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

    @pytest.mark.parametrize("drain", [True, False])
    def test_close_racing_inline_submits_settles_every_request(
        self, hopper, registry, monkeypatch, drain
    ):
        """Threads submit warm requests while ``close`` runs. The first
        inline serve is held until ``close`` has stopped the server and
        its workers have exited, so one request is in flight on a
        submitting thread by construction at the point ``close`` could
        return; every request that entered ``_serve`` is settled when
        ``close`` returns, and so is every future ``submit`` returned."""
        import sys

        server = RuntimeServer(hopper, registry, workers=1)
        server.warm("gemm", [SHAPE])
        serving, first, held = threading.Event(), threading.Lock(), []

        def hold_the_first_until_close(batch):
            if first.acquire(blocking=False):
                held.append((threading.get_ident(), batch[0]))
                serving.set()
                with server._cv:
                    server._cv.wait_for(lambda: server._stopping, timeout=60)
                for worker in server._threads:
                    worker.join(timeout=60)

        calls = []
        monkeypatch.setattr(
            RuntimeServer, "_serve",
            _recording(
                RuntimeServer._serve, calls, hold_the_first_until_close
            ),
        )
        futures, lock = [], threading.Lock()

        def hammer():
            while True:
                try:
                    future = server.submit("gemm", SHAPE)
                except CypressError:  # closed
                    return
                with lock:
                    futures.append(future)

        threads = [
            threading.Thread(target=hammer, daemon=True) for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            assert serving.wait(timeout=60)
            server.close(drain=drain)
            entered = [
                request.future for _ident, batch in list(calls)
                for request in batch
            ]
            stats = server.stats()
        finally:
            server.close()  # stops the threads if an assertion failed
            sys.setswitchinterval(interval)
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        ((held_by, request),) = held
        assert held_by in {thread.ident for thread in threads}
        assert request.future.result().tier == "memory"
        assert all(future.done() for future in entered)
        assert all(future.done() for future in futures)
        assert stats.completed >= 1
        assert (
            stats.completed + stats.failed + stats.shed_requests
            == stats.requests
        )


class TestServeEntryPoint:
    def test_api_serve_round_trip(self, hopper):
        with api.serve(hopper, workers=1) as server:
            result = server.submit(
                "gemm", dict(m=256, n=256, k=128)
            ).result(timeout=120)
            assert result.kernel == "gemm"
            assert result.tflops > 0
