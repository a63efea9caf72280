"""Shape specialization: promote, guard, deoptimize — property-tested.

The specializer is driven synchronously through ``run_once()`` so
nothing depends on thread timing: traffic is recorded (or injected
straight into the specializer's demand table — the same signal
admission feeds), a cycle promotes hot shapes to tile-aligned kernels, and the
dispatch guard serves them until decay or a budget fight deoptimizes
them back to the generic bucket.

The invariants the hypothesis schedules check are the contract:

- specialized results are bit-identical to the generic bucket's over
  the request's valid region;
- a deoptimization mid-flight never fails an already-enqueued future;
- promotion is idempotent and the per-kernel budget is never exceeded;
- ``promotions - deopts`` always equals the installed-guard count;
- a specialization cycle never raises (failures are counted and the
  failing shape is quarantined while the generic bucket keeps serving).
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.errors import CypressError
from repro.kernels import build_gemm
from repro.runtime import (
    Bucket,
    BucketPolicy,
    KernelRegistry,
    RuntimeServer,
    ShapeSpecializer,
    SpecializerConfig,
)
from repro.runtime.telemetry import percentile

SMALL = dict(tile_m=128, tile_n=256, tile_k=64)

#: Granules matching the default build tiles: aligned shapes keep the
#: default build's partitions even.
ALIGN = {"m": 128, "n": 256, "k": 64}

LADDERS = {"m": (128, 256, 512, 1024), "n": (256,), "k": (64,)}

#: m=300 is the workhorse off-rung shape: generic bucket m=512,
#: tile-aligned specialization m=384.
HOT_M, ALIGNED_M, GENERIC_M = 300, 384, 512


def _flops(shape) -> float:
    return 2.0 * shape["m"] * shape["n"] * shape["k"]


def _shape(m):
    return dict(m=m, n=256, k=64)


#: Padded FLOPs one m=300 request saves by serving from 384 not 512.
SAVED_PER_HIT = _flops(_shape(GENERIC_M)) - _flops(_shape(ALIGNED_M))


@pytest.fixture(autouse=True)
def fresh_cache():
    api.clear_compile_cache()
    yield
    api.clear_compile_cache()


def _registry(builder=build_gemm, align=ALIGN, ladders=LADDERS):
    reg = KernelRegistry()
    reg.register(
        "gemm",
        builder,
        ("m", "n", "k"),
        policy=BucketPolicy(ladders=dict(ladders)),
        defaults=dict(SMALL),
        specialize_align=align,
        flops=_flops,
    )
    return reg


@pytest.fixture()
def registry():
    return _registry()


def _config(**overrides):
    base = dict(
        interval_s=60.0,  # dormant loop; tests drive run_once()
        hot_threshold=4,
        max_per_kernel=4,
        max_promotions_per_cycle=4,
        decay_every_cycles=10**6,  # decay driven explicitly by tests
    )
    base.update(overrides)
    return SpecializerConfig(**base)


def _heat(server, m, count, **kwargs):
    """Serve ``count`` real requests at ``m`` (records shape traffic)."""
    futures = [
        server.submit("gemm", _shape(m), **kwargs) for _ in range(count)
    ]
    return [future.result(timeout=120) for future in futures]


def _inject(server, m, count, kernel="gemm"):
    """Record exact-shape traffic without serving requests — the same
    table admission feeds, so cycles see identical signal."""
    exact = server.registry.get(kernel).exact_bucket(_shape(m))
    server.specializer.record_traffic([(kernel, exact)] * count)
    return exact


class TestLifecycle:
    def test_disabled_by_default(self, hopper, registry):
        with RuntimeServer(hopper, registry, workers=1) as server:
            assert server.specializer is None
            result = server.submit("gemm", _shape(HOT_M)).result(timeout=120)
            assert result.bucket.as_dict()["m"] == GENERIC_M
            assert server.stats().promotions == 0

    def test_true_starts_thread_and_close_stops(
        self, hopper, registry, new_threads
    ):
        server = RuntimeServer(hopper, registry, workers=1, specialize=True)
        assert isinstance(server.specializer, ShapeSpecializer)
        assert new_threads().count("repro-maintenance") == 1
        server.close()
        assert "repro-maintenance" not in new_threads()

    def test_config_object_passes_through(
        self, hopper, registry, new_threads
    ):
        config = _config(hot_threshold=2)
        with RuntimeServer(
            hopper, registry, workers=1, start=False, specialize=config
        ) as server:
            assert server.specializer.config is config
            assert "repro-maintenance" not in new_threads()

    def test_close_without_start_is_clean(
        self, hopper, registry, new_threads
    ):
        server = RuntimeServer(
            hopper, registry, workers=1, start=False, specialize=True
        )
        server.close(drain=False)
        assert "repro-maintenance" not in new_threads()

    def test_close_drain_false_stops_specializer(
        self, hopper, registry, new_threads
    ):
        server = RuntimeServer(hopper, registry, workers=1, specialize=True)
        assert new_threads().count("repro-maintenance") == 1
        server.close(drain=False)
        assert "repro-maintenance" not in new_threads()


class TestPromotion:
    def test_hot_shape_promoted_with_aligned_serving(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, specialize=_config()
        ) as server:
            _heat(server, HOT_M, 5)
            assert server.specializer.run_once() == 1
            exact = Bucket((("m", HOT_M), ("n", 256), ("k", 64)))
            entry = server.specializer.lookup("gemm", exact)
            assert entry is not None
            assert entry.serving.as_dict() == _shape(ALIGNED_M)
            assert entry.generic.as_dict() == _shape(GENERIC_M)
            assert entry.flops_saved == SAVED_PER_HIT
            assert server.stats().promotions == 1

    def test_below_threshold_never_promoted(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, start=False, specialize=_config()
        ) as server:
            _inject(server, HOT_M, 3)  # hot_threshold is 4
            assert server.specializer.run_once() == 0
            assert server.specializer.active == {}

    def test_promotion_is_idempotent(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, start=False, specialize=_config()
        ) as server:
            exact = _inject(server, HOT_M, 6)
            assert server.specializer.run_once() == 1
            first = server.specializer.lookup("gemm", exact)
            # Traffic is still hot, but the shape is already installed.
            assert server.specializer.run_once() == 0
            assert server.specializer.lookup("gemm", exact) is first
            assert server.stats().promotions == 1

    def test_on_rung_shape_skipped(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, start=False, specialize=_config()
        ) as server:
            _inject(server, 256, 10)  # already a ladder rung
            assert server.specializer.run_once() == 0
            assert server.specializer.run_once() == 0
            assert server.stats().promotions == 0

    def test_alignment_without_gain_skipped(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, start=False, specialize=_config()
        ) as server:
            # m=900 aligns to 1024 == its generic bucket: no padding
            # would be removed, so promotion can never help.
            _inject(server, 900, 10)
            assert server.specializer.run_once() == 0
            assert server.specializer.active == {}

    def test_kernel_without_granules_skipped(self, hopper):
        with RuntimeServer(
            hopper,
            _registry(align=None),
            workers=1,
            start=False,
            specialize=_config(),
        ) as server:
            _inject(server, HOT_M, 10)
            assert server.specializer.run_once() == 0
            assert server.specializer.active == {}

    def test_unregistered_traffic_ignored(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, start=False, specialize=_config()
        ) as server:
            ghost = Bucket((("m", HOT_M), ("n", 256), ("k", 64)))
            server.specializer.record_traffic([("ghost", ghost)] * 10)
            assert server.specializer.run_once() == 0
            assert server.specializer.errors == 0

    def test_per_cycle_promotion_budget(self, hopper, registry):
        with RuntimeServer(
            hopper,
            registry,
            workers=1,
            start=False,
            specialize=_config(max_promotions_per_cycle=1),
        ) as server:
            _inject(server, HOT_M, 6)
            _inject(server, 700, 5)  # generic 1024, aligned 768
            assert server.specializer.run_once() == 1
            assert server.specializer.run_once() == 1
            assert len(server.specializer.active) == 2


class TestGuardServing:
    def test_hit_serves_memory_tier_zero_passes(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, specialize=_config()
        ) as server:
            _heat(server, HOT_M, 5)
            assert server.specializer.run_once() == 1
            before = api.compile_cache_stats().misses
            result = server.submit("gemm", _shape(HOT_M)).result(timeout=120)
            assert result.bucket.as_dict() == _shape(ALIGNED_M)
            assert result.tier == "memory"
            assert api.compile_cache_stats().misses == before

    def test_miss_falls_through_to_generic(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, specialize=_config()
        ) as server:
            _heat(server, HOT_M, 5)
            assert server.specializer.run_once() == 1
            # A different exact shape in the same generic bucket: the
            # guard is exact-shape, so it must miss.
            result = server.submit("gemm", _shape(HOT_M + 1)).result(
                timeout=120
            )
            assert result.bucket.as_dict()["m"] == GENERIC_M

    def test_hit_counters_and_flops_saved(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, specialize=_config()
        ) as server:
            _heat(server, HOT_M, 5)
            server.specializer.run_once()
            _heat(server, HOT_M, 3)
            stats = server.stats()
            assert stats.specialized_hits == 3
            assert stats.padded_flops_saved == 3 * SAVED_PER_HIT
            assert stats.specializations_active == 1
            snapshot = stats.to_json()["specialization"]
            assert snapshot["hits"] == 3
            assert snapshot["active"] == 1
            assert "specialz.:" in stats.table()

    def test_specialized_outputs_bit_identical(self, hopper, registry):
        # The serving contract pads functional inputs to the generic
        # bucket; the valid region must come back bit-identical whether
        # the generic or the specialized kernel served it.
        rng = np.random.default_rng(3)
        inputs = {
            "C": np.zeros((GENERIC_M, 256), np.float16),
            "A": np.zeros((GENERIC_M, 64), np.float16),
            "B": (rng.standard_normal((64, 256)) * 0.1).astype(np.float16),
        }
        inputs["A"][:HOT_M] = (
            rng.standard_normal((HOT_M, 64)) * 0.1
        ).astype(np.float16)
        with RuntimeServer(hopper, registry, workers=1) as server:
            generic = server.submit(
                "gemm", _shape(HOT_M), inputs=inputs
            ).result(timeout=120)
        api.clear_compile_cache()
        with RuntimeServer(
            hopper, registry, workers=1, specialize=_config()
        ) as server:
            _heat(server, HOT_M, 5)
            assert server.specializer.run_once() == 1
            specialized = server.submit(
                "gemm", _shape(HOT_M), inputs=inputs
            ).result(timeout=120)
        assert generic.bucket.as_dict()["m"] == GENERIC_M
        assert specialized.bucket.as_dict()["m"] == ALIGNED_M
        assert np.array_equal(
            specialized.outputs["C"][:HOT_M], generic.outputs["C"][:HOT_M]
        )


class TestDeoptimization:
    def test_cold_shape_deoptimized_on_decay(self, hopper, registry):
        with RuntimeServer(
            hopper,
            registry,
            workers=1,
            start=False,
            specialize=_config(decay_every_cycles=2, decay=0.0),
        ) as server:
            exact = _inject(server, HOT_M, 6)
            assert server.specializer.run_once() == 1  # cycle 1: promote
            assert server.specializer.run_once() == 0  # cycle 2: decay
            assert server.specializer.lookup("gemm", exact) is None
            stats = server.stats()
            assert stats.deopts == 1
            assert stats.specializations_active == 0
            # The counter was reset: the shape must re-earn promotion.
            assert server.specializer.traffic() == {}

    def test_deopt_falls_back_to_generic(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, specialize=_config()
        ) as server:
            _heat(server, HOT_M, 5)
            assert server.specializer.run_once() == 1
            hit = server.submit("gemm", _shape(HOT_M)).result(timeout=120)
            assert hit.bucket.as_dict()["m"] == ALIGNED_M
            server.specializer.decay(0.0)
            server.specializer.run_once()
            fallback = server.submit("gemm", _shape(HOT_M)).result(
                timeout=120
            )
            assert fallback.bucket.as_dict()["m"] == GENERIC_M

    def test_deopt_mid_flight_never_fails_future(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, start=False, specialize=_config()
        ) as server:
            _inject(server, HOT_M, 6)
            assert server.specializer.run_once() == 1
            # Enqueue a guard hit before any worker exists, then yank
            # the specialization out from under it.
            future = server.submit("gemm", _shape(HOT_M))
            assert server.stats().specialized_hits == 1
            server.specializer.decay(0.0)
            server.specializer.run_once()
            assert server.specializer.active == {}
            server.start()
            result = future.result(timeout=120)
            # The kernel stayed cached, so the in-flight request still
            # serves from its captured specialized bucket.
            assert result.bucket.as_dict()["m"] == ALIGNED_M
            assert server.stats().deopts == 1

    def test_budget_eviction_prefers_hotter_newcomer(self, hopper, registry):
        with RuntimeServer(
            hopper,
            registry,
            workers=1,
            start=False,
            specialize=_config(max_per_kernel=1),
        ) as server:
            cold = _inject(server, HOT_M, 5)
            assert server.specializer.run_once() == 1
            hot = _inject(server, 700, 10)
            assert server.specializer.run_once() == 1
            assert server.specializer.lookup("gemm", cold) is None
            assert server.specializer.lookup("gemm", hot) is not None
            stats = server.stats()
            assert stats.promotions == 2
            assert stats.deopts == 1
            assert stats.specializations_active == 1

    def test_colder_newcomer_never_evicts(self, hopper, registry):
        with RuntimeServer(
            hopper,
            registry,
            workers=1,
            start=False,
            specialize=_config(max_per_kernel=1),
        ) as server:
            hot = _inject(server, HOT_M, 10)
            assert server.specializer.run_once() == 1
            _inject(server, 700, 5)  # above threshold, but colder
            assert server.specializer.run_once() == 0
            assert server.specializer.lookup("gemm", hot) is not None
            assert server.stats().deopts == 0


def _flaky_gemm(machine, m, n, k, **params):
    """Builds generic rungs fine; any tile-aligned off-rung m fails."""
    if m % 256:
        raise CypressError(f"induced build failure at m={m}")
    return build_gemm(machine, m, n, k, **params)


class TestFaultInjection:
    def test_failed_promotion_counted_generic_serves(self, hopper):
        with RuntimeServer(
            hopper, _registry(builder=_flaky_gemm), workers=1,
            specialize=_config(),
        ) as server:
            _heat(server, HOT_M, 5)
            assert server.specializer.run_once() == 0
            stats = server.stats()
            assert stats.specialize_errors == 1
            assert stats.promotions == 0
            assert server.specializer.active == {}
            # A handled promotion failure is not a loop crash.
            assert server.specializer.errors == 0
            result = server.submit("gemm", _shape(HOT_M)).result(timeout=120)
            assert result.bucket.as_dict()["m"] == GENERIC_M

    def test_quarantine_backoff_then_retry(self, hopper):
        with RuntimeServer(
            hopper, _registry(builder=_flaky_gemm), workers=1, start=False,
            specialize=_config(quarantine_cycles=3),
        ) as server:
            _inject(server, HOT_M, 6)
            server.specializer.run_once()  # cycle 1: attempt fails
            assert server.stats().specialize_errors == 1
            server.specializer.run_once()  # cycles 2-3: quarantined,
            server.specializer.run_once()  # no new attempt
            assert server.stats().specialize_errors == 1
            server.specializer.run_once()  # cycle 4: backoff expired
            assert server.stats().specialize_errors == 2

    def test_run_once_never_raises(self, hopper, registry, monkeypatch):
        with RuntimeServer(
            hopper, registry, workers=1, start=False, specialize=_config()
        ) as server:
            def boom():
                raise CypressError("induced demand-table failure")

            monkeypatch.setattr(server.specializer, "traffic", boom)
            assert server.specializer.run_once() == 0
            assert server.specializer.errors == 1

    def test_shutdown_mid_compile_abandons_install(
        self, hopper, registry, monkeypatch
    ):
        with RuntimeServer(
            hopper, registry, workers=1, start=False, specialize=_config()
        ) as server:
            compiles = []
            real = server._fetch

            def stopping_fetch(build, guard=None):
                server.close()  # close() racing the compile
                fetched = real(build, guard)
                compiles.append(fetched[1])
                return fetched

            monkeypatch.setattr(server, "_fetch", stopping_fetch)
            _inject(server, HOT_M, 6)
            assert server.specializer.run_once() == 0
            assert compiles == ["compile"]  # the compile did run...
            assert server.specializer.active == {}  # ...no guard went live
            assert server.stats().promotions == 0


#: Request pool for the randomized schedules: promotable (300 -> 384,
#: 700 -> 768) plus a shape whose alignment equals its bucket (900).
_POOL = (HOT_M, 700, 900)
_ALLOWED_M = {HOT_M: {GENERIC_M, ALIGNED_M}, 700: {1024, 768}, 900: {1024}}

_schedule = st.lists(
    st.one_of(
        st.tuples(st.just("heat"), st.integers(0, 2), st.integers(1, 6)),
        st.tuples(st.just("cycle"), st.just(0), st.just(0)),
        st.tuples(st.just("decay"), st.just(0), st.just(0)),
    ),
    min_size=2,
    max_size=10,
)


def _check_invariants(server, max_per_kernel):
    active = server.specializer.active
    assert len(active) <= max_per_kernel
    stats = server.stats()
    assert stats.promotions - stats.deopts == len(active)
    assert server.specializer.errors == 0


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=_schedule)
def test_randomized_promote_deopt_schedules(hopper, ops):
    """Any interleaving of traffic, cycles, and decay keeps the
    budget, the counter identity, and every served bucket legal."""
    with RuntimeServer(
        hopper,
        _registry(),
        workers=1,
        specialize=_config(hot_threshold=3, max_per_kernel=1),
    ) as server:
        for op, idx, count in ops:
            if op == "heat":
                m = _POOL[idx]
                for result in _heat(server, m, count):
                    assert result.bucket.as_dict()["m"] in _ALLOWED_M[m]
            elif op == "cycle":
                server.specializer.run_once()
            else:
                server.specializer.decay(0.0)
                server.specializer.run_once()
            _check_invariants(server, max_per_kernel=1)


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 999), decays=st.lists(st.booleans(), max_size=5))
def test_concurrent_submits_during_cycles(hopper, seed, decays):
    """Promote/deopt cycles racing live submit() traffic: every future
    resolves, every bucket is legal, and the invariants hold after."""
    with RuntimeServer(
        hopper,
        _registry(),
        workers=2,
        specialize=_config(hot_threshold=2, max_per_kernel=1),
    ) as server:
        failures = []

        def pump(offset):
            rng = np.random.default_rng(seed + offset)
            try:
                for _ in range(12):
                    m = int(rng.choice(_POOL))
                    result = server.submit("gemm", _shape(m)).result(
                        timeout=120
                    )
                    assert result.bucket.as_dict()["m"] in _ALLOWED_M[m]
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [
            threading.Thread(target=pump, args=(offset,)) for offset in (1, 2)
        ]
        for thread in threads:
            thread.start()
        schedule = list(decays) or [False]
        while any(thread.is_alive() for thread in threads):
            for decay in schedule:
                if decay:
                    server.specializer.decay(0.0)
                server.specializer.run_once()
                time.sleep(0.002)
        for thread in threads:
            thread.join()
        server.specializer.run_once()
        assert failures == []
        _check_invariants(server, max_per_kernel=1)


#: The skewed trace: request shapes in descending hotness. The head is
#: off-rung at multi-wave sizes (maximum padding waste, measurably
#: slower rung kernels); the tail mixes rung-aligned shapes the
#: specializer correctly skips.
_ZIPF_CANDIDATES = [
    dict(m=m, n=4096, k=64)
    for m in (2100, 1100, 2500, 1500, 1024, 2048, 4096, 1060)
]
_ZIPF_LADDERS = {"m": (1024, 2048, 4096), "n": (4096,), "k": (64,)}


def _serve_zipf_trace(hopper, trace, *, specialize):
    """Serve ``trace`` fully warm; returns (simulated seconds per
    request, padded FLOPs wasted, stats)."""
    api.clear_compile_cache()
    config = _config(hot_threshold=8) if specialize else False
    with RuntimeServer(
        hopper,
        _registry(ladders=_ZIPF_LADDERS),
        workers=2,
        specialize=config,
    ) as server:
        server.warm("gemm", _ZIPF_CANDIDATES)
        if specialize:
            # Build the per-shape hit counts, then promote in
            # synchronous cycles.
            for shape in trace:
                server.submit("gemm", shape).result(timeout=120)
            for _ in range(4):
                server.specializer.run_once()
        seconds, wasted = [], 0.0
        for shape in trace:
            result = server.submit("gemm", shape).result(timeout=120)
            seconds.append(result.gpu.seconds)
            wasted += _flops(result.bucket.as_dict()) - _flops(shape)
        return seconds, wasted, server.stats()


def test_zipf_trace_sheds_padded_flops_without_costing_the_tail(hopper):
    """On seeded Zipf(1.1) traffic, promoting the hot off-rung shapes
    cuts padded FLOPs by >= 30% and the simulated p95 does not rise."""
    ranks = np.arange(1, len(_ZIPF_CANDIDATES) + 1, dtype=np.float64)
    weights = ranks ** -1.1
    picks = np.random.default_rng(8).choice(
        len(_ZIPF_CANDIDATES), size=160, p=weights / weights.sum()
    )
    trace = [_ZIPF_CANDIDATES[index] for index in picks]

    generic_s, generic_waste, _ = _serve_zipf_trace(
        hopper, trace, specialize=False
    )
    special_s, special_waste, stats = _serve_zipf_trace(
        hopper, trace, specialize=True
    )
    assert 1.0 - special_waste / generic_waste >= 0.30
    assert percentile(special_s, 95) <= percentile(generic_s, 95)
    assert stats.promotions > 0
    assert stats.specialized_hits > 0
