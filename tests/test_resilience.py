"""The resilience layer: faults, retries, breakers, deadlines, shedding.

Unit-tests the primitives (seeded :class:`FaultPlan`, deterministic
:class:`RetryPolicy` backoff, the :class:`CircuitBreaker` state machine
under a fake clock, :class:`ResilientTier` degradation) and then the
server-level behaviors they compose into: per-request deadlines,
bounded-queue load shedding under both policies, submit-vs-close races,
compile-breaker degraded serving, background-loop crash supervision,
and a hypothesis soak proving every future resolves and the telemetry
counters stay consistent under randomized fault/submit interleavings.
"""

import random
import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.errors import CypressError, TransientError
from repro.kernels import build_gemm
from repro.runtime import (
    BucketPolicy,
    DiskCacheTier,
    KernelRegistry,
    RuntimeServer,
)
from repro.runtime import faults
from repro.runtime.faults import FAULT_SITES, FaultPlan, InjectedFault
from repro.runtime.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerOpen,
    CircuitBreaker,
    DeadlineExceeded,
    ResilienceConfig,
    ResilientTier,
    RetryPolicy,
    call_with_retry,
)
from repro.runtime.specialize import Specialization, SpecializerConfig
from repro.runtime.speculate import SpeculatorConfig

SMALL = dict(tile_m=128, tile_n=256, tile_k=64)
#: A retry policy with sub-millisecond backoff so tests stay fast.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=1e-5, max_delay_s=1e-4)


@pytest.fixture(autouse=True)
def fresh_cache():
    api.clear_compile_cache()
    assert faults.ACTIVE is None  # a leaked plan would poison every test
    yield
    faults.uninstall()
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


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_unknown_site_rejected(self):
        plan = FaultPlan()
        with pytest.raises(CypressError, match="unknown fault site"):
            plan.inject("nope", 0.5)
        with pytest.raises(CypressError, match="unknown fault site"):
            plan.check("nope")

    def test_rate_validated(self):
        with pytest.raises(CypressError, match="rate"):
            FaultPlan().inject("compile", 1.5)

    def test_unarmed_site_never_fires(self):
        plan = FaultPlan(seed=1).inject("compile", 1.0)
        for _ in range(50):
            plan.check("disk.load")
        assert plan.injections("disk.load") == 0
        assert plan.checks("disk.load") == 50

    def test_rate_one_always_fires(self):
        plan = FaultPlan(seed=2).inject("worker.execute", 1.0)
        for ordinal in range(1, 4):
            with pytest.raises(InjectedFault) as excinfo:
                plan.check("worker.execute", "batch")
            assert excinfo.value.site == "worker.execute"
            assert excinfo.value.ordinal == ordinal
            assert "batch" in str(excinfo.value)
        assert plan.injections() == 3

    def test_injected_fault_is_transient(self):
        assert issubclass(InjectedFault, TransientError)

    def test_same_seed_same_verdict_sequence(self):
        def verdicts(plan, site, n=200):
            out = []
            for _ in range(n):
                try:
                    plan.check(site)
                    out.append(False)
                except InjectedFault:
                    out.append(True)
            return out

        for site in FAULT_SITES:
            a = FaultPlan(seed=42).inject_all(0.3)
            b = FaultPlan(seed=42).inject_all(0.3)
            assert verdicts(a, site) == verdicts(b, site)
        # And a different seed diverges (overwhelmingly likely).
        c = FaultPlan(seed=43).inject_all(0.3)
        d = FaultPlan(seed=42).inject_all(0.3)
        assert verdicts(c, "compile") != verdicts(d, "compile")

    def test_sites_are_independent_streams(self):
        # Interleaving checks at other sites must not perturb a site's
        # own verdict stream (that is what makes threaded soaks
        # reproducible).
        def compile_verdicts(plan, n=100):
            out = []
            for _ in range(n):
                try:
                    plan.check("compile")
                    out.append(False)
                except InjectedFault:
                    out.append(True)
            return out

        solo = FaultPlan(seed=9).inject_all(0.4)
        noisy = FaultPlan(seed=9).inject_all(0.4)
        expected = compile_verdicts(solo)
        got = []
        for verdict_expected in expected:
            for _ in range(3):
                try:
                    noisy.check("disk.load")
                except InjectedFault:
                    pass
            try:
                noisy.check("compile")
                got.append(False)
            except InjectedFault:
                got.append(True)
        assert got == expected

    def test_active_context_manager_restores(self):
        assert faults.ACTIVE is None
        plan = FaultPlan()
        with faults.active(plan) as installed:
            assert installed is plan
            assert faults.ACTIVE is plan
        assert faults.ACTIVE is None

    def test_install_uninstall(self):
        plan = FaultPlan()
        faults.install(plan)
        assert faults.ACTIVE is plan
        assert faults.uninstall() is plan
        assert faults.ACTIVE is None

    def test_summary_reports_every_site(self):
        plan = FaultPlan().inject("compile", 0.25)
        summary = plan.summary()
        assert set(summary) == set(FAULT_SITES)
        assert summary["compile"]["rate"] == 0.25


# ----------------------------------------------------------------------
# RetryPolicy / call_with_retry
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(CypressError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(CypressError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(
            base_delay_s=0.01, max_delay_s=0.05, jitter=0.0
        )
        assert policy.delay_s(1) == 0.01
        assert policy.delay_s(2) == 0.02
        assert policy.delay_s(3) == 0.04
        assert policy.delay_s(4) == 0.05  # capped
        assert policy.delay_s(10) == 0.05

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_s=0.01, jitter=0.5, seed=7)
        a = [policy.delay_s(n, salt="x") for n in range(1, 6)]
        b = [policy.delay_s(n, salt="x") for n in range(1, 6)]
        assert a == b  # stateless draws: same seed/salt/retry -> same
        assert a != [policy.delay_s(n, salt="y") for n in range(1, 6)]
        for retry, delay in enumerate(a, start=1):
            raw = min(0.01 * 2 ** (retry - 1), policy.max_delay_s)
            assert raw * 0.5 <= delay <= raw

    def test_retries_transient_then_succeeds(self):
        calls = {"n": 0}
        slept = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("flake")
            return "ok"

        retried = []
        result = call_with_retry(
            flaky,
            RetryPolicy(
                max_attempts=3, base_delay_s=0.5, max_delay_s=2.0,
                jitter=0.0,
            ),
            on_retry=retried.append,
            sleep=slept.append,
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert slept == [0.5, 1.0]
        assert len(retried) == 2

    def test_non_transient_raises_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("deterministic bug")

        with pytest.raises(ValueError):
            call_with_retry(broken, FAST_RETRY, sleep=lambda _s: None)
        assert calls["n"] == 1

    def test_on_retry_sees_final_failure_too(self):
        # The retries telemetry counter counts every absorbed transient
        # fault, including the attempt that exhausts the budget — so a
        # soak can assert retries >= injected transient faults.
        retried = []

        def always():
            raise TransientError("flake")

        with pytest.raises(TransientError):
            call_with_retry(
                always,
                RetryPolicy(max_attempts=3, base_delay_s=0.0),
                on_retry=retried.append,
                sleep=lambda _s: None,
            )
        assert len(retried) == 3

    def test_oserror_is_transient(self):
        calls = {"n": 0}

        def flaky_disk():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("EIO")
            return 42

        assert (
            call_with_retry(flaky_disk, FAST_RETRY, sleep=lambda _s: None)
            == 42
        )


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = FakeClock()
        transitions = []
        breaker = CircuitBreaker(
            "disk",
            failure_threshold=kwargs.pop("failure_threshold", 3),
            cooldown_s=kwargs.pop("cooldown_s", 10.0),
            clock=clock,
            on_transition=lambda site, old, new: transitions.append(
                (old, new)
            ),
        )
        return breaker, clock, transitions

    def test_threshold_validated(self):
        with pytest.raises(CypressError, match="failure_threshold"):
            CircuitBreaker("disk", failure_threshold=0)

    def test_stays_closed_below_threshold(self):
        breaker, _clock, transitions = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()
        assert transitions == []

    def test_success_resets_consecutive_count(self):
        breaker, _clock, _transitions = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_trips_open_and_refuses(self):
        breaker, _clock, transitions = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 1
        assert not breaker.allow()
        assert transitions == [(BREAKER_CLOSED, BREAKER_OPEN)]

    def test_cooldown_admits_single_probe(self):
        breaker, clock, _transitions = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 9.9
        assert not breaker.allow()
        clock.now = 10.1
        assert breaker.allow()  # the half-open probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()  # one probe at a time

    def test_probe_success_closes(self):
        breaker, clock, transitions = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 11.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()
        assert transitions == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]

    def test_probe_failure_reopens(self):
        breaker, clock, _transitions = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 11.0
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 2
        clock.now = 20.9
        assert not breaker.allow()  # a fresh cooldown from the reopen
        clock.now = 21.1
        assert breaker.allow()


# ----------------------------------------------------------------------
# ResilientTier
# ----------------------------------------------------------------------
class FlakyTier:
    """A SecondTier whose load fails ``fail_loads`` times, then works."""

    def __init__(self, fail_loads=0, fail_stores=0):
        self.fail_loads = fail_loads
        self.fail_stores = fail_stores
        self.loads = 0
        self.stores = {}

    def load(self, key):
        self.loads += 1
        if self.loads <= self.fail_loads:
            raise OSError("flaky disk")
        return self.stores.get(key)

    def store(self, key, kernel):
        if self.fail_stores > 0:
            self.fail_stores -= 1
            raise OSError("disk full")
        self.stores[key] = kernel

    def contains(self, key):
        return key in self.stores


class TestResilientTier:
    def test_delegates_everything_else(self, tmp_path):
        raw = DiskCacheTier(tmp_path)
        tier = ResilientTier(raw, retry=FAST_RETRY)
        tier.store("k", {"v": 1})
        assert tier.load("k") == {"v": 1}
        assert tier.contains("k")
        assert tier.keys() == ["k"]
        assert tier.path == raw.path
        assert tier.stats.stores == 1
        assert len(tier) == 1

    def test_retries_transient_loads(self):
        raw = FlakyTier(fail_loads=2)
        raw.stores["k"] = "kernel"
        retried = []
        tier = ResilientTier(
            raw,
            retry=FAST_RETRY,
            on_retry=retried.append,
            sleep=lambda _s: None,
        )
        assert tier.load("k") == "kernel"
        assert raw.loads == 3
        assert len(retried) == 2

    def test_exhausted_retries_degrade_to_miss(self):
        raw = FlakyTier(fail_loads=99)
        breaker = CircuitBreaker("disk", failure_threshold=2)
        tier = ResilientTier(
            raw, breaker=breaker, retry=FAST_RETRY, sleep=lambda _s: None
        )
        assert tier.load("k") is None  # never raises into the caller
        assert tier.load("k") is None
        assert breaker.state == BREAKER_OPEN

    def test_open_breaker_skips_tier_entirely(self):
        raw = FlakyTier()
        breaker = CircuitBreaker("disk", failure_threshold=1)
        breaker.record_failure()
        degraded = []
        tier = ResilientTier(
            raw,
            breaker=breaker,
            retry=FAST_RETRY,
            on_degraded=degraded.append,
            sleep=lambda _s: None,
        )
        assert tier.load("k") is None
        assert raw.loads == 0  # memory-only: disk untouched
        assert degraded == ["disk.load"]

    def test_store_failure_swallowed(self):
        raw = FlakyTier(fail_stores=99)
        tier = ResilientTier(raw, retry=FAST_RETRY, sleep=lambda _s: None)
        tier.store("k", "kernel")  # must not raise
        assert "k" not in raw.stores

    def test_fault_sites_fire_inside_the_armor(self):
        raw = FlakyTier()
        raw.stores["k"] = "kernel"
        retried = []
        tier = ResilientTier(
            raw,
            retry=FAST_RETRY,
            on_retry=retried.append,
            sleep=lambda _s: None,
        )
        plan = FaultPlan(seed=0).inject("disk.load", 1.0)
        with faults.active(plan):
            assert tier.load("k") is None  # every attempt injected
        assert plan.injections("disk.load") == FAST_RETRY.max_attempts
        assert len(retried) == FAST_RETRY.max_attempts
        # Faults off: the same tier serves normally again.
        assert tier.load("k") == "kernel"


# ----------------------------------------------------------------------
# Server: deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_deadline_fails_fast(self, hopper, registry):
        with RuntimeServer(hopper, registry, workers=1) as server:
            # Warm so a served request would otherwise be instant.
            server.warm("gemm", [dict(m=128, n=256, k=64)])
            future = server.submit(
                "gemm", dict(m=128, n=256, k=64), deadline=0.0
            )
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=120)
            stats = server.stats()
            assert stats.timeouts == 1
            assert stats.failed == 1

    def test_generous_deadline_serves(self, hopper, registry):
        with RuntimeServer(hopper, registry, workers=1) as server:
            future = server.submit(
                "gemm", dict(m=128, n=256, k=64), deadline=600.0
            )
            assert future.result(timeout=120).tflops > 0
            assert server.stats().timeouts == 0

    def test_no_deadline_by_default(self, hopper, registry):
        server = RuntimeServer(hopper, registry, workers=1, start=False)
        try:
            future = server.submit("gemm", dict(m=128, n=256, k=64))
            time.sleep(0.05)  # would expire any accidental deadline
            server.start()
            assert future.result(timeout=120).tflops > 0
        finally:
            server.close()


# ----------------------------------------------------------------------
# Server: bounded queue / load shedding
# ----------------------------------------------------------------------
class TestLoadShedding:
    def test_config_validated(self):
        with pytest.raises(CypressError, match="max_queue"):
            ResilienceConfig(max_queue=0)
        with pytest.raises(CypressError, match="shed_policy"):
            ResilienceConfig(shed_policy="random-drop")

    def test_reject_new_raises_at_submit(self, hopper, registry):
        server = RuntimeServer(
            hopper,
            registry,
            workers=1,
            start=False,
            resilience=ResilienceConfig(max_queue=2),
        )
        try:
            kept = [
                server.submit("gemm", dict(m=128, n=256, k=64))
                for _ in range(2)
            ]
            with pytest.raises(CypressError, match="queue full"):
                server.submit("gemm", dict(m=128, n=256, k=64))
            server.start()
            for future in kept:
                assert future.result(timeout=120).tflops > 0
            stats = server.stats()
            # The rejected submit was never admitted: not submitted,
            # not shed, not failed.
            assert stats.requests == 2
            assert stats.shed_requests == 0
            assert stats.failed == 0
        finally:
            server.close()

    def test_drop_oldest_evicts_longest_queued(self, hopper, registry):
        server = RuntimeServer(
            hopper,
            registry,
            workers=1,
            start=False,
            resilience=ResilienceConfig(
                max_queue=2, shed_policy="drop-oldest"
            ),
        )
        try:
            first = server.submit("gemm", dict(m=128, n=256, k=64))
            second = server.submit("gemm", dict(m=128, n=256, k=64))
            third = server.submit("gemm", dict(m=128, n=256, k=64))
            with pytest.raises(CypressError, match="shed"):
                first.result(timeout=120)
            server.start()
            assert second.result(timeout=120).tflops > 0
            assert third.result(timeout=120).tflops > 0
            stats = server.stats()
            assert stats.requests == 3
            assert stats.shed_requests == 1
            assert stats.completed == 2
            assert stats.failed == 0  # shed is not failure
            assert (
                stats.shed_requests + stats.completed + stats.failed
                == stats.requests
            )
        finally:
            server.close()


# ----------------------------------------------------------------------
# Server: submit after / during close
# ----------------------------------------------------------------------
class TestSubmitClose:
    def test_submit_after_close_raises_immediately(self, hopper, registry):
        server = RuntimeServer(hopper, registry, workers=1)
        server.close()
        with pytest.raises(CypressError, match="server closed"):
            server.submit("gemm", dict(m=128, n=256, k=64))

    def test_submit_vs_close_race_never_strands(self, hopper, registry):
        # Hammer submit from one thread while another closes: every
        # submit either returns a future that resolves, or raises the
        # closed error — nothing hangs, nothing is silently dropped.
        server = RuntimeServer(hopper, registry, workers=2)
        server.warm("gemm", [dict(m=128, n=256, k=64)])
        futures = []
        rejected = []
        started = threading.Event()

        def submitter():
            for index in range(200):
                if index == 3:
                    started.set()
                try:
                    futures.append(
                        server.submit("gemm", dict(m=128, n=256, k=64))
                    )
                except CypressError:
                    rejected.append(index)

        thread = threading.Thread(target=submitter)
        thread.start()
        started.wait(timeout=30)
        server.close(drain=True)
        thread.join(timeout=60)
        assert not thread.is_alive()
        for future in futures:
            assert future.result(timeout=120).tflops > 0
        stats = server.stats()
        assert stats.completed == len(futures)
        assert len(futures) + len(rejected) == 200


# ----------------------------------------------------------------------
# Server: compile breaker + degraded serving
# ----------------------------------------------------------------------
class TestCompileBreaker:
    def _trip(self, server, site):
        breaker = server._breaker(site)
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        return breaker

    def test_open_breaker_fails_generic_requests_fast(
        self, hopper, registry
    ):
        config = ResilienceConfig(breaker_cooldown_s=600.0)
        with RuntimeServer(
            hopper, registry, workers=1, resilience=config
        ) as server:
            self._trip(server, "compile:gemm")
            future = server.submit("gemm", dict(m=128, n=256, k=64))
            with pytest.raises(BreakerOpen, match="compile:gemm"):
                future.result(timeout=120)
            stats = server.stats()
            assert stats.failed == 1
            assert stats.breaker_states["compile:gemm"] == "open"
            assert stats.breakers_open == 1
            assert stats.breaker_trips == 1

    def test_specialized_request_degrades_to_generic(
        self, hopper, registry
    ):
        config = ResilienceConfig(breaker_cooldown_s=600.0)
        with RuntimeServer(
            hopper,
            registry,
            workers=1,
            resilience=config,
            specialize=SpecializerConfig(interval_s=3600.0),
        ) as server:
            shape = dict(m=130, n=256, k=128)
            registered = server.registry.get("gemm")
            generic = registered.bucket(shape)
            serving = registered.bucket(dict(m=128, n=256, k=128))
            assert serving != generic
            # Warm the generic bucket, then forge a specialization so
            # the request serves from the (uncompiled) smaller bucket.
            server.warm("gemm", [shape])
            exact = registered.exact_bucket(shape)
            server.specializer._active[("gemm", exact)] = Specialization(
                kernel="gemm",
                exact=exact,
                serving=serving,
                generic=generic,
                flops_saved=1.0,
            )
            self._trip(server, "compile:gemm")
            # The specialized bucket needs a compile, which the open
            # breaker refuses — the server falls back to the warmed
            # generic bucket instead of failing.
            result = server.submit("gemm", shape).result(timeout=120)
            assert result.tier == "memory"
            assert result.tflops > 0
            stats = server.stats()
            assert stats.degraded_serves == 1
            assert stats.failed == 0

    def test_breaker_trip_emits_trace_span(self, hopper, registry):
        with RuntimeServer(
            hopper, registry, workers=1, trace=True
        ) as server:
            self._trip(server, "compile:gemm")
            spans = [s for s in server.tracer.spans() if s.name == "breaker"]
            assert spans, "breaker transition should emit a span"
            assert spans[0].args["site"] == "compile:gemm"
            assert spans[0].args["to"] == "open"

    def test_transient_compile_faults_are_retried(self, hopper, registry):
        # With a 100% compile fault rate and max_attempts=2, the first
        # submit exhausts retries and fails; every absorbed fault is
        # counted.
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay_s=1e-5)
        )
        plan = FaultPlan(seed=5).inject("compile", 1.0)
        with faults.active(plan):
            with RuntimeServer(
                hopper, registry, workers=1, resilience=config
            ) as server:
                future = server.submit("gemm", dict(m=128, n=256, k=64))
                with pytest.raises(InjectedFault):
                    future.result(timeout=120)
                stats = server.stats()
        assert plan.injections("compile") == 2
        assert stats.retries == 2
        assert stats.failed == 1


# ----------------------------------------------------------------------
# Background-loop supervision
# ----------------------------------------------------------------------
class TestLoopSupervision:
    def test_crashed_loop_restarts_and_counts(self, hopper, registry):
        plan = FaultPlan(seed=3).inject("loop.cycle", 1.0)
        config = SpeculatorConfig(interval_s=0.001)
        with faults.active(plan):
            with RuntimeServer(
                hopper, registry, workers=1, speculate=config
            ) as server:
                speculator = server.speculator
                deadline = time.monotonic() + 60.0
                while (
                    speculator.crashes < 2
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
                assert speculator.crashes >= 2, "loop was not restarted"
                # Serving survived every crash.
                result = server.submit(
                    "gemm", dict(m=128, n=256, k=64)
                ).result(timeout=120)
                assert result.tflops > 0
                assert server.stats().loop_crashes >= 2

    def test_faults_off_loop_runs_clean(self, hopper, registry):
        config = SpeculatorConfig(interval_s=0.001)
        with RuntimeServer(
            hopper, registry, workers=1, speculate=config
        ) as server:
            server.submit("gemm", dict(m=128, n=256, k=64)).result(
                timeout=120
            )
            time.sleep(0.05)
            assert server.speculator.crashes == 0
            assert server.stats().loop_crashes == 0


# ----------------------------------------------------------------------
# The hypothesis soak: randomized submits + faults + close
# ----------------------------------------------------------------------
RETRY_SITES = ("compile", "disk.load", "disk.store", "worker.execute")


class TestSoak:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.sampled_from([0.0, 0.15, 0.4]),
        n_requests=st.integers(min_value=1, max_value=14),
        use_disk=st.booleans(),
        data=st.data(),
    )
    def test_every_future_resolves_and_counters_balance(
        self, hopper, registry, seed, rate, n_requests, use_disk, data
    ):
        shapes = [
            dict(m=128, n=256, k=64),
            dict(m=256, n=256, k=64),
            dict(m=128, n=256, k=128),
        ]
        plan = FaultPlan(seed=seed)
        for site in RETRY_SITES:
            plan.inject(site, rate)
        config = ResilienceConfig(
            max_queue=8,
            shed_policy="drop-oldest",
            retry=RetryPolicy(max_attempts=3, base_delay_s=1e-5,
                              max_delay_s=1e-4),
        )
        tmp = tempfile.TemporaryDirectory()
        try:
            disk = tmp.name if use_disk else None
            futures = []
            with faults.active(plan):
                server = RuntimeServer(
                    hopper,
                    registry,
                    workers=2,
                    disk_cache=disk,
                    resilience=config,
                )
                for index in range(n_requests):
                    shape = shapes[
                        data.draw(
                            st.integers(0, len(shapes) - 1),
                            label=f"shape[{index}]",
                        )
                    ]
                    deadline = (
                        0.0
                        if data.draw(
                            st.booleans(), label=f"expired[{index}]"
                        )
                        else None
                    )
                    futures.append(
                        server.submit("gemm", shape, deadline=deadline)
                    )
                server.close(drain=True)
            stats = server.stats()
        finally:
            tmp.cleanup()
        # Zero hangs: every future settled (close drained the queue).
        for future in futures:
            assert future.done()
            if future.exception() is None:
                assert future.result().tflops > 0
        # Conservation: every admitted request is accounted for.
        assert stats.requests == len(futures)
        assert (
            stats.completed + stats.failed + stats.shed_requests
            == stats.requests
        )
        assert stats.timeouts <= stats.failed
        # Every injected transient fault at a retried site was absorbed
        # (and counted) by the retry machinery.
        injected = sum(plan.injections(site) for site in RETRY_SITES)
        assert stats.retries == injected
        if rate == 0.0:
            assert stats.retries == 0
            assert stats.failed == stats.timeouts


# ----------------------------------------------------------------------
# The pinned-seed chaos trace against a fault-free golden run
# ----------------------------------------------------------------------
CHAOS_SEED = 20240
TRACE_SEED = 7
TRACE_REQUESTS = 500
#: Per-site injection rates — every site at >= 10%.
CHAOS_RATES = {
    "compile": 0.2,
    "disk.load": 0.2,
    "disk.store": 0.3,
    "worker.execute": 0.1,
    "loop.cycle": 0.25,
}


class TestChaosGolden:
    def test_survivors_match_the_fault_free_run_field_for_field(
        self, hopper, tmp_path
    ):
        """Resilience may change *where* a kernel came from, never
        *what* it computes: the same seeded 500-request trace is served
        fault-free, then under injection at every site with a disk
        cache and the speculator running."""
        rng = random.Random(TRACE_SEED)
        trace = [
            (
                rng.choice(("gemm", "dual_gemm")),
                dict(
                    m=rng.choice((200, 300, 500, 900, 1800)),
                    n=rng.choice((200, 300, 500, 900, 1800)),
                    k=rng.choice((100, 200, 400)),
                ),
            )
            for _ in range(TRACE_REQUESTS)
        ]

        server = api.serve(hopper, workers=4)
        futures = [server.submit(kernel, shape) for kernel, shape in trace]
        server.close(drain=True)
        golden = [future.result(timeout=120) for future in futures]

        api.clear_compile_cache()
        plan = FaultPlan(seed=CHAOS_SEED)
        for site, rate in CHAOS_RATES.items():
            plan.inject(site, rate)
        with faults.active(plan):
            server = api.serve(
                hopper,
                workers=4,
                disk_cache=str(tmp_path),
                speculate=SpeculatorConfig(interval_s=0.002),
                resilience=ResilienceConfig(
                    retry=RetryPolicy(
                        max_attempts=3, base_delay_s=1e-4, max_delay_s=1e-3
                    )
                ),
            )
            futures = [
                server.submit(kernel, shape) for kernel, shape in trace
            ]
            # Let the background loop take (and survive) injections
            # before the drain stops it.
            deadline = time.monotonic() + 10.0
            while (
                plan.injections("loop.cycle") < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            # Traffic drives the disk sites, but their check counts
            # scale with compiles: top up until each has fired.
            while (
                plan.injections("disk.store") < 1
                or plan.injections("disk.load") < 1
            ) and time.monotonic() < deadline:
                server.disk_tier.store("chaos-probe", {"payload": 1})
                server.disk_tier.load("chaos-probe")
            server.close(drain=True)
        stats = server.stats()

        assert faults.ACTIVE is None

        # Zero hangs: the drain returned and every future is settled.
        assert all(future.done() for future in futures)
        assert stats.requests == TRACE_REQUESTS
        assert (
            stats.completed + stats.failed + stats.shed_requests
            == stats.requests
        )
        injected = sum(plan.injections(site) for site in RETRY_SITES)
        assert stats.retries == injected
        for site in FAULT_SITES:
            assert plan.injections(site) > 0, site
        assert stats.loop_crashes > 0  # the supervisor earned its keep

        served = 0
        for index, future in enumerate(futures):
            if future.exception() is not None:
                continue
            served += 1
            result, want = future.result(), golden[index]
            assert (result.kernel, result.bucket, result.gpu) == (
                want.kernel, want.bucket, want.gpu,
            ), f"request {index} diverged from the golden run under faults"
        assert served == stats.completed
        assert served >= TRACE_REQUESTS // 2
