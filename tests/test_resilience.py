"""The resilience layer: faults, deadlines, shedding.

Unit-tests the seeded :class:`FaultPlan` and then the server-level
behaviors: per-request deadlines, bounded-queue load shedding under
both policies, submit-vs-close races, failures that are not retried
(an injected or deterministic compile failure fails its batch and
nothing else), and a hypothesis soak proving every future resolves
and every failure is accounted for under randomized fault/submit
interleavings.
"""

import random
import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.errors import CypressError
from repro.kernels import build_gemm
from repro.runtime import (
    BucketPolicy,
    KernelRegistry,
    RuntimeServer,
)
from repro.runtime.faults import FAULT_SITES, FaultPlan, InjectedFault
from repro.runtime.resilience import DeadlineExceeded, ResilienceConfig
from repro.runtime.speculate import SpeculatorConfig

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


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
def _every_site(plan, rate):
    for site in FAULT_SITES:
        plan.inject(site, rate)
    return plan


class TestFaultPlan:
    @pytest.mark.parametrize(
        "call",
        [
            lambda plan: plan.inject("nope", 0.5),
            lambda plan: plan.check("nope"),
            lambda plan: plan.checks("compil"),
            lambda plan: plan.injections("compil"),
        ],
        ids=["inject", "check", "checks", "injections"],
    )
    def test_unknown_site_rejected(self, call):
        with pytest.raises(CypressError, match="unknown fault site"):
            call(FaultPlan(1))

    def test_rate_validated(self):
        with pytest.raises(CypressError, match="rate"):
            FaultPlan().inject("compile", 1.5)

    def test_unarmed_site_never_fires(self):
        plan = FaultPlan(seed=1).inject("compile", 1.0)
        for _ in range(50):
            plan.check("worker.execute")
        assert plan.injections("worker.execute") == 0
        assert plan.checks("worker.execute") == 50

    def test_rate_one_always_fires(self):
        plan = FaultPlan(seed=2).inject("worker.execute", 1.0)
        for ordinal in range(1, 4):
            with pytest.raises(InjectedFault) as excinfo:
                plan.check("worker.execute", "batch")
            assert excinfo.value.site == "worker.execute"
            assert excinfo.value.ordinal == ordinal
            assert "batch" in str(excinfo.value)
        assert plan.injections() == 3

    def test_injected_fault_is_a_cypress_error(self):
        assert issubclass(InjectedFault, CypressError)

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
            a = _every_site(FaultPlan(seed=42), 0.3)
            b = _every_site(FaultPlan(seed=42), 0.3)
            assert verdicts(a, site) == verdicts(b, site)
        # And a different seed diverges (overwhelmingly likely).
        c = _every_site(FaultPlan(seed=43), 0.3)
        d = _every_site(FaultPlan(seed=42), 0.3)
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

        solo = _every_site(FaultPlan(seed=9), 0.4)
        noisy = _every_site(FaultPlan(seed=9), 0.4)
        expected = compile_verdicts(solo)
        got = []
        for verdict_expected in expected:
            for _ in range(3):
                try:
                    noisy.check("worker.execute")
                except InjectedFault:
                    pass
            try:
                noisy.check("compile")
                got.append(False)
            except InjectedFault:
                got.append(True)
        assert got == expected

    def test_wrap_fires_the_site_before_each_call(self):
        calls = []
        plan = FaultPlan(seed=4).inject("compile", 1.0)
        guarded = plan.wrap("compile", "gemm", calls.append)
        with pytest.raises(InjectedFault, match="gemm"):
            guarded("first")
        assert calls == []  # the check runs before the call
        assert plan.checks("compile") == 1

    def test_two_servers_do_not_share_a_plan(self, hopper, registry):
        shape = dict(m=128, n=256, k=64)
        plan = _every_site(FaultPlan(seed=6), 1.0)
        with RuntimeServer(
            hopper, registry, workers=1, faults=plan
        ) as chaotic, RuntimeServer(hopper, registry, workers=1) as plain:
            assert chaotic.faults is plan and plain.faults is None
            with pytest.raises(InjectedFault):
                chaotic.submit("gemm", shape).result(timeout=120)
            checks = plan.checks()
            for _ in range(3):
                assert plain.submit("gemm", shape).result(
                    timeout=120
                ).tflops > 0
            with pytest.raises(InjectedFault):
                chaotic.submit("gemm", shape).result(timeout=120)
        # The plain server's batches — a compile miss, then warm ones —
        # never reached the plan; each chaotic batch checked one site.
        assert checks == 1
        assert plan.checks() == 2
        assert plan.injections() == 2

    def test_summary_reports_every_site(self):
        plan = FaultPlan().inject("compile", 0.25)
        summary = plan.summary()
        assert set(summary) == set(FAULT_SITES)
        assert summary["compile"]["rate"] == 0.25


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
# Server: a failed compile or simulation fails its batch, once
# ----------------------------------------------------------------------
class TestFailuresAreNotRetried:
    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_fault_fails_the_batch_once(self, hopper, registry, site):
        plan = FaultPlan(seed=5).inject(site, 1.0)
        with RuntimeServer(hopper, registry, workers=1, faults=plan) as server:
            future = server.submit("gemm", dict(m=128, n=256, k=64))
            with pytest.raises(InjectedFault):
                future.result(timeout=120)
            stats = server.stats()
        assert plan.injections(site) == 1  # one attempt, no retry
        assert stats.failed == 1
        # Nothing of the failure was kept: without the plan the same
        # bucket serves.
        with RuntimeServer(hopper, registry, workers=1) as server:
            assert server.submit(
                "gemm", dict(m=128, n=256, k=64)
            ).result(timeout=120).tflops > 0

    def test_deterministic_compile_error_surfaces_on_every_request(
        self, hopper, registry
    ):
        # A compile that fails for its input fails the same way on every
        # request for it: the eighth caller sees the compiler's error,
        # not a refusal, and other kernels keep serving.
        registry.register(
            "bad_gemm",
            build_gemm,
            ("m", "n", "k"),
            policy=BucketPolicy(ladders={}),
            defaults=dict(tile_m=192, tile_n=128, tile_k=64),
        )
        with RuntimeServer(hopper, registry, workers=1) as server:
            errors = [
                server.submit(
                    "bad_gemm", dict(m=256, n=256, k=128)
                ).exception(timeout=120)
                for _ in range(8)
            ]
            served = server.submit(
                "gemm", dict(m=128, n=256, k=64)
            ).result(timeout=120)
            stats = server.stats()
        assert isinstance(errors[0], CypressError)
        assert [(type(e), str(e)) for e in errors] == [
            (type(errors[0]), str(errors[0]))
        ] * 8
        assert served.tflops > 0
        assert stats.failed == 8


class TestExecuteSiteUnderTheTimingMemo:
    """A launch record simulates its timing once, yet the
    ``worker.execute`` site is still checked once per micro-batch, so
    the injection stream is the same whether the memo hits or misses."""

    @pytest.mark.parametrize("warm", [False, True])
    def test_one_check_per_micro_batch(self, hopper, registry, warm):
        shapes = [dict(m=128, n=256, k=64), dict(m=256, n=256, k=64)]
        plan = FaultPlan(seed=9).inject("worker.execute", 0.0)
        with RuntimeServer(hopper, registry, workers=1, faults=plan) as server:
            if warm:  # every batch then hits the memo
                server.warm("gemm", shapes)
            for index in range(12):
                server.submit("gemm", shapes[index % 2]).result(
                    timeout=120
                )
            stats = server.stats()
        assert stats.batches == stats.completed == 12
        assert plan.checks("worker.execute") == stats.batches

    def test_a_fault_on_the_first_batch_leaves_the_record_unfilled(
        self, hopper, registry
    ):
        shape = dict(m=128, n=256, k=64)
        bucket = registry.get("gemm").bucket(shape)
        direct = api.simulate(
            api.compile_kernel(build_gemm(hopper, **shape, **SMALL)), hopper
        )
        plan = FaultPlan(seed=5).inject("worker.execute", 1.0)
        with RuntimeServer(hopper, registry, workers=1, faults=plan) as server:
            with pytest.raises(InjectedFault):
                server.submit("gemm", shape).result(timeout=120)
            launch = server._launches[("gemm", bucket)]
            assert launch.gpu is None
            plan.inject("worker.execute", 0.0)
            served = server.submit("gemm", shape).result(timeout=120)
            assert server._launches[("gemm", bucket)] is launch
            assert launch.gpu is served.gpu
        assert served.gpu == direct
        assert plan.checks("worker.execute") == 2


# ----------------------------------------------------------------------
# The hypothesis soak: randomized submits + faults + close
# ----------------------------------------------------------------------
def _assert_every_failure_has_a_cause(futures, plan):
    """Each failed future failed for a deadline, for shedding, or for an
    injected fault — and each injected fault failed exactly one batch,
    whose requests all carry that one exception object."""
    injected = set()
    for future in futures:
        error = future.exception()
        if isinstance(error, InjectedFault):
            injected.add(id(error))
        elif error is not None:
            assert isinstance(error, DeadlineExceeded) or "shed" in str(
                error
            ), repr(error)
    assert len(injected) == sum(
        plan.injections(site) for site in FAULT_SITES
    )


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
        for site in FAULT_SITES:
            plan.inject(site, rate)
        config = ResilienceConfig(max_queue=8, shed_policy="drop-oldest")
        tmp = tempfile.TemporaryDirectory()
        try:
            disk = tmp.name if use_disk else None
            futures = []
            server = RuntimeServer(
                hopper,
                registry,
                workers=2,
                disk_cache=disk,
                resilience=config,
                faults=plan,
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
        _assert_every_failure_has_a_cause(futures, plan)
        if rate == 0.0:
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
    "worker.execute": 0.1,
}


class TestChaosGolden:
    def test_survivors_match_the_fault_free_run_field_for_field(
        self, hopper, tmp_path
    ):
        """A fault may fail a request, never change what a served one
        computes: the same seeded 500-request trace is served
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
        server = api.serve(
            hopper,
            workers=4,
            disk_cache=str(tmp_path),
            speculate=SpeculatorConfig(interval_s=0.002),
            faults=plan,
        )
        futures = [
            server.submit(kernel, shape) for kernel, shape in trace
        ]
        server.close(drain=True)
        stats = server.stats()

        # Zero hangs: the drain returned and every future is settled.
        assert all(future.done() for future in futures)
        assert stats.requests == TRACE_REQUESTS
        assert (
            stats.completed + stats.failed + stats.shed_requests
            == stats.requests
        )
        _assert_every_failure_has_a_cause(futures, plan)
        for site in FAULT_SITES:
            assert plan.injections(site) > 0, site

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
