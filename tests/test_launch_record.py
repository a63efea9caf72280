"""The server's per-(kernel, bucket) launch record.

A :class:`~repro.runtime.registry.Launch` is made once per bucket and
carries the build, its compile key, ``compute`` and, once a batch or
``warm`` has simulated it, the kernel's timing. These tests hold the
two halves of that bargain: the record *is* the launch a request would
have resolved for itself (same key, same kernel, same result, and the
cache lookup still runs per request), and it is replaced or dropped
exactly when it should be. The last two classes count function
entries — not microseconds — so a refactor that puts the per-request
rebuild or simulation back fails here first.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro import api
from repro.compiler import CompileOptions
from repro.compiler.cache import compile_key
from repro.compiler.pipeline import compile_key_for
from repro.frontend import Leaf, MappingSpec, TaskRegistry, call_external
from repro.gpusim.functional import interpret_function
from repro.gpusim.gpu import simulate_kernel
from repro.kernels import build_gemm, kernel_registry, transformer_block_graph
from repro.runtime import (
    BucketPolicy,
    KernelRegistry,
    RuntimeServer,
    default_registry,
)
from repro.runtime.registry import RegisteredKernel
from repro.runtime.specialize import Specialization, SpecializerConfig
from repro.tuner import MappingSearchSpace
from test_copy_elim_golden import default_buckets

SMALL = dict(tile_m=128, tile_n=256, tile_k=64)
A = dict(m=128, n=256, k=64)
B = dict(m=256, n=256, k=128)


@pytest.fixture(autouse=True)
def fresh_cache():
    api.clear_compile_cache()
    yield
    api.clear_compile_cache()
    api.resize_compile_cache(256)


def _registry(builder=build_gemm):
    reg = KernelRegistry()
    reg.register(
        "gemm", builder, ("m", "n", "k"),
        policy=BucketPolicy(
            ladders={"m": (128, 256), "n": (256,), "k": (64, 128)}
        ),
        defaults=dict(SMALL),
    )
    return reg


@pytest.fixture()
def registry():
    return _registry()


def _per_request(machine, registered, bucket, params=None):
    """The parent's per-request path: build, hash, look up, simulate."""
    build = registered.build(machine, bucket, params)
    kernel = api.compile_kernel(build)
    return build, kernel, api.simulate(kernel, machine)


def _private_tasks():
    """A copy of the kernel zoo's task registry, and a GEMM builder
    whose mapping reads it (so a test may register into it)."""
    tasks = TaskRegistry()
    tasks.variants.update(kernel_registry.variants)
    tasks.tasks.update(
        {name: list(v) for name, v in kernel_registry.tasks.items()}
    )
    tasks.externals.update(kernel_registry.externals)

    def private_gemm(machine, m, n, k, **params):
        build = build_gemm(machine, m, n, k, **params)
        build.spec = MappingSpec(
            list(build.spec.by_instance.values()), tasks, machine
        )
        return build

    return tasks, private_gemm


def _served_key(server, kernel, shape):
    registered = server.registry.get(kernel)
    return server._launches[(kernel, registered.bucket(shape))].key


class TestRecordIsTheLaunch:
    def test_every_default_bucket_serves_what_a_request_would_resolve(
        self, hopper
    ):
        registry = default_registry()
        with RuntimeServer(hopper, registry, workers=1) as server:
            for family, shape in default_buckets():
                registered = registry.get(family)
                bucket = registered.bucket(shape)
                server.warm(family, [shape])
                result = server.submit(family, shape).result(timeout=120)
                misses_before = api.compile_cache_stats().misses
                build, kernel, gpu = _per_request(hopper, registered, bucket)
                # The direct path found the served kernel under its own
                # freshly hashed key: the memoised key is the key.
                misses = api.compile_cache_stats().misses
                assert misses == misses_before, (family, shape)
                assert kernel.metadata["cache_key"] == compile_key_for(
                    build, CompileOptions()
                )
                assert _served_key(server, family, shape) == (
                    kernel.metadata["cache_key"]
                )
                assert result.gpu == gpu
                assert result.build_name == kernel.name
                assert result.tier == "memory"
                assert result.params is None
                assert result.bucket == bucket

    def test_tuning_after_traffic_replaces_the_record(self, hopper, registry):
        space = MappingSearchSpace(
            tiles=((128, 256),), tile_k=(64,), warpgroups=(1, 2),
            pipeline_depths=(1, 2), warpspecialize=(False,),
        )
        registered = registry.get("gemm")
        with RuntimeServer(hopper, registry, workers=1) as server:
            before = server.submit("gemm", A).result(timeout=120)
            untuned_key = _served_key(server, "gemm", A)
            assert before.params is None
            server.warm("gemm", [A], tune=True, space=space)
            after = server.submit("gemm", A).result(timeout=120)
            assert after.params is not None
            assert after.params["warpspecialize"] is False
            assert _served_key(server, "gemm", A) != untuned_key
            assert after.tier == "memory"  # warm() compiled the winner
            _build, kernel, gpu = _per_request(
                hopper, registered, registered.bucket(A), after.params
            )
            assert (after.gpu, after.build_name) == (gpu, kernel.name)
            assert len(server._launches) == 1

    def test_eviction_recompiles_from_the_record(
        self, hopper, registry, monkeypatch
    ):
        registered = registry.get("gemm")
        want = {
            key: _per_request(hopper, registered, registered.bucket(shape))[2]
            for key, shape in (("A", A), ("B", B))
        }
        api.clear_compile_cache()
        api.resize_compile_cache(1)
        with RuntimeServer(hopper, registry, workers=1) as server:
            for shape in (A, B):
                server.submit("gemm", shape).result(timeout=120)
            builds = []
            real = RegisteredKernel.build
            monkeypatch.setattr(
                RegisteredKernel, "build",
                lambda self, *args: builds.append(args) or real(self, *args),
            )
            for _ in range(3):
                for key, shape in (("A", A), ("B", B)):
                    misses_before = api.compile_cache_stats().misses
                    result = server.submit("gemm", shape).result(timeout=120)
                    # The other bucket evicted this one: the lookup runs
                    # per request and the record's compute recompiles.
                    assert result.tier == "compile"
                    assert api.compile_cache_stats().misses > misses_before
                    assert result.gpu == want[key]
            assert builds == []
            assert len(server._launches) == 2

    def test_two_workers_resolving_one_cold_bucket(self, hopper, registry):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RuntimeServer(
                hopper, registry, workers=2, max_batch=1, start=False
            ) as server:
                futures = [server.submit("gemm", A) for _ in range(2)]
                misses_before = api.compile_cache_stats().misses
                server.start()
                results = [f.result(timeout=120) for f in futures]
                one_compile = api.compile_cache_stats().misses - misses_before
                assert len(server._launches) == 1
        finally:
            sys.setswitchinterval(interval)
        assert sorted(r.tier for r in results) in (
            ["compile", "compile"], ["compile", "memory"],
        )
        assert results[0].gpu == results[1].gpu
        api.clear_compile_cache()
        misses_before = api.compile_cache_stats().misses
        _per_request(hopper, registry.get("gemm"), results[0].bucket)
        assert one_compile == api.compile_cache_stats().misses - misses_before

    def test_deopt_drops_only_the_specialized_record(
        self, hopper, registry
    ):
        shape = dict(m=130, n=256, k=128)
        registered = registry.get("gemm")
        generic = registered.bucket(shape)
        serving = registered.bucket(dict(m=128, n=256, k=128))
        with RuntimeServer(
            hopper, registry, workers=1,
            specialize=SpecializerConfig(interval_s=3600.0),
        ) as server:
            server.warm("gemm", [shape])
            exact = registered.exact_bucket(shape)
            forged = Specialization(
                kernel="gemm", exact=exact, serving=serving,
                generic=generic, flops_saved=1.0,
            )
            server.specializer._active[("gemm", exact)] = forged
            result = server.submit("gemm", shape).result(timeout=120)
            assert result.bucket == serving  # what the guard asked for
            want = server._launches[("gemm", serving)]
            assert result.build_name == want.build.name
            # A deopt drops the specialized bucket's record, not a
            # pinned one and not the generic one.
            assert ("gemm", serving) in server._launches
            server.specializer._deopt(("gemm", exact), forged, "test")
            assert ("gemm", serving) not in server._launches
            assert ("gemm", generic) in server._launches


def count_entries(functions, body):
    """Entries into ``functions`` while ``body`` runs, on this thread
    and on every thread started inside it (a profile hook per thread)."""
    names = {fn.__code__: fn.__qualname__ for fn in functions}
    counts = dict.fromkeys(names.values(), 0)
    lock = threading.Lock()

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code in names:
            with lock:
                counts[names[frame.f_code]] += 1

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        body(counts)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return counts


class TestWarmRequestsResolveNothing:
    COUNTED = (
        compile_key,
        MappingSpec.fingerprint,
        MappingSpec._validate,
        RegisteredKernel.build,
    )

    def test_fifty_requests_over_five_warm_buckets(self, hopper):
        buckets = [
            ("gemm", dict(m=512, n=512, k=256)),
            ("gemm", dict(m=1024, n=1024, k=512)),
            ("dual_gemm", dict(m=512, n=512, k=256)),
            ("flash_attention2", dict(heads=1, seq=512, head_dim=128)),
            ("flash_attention3", dict(heads=1, seq=512, head_dim=128)),
        ]
        marks = {}

        def body(counts):
            with RuntimeServer(hopper, workers=2) as server:
                for family, shape in buckets:
                    server.warm(family, [shape])
                marks.update(counts)
                futures = [
                    server.submit(*buckets[i % 5]) for i in range(50)
                ]
                for future in futures:
                    assert future.result(timeout=120).tier == "memory"
                assert server.stats().completed == 50

        counts = count_entries(self.COUNTED, body)
        # One of each per bucket while warming, none per request.
        assert marks == dict.fromkeys(marks, 5)
        assert counts == marks

    def test_replaying_a_graph_hashes_nothing(self, hopper):
        marks = {}

        def body(counts):
            with RuntimeServer(hopper, workers=2) as server:
                for _ in range(2):
                    graph = transformer_block_graph(hopper, streams=2)
                    marks.update(counts)
                    result = server.submit_graph(graph).result(timeout=300)
                    assert result.complete and len(result.results) == 14

        counts = count_entries((compile_key,), body)
        # ``marks`` was read after the second capture, before its submit.
        assert counts == marks
        assert counts["compile_key"] > 0  # the first replay resolved them


class TestTimingIsSimulatedOncePerRecord:
    """A record's timing is simulated on its first executed batch (or in
    ``warm``) and read by every later one; a replaced or dropped record
    starts without it. Entries into ``simulate_kernel`` are counted, so
    calls through ``api.simulate`` count too."""

    def _serve(self, server, n, shape=A, **kwargs):
        return [
            server.submit("gemm", shape, **kwargs).result(timeout=120)
            for _ in range(n)
        ]

    def test_twenty_warm_requests_simulate_once(self, hopper, registry):
        registered = registry.get("gemm")
        _build, _kernel, want = _per_request(
            hopper, registered, registered.bucket(A)
        )
        served = []

        def body(counts):
            with RuntimeServer(hopper, registry, workers=1) as server:
                served.extend(self._serve(server, 20))

        counts = count_entries((simulate_kernel,), body)
        assert counts == {"simulate_kernel": 1}
        assert [r.tier for r in served] == ["memory"] * 20
        for result in served:
            assert dataclasses.asdict(result.gpu) == dataclasses.asdict(want)
            assert result.gpu is served[0].gpu

    def test_warm_fills_the_record(self, hopper, registry):
        marks = {}
        served = []

        def body(counts):
            with RuntimeServer(hopper, registry, workers=1) as server:
                server.warm("gemm", [A])
                marks.update(counts)
                served.extend(self._serve(server, 20))
                launch = server._launches[("gemm", served[0].bucket)]
                assert launch.gpu is served[0].gpu

        counts = count_entries((simulate_kernel,), body)
        assert marks == {"simulate_kernel": 1}
        assert counts == marks

    def test_every_served_timing_is_the_direct_one(self, hopper, registry):
        registered = registry.get("gemm")
        shapes = [A, B, dict(m=256, n=256, k=64), dict(m=128, n=256, k=128)]
        with RuntimeServer(hopper, registry, workers=2) as server:
            futures = [
                server.submit("gemm", shape)
                for _ in range(3) for shape in shapes
            ]
            results = [f.result(timeout=120) for f in futures]
        for result in results:
            build = registered.build(hopper, result.bucket)
            direct = api.simulate(api.compile_kernel(build), hopper)
            assert dataclasses.asdict(result.gpu) == dataclasses.asdict(
                direct
            )

    def test_a_repin_simulates_the_new_record_once(self, hopper, registry):
        space = MappingSearchSpace(
            tiles=((128, 256),), tile_k=(64,), warpgroups=(1, 2),
            pipeline_depths=(1, 2), warpspecialize=(False,),
        )
        registered = registry.get("gemm")
        bucket = registered.bucket(A)
        marks = []
        served = {}

        def body(counts):
            with RuntimeServer(hopper, registry, workers=1) as server:
                served["untuned"] = self._serve(server, 2)
                server.warm("gemm", [A], tune=True, space=space)
                marks.append(counts["simulate_kernel"])
                # ``warm`` filled the replaced record: its requests
                # read it.
                served["tuned"] = self._serve(server, 5)
                marks.append(counts["simulate_kernel"])
                tuned = server._launches[("gemm", bucket)]
                assert all(r.gpu is tuned.gpu for r in served["tuned"])
                # A repin that does not warm (the record is replaced
                # whole, ``gpu`` empty): the next request simulates it.
                server._launch(registered, bucket, pin=dict(tuned.params))
                marks.append(counts["simulate_kernel"])
                served["repinned"] = self._serve(server, 5)

        counts = count_entries((simulate_kernel,), body)
        warmed, after_warm, repinned = marks
        assert after_warm == warmed
        assert counts["simulate_kernel"] == repinned + 1
        _build, _kernel, want = _per_request(
            hopper, registered, bucket, served["tuned"][0].params
        )
        assert served["untuned"][0].params is None
        assert served["tuned"][0].params is not None
        for name in ("tuned", "repinned"):
            for result in served[name]:
                assert dataclasses.asdict(result.gpu) == dataclasses.asdict(
                    want
                )

    def _simulations_after(self, server_args, event):
        """Serve three requests, run ``event(server, bucket)``, serve five
        more: the results before and after, and the simulations the five
        ran."""
        marks = {}
        served = {}

        def body(counts):
            with RuntimeServer(*server_args, workers=1) as server:
                served["before"] = self._serve(server, 3)
                event(server, served["before"][0].bucket)
                marks.update(counts)
                served["after"] = self._serve(server, 5)

        counts = count_entries((simulate_kernel,), body)
        simulations = counts["simulate_kernel"] - marks["simulate_kernel"]
        return served["before"], served["after"], simulations

    def test_a_registration_leaves_the_record_alone(self, hopper):
        tasks, private_gemm = _private_tasks()
        seen = {}

        def register(server, bucket):
            seen.update(server=server, key=_served_key(server, "gemm", A))

            @tasks.external_function("later", cost_kind="nop")
            def later(x):
                x[...] = 0

            @tasks.task("later", Leaf, writes=["x"])
            def later_leaf(x):
                call_external("later", x)

        before, after, simulations = self._simulations_after(
            (hopper, _registry(private_gemm)), register
        )
        # The key covers only the externals the GEMM's leaves name, so
        # it still names the resident kernel.
        assert _served_key(seen["server"], "gemm", A) == seen["key"]
        assert simulations == 0
        assert all(r.tier == "memory" for r in after)
        assert all(r.gpu is before[0].gpu for r in after)

    def test_a_deopt_forget_simulates_once_more(self, hopper, registry):
        before, after, simulations = self._simulations_after(
            (hopper, registry),
            lambda server, bucket: server._forget("gemm", bucket),
        )
        assert simulations == 1
        assert after[0].gpu is not before[0].gpu
        assert after[0].gpu == before[0].gpu

    def test_racing_workers_serve_one_timing(self, hopper, registry):
        registered = registry.get("gemm")
        want = {
            registered.bucket(shape): _per_request(
                hopper, registered, registered.bucket(shape)
            )[2]
            for shape in (A, B)
        }
        marks = {}
        served = []
        launches = {}

        def body(counts):
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with RuntimeServer(
                    hopper, registry, workers=4, max_batch=1
                ) as server:
                    futures = [
                        server.submit("gemm", (A, B)[i % 2])
                        for i in range(40)
                    ]
                    served.extend(f.result(timeout=120) for f in futures)
                    marks.update(counts)
                    served.extend(self._serve(server, 5, A))
                    served.extend(self._serve(server, 5, B))
                    launches.update(
                        (bucket, server._launches[("gemm", bucket)])
                        for bucket in want
                    )
            finally:
                sys.setswitchinterval(interval)

        counts = count_entries((simulate_kernel,), body)
        # Racing first batches may each simulate (at most one per
        # worker per record); once one has stored, nothing simulates.
        assert 2 <= marks["simulate_kernel"] <= 8
        assert counts == marks
        for result in served:
            assert result.gpu == want[result.bucket]
        for result in served[40:]:
            assert result.gpu is launches[result.bucket].gpu

    def test_data_carrying_requests_interpret_each(self, hopper, registry):
        rng = np.random.default_rng(3)
        inputs = {
            "C": np.zeros((128, 256), np.float16),
            "A": (rng.standard_normal((128, 64)) * 0.1).astype(np.float16),
            "B": (rng.standard_normal((64, 256)) * 0.1).astype(np.float16),
        }
        served = []

        def body(counts):
            with RuntimeServer(hopper, registry, workers=1) as server:
                served.extend(self._serve(server, 4, inputs=inputs))

        counts = count_entries((simulate_kernel, interpret_function), body)
        assert counts == {"simulate_kernel": 1, "interpret_function": 4}
        for result in served:
            np.testing.assert_array_equal(
                result.outputs["C"], served[0].outputs["C"]
            )

    def test_a_served_timing_is_read_only(self, hopper, registry):
        with RuntimeServer(hopper, registry, workers=1) as server:
            result = server.submit("gemm", A).result(timeout=120)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.gpu.cycles = 0.0
