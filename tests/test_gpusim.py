"""Tests for the GPU simulator: resources, executor, GPU model."""

import pytest

from repro import api
from repro.errors import SimulationError
from repro.gpusim import Instr, KernelSchedule, Segment
from repro.gpusim.engine import Resource, ResourcePool
from repro.gpusim.executor import simulate_cta
from repro.gpusim.gpu import simulate_kernel
from repro.gpusim.roofline import occupancy, roofline
from repro.kernels import build_gemm
from repro.machine import hopper_machine
from repro.tuner import AnalyticCostModel


class TestResources:
    def test_serial_reservation(self):
        res = Resource("r")
        assert res.reserve(0.0, 10.0) == 10.0
        assert res.reserve(0.0, 10.0) == 20.0  # queued behind
        assert res.reserve(100.0, 5.0) == 105.0
        assert res.busy == 25.0

    def test_pool_models(self, hopper):
        pool = ResourcePool(roofline(hopper))
        # wgmma on the tensor core: flops / per-cycle throughput
        instr = Instr(uid=1, kind="wgmma", flops=378500.0)
        finish = pool.completion("wgmma", 0.0, instr)
        assert finish == pytest.approx(100.0, rel=0.01)

    def test_tma_includes_latency(self, hopper):
        pool = ResourcePool(roofline(hopper))
        instr = Instr(uid=1, kind="tma_load", bytes_moved=4096)
        finish = pool.completion("tma_load", 0.0, instr)
        assert finish > hopper.specs["tma_latency_cycles"]

    def test_nop_is_free(self, hopper):
        pool = ResourcePool(roofline(hopper))
        instr = Instr(uid=1, kind="nop")
        assert pool.completion("nop", 42.0, instr) == 42.0


def _loop_schedule(
    warpspecialized, pipeline, extent=16, grid=132, smem=200 * 1024
):
    load = Instr(
        uid=1, kind="tma_load", role="dma", bytes_moved=32768,
        war_distance=pipeline, war_consumers=[2],
    )
    mma = Instr(
        uid=2, kind="wgmma", role="compute",
        flops=4.0e6, deps=[1],
    )
    return KernelSchedule(
        name="test",
        segments=[Segment([load, mma], extent=extent, pipeline=pipeline)],
        grid=grid,
        n_warpgroups=2,
        warpspecialized=warpspecialized,
        smem_bytes_per_cta=smem,
        regs_per_thread=64,
        total_flops=4.0e6 * extent * grid,
        unique_dram_bytes=1.0e6,
    )


class TestExecutor:
    def test_pipelining_overlaps_copy_and_compute(self, hopper):
        roof = roofline(hopper)
        serial = simulate_cta(_loop_schedule(True, pipeline=1), roof)
        pipelined = simulate_cta(_loop_schedule(True, pipeline=3), roof)
        assert pipelined.cycles < serial.cycles * 0.75

    def test_warpspec_at_least_as_fast(self, hopper):
        roof = roofline(hopper)
        single = simulate_cta(_loop_schedule(False, pipeline=3), roof)
        ws = simulate_cta(_loop_schedule(True, pipeline=3), roof)
        assert ws.cycles <= single.cycles * 1.05

    def test_busy_accounting(self, hopper):
        result = simulate_cta(_loop_schedule(True, 3), roofline(hopper))
        assert result.busy["tensor"] > 0
        assert result.busy["tma"] > 0
        assert result.busy["tensor"] <= result.cycles

    def test_deadlock_detected(self, hopper):
        a = Instr(uid=1, kind="wgmma", flops=1.0, deps=[2])
        b = Instr(uid=2, kind="wgmma", flops=1.0, deps=[1])
        schedule = KernelSchedule(
            name="dead",
            segments=[Segment([a, b])],
            grid=1, n_warpgroups=1, warpspecialized=False,
            smem_bytes_per_cta=0, regs_per_thread=32,
            total_flops=1.0, unique_dram_bytes=1.0,
        )
        with pytest.raises(SimulationError, match="wg0 .*uid 1.* uid 2"):
            simulate_cta(schedule, roofline(hopper))

    def test_deadlock_names_every_blocked_stream(self, hopper):
        load = Instr(uid=7, kind="tma_load", role="dma", bytes_moved=64,
                     deps=[8], label="load A")
        mma = Instr(uid=8, kind="wgmma", flops=1.0, deps=[7])
        schedule = KernelSchedule(
            name="dead",
            segments=[Segment([Instr(uid=6, kind="nop")]),
                      Segment([load, mma], extent=3)],
            grid=1, n_warpgroups=1, warpspecialized=True,
            smem_bytes_per_cta=0, regs_per_thread=32,
            total_flops=1.0, unique_dram_bytes=1.0,
        )
        with pytest.raises(SimulationError) as caught:
            simulate_cta(schedule, roofline(hopper))
        message = str(caught.value)
        assert message.startswith("schedule deadlocked")
        assert (
            "wg0 is at 'wgmma' (uid 8, iteration 0) waiting on uid 7 "
            "(segment 1, iteration 0)"
        ) in message
        assert (
            "dma is at 'load A' (uid 7, iteration 0) waiting on uid 8 "
            "(segment 1, iteration 0)"
        ) in message

    def test_dependence_in_no_segment_is_its_own_error(self, hopper):
        schedule = KernelSchedule(
            name="dangling",
            segments=[Segment([Instr(uid=1, kind="nop", deps=[99])])],
            grid=1, n_warpgroups=1, warpspecialized=False,
            smem_bytes_per_cta=0, regs_per_thread=32,
            total_flops=1.0, unique_dram_bytes=1.0,
        )
        with pytest.raises(SimulationError, match="unknown uid 99"):
            simulate_cta(schedule, roofline(hopper))

    @pytest.mark.parametrize(
        "family, shape",
        [
            ("gemm", dict(m=4096, n=4096, k=4096)),
            ("flash_attention3", dict(heads=16, seq=4096, head_dim=128)),
        ],
    )
    def test_simulating_a_kernel_does_not_change_it(
        self, hopper, family, shape
    ):
        """The compiled kernel is shared (memory cache) and pickled
        (disk tier): a simulation may read it, never write to it."""
        import pickle

        from repro import api
        from repro.kernels import KERNEL_BUILDERS

        kernel = api.compile_kernel(KERNEL_BUILDERS[family](hopper, **shape))
        instrs = [
            i for segment in kernel.schedule.segments for i in segment.instrs
        ]
        assert kernel.schedule.n_warpgroups > 1  # per-warpgroup shares exist
        pickled = pickle.dumps(kernel)
        state = [dict(vars(i)) for i in instrs]
        api.simulate(kernel, hopper)
        assert [dict(vars(i)) for i in instrs] == state
        assert pickle.dumps(kernel) == pickled

    def test_head_resolutions_stay_linear(self, hopper, monkeypatch):
        """Complexity guard, as a count: an issue re-resolves the head
        that advanced and the heads that were blocked, not every stream.
        Resolving all of them took streams x dynamic instructions
        (5,777 for the 1,927 of this dual-GEMM point)."""
        from repro import api
        from repro.gpusim import executor
        from repro.kernels import KERNEL_BUILDERS

        kernel = api.compile_kernel(
            KERNEL_BUILDERS["dual_gemm"](hopper, m=8192, n=8192, k=8192)
        )
        resolve = executor._deps_ready
        calls = []
        monkeypatch.setattr(
            executor, "_deps_ready",
            lambda *args: calls.append(1) or resolve(*args),
        )
        result = simulate_cta(kernel.schedule, roofline(hopper))
        assert result.dynamic_instructions == 1927
        assert result.dynamic_instructions <= len(calls)
        assert len(calls) <= 2 * result.dynamic_instructions

    @pytest.mark.parametrize("edge", ["carried", "war"])
    def test_unknown_uid_raises_only_once_it_applies(self, hopper, edge):
        """A carried or write-after-read edge to a uid in no segment is
        an error from the iteration it applies on, not before: with a
        distance past the last iteration the loop simulates."""

        def loop(distance):
            edges = (
                dict(carried_deps=[(99, distance)]) if edge == "carried"
                else dict(war_distance=distance, war_consumers=[99])
            )
            return KernelSchedule(
                name="late-edge",
                segments=[Segment(
                    [Instr(uid=1, kind="simt", flops=64.0, **edges)],
                    extent=3,
                )],
                grid=1, n_warpgroups=1, warpspecialized=False,
                smem_bytes_per_cta=0, regs_per_thread=32,
                total_flops=1.0, unique_dram_bytes=1.0,
            )

        roof = roofline(hopper)
        assert simulate_cta(loop(3), roof).dynamic_instructions == 3
        with pytest.raises(SimulationError, match="unknown uid 99"):
            simulate_cta(loop(2), roof)

    @pytest.mark.parametrize("n_warpgroups", [1, 2])
    def test_prefetched_loop_waits_on_an_earlier_segment(
        self, hopper, n_warpgroups
    ):
        """One stream, a pipelined loop whose copies are issued two
        iterations early and whose compute also waits on the final
        iteration of a producer in the segment before it."""
        from test_executor_oracle import assert_agrees

        # On its own resource and slow, so each of its iterations
        # finishes well after the copies: waiting on its first one
        # instead of its last would show in the cycles.
        producer = Instr(uid=1, kind="tma_store", bytes_moved=1 << 20)
        copy = Instr(uid=2, kind="cp_async", role="dma", bytes_moved=16384)
        mma = Instr(uid=3, kind="mma_sync", flops=1.0e6, deps=[2, 1])
        schedule = KernelSchedule(
            name="prefetch",
            segments=[
                Segment([producer], extent=2),
                Segment([copy, mma], extent=5, pipeline=3),
            ],
            grid=1, n_warpgroups=n_warpgroups, warpspecialized=False,
            smem_bytes_per_cta=0, regs_per_thread=32,
            total_flops=1.0, unique_dram_bytes=1.0,
        )
        cycles, _, _, dynamic = assert_agrees(schedule, hopper)
        assert dynamic == 2 * n_warpgroups + 5 + 5 * n_warpgroups
        assert cycles > 0

    def test_cross_segment_dependency(self, hopper):
        producer = Instr(uid=1, kind="wgmma", flops=1.0e6)
        consumer = Instr(uid=2, kind="simt", flops=100.0, deps=[1])
        schedule = KernelSchedule(
            name="xseg",
            segments=[Segment([producer], extent=4), Segment([consumer])],
            grid=1, n_warpgroups=1, warpspecialized=False,
            smem_bytes_per_cta=0, regs_per_thread=32,
            total_flops=1.0, unique_dram_bytes=1.0,
        )
        result = simulate_cta(schedule, roofline(hopper))
        assert result.cycles > 0

    def test_duplicate_uid_rejected(self):
        a = Instr(uid=1, kind="nop")
        b = Instr(uid=1, kind="nop")
        with pytest.raises(SimulationError):
            KernelSchedule(
                name="dup", segments=[Segment([a, b])], grid=1,
                n_warpgroups=1, warpspecialized=False,
                smem_bytes_per_cta=0, regs_per_thread=32,
                total_flops=1.0, unique_dram_bytes=1.0,
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            Instr(uid=1, kind="teleport")


class TestGpuModel:
    def test_occupancy_limited_by_smem(self, hopper):
        schedule = _loop_schedule(True, 3, smem=64 * 1024)
        roof = roofline(hopper)

        def ctas_per_sm():
            return occupancy(
                roof,
                schedule.smem_bytes_per_cta,
                schedule.threads_per_cta,
                schedule.regs_per_thread,
            )

        assert ctas_per_sm() >= 2
        schedule.smem_bytes_per_cta = 200 * 1024
        assert ctas_per_sm() == 1

    def test_wave_quantization(self, hopper):
        one_wave = simulate_kernel(_loop_schedule(True, 3, grid=132), hopper)
        two_waves = simulate_kernel(
            _loop_schedule(True, 3, grid=133), hopper
        )
        # one extra CTA costs a partial extra wave
        assert two_waves.seconds > one_wave.seconds * 1.1

    def test_persistent_avoids_tail(self, hopper):
        normal = _loop_schedule(True, 3, grid=133)
        persistent = _loop_schedule(True, 3, grid=133)
        persistent.metadata["persistent"] = True
        n = simulate_kernel(normal, hopper)
        p = simulate_kernel(persistent, hopper)
        assert p.seconds < n.seconds

    def test_hbm_roofline_binds_streaming(self, hopper):
        # A schedule that moves far more unique bytes than it computes
        # must be bound by HBM bandwidth, not compute.
        schedule = _loop_schedule(True, 3)
        schedule.unique_dram_bytes = 1e12
        result = simulate_kernel(schedule, hopper)
        clock = hopper.specs["clock_ghz"] * 1e9
        hbm_seconds = 1e12 / (hopper.specs["hbm_bandwidth_tb_s"] * 1e12)
        assert result.seconds >= hbm_seconds * 0.99

    def test_throttle_engages_at_high_tensor_util(self, hopper):
        result = simulate_kernel(_loop_schedule(True, 3), hopper)
        # This schedule is tensor-bound; the deterministic throttle
        # must reduce the clock below nominal.
        assert result.clock_scale < 1.0

    def test_summary_mentions_tflops(self, hopper):
        result = simulate_kernel(_loop_schedule(True, 3), hopper)
        assert "TFLOP/s" in result.summary()


class TestRooflineFollowsTheMachine:
    """Rates are derived from a machine's current specs, as its compile
    key is: a machine whose specs change in place simulates and scores
    like a fresh machine with those specs, after a run that read the
    old ones."""

    def test_specs_mutated_in_place(self):
        machine = hopper_machine()
        build = build_gemm(machine, 1024, 1024, 1024)
        kernel = api.compile_kernel(build)
        model = AnalyticCostModel()
        before = api.simulate(kernel, machine)
        model.score(build, machine)  # memoized under the old specs
        machine.specs["clock_ghz"] /= 2
        fresh = hopper_machine()
        fresh.specs["clock_ghz"] = machine.specs["clock_ghz"]
        after = api.simulate(kernel, machine)
        assert after == api.simulate(kernel, fresh)
        assert after.tflops < before.tflops
        assert model.score(build, machine) == model.score(build, fresh)

