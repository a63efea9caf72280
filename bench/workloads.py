"""The five workloads: what one op is, how it is set up and checked.

Every workload drives the program only through its public functions
(``repro.api``, the kernel registry, ``RuntimeServer`` methods) and is
told nothing but its generated op list. The runner in
:mod:`bench.worker` owns the clock; a workload only says what happens
inside the timed call (``run``) and around it (``prepare`` before,
``check`` after — both untimed).

Set-up (``setup`` plus the warm-up pass) is timed as ``setup_s``.
References are computed afterwards, so they can neither warm the
program's caches for the set-up measurement nor count towards it.
"""

from __future__ import annotations

import hashlib
import re
import shutil
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from bench import reference
from bench.traffic import Op

#: One extra output check: what was checked, and why it failed if it did.
Check = Tuple[str, Optional[str]]

#: An op that has not resolved by then is failed ("times out").
OP_TIMEOUT_S = 60.0

#: Where disk-cache directories go: inside the checkout, untracked.
OUT_DIR = Path(__file__).resolve().parent / "out"


def distinct_first(ops: List[Op]) -> List[Op]:
    """The first op of every distinct ``key``, in list order — the
    warm-up pass: each kernel instantiation (or graph shape) the round
    needs is touched exactly once."""
    seen = set()
    out = []
    for op in ops:
        if op["key"] not in seen:
            seen.add(op["key"])
            out.append(op)
    return out


class Workload:
    """Base class; subclasses fill in the hooks they need."""

    name = ""

    def __init__(
        self, ops: List[Op], info: Dict[str, Any], smoke: bool = False
    ) -> None:
        self.ops = ops
        self.info = info
        self.smoke = smoke
        #: key -> simulated TFLOP/s of the seed-independent kernel
        #: instantiations (``sim_tflops_geomean`` is their geomean).
        self.sim_tflops: Dict[str, float] = {}

    # -- timed as set-up ------------------------------------------------
    def setup(self) -> None:
        """Program set-up calls: registry, server, warm."""

    def begin_round(self) -> None:
        """State a round starts from (also timed during warm-up)."""

    def end_round(self) -> None:
        """Tear down what ``begin_round`` created."""

    # -- untimed --------------------------------------------------------
    def learn(self, op: Op, result: Any) -> None:
        """See one warm-up result (cold_compile keeps it as reference)."""

    def prepare_references(self, full: bool) -> List[Check]:
        """Compute what ``check`` compares against. ``full`` adds the
        slow numeric checks, done once beside the timed ops; returns
        one ``(label, reason or None)`` per such check."""
        return []

    def prepare(self, op: Op) -> None:
        """Untimed work just before the timed call."""

    def run(self, op: Op) -> Any:
        """The timed call."""
        raise NotImplementedError

    def check(self, op: Op, result: Any) -> Optional[str]:
        """``None`` when ``result`` is right, else a one-line reason."""
        raise NotImplementedError

    def start_measuring(self) -> None:
        """Warm-up is over; counters kept for ``violations`` restart."""

    def violations(self) -> List[str]:
        """Workload-level conditions broken during the timed rounds
        (for example compile-cache misses on a warm workload)."""
        return []

    def facts(self) -> Dict[str, Any]:
        """Exact side observations worth keeping beside the metrics."""
        return {}

    def close(self) -> None:
        """Stop every thread and remove every file the workload made."""


def canonical_cuda(text: str) -> str:
    """Generated CUDA with every digit run that is glued to an
    identifier masked. Tensor, buffer and loop names embed uids from
    process-wide counters (``A#26``, ``A_gemm_tile_29``, ``i8_0``), so
    two compiles of one instantiation differ in exactly those digits;
    free-standing numbers (extents, offsets, stage counts) are kept."""
    return re.sub(r"(?<=[A-Za-z_#])\d+", "#", text)


def _same_gpu(got: Any, want: Any) -> Optional[str]:
    """Field-for-field equality of two ``GpuResult`` values."""
    if got == want:
        return None
    return f"GpuResult differs from the direct result: {got!r} != {want!r}"[:300]


# ----------------------------------------------------------------------
# cold_compile
# ----------------------------------------------------------------------
#: Twelve small instantiations run functionally at both stages against
#: the numpy references: (family, shape, builder keyword arguments).
NUMERIC_CASES = (
    ("gemm", dict(m=128, n=256, k=64),
     dict(tile_m=128, tile_n=256, tile_k=64)),
    ("gemm", dict(m=128, n=128, k=128),
     dict(tile_m=128, tile_n=128, tile_k=64, wgs=1, pipeline=1,
          warpspecialize=False)),
    ("gemm", dict(m=256, n=256, k=64),
     dict(tile_m=256, tile_n=256, tile_k=64, pipeline=2)),
    ("batched_gemm", dict(batch=2, m=128, n=256, k=64),
     dict(tile_m=128, tile_n=256, tile_k=64)),
    ("batched_gemm", dict(batch=1, m=128, n=128, k=128),
     dict(tile_m=128, tile_n=128, tile_k=64, wgs=1, warpspecialize=False)),
    ("dual_gemm", dict(m=128, n=256, k=64),
     dict(tile_m=128, tile_n=256, tile_k=64)),
    ("dual_gemm", dict(m=128, n=128, k=64),
     dict(tile_m=128, tile_n=128, tile_k=64, pipeline=2)),
    ("gemm_reduction", dict(m=128, n=256, k=64),
     dict(tile_m=128, tile_n=256, tile_k=64)),
    ("gemm_reduction", dict(m=128, n=256, k=64),
     dict(tile_m=128, tile_n=256, tile_k=64, accumulator="shared")),
    ("flash_attention2", dict(heads=1, seq=128, head_dim=128), dict()),
    ("flash_attention2", dict(heads=1, seq=128, head_dim=128),
     dict(warpspecialize=False, pipeline=1)),
    ("flash_attention3", dict(heads=1, seq=128, head_dim=128), dict()),
)


#: How far the simulated cycles of two cold compiles of one
#: instantiation may disagree. A compiler should repeat exactly, and for
#: four of the six families this one does. For the attention kernels the
#: shared-memory allocator breaks ties between equal-sized aliasing
#: candidates in set-iteration order, which follows the process-wide uid
#: counters — so a recompile can pick other offsets, insert one more
#: barrier, and move the simulated cycles — by up to 3.2% in 60 rounds
#: of drawn attention mappings at the seed commit (most on the smallest
#: kernels, where one barrier weighs most). Ops within the tolerance
#: pass and are counted in ``recompile_mismatches``; a deterministic
#: allocator brings that count to zero.
RECOMPILE_RTOL = 0.10


class ColdCompile(Workload):
    """op = clear the compile cache (untimed), then build, compile and
    simulate one kernel instantiation."""

    name = "cold_compile"

    def setup(self) -> None:
        from repro import api
        from repro.machine import ampere_machine, hopper_machine
        from repro.runtime import default_registry

        self.api = api
        self.registry = default_registry()
        self.machines = {
            "hopper": hopper_machine(),
            "ampere": ampere_machine(),
        }
        self.reference: Dict[str, Any] = {}
        #: Timed ops whose generated code (up to uids) or simulated
        #: result differed from the same instantiation's first compile.
        self.recompile_mismatches = 0

    def build(self, op: Op):
        """The op's ``KernelBuild`` and target machine."""
        registered = self.registry.get(op["family"])
        machine = self.machines[op["machine"]]
        build = registered.build(
            machine, registered.exact_bucket(op["shape"]), op["params"]
        )
        return build, machine

    def prepare(self, op: Op) -> None:
        self.api.clear_compile_cache()

    def run(self, op: Op):
        build, machine = self.build(op)
        kernel = self.api.compile_kernel(build)
        return kernel, self.api.simulate(kernel, machine)

    @staticmethod
    def _fingerprint(result) -> Any:
        kernel, gpu = result
        text = canonical_cuda(kernel.cuda_source)
        return hashlib.sha256(text.encode()).hexdigest(), gpu

    def learn(self, op: Op, result) -> None:
        # The first cold compile of an instantiation is the reference
        # for every later one.
        self.reference[op["key"]] = self._fingerprint(result)
        if op["paper"]:
            self.sim_tflops[op["key"]] = result[1].tflops

    def check(self, op: Op, result) -> Optional[str]:
        want = self.reference[op["key"]]
        got = self._fingerprint(result)
        if got != want:
            self.recompile_mismatches += 1
        want_gpu, got_gpu = want[1], got[1]
        if got_gpu.grid != want_gpu.grid:
            return f"grid {got_gpu.grid}, first compile had {want_gpu.grid}"
        drift = abs(got_gpu.cycles - want_gpu.cycles) / want_gpu.cycles
        if not drift <= RECOMPILE_RTOL:
            return (
                f"simulated cycles {got_gpu.cycles:.6g} drift {drift:.3g} "
                f"from the first compile's {want_gpu.cycles:.6g}"
            )
        return None

    def facts(self) -> Dict[str, Any]:
        return dict(self.info, recompile_mismatches=self.recompile_mismatches)

    def prepare_references(self, full: bool) -> List[Check]:
        if not full:
            return []
        from repro.kernels import KERNEL_BUILDERS

        checks = []
        machine = self.machines["hopper"]
        # Smoke keeps every fourth case (gemm, batched, reduction).
        cases = NUMERIC_CASES[::4] if self.smoke else NUMERIC_CASES
        for family, shape, params in cases:
            build = KERNEL_BUILDERS[family](machine, **shape, **params)
            kernel = self.api.compile_kernel(build)
            inputs = reference.make_inputs(family, shape, shape, 12)
            want = reference.expected(family, inputs)
            for stage in (self.api.Stage.DEPENDENCE, self.api.Stage.FINAL):
                outputs = self.api.run_functional(kernel, inputs, stage=stage)
                checks.append(
                    (
                        f"numeric {build.name} {stage.value}",
                        reference.mismatch(family, outputs, want),
                    )
                )
        return checks


# ----------------------------------------------------------------------
# Served workloads
# ----------------------------------------------------------------------
class _Served(Workload):
    """Shared by the workloads that go through ``api.serve``."""

    workers = 1
    #: Every kernel is compiled before the timed rounds start.
    warm = True

    def setup(self) -> None:
        from repro import api
        from repro.machine import hopper_machine
        from repro.runtime import default_registry

        self.api = api
        self.machine = hopper_machine()
        self.registry = default_registry()
        self.server = None
        self.reference: Dict[str, Any] = {}
        self._misses = 0
        self._misses_at = 0

    def serve(self, **kwargs):
        """A server as this workload configures it; ``kwargs`` add to
        (or override) ``api.serve`` arguments."""
        options = dict(registry=self.registry, workers=self.workers)
        options.update(kwargs)
        return self.api.serve(self.machine, **options)

    def direct(self, family: str, shape: Dict[str, int]):
        """``(bucket, GpuResult)`` from the one-shot API for the bucket
        ``shape`` rounds to — what a served result must equal."""
        registered = self.registry.get(family)
        bucket = registered.bucket(shape)
        build = registered.build(self.machine, bucket)
        kernel = self.api.compile_kernel(build)
        return bucket, self.api.simulate(kernel, self.machine)

    def prepare_references(self, full: bool) -> List[Check]:
        for op in distinct_first(self.ops):
            bucket, gpu = self.direct(op["family"], op["bucket"])
            self.reference[op["key"]] = (bucket, gpu)
            self.sim_tflops[op["key"]] = gpu.tflops
        return []

    def run(self, op: Op):
        return self.server.submit(op["family"], op["shape"]).result(
            timeout=OP_TIMEOUT_S
        )

    def check(self, op: Op, result) -> Optional[str]:
        bucket, gpu = self.reference[op["key"]]
        if result.bucket != bucket:
            return f"served bucket {result.bucket.label()}, want {bucket.label()}"
        return _same_gpu(result.gpu, gpu)

    # A warm workload runs zero passes: compile-cache misses inside
    # its timed rounds are a violation.
    def begin_round(self) -> None:
        self._misses_at = self.api.compile_cache_stats().misses

    def end_round(self) -> None:
        self._misses += (
            self.api.compile_cache_stats().misses - self._misses_at
        )

    def start_measuring(self) -> None:
        self._misses = 0

    def violations(self) -> List[str]:
        if self.warm and self._misses:
            return [f"{self._misses} compile-cache misses in timed rounds"]
        return []

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


class _Warm(_Served):
    """A server whose every bucket is compiled in set-up."""

    def setup(self) -> None:
        super().setup()
        self.server = self.serve()
        by_family: Dict[str, List[Dict[str, int]]] = {}
        for op in distinct_first(self.ops):
            by_family.setdefault(op["family"], []).append(op["bucket"])
        for family, buckets in by_family.items():
            self.server.warm(family, buckets)

    def check(self, op: Op, result) -> Optional[str]:
        if result.tier != "memory":
            return f"tier {result.tier!r} on a warm server, want 'memory'"
        return super().check(op, result)


class WarmServe(_Warm):
    """op = one timing-only ``submit().result()`` on a warm server."""

    name = "warm_serve"


class FunctionalServe(_Warm):
    """op = one data-carrying ``submit(inputs=...).result()``."""

    name = "functional_serve"

    def __init__(self, ops: List[Op], info: Dict[str, Any], smoke: bool = False) -> None:
        super().__init__(ops, info, smoke)
        # Request payloads are generated inputs, not program set-up.
        self.inputs = {
            op["id"]: reference.make_inputs(
                op["family"], op["shape"], op["bucket"], op["data_seed"]
            )
            for op in ops
        }

    def prepare_references(self, full: bool) -> List[Check]:
        super().prepare_references(full)
        self.want = {
            op["id"]: reference.expected(op["family"], self.inputs[op["id"]])
            for op in self.ops
        }
        return []

    def run(self, op: Op):
        return self.server.submit(
            op["family"], op["shape"], inputs=self.inputs[op["id"]]
        ).result(timeout=OP_TIMEOUT_S)

    def check(self, op: Op, result) -> Optional[str]:
        reason = super().check(op, result)
        if reason:
            return reason
        return reference.mismatch(
            op["family"], result.outputs, self.want[op["id"]]
        )


class ShiftServe(_Served):
    """op = one timing-only request while the hot set shifts across 48
    buckets, the memory cache holds 16, and the server restarts once on
    the same disk directory (see :func:`bench.traffic._shift_serve`)."""

    name = "shift_serve"
    workers = 2
    warm = False
    memory_capacity = 16

    def setup(self) -> None:
        super().setup()
        self.api.resize_compile_cache(self.memory_capacity)
        OUT_DIR.mkdir(exist_ok=True)
        self.base = Path(tempfile.mkdtemp(prefix="disk-", dir=OUT_DIR))
        #: Compile-cache evictions of each round so far.
        self.round_evictions: List[int] = []

    def begin_round(self) -> None:
        self.directory = self.base / f"round{len(self.round_evictions)}"
        self.api.clear_compile_cache()
        self.round_evictions.append(0)
        self.server = self.serve(disk_cache=str(self.directory))
        self.epoch = 0
        # The benchmark's model of the cache state, for the tier check:
        # an LRU of ``memory_capacity`` keys over a set of keys on disk.
        self._memory: "OrderedDict[str, bool]" = OrderedDict()
        self._disk = set()

    def _restart(self) -> None:
        self.server.close()
        self.round_evictions[-1] += self.api.compile_cache_stats().evictions
        self.api.clear_compile_cache()
        self.server = self.serve(disk_cache=str(self.directory))
        self._memory.clear()
        self.epoch = 1

    def prepare(self, op: Op) -> None:
        if op["epoch"] != self.epoch:
            self._restart()
        key = op["key"]
        if key in self._memory:
            self._memory.move_to_end(key)
            self.expected_tier = "memory"
            return
        self.expected_tier = "disk" if key in self._disk else "compile"
        self._disk.add(key)
        self._memory[key] = True
        while len(self._memory) > self.memory_capacity:
            self._memory.popitem(last=False)

    def check(self, op: Op, result) -> Optional[str]:
        if result.tier != self.expected_tier:
            return (
                f"tier {result.tier!r} but the cache state says "
                f"{self.expected_tier!r}"
            )
        return super().check(op, result)

    def end_round(self) -> None:
        self.server.close()
        self.server = None
        self.round_evictions[-1] += self.api.compile_cache_stats().evictions
        shutil.rmtree(self.directory, ignore_errors=True)

    def prepare_references(self, full: bool) -> List[Check]:
        super().prepare_references(full)
        self.api.clear_compile_cache()
        return []

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.base, ignore_errors=True)


#: Small block the graph's functional check runs on (the default block
#: takes minutes to interpret); every node shape is tile-aligned.
GRAPH_CHECK_DIMS = dict(seq=256, d_model=256, heads=2, d_ff=256)


class GraphReplay(_Served):
    """op = capture a transformer-block graph of 1-3 streams, then
    ``submit_graph().result()`` on a two-worker server."""

    name = "graph_replay"
    workers = 2

    def setup(self) -> None:
        super().setup()
        from repro.kernels import transformer_block_graph

        self.capture = transformer_block_graph
        # The default registry, as a caller of ``api.serve(machine)``
        # and ``transformer_block_graph(machine)`` gets it.
        self.server = self.api.serve(self.machine, workers=self.workers)

    def run(self, op: Op):
        graph = self.capture(self.machine, streams=op["streams"])
        return self.server.submit_graph(graph).result(timeout=OP_TIMEOUT_S)

    def prepare_references(self, full: bool) -> List[Check]:
        graph = self.capture(self.machine, streams=1)
        for node in graph.nodes:
            bucket, gpu = self.direct(node.kernel, node.shape)
            key = f"{node.kernel}/{bucket.label()}"
            self.reference[key] = gpu
            self.sim_tflops[key] = gpu.tflops
        if not full:
            return []
        import numpy as np
        from repro.kernels import (
            transformer_block_inputs,
            transformer_block_reference,
        )

        dims = GRAPH_CHECK_DIMS
        small = self.capture(self.machine, **dims)
        inputs = transformer_block_inputs(
            seq=dims["seq"], d_model=dims["d_model"], d_ff=dims["d_ff"],
            seed=12,
        )
        got = self.api.run_graph(small, inputs)["Y"].astype(np.float32)
        want = transformer_block_reference(inputs, heads=dims["heads"])
        worst = float(np.max(np.abs(got - want)))
        ok = worst <= reference.ATOL
        return [("run_graph Y", None if ok else f"off by {worst:.4g}")]

    def check(self, op: Op, result) -> Optional[str]:
        if not result.complete:
            return (
                f"graph incomplete: {len(result.failed)} failed, "
                f"{len(result.skipped)} skipped"
            )
        if len(result.results) != 7 * op["streams"]:
            return f"{len(result.results)} node results, want {7 * op['streams']}"
        for uid, node_result in result.results.items():
            node = result.graph.node(uid)
            bucket = self.server.registry.get(node.kernel).bucket(node.shape)
            if node_result.bucket != bucket:
                return f"node {node.label}: bucket {node_result.bucket.label()}"
            reason = _same_gpu(
                node_result.gpu,
                self.reference[f"{node.kernel}/{bucket.label()}"],
            )
            if reason:
                return f"node {node.label}: {reason}"
        return None


WORKLOADS = {
    cls.name: cls
    for cls in (ColdCompile, WarmServe, FunctionalServe, ShiftServe, GraphReplay)
}
