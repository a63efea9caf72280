"""The traced run: where an op's time goes, layer by layer.

End-to-end numbers come only from the untraced run. Here the benchmark
runs each workload's op list again and, beside every real op, drives
the same stages itself through the program's public functions in the
order the program calls them —

    registry.get -> registered.bucket -> registered.build ->
    compile_key_for -> compile-cache probe -> DependenceAnalysis.run ->
    clone_function -> PassManager.run -> simulate_kernel /
    interpret_function

— one span per call (:mod:`bench.spans`), and checks the staged result
against the real path's. Nothing inside the program is patched or
wrapped: a layer's time is the time of the benchmark's own call into
it, and what the real path spends outside those calls (queue, hand-off
between threads, futures, telemetry) is ``runtime.server.overhead_ms``
by subtraction.

``*.calls`` rows come from a separate counted pass under
``sys.setprofile`` (which slows everything, so nothing is timed there);
counts are taken on a fixed prefix of the op list and repeat exactly.

Every workload reports all 67 per-layer names; a layer the workload
never enters reads 0.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from bench import hostspeed, schema, stats
from bench.spans import Recorder
from bench.workloads import (
    OP_TIMEOUT_S,
    OUT_DIR,
    RECOMPILE_RTOL,
    ColdCompile,
    GraphReplay,
    ShiftServe,
    canonical_cuda,
    distinct_first,
)
from bench.worker import FIRST_BURST_MS, good, run_round, scaled

#: Ops the counted pass executes (a prefix of the round, or for
#: ``shift_serve`` the ops before the restart).
COUNTED_OPS = {
    "cold_compile": 24,
    "warm_serve": 100,
    "functional_serve": 4,
    "shift_serve": 60,
    "graph_replay": 20,
}

#: Client think time of the background-loops pass of ``shift_serve``:
#: the speculator and the specializer only run while the queue is idle.
THINK_S = 0.010

#: Requests compared with the program's own tracer on and off.
SIDE_SAMPLES = 200


class Rows:
    """The per-layer table under construction: name -> row."""

    def __init__(self) -> None:
        self.rows: Dict[str, Dict[str, Any]] = {}

    def put(self, name: str, value: float, n: int = 1) -> None:
        self.rows[name] = {
            "value": value, "unit": schema.UNITS[name], "n": n,
        }

    def median_ms(self, name: str, seconds: List[float]) -> float:
        """Record the median of ``seconds`` (as ms) under ``name``;
        returns it, 0.0 for an empty sample."""
        if not seconds:
            return 0.0
        value = stats.median(seconds) * 1e3
        self.put(name, value, len(seconds))
        return value

    def value(self, name: str) -> float:
        """What ``name`` reads so far (0.0 when nothing was put)."""
        return self.rows[name]["value"] if name in self.rows else 0.0

    def complete(self) -> Dict[str, Dict[str, Any]]:
        """Every catalogue name, unexercised layers reading 0."""
        for name in schema.PER_LAYER_NAMES:
            if name not in self.rows:
                self.put(name, 0.0, 0)
        return {name: self.rows[name] for name in schema.PER_LAYER_NAMES}


# ----------------------------------------------------------------------
# Staged paths
# ----------------------------------------------------------------------
def _options(build):
    """The options ``api.compile_kernel(build)`` compiles with."""
    from repro.compiler.passes import CompileOptions

    return CompileOptions(scalar_args=build.scalar_args)


def staged_compile(rec: Recorder, build) -> Dict[str, Any]:
    """``compile_program``'s cache-miss path, one span per stage.
    Returns the backend artifacts plus the exact counts of the run."""
    from repro.compiler.dependence import DependenceAnalysis
    from repro.compiler.passes import PassContext, PassManager
    from repro.compiler.pipeline import _block_instance
    from repro.ir.clone import clone_function

    options = _options(build)
    analysis = DependenceAnalysis(build.spec, build.name)
    fn = rec.call(
        "compiler.dependence.run", analysis.run,
        build.arg_shapes, build.arg_dtypes, options.scalar_args,
    )
    ops_out = sum(1 for _ in fn.walk())
    rec.call("ir.clone", clone_function, fn)
    ctx = PassContext(
        spec=build.spec,
        kernel_name=build.name,
        arg_shapes=build.arg_shapes,
        arg_dtypes=build.arg_dtypes,
        total_flops=build.total_flops,
        unique_dram_bytes=build.unique_dram_bytes,
        options=options,
        block_mapping=_block_instance(build.spec),
    )
    manager = PassManager(options.passes, verify=options.verify)
    trace = rec.call("compiler.passes.run", manager.run, fn, ctx)
    run_span = rec.last
    removed = {}
    for record in trace.records:
        # The verifier runs between passes, so the run span's self time
        # (its duration minus these children) is verification.
        rec.record(
            f"compiler.passes.{record.name}",
            record.started_at_s,
            record.started_at_s + record.wall_time_s,
            run_span,
        )
        removed[record.name] = record.ops_before - record.ops_after
    return {
        "schedule": ctx.artifacts["schedule"],
        "cuda": canonical_cuda(ctx.artifacts["cuda_source"]),
        "ops_out": ops_out,
        "removed": removed,
    }


def staged_lookup(rec: Recorder, workload, family: str, shape) -> Dict[str, Any]:
    """A request's path up to the compile-cache probe."""
    from repro.compiler.cache import compile_cache
    from repro.compiler.pipeline import compile_key_for

    registered = rec.call(
        "runtime.registry.get", workload.registry.get, family
    )
    bucket = rec.call("runtime.bucketing.bucket", registered.bucket, shape)
    build = rec.call(
        "kernels.build", registered.build, workload.machine, bucket
    )
    key = rec.call(
        "compiler.cache.key", compile_key_for, build, _options(build)
    )
    kernel = rec.call("compiler.cache.hit", compile_cache.get, key)
    return {
        "registered": registered, "bucket": bucket, "build": build,
        "key": key, "kernel": kernel,
    }


def _gpu_close(got, want) -> bool:
    return got.grid == want.grid and (
        abs(got.cycles - want.cycles) <= RECOMPILE_RTOL * want.cycles
    )


class Counts:
    """Exact sums over the traced round."""

    def __init__(self) -> None:
        self.sums: Counter = Counter()
        #: Staged results that differed from the real path's within the
        #: recompile tolerance (see ``workloads.RECOMPILE_RTOL``).
        self.staged_mismatches = 0

    def compiled(self, staged: Dict[str, Any]) -> None:
        self.sums["ops_out"] += staged["ops_out"]
        self.sums["vectorize"] += staged["removed"].get("vectorize", 0)
        self.sums["copy-elim"] += staged["removed"].get("copy-elim", 0)
        self.sums["cuda_bytes"] += len(staged["cuda"])

    def simulated(self, schedule) -> None:
        self.sums["dyn_instrs"] += schedule.dynamic_instruction_count()


# ----------------------------------------------------------------------
# Traced rounds, one per kind of workload
# ----------------------------------------------------------------------
class Traced:
    """What a traced round leaves behind for the table."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.counts = Counts()
        self.failures: Counter = Counter()
        #: One host-speed reading before the first op and one after
        #: every op (real and staged paths together).
        self.probes: List[float] = []
        #: ``(op, result, index of its "op.real" span)`` per checked op.
        self.results: List[Any] = []
        #: Cost-model predictions beside simulated cycles (cold_compile).
        self.predicted: List[float] = []
        self.simulated: List[float] = []
        #: Mean bytes of a stored disk-cache entry (shift_serve).
        self.disk_entry_bytes: Optional[float] = None
        #: Useful GFLOP of the buckets interpreted (functional_serve).
        self.interpreted_gflop = 0.0

    def checked_ops(self, workload, run: Callable[[Any], Any]):
        """Run every op of the round through ``run`` inside an
        ``op.real`` span and yield ``(op, result)`` for those whose
        output checks out; the others are counted as failures."""
        rec = self.rec
        self.probes.append(hostspeed.burst(FIRST_BURST_MS))
        for op in workload.ops:
            rec.op = op["id"]
            workload.prepare(op)
            began = time.perf_counter()
            try:
                result = rec.call("op.real", run, op)
            except Exception as error:
                reason = f"{type(error).__name__}: {error}"
            else:
                reason = workload.check(op, result)
            if reason:
                self.failures[reason[:200]] += 1
            else:
                self.results.append((op, result, rec.last))
                yield op, result  # the caller's staged path runs here
            self.probes.append(
                hostspeed.burst((time.perf_counter() - began) * 1e3)
            )
        rec.op = None


def _traced_cold(workload: ColdCompile, traced: Traced) -> None:
    from repro.compiler.pipeline import compile_key_for
    from repro.gpusim.gpu import simulate_kernel
    from repro.tuner import AnalyticCostModel

    rec, counts = traced.rec, traced.counts
    model = AnalyticCostModel()
    for op, (kernel, gpu) in traced.checked_ops(workload, workload.run):

        def staged():
            registered = rec.call(
                "runtime.registry.get", workload.registry.get, op["family"]
            )
            machine = workload.machines[op["machine"]]
            build = rec.call(
                "kernels.build", registered.build, machine,
                registered.exact_bucket(op["shape"]), op["params"],
            )
            rec.call("compiler.cache.key", compile_key_for, build,
                     _options(build))
            out = staged_compile(rec, build)
            out["gpu"] = rec.call(
                "gpusim.executor.simulate", simulate_kernel,
                out["schedule"], machine,
            )
            out["build"], out["machine"] = build, machine
            return out

        out = rec.call("op.staged", staged)
        counts.compiled(out)
        counts.simulated(out["schedule"])
        if out["cuda"] != canonical_cuda(kernel.cuda_source) or out["gpu"] != gpu:
            counts.staged_mismatches += 1
            if not _gpu_close(out["gpu"], gpu):
                traced.failures[
                    "staged compile disagrees with api.compile_kernel"
                ] += 1
        rec.call(
            "frontend.mapping.fingerprint", out["build"].spec.fingerprint
        )
        estimate = rec.call(
            "tuner.costmodel.score", model.score, out["build"],
            out["machine"], memoize=False,
        )
        traced.predicted.append(estimate.cycles)
        traced.simulated.append(gpu.cycles)


def _traced_served(workload, traced: Traced) -> None:
    from repro.gpusim.functional import interpret_function
    from repro.gpusim.gpu import simulate_kernel
    from repro.kernels import kernel_registry
    from repro.runtime import DiskCacheTier

    rec, counts, failures = traced.rec, traced.counts, traced.failures
    scratch = None
    if isinstance(workload, ShiftServe):
        scratch = DiskCacheTier(
            tempfile.mkdtemp(prefix="store-", dir=workload.base)
        )
    inputs = getattr(workload, "inputs", None)
    workload.begin_round()
    for op, result in traced.checked_ops(workload, workload.run):

        def staged():
            found = staged_lookup(rec, workload, op["family"], op["shape"])
            kernel = found["kernel"]
            if result.tier == "compile":
                counts.compiled(staged_compile(rec, found["build"]))
                rec.call(
                    "runtime.diskcache.store", scratch.store,
                    found["key"], kernel,
                )
            elif result.tier == "disk":
                tier = DiskCacheTier(workload.directory)
                loaded = rec.call(
                    "runtime.diskcache.load", tier.load, found["key"]
                )
                if loaded is None:
                    failures["disk entry missing for a disk-tier op"] += 1
            gpu = rec.call(
                "gpusim.executor.simulate", simulate_kernel,
                kernel.schedule, workload.machine,
            )
            counts.simulated(kernel.schedule)
            if gpu != result.gpu or found["bucket"] != result.bucket:
                failures["staged request disagrees with the served one"] += 1
            if inputs is not None:
                rec.call(
                    "gpusim.functional.interpret", interpret_function,
                    kernel.final_ir, kernel_registry, inputs[op["id"]],
                )
                traced.interpreted_gflop += found["registered"].flops(
                    found["bucket"].as_dict()
                ) / 1e9
            return found

        found = rec.call("op.staged", staged)
        rec.call(
            "frontend.mapping.fingerprint", found["build"].spec.fingerprint
        )
    if scratch is not None and scratch.keys():
        traced.disk_entry_bytes = scratch.total_bytes() / len(scratch.keys())
    workload.end_round()


def _traced_graph(workload: GraphReplay, traced: Traced) -> None:
    from repro.gpusim.gpu import simulate_kernel

    rec = traced.rec

    def real(op):
        graph = rec.call(
            "graph.builder.capture", workload.capture,
            workload.machine, streams=op["streams"],
        )
        execution = workload.server.submit_graph(graph)
        return rec.call(
            "graph.scheduler.execute", execution.result, timeout=OP_TIMEOUT_S
        )

    workload.begin_round()
    for _op, result in traced.checked_ops(workload, real):

        def staged():
            seen = set()
            for node in result.graph.nodes:
                marker = (node.kernel, tuple(sorted(node.shape.items())))
                if marker in seen:
                    continue
                seen.add(marker)
                found = staged_lookup(rec, workload, node.kernel, node.shape)
                rec.call(
                    "gpusim.executor.simulate", simulate_kernel,
                    found["kernel"].schedule, workload.machine,
                )
                traced.counts.simulated(found["kernel"].schedule)
                rec.call(
                    "frontend.mapping.fingerprint",
                    found["build"].spec.fingerprint,
                )

        rec.call("op.staged", staged)
    workload.end_round()


# ----------------------------------------------------------------------
# Counted pass
# ----------------------------------------------------------------------
def count_calls(body: Callable[[], None]) -> Dict[str, int]:
    """Run ``body`` under a profile hook and count entries into four
    program functions. Threads ``body`` starts are counted too (a server
    created inside it), threads that already ran are not."""
    from repro.compiler.cache import compile_key
    from repro.compiler.dependence import DependenceAnalysis
    from repro.gpusim.functional import interpret_function
    from repro.gpusim.gpu import simulate_kernel

    names = {
        compile_key.__code__: "compiler.cache.key_calls",
        DependenceAnalysis.run.__code__: "compiler.dependence.calls",
        simulate_kernel.__code__: "gpusim.executor.calls",
        interpret_function.__code__: "gpusim.functional.calls",
    }
    counts = dict.fromkeys(names.values(), 0)
    lock = threading.Lock()

    def hook(frame, event, _arg):
        if event == "call":
            name = names.get(frame.f_code)
            if name is not None:
                with lock:
                    counts[name] += 1

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        body()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return counts


def _counted_body(workload, ops) -> Callable[[], None]:
    """What the counted pass runs: ``ops`` through the real path, on a
    server started inside the pass so its workers carry the hook."""

    def run_ops():
        for op in ops:
            workload.prepare(op)
            workload.run(op)

    def in_a_round():
        workload.begin_round()  # starts shift_serve's server
        try:
            run_ops()
        finally:
            workload.end_round()

    def on_a_fresh_server():
        serving = workload.server
        # One worker: with two, whether two ready graph nodes share a
        # micro-batch is a race, and the count would not repeat.
        workload.server = workload.api.serve(
            workload.machine, registry=serving.registry, workers=1
        )
        try:
            run_ops()
        finally:
            workload.server.close()
            workload.server = serving

    if isinstance(workload, ColdCompile):
        return run_ops
    if isinstance(workload, ShiftServe):
        return in_a_round
    return on_a_fresh_server


# ----------------------------------------------------------------------
# Side measurements
# ----------------------------------------------------------------------
def _cold_extras(workload: ColdCompile, traced: Traced, rows: Rows) -> None:
    from repro import baselines

    predicted, simulated = traced.predicted, traced.simulated
    if len(predicted) >= 2:
        rows.put(
            "tuner.costmodel.spearman",
            stats.spearman(predicted, simulated), len(predicted),
        )
        rows.put(
            "tuner.costmodel.pred_err",
            stats.median(
                [abs(p - s) / s for p, s in zip(predicted, simulated)]
            ),
            len(predicted),
        )
    drawn = workload.info.get("drawn", 0)
    if drawn:
        rows.put(
            "tuner.costmodel.screened_share",
            workload.info["screened"] / drawn, drawn,
        )
    machine = workload.machines["hopper"]
    ratios: Dict[str, List[float]] = {"gemm": [], "flash_attention3": []}
    for op in workload.ops:
        if not op["paper"] or op["family"] not in ratios:
            continue
        ours = workload.sim_tflops[op["key"]]
        shape = op["shape"]
        if op["family"] == "gemm":
            theirs = baselines.cublas_gemm(
                machine, shape["m"], shape["n"], shape["k"]
            )
        else:
            theirs = baselines.fa3_reference_attention(
                machine, shape["heads"], shape["seq"], shape["head_dim"]
            )
        ratios[op["family"]].append(ours / theirs.tflops)
    for family, prefix in (
        ("gemm", "baselines.gemm_vs_cublas"),
        ("flash_attention3", "baselines.fa3_vs_ref"),
    ):
        if ratios[family]:
            rows.put(f"{prefix}_min", min(ratios[family]), len(ratios[family]))
            rows.put(f"{prefix}_max", max(ratios[family]), len(ratios[family]))


def _program_tracer_overhead(workload, rows: Rows) -> None:
    """``obs.trace.overhead_ratio``: the same requests on a server with
    the program's tracer on and on the workload's own (off), op by op so
    host drift hits both sides alike."""
    traced = workload.serve(trace=True)
    plain, spans = [], []
    try:
        for op in workload.ops[:SIDE_SAMPLES]:
            for server, sample in ((workload.server, plain), (traced, spans)):
                start = time.perf_counter()
                server.submit(op["family"], op["shape"]).result(
                    timeout=OP_TIMEOUT_S
                )
                sample.append(time.perf_counter() - start)
    finally:
        traced.close()
    rows.put(
        "obs.trace.overhead_ratio",
        stats.median(spans) / stats.median(plain), len(plain),
    )


def _shift_pass(workload: ShiftServe, **server_options) -> Dict[str, Any]:
    """One round of the shift trace with ``THINK_S`` between requests;
    returns latencies, CPU time per op and the servers' summed
    background-loop counters."""
    directory = Path(tempfile.mkdtemp(prefix="think-", dir=workload.base))
    totals: Counter = Counter()
    latencies = []

    def retire(server) -> None:
        snapshot = server.stats()
        for field in ("speculation_issued", "speculation_hits",
                      "specialized_hits", "padded_flops_saved"):
            totals[field] += getattr(snapshot, field)
        server.close()
        workload.api.clear_compile_cache()

    workload.api.clear_compile_cache()
    cpu = time.process_time()
    server = workload.serve(disk_cache=str(directory), **server_options)
    epoch = 0
    try:
        for op in workload.ops:
            if op["epoch"] != epoch:
                retire(server)
                server = workload.serve(
                    disk_cache=str(directory), **server_options
                )
                epoch = op["epoch"]
            start = time.perf_counter()
            server.submit(op["family"], op["shape"]).result(
                timeout=OP_TIMEOUT_S
            )
            latencies.append(time.perf_counter() - start)
            time.sleep(THINK_S)
    finally:
        retire(server)
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "latencies": latencies,
        "cpu_ms_per_op": (time.process_time() - cpu) * 1e3 / len(latencies),
        "totals": totals,
    }


def _background_loops(workload: ShiftServe, rows: Rows) -> None:
    off = _shift_pass(workload)
    on = _shift_pass(workload, speculate=True, specialize=True)
    totals = on["totals"]
    issued = totals["speculation_issued"]
    rows.put("runtime.speculate.issued", issued)
    rows.put("runtime.speculate.hits", totals["speculation_hits"])
    if issued:
        rows.put(
            "runtime.speculate.wasted_ratio",
            max(issued - totals["speculation_hits"], 0) / issued, issued,
        )
    rows.put("runtime.specialize.hits", totals["specialized_hits"])
    rows.put(
        "runtime.specialize.padded_flops_saved",
        totals["padded_flops_saved"] / 1e9,
    )
    rows.put(
        "runtime.background.op_ms_p50_ratio",
        stats.median(on["latencies"]) / stats.median(off["latencies"]),
        len(on["latencies"]),
    )
    rows.put(
        "runtime.background.cpu_ms_per_op_ratio",
        on["cpu_ms_per_op"] / off["cpu_ms_per_op"], len(on["latencies"]),
    )


def _graph_rows(workload: GraphReplay, traced: Traced, rows: Rows,
                durations: Dict[str, List[float]], smoke: bool) -> None:
    from repro.graph import template_cache

    rec = traced.rec
    lookups = template_cache.stats.lookups
    if lookups:
        rows.put("graph.template.hit_share",
                 template_cache.stats.hits / lookups, lookups)
    nodes = sum(len(result.results) for _op, result, _span in traced.results)
    if nodes:
        rows.put(
            "graph.scheduler.us_per_node",
            sum(durations["graph.scheduler.execute"]) * 1e6 / nodes, nodes,
        )
    samples = 3 if smoke else 10
    for streams in (1, 2, 3):
        for _ in range(samples):
            # A template miss: full dependence inference.
            template_cache.clear()
            rec.call(
                "graph.builder.infer", workload.capture,
                workload.machine, streams=streams,
            )
    rows.median_ms("graph.builder.infer_ms",
                   rec.durations()["graph.builder.infer"])
    serial, graphed = [], []
    for _ in range(samples):
        graph = workload.capture(workload.machine, streams=2)
        start = time.perf_counter()
        for uid in graph.topological_order():
            node = graph.node(uid)
            workload.server.submit(node.kernel, node.shape).result(
                timeout=OP_TIMEOUT_S
            )
        serial.append(time.perf_counter() - start)
        start = time.perf_counter()
        workload.server.submit_graph(graph).result(timeout=OP_TIMEOUT_S)
        graphed.append(time.perf_counter() - start)
    rows.put(
        "graph.scheduler.vs_serial_ratio",
        stats.median(serial) / stats.median(graphed), samples,
    )


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def _served_rows(workload, traced: Traced, rows: Rows,
                 slowness: Dict[int, float], keys_per_op: float) -> None:
    """Rows every served workload shares: round trip, tiers, padding,
    and the overhead left once the staged layer calls are taken out."""
    spans = traced.rec.spans
    graph = isinstance(workload, GraphReplay)
    # (op, RuntimeResult, round trip in seconds)
    if graph:
        # A node's round trip is the server's own submit-to-done time.
        served = [
            (op, node, node.latency_s)
            for op, result, _span in traced.results
            for node in result.results.values()
        ]
    else:
        served = [
            (op, result, spans[span][2] - spans[span][1])
            for op, result, span in traced.results
        ]
    if not served:
        return
    trips = [seconds / slowness[op["id"]] for op, _r, seconds in served]
    tiers = [result.tier for _op, result, _seconds in served]
    rows.median_ms("runtime.server.roundtrip_ms", trips)
    rows.put(
        "runtime.server.batch_size_mean",
        sum(result.batch_size for _op, result, _t in served) / len(served),
        len(served),
    )
    for tier in ("memory", "disk", "compile"):
        rows.put(f"runtime.server.tier_{tier}", tiers.count(tier), len(tiers))
        rows.median_ms(
            f"runtime.server.tier_{tier}_ms",
            [t for t, name in zip(trips, tiers) if name == tier],
        )
    rows.put(
        "compiler.cache.hit_share", tiers.count("memory") / len(tiers),
        len(tiers),
    )
    useful = padded = 0.0
    for _op, result, _seconds in served:
        registered = workload.registry.get(result.kernel)
        useful += registered.flops(result.requested_shape)
        padded += registered.flops(result.bucket.as_dict())
    rows.put(
        "runtime.bucketing.padded_flop_share", 1.0 - useful / padded,
        len(served),
    )
    if graph:
        return
    # Staged cost of a warm request: every layer call once, except key
    # hashing, which the program repeats (counted pass).
    staged_ms = keys_per_op * rows.value("compiler.cache.key_ms") + sum(
        rows.value(name)
        for name in (
            "runtime.bucketing.bucket_ms", "kernels.build_ms",
            "compiler.cache.hit_ms", "gpusim.executor.simulate_ms",
            "gpusim.functional.interpret_ms",
        )
    )
    rows.put(
        "runtime.server.overhead_ms",
        max(rows.value("runtime.server.tier_memory_ms") - staged_ms, 0.0),
        len(trips),
    )


#: span name -> the ``_ms`` row its median feeds.
SPAN_ROWS = {
    "kernels.build": "kernels.build_ms",
    "frontend.mapping.fingerprint": "frontend.mapping.fingerprint_ms",
    "compiler.cache.key": "compiler.cache.key_ms",
    "compiler.cache.hit": "compiler.cache.hit_ms",
    "compiler.dependence.run": "compiler.dependence.run_ms",
    "ir.clone": "ir.clone_ms",
    **{
        f"compiler.passes.{name}": f"compiler.passes.{name}_ms"
        for name in schema.PASSES
    },
    "gpusim.executor.simulate": "gpusim.executor.simulate_ms",
    "gpusim.functional.interpret": "gpusim.functional.interpret_ms",
    "tuner.costmodel.score": "tuner.costmodel.score_ms",
    "runtime.bucketing.bucket": "runtime.bucketing.bucket_ms",
    "runtime.diskcache.load": "runtime.diskcache.load_ms",
    "runtime.diskcache.store": "runtime.diskcache.store_ms",
    "graph.builder.capture": "graph.builder.capture_ms",
    "graph.scheduler.execute": "graph.scheduler.execute_ms",
}


def _layer_rows(
    traced: Traced, rows: Rows, slowness: Dict[int, float]
) -> Dict[str, List[float]]:
    """Rows read straight off the spans and the exact sums; returns the
    scaled span durations by name."""
    rec, sums = traced.rec, traced.counts.sums
    durations = rec.durations(slowness)
    for span, name in SPAN_ROWS.items():
        rows.median_ms(name, durations.get(span, []))
    rows.median_ms(
        "compiler.passes.verify_ms",
        rec.self_times(slowness).get("compiler.passes.run", []),
    )
    compiles = len(durations.get("compiler.dependence.run", []))
    if compiles:
        rows.put("compiler.dependence.ops_out", sums["ops_out"], compiles)
        rows.put("compiler.passes.vectorize_ops_removed", sums["vectorize"],
                 compiles)
        rows.put("compiler.passes.copy-elim_ops_removed", sums["copy-elim"],
                 compiles)
        rows.put("compiler.passes.cuda_bytes", sums["cuda_bytes"], compiles)
    real = sum(durations.get("op.real", []))
    simulations = durations.get("gpusim.executor.simulate", [])
    if simulations:
        rows.put("gpusim.executor.dyn_instrs", sums["dyn_instrs"],
                 len(simulations))
        rows.put(
            "gpusim.executor.us_per_dyn_instr",
            sum(simulations) * 1e6 / max(sums["dyn_instrs"], 1),
            len(simulations),
        )
        rows.put("gpusim.executor.share", sum(simulations) / real,
                 len(simulations))
    interpreted = durations.get("gpusim.functional.interpret", [])
    if interpreted:
        rows.put("gpusim.functional.ms_per_gflop",
                 sum(interpreted) * 1e3 / traced.interpreted_gflop,
                 len(interpreted))
        rows.put("gpusim.functional.share", sum(interpreted) / real,
                 len(interpreted))
    return durations


def trace(workload, smoke: bool) -> Dict[str, Any]:
    """The traced run of one set-up workload; the per-layer body of the
    result. Writes ``bench/out/trace_<workload>.json``."""
    traced = Traced()
    workload.prepare_references(full=False)
    workload.start_measuring()
    untraced = good(scaled(run_round(workload, traced.failures)))

    if isinstance(workload, ColdCompile):
        _traced_cold(workload, traced)
    elif isinstance(workload, GraphReplay):
        _traced_graph(workload, traced)
    else:
        _traced_served(workload, traced)
    # Every span of an op is scaled by the host's slowness around it, as
    # the untraced run scales latencies.
    slowness = {
        op["id"]: factor
        for op, factor in zip(workload.ops, hostspeed.slowness(traced.probes))
    }
    evictions = getattr(workload, "round_evictions", [0])[-1]

    limit = COUNTED_OPS[workload.name]
    if isinstance(workload, ShiftServe):
        counted = [op for op in workload.ops if op["epoch"] == 0][:limit]
    elif workload.name == "functional_serve":
        counted = distinct_first(workload.ops)[:limit]
    else:
        counted = workload.ops[:limit]
    calls = count_calls(_counted_body(workload, counted))

    rec = traced.rec
    rows = Rows()
    durations = _layer_rows(traced, rows, slowness)
    for name, value in calls.items():
        rows.put(name, value, len(counted))
    if isinstance(workload, ColdCompile):
        _cold_extras(workload, traced, rows)
    else:
        _served_rows(
            workload, traced, rows, slowness,
            calls["compiler.cache.key_calls"] / len(counted),
        )
    if workload.name == "warm_serve":
        _program_tracer_overhead(workload, rows)
    if isinstance(workload, ShiftServe):
        rows.put("compiler.cache.evictions", evictions, len(workload.ops))
        if traced.disk_entry_bytes is not None:
            rows.put("runtime.diskcache.bytes_per_entry",
                     traced.disk_entry_bytes)
        _background_loops(workload, rows)
    if isinstance(workload, GraphReplay):
        _graph_rows(workload, traced, rows, durations, smoke)
    real = durations.get("op.real", [])
    if untraced and real:
        rows.put(
            "bench.trace.overhead_ratio",
            stats.median(real) * 1e3 / stats.median(untraced), len(real),
        )

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace_{workload.name}.json"
    rec.write(trace_path, {"workload": workload.name, "ops": len(workload.ops)})
    failed = sum(traced.failures.values())
    violations = workload.violations()
    return {
        "correct": failed == 0 and not violations,
        "attempted": 2 * len(workload.ops),
        "failed": failed,
        "failures": dict(traced.failures),
        "violations": violations,
        "per_layer": rows.complete(),
        "trace_file": str(trace_path.relative_to(OUT_DIR.parent.parent)),
        "host_speed": stats.median(traced.probes) / hostspeed.REF_MS,
        "facts": dict(
            workload.facts(),
            staged_mismatches=traced.counts.staged_mismatches,
            spans=len(rec.spans),
        ),
    }
