"""Serving: a long-lived runtime in front of the compiler.

What it demonstrates
--------------------
Starts a :class:`repro.runtime.RuntimeServer` with a persistent
compile-cache directory, warms two GEMM buckets and two Flash
Attention 2 buckets (the GEMM ones autotuned through the two-stage
search), fires a mixed workload of 100 requests with arbitrary shapes,
and prints the serving telemetry: every request is served by one of
the warmed (or first-compiled) bucket kernels, so the tail of the
workload is pure cache hits. See ``docs/serving.md`` for the concepts.

Expected output
---------------
The cache directory path, the warmed bucket labels with their kernel
names, then the ``RuntimeStats.table()`` dashboard: a ``runtime:``
header line (100/100 served), a ``latency:`` line (p50/p95 in ms), a
``tiers:`` line whose ``memory`` share dominates, and one row per
kernel with requests, latency percentiles, req/s, and simulated
TFLOP/s. With ``--trace`` the table gains an ``obs:`` line and the
exported span count is printed last. With ``--specialize`` a skewed
hot-shape phase runs first from its generic (padded) bucket, the
specializer promotes it to a tile-aligned kernel, the same shape is
served again from the tighter bucket, and the table gains a
``specialz.:`` line. With ``--diag`` the live ops plane comes up on
an ephemeral loopback port and each diagnostics endpoint is probed
once over real HTTP, printing its status code and a one-line summary
(see ``docs/ops.md``).

Run it::

    PYTHONPATH=src python examples/serving.py

Pass ``--trace out.json`` to record a span for every request's journey
through the server (queue -> dispatch -> compile -> batch -> execute)
and export it as a Chrome trace — open the file in ``chrome://tracing``
or https://ui.perfetto.dev to see the timeline. See
``docs/observability.md`` for the span taxonomy. Pass ``--specialize``
to watch the traffic-driven shape-specialization loop promote a hot
off-rung shape (see ``docs/specialization.md``). Pass ``--diag`` to
serve live diagnostics over HTTP while the workload runs.
"""

import argparse
import random
import tempfile

from repro import api
from repro.machine import hopper_machine
from repro.tuner import MappingSearchSpace


def main(
    trace_path=None, requests=100, tune=True, specialize=False, diag=False
) -> None:
    machine = hopper_machine()
    random.seed(0)
    cache_dir = tempfile.mkdtemp(prefix="repro-serving-")
    print(f"persistent kernel cache: {cache_dir}")

    # Dormant poll intervals keep the demo deterministic: we drive one
    # specialization cycle and one SLO evaluation explicitly where the
    # server's maintenance thread would normally run them.
    from repro.runtime import SpecializerConfig

    diag_config = False
    flight = None
    if diag:
        from repro.obs import DiagConfig, Slo
        from repro.obs.flight import FlightRecorder

        # A path-less recorder: /flightz serves the ring over HTTP but
        # close() writes nothing to disk.
        flight = FlightRecorder()
        diag_config = DiagConfig(
            slos=(
                Slo(
                    "availability",
                    metric="error_rate",
                    target=0.999,
                    window_s=60.0,
                ),
            ),
            slo_tick_s=3600.0,
        )

    with api.serve(
        machine,
        workers=4,
        disk_cache=cache_dir,
        trace=trace_path is not None or diag,
        flight=flight,
        specialize=SpecializerConfig(interval_s=60.0) if specialize else False,
        diag=diag_config or None,
    ) as server:
        # -- warm-up: compile (and tune) bucket kernels before traffic --
        tune_space = MappingSearchSpace(
            tiles=((256, 256), (128, 256)),
            pipeline_depths=(2, 3),
            warpgroups=(1, 2),
            warpspecialize=(True,),
        )
        warmed = server.warm(
            "gemm",
            [dict(m=512, n=512, k=256), dict(m=1024, n=1024, k=512)],
            tune=tune,
            space=tune_space if tune else None,
        )
        warmed.update(
            server.warm(
                "flash_attention2",
                [
                    dict(heads=2, seq=256, head_dim=128),
                    dict(heads=2, seq=512, head_dim=128),
                ],
            )
        )
        print("warmed buckets:")
        for bucket, kernel_name in warmed.items():
            print(f"  {bucket:<28} -> {kernel_name}")

        # -- traffic: mixed requests (4:1 gemm:attention) with
        # arbitrary shapes ----------------------------------------------
        futures = []
        for _ in range(requests * 4 // 5):
            m = random.randint(300, 1024)
            n = random.randint(300, 1024)
            k = random.randint(130, 512)
            futures.append(server.submit("gemm", dict(m=m, n=n, k=k)))
        for _ in range(requests - requests * 4 // 5):
            seq = random.choice((200, 256, 400, 512))
            futures.append(
                server.submit(
                    "flash_attention2", dict(heads=2, seq=seq, head_dim=128)
                )
            )
        results = [future.result(timeout=600) for future in futures]

        print("\nsample results:")
        for result in results[:3] + results[-2:]:
            print(
                f"  {result.kernel:<18} {result.requested_shape} -> "
                f"bucket {result.bucket.label():<22} "
                f"[{result.tier}, batch {result.batch_size}] "
                f"{result.tflops:7.1f} TFLOP/s"
            )

        # -- shape specialization: a skewed hot shape gets its own
        # tile-aligned kernel instead of paying bucket padding forever
        if specialize:
            hot = dict(m=1100, n=256, k=128)
            print("\n--- shape specialization (--specialize) ---")
            generic = server.submit("gemm", hot).result(timeout=600)
            print(
                f"hot shape {hot} served from generic bucket "
                f"{generic.bucket.label()}"
            )
            for _ in range(11):  # cross the promotion threshold
                server.submit("gemm", hot).result(timeout=600)
            promoted = server.specializer.run_once()
            print(f"specializer promoted {promoted} shape(s) during idle")
            after = server.submit("gemm", hot).result(timeout=600)
            print(
                f"hot shape now served from {after.bucket.label()} "
                f"[{after.tier}]"
            )

        # -- live diagnostics: probe every endpoint over real HTTP --
        if diag:
            import json as json_module
            import urllib.request

            from repro.obs.ops import ENDPOINTS

            server.slo_monitor.run_once()
            host, port = server.diag.address
            print(f"\n--- live ops plane (--diag) on {host}:{port} ---")
            for path in ENDPOINTS:
                with urllib.request.urlopen(
                    server.diag.url(path), timeout=30
                ) as response:
                    body = response.read()
                    if path == "/metrics":
                        summary = f"{len(body.splitlines())} lines"
                    elif path == "/tracez":
                        payload = json_module.loads(body)
                        summary = f"{len(payload['traceEvents'])} events"
                    else:
                        summary = f"{len(body)} bytes"
                    print(f"  GET {path:<10} {response.status}  {summary}")

        print("\n--- RuntimeStats ---")
        print(server.stats().table())
        if server.disk_tier is not None:
            disk = server.disk_tier
            print(
                f"disk tier: {len(disk)} kernels persisted "
                f"({disk.stats.stores} stores, {disk.stats.hits} hits) "
                f"- a restarted server warms from here"
            )
        if trace_path is not None:
            written = server.export_trace(trace_path)
            print(
                f"\nwrote {len(server.tracer)} spans to {written} - open "
                f"it in chrome://tracing or https://ui.perfetto.dev"
            )

    # The diag listener deliberately survives close() so orchestrators
    # see 503 rather than connection refused; shut it down explicitly.
    if diag:
        server.diag.stop()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="record request spans and export a Chrome trace here",
    )
    parser.add_argument(
        "--specialize",
        action="store_true",
        help="promote a hot off-rung shape to a tile-aligned kernel",
    )
    parser.add_argument(
        "--diag",
        action="store_true",
        help="serve live HTTP diagnostics and probe every endpoint",
    )
    cli = parser.parse_args()
    main(trace_path=cli.trace, specialize=cli.specialize, diag=cli.diag)
