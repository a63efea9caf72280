"""Transformer block: a multi-kernel task graph with inferred edges.

What it demonstrates
--------------------
Captures a full transformer block — Q/K/V projection GEMMs, Flash
Attention 2 over per-head views, output projection, a Dual-GEMM GLU
MLP, and the down projection — as a :class:`repro.graph.TaskGraph`
whose dependence edges are *inferred* by intersecting each launch's
read/write regions (``repro.tensors.regions``), never declared. The
graph is executed three ways: functionally against a numpy oracle
(`api.run_graph`), serially (one ``submit`` at a time, the
hand-ordered baseline), and as `server.submit_graph`, where the three
independent projection branches overlap across the worker pool. See
``docs/graphs.md``.

Expected output
---------------
The graph summary (7 nodes per stream; RAW edges from projections into
attention and down the MLP chain), the functional error vs numpy
(~2e-3 relative, f16 storage between kernels), then serial vs graph
wall times and their ratio, and the server's stats table with its
``graphs:`` line. Both timed paths take well under 1 ms: every node is
a warm, timing-only request served on the thread that submits (or
readies) it, so there is little to overlap. The graph wins by serving
each ready set's same-bucket nodes as one micro-batch and settling
them without a future callback; the serial loop pays one admission
and one batch per node. Each side is the best of three single runs,
so on a 2-CPU host the ratio reads about ``0.9x``–``1.3x`` for the
default two streams on four workers and ``0.8x``–``1.1x`` for
``main(streams=1, workers=2)``, where a block's five ready sets leave
little to batch. The whole script takes 1–2 s, most of it the
functional check.

Run it::

    PYTHONPATH=src python examples/transformer_block.py
"""

import time

import numpy as np

from repro import api
from repro.kernels import (
    transformer_block_graph,
    transformer_block_inputs,
    transformer_block_reference,
)
from repro.machine import hopper_machine


def main(
    seq: int = 512,
    d_model: int = 512,
    heads: int = 4,
    d_ff: int = 1024,
    streams: int = 2,
    workers: int = 4,
    repeats: int = 3,
) -> None:
    """Build, check, and race the transformer-block graph.

    Args:
        seq / d_model / heads / d_ff: block dimensions (defaults match
            the serving bucket ladders; ``d_model // heads`` of 128 is
            the attention ladder's head size).
        streams: independent blocks captured into the timed graph.
        workers: server worker threads.
        repeats: timed repetitions (best-of).
    """
    machine = hopper_machine()
    graph = transformer_block_graph(
        machine, seq=seq, d_model=d_model, heads=heads, d_ff=d_ff
    )
    print(graph.summary())

    # -- functional check: the graph computes the block ---------------
    inputs = transformer_block_inputs(seq=seq, d_model=d_model, d_ff=d_ff)
    outputs = api.run_graph(graph, inputs)
    reference = transformer_block_reference(inputs, heads=heads)
    error = np.abs(outputs["Y"].astype(np.float32) - reference).max()
    scale = max(abs(reference).max(), 1e-9)
    print(f"max |error| vs numpy reference: {error:.2e} "
          f"(relative {error / scale:.2e})")

    # -- serving: serial submits vs the scheduled graph ---------------
    timed = transformer_block_graph(
        machine, seq=seq, d_model=d_model, heads=heads, d_ff=d_ff,
        streams=streams,
    )
    with api.serve(machine, workers=workers) as server:
        server.submit_graph(timed).result()  # warm every bucket kernel

        serial_s = min(
            _serial(server, timed) for _ in range(repeats)
        )
        graph_s = min(
            _parallel(server, timed) for _ in range(repeats)
        )
        print(
            f"{streams}-stream block, {workers} workers: "
            f"serial {serial_s * 1e3:.1f} ms, "
            f"graph {graph_s * 1e3:.1f} ms "
            f"-> {serial_s / graph_s:.2f}x"
        )
        print(server.stats().table())


def _serial(server, graph) -> float:
    """Hand-ordered baseline: submit each node, wait, submit the next."""
    start = time.perf_counter()
    for uid in graph.topological_order():
        node = graph.node(uid)
        server.submit(node.kernel, node.shape).result()
    return time.perf_counter() - start


def _parallel(server, graph) -> float:
    """The scheduled graph: ready nodes overlap across the pool."""
    start = time.perf_counter()
    server.submit_graph(graph).result()
    return time.perf_counter() - start


if __name__ == "__main__":
    main()
