"""One workload in one process: ``python -m bench.worker ...``.

The parent (:mod:`bench.__main__`) starts a fresh interpreter per
workload so that no workload inherits another's compile cache, graph
templates, interned objects or peak memory. Three modes:

``setup``
    import the program, set up, warm up, report how long that took, and
    exit — the parent runs this several times for a median ``setup_s``.
``measure``
    the same, then compute references and run timed rounds with no
    tracing of any kind; reports the end-to-end metrics.
``trace``
    the same set-up, then the traced run of :mod:`bench.layers`;
    reports the per-layer metrics and writes ``trace_<workload>.json``.

The result is one JSON object written to ``--out``; nothing else of
consequence goes to stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional

from bench import hostspeed, schema, stats, traffic

#: Timed rounds continue until ``--seconds`` have passed *and* the run
#: has this many rounds and pooled samples (p90 needs ten beyond it).
MIN_ROUNDS = 3
MIN_POOLED = 100
#: ... but never beyond this much timed wall time, whatever the counts.
MAX_TIMED_S = 100.0
SMOKE_ROUNDS = 2
#: The probe burst before a round's first op is sized as for an op of
#: this many ms (three probes).
FIRST_BURST_MS = 75.0


def _import_program() -> float:
    """Import every program package the workloads touch; the seconds it
    took are the first part of ``setup_s``."""
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.api  # noqa: F401
    import repro.graph  # noqa: F401
    import repro.kernels  # noqa: F401
    import repro.machine  # noqa: F401
    import repro.runtime  # noqa: F401
    import repro.tuner  # noqa: F401

    return time.perf_counter() - start


def set_up(workload) -> Dict[str, float]:
    """Run the program set-up calls and the warm-up pass (the first op
    of every distinct key); returns the seconds spent in each. Only the
    calls into the program are timed — ``prepare`` and ``learn`` are the
    benchmark's own work."""
    from bench.workloads import distinct_first

    clock = time.perf_counter
    start = clock()
    workload.setup()
    setup_call_s = clock() - start
    start = clock()
    workload.begin_round()
    warmup_s = clock() - start
    for op in distinct_first(workload.ops):
        workload.prepare(op)
        start = clock()
        result = workload.run(op)
        warmup_s += clock() - start
        workload.learn(op, result)
    start = clock()
    workload.end_round()
    warmup_s += clock() - start
    return {"setup_call_s": setup_call_s, "warmup_s": warmup_s}


def run_round(
    workload, failures: Counter, inject_wrong_reference: bool = False
) -> Dict[str, List]:
    """One pass over the op list. Returns ``raw_ms``: op by op, the
    latency of each op whose output checked out — an op that raises,
    times out or fails its check is counted in ``failures`` by reason
    and yields ``None``, a failed op contributes no latency sample —
    and ``probe_ms``: the host-speed probes taken before, between and
    after the ops (one more than there are ops)."""
    ops = workload.ops
    latencies: List[Optional[float]] = []
    workload.begin_round()
    probes = [hostspeed.burst(FIRST_BURST_MS)]
    for op in ops:
        workload.prepare(op)
        error = result = None
        start = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception as caught:  # the op failed; the run goes on
            error = caught
        elapsed = time.perf_counter() - start
        probes.append(hostspeed.burst(elapsed * 1e3))
        if error is not None:
            reason = f"{type(error).__name__}: {error}"
        else:
            against = op
            if inject_wrong_reference and op["id"] == 0:
                # Test hook: judge op 0 by another instantiation's
                # reference.
                against = next(o for o in ops if o["key"] != op["key"])
            reason = workload.check(against, result)
        if reason:
            failures[reason[:200]] += 1
            latencies.append(None)
        else:
            latencies.append(elapsed * 1e3)
    workload.end_round()
    return {"raw_ms": latencies, "probe_ms": probes}


def good(samples) -> List[float]:
    """The samples of correct ops."""
    return [ms for ms in samples if ms is not None]


def scaled(round_: Dict[str, List]) -> List[Optional[float]]:
    """A round's latencies at the reference host speed (see
    :mod:`bench.hostspeed`); failed ops stay ``None``."""
    return [
        None if ms is None else ms / speed
        for ms, speed in zip(
            round_["raw_ms"], hostspeed.slowness(round_["probe_ms"])
        )
    ]


def _timing(rounds: List[List[Optional[float]]]) -> Dict[str, Dict[str, float]]:
    """p50, p90 and rate of per-round latency samples (ms), with the
    inter-round spread (IQR over median) of each."""
    live = [good(r) for r in rounds if good(r)]
    medians = [stats.median(r) for r in live]
    rates = [len(r) / (sum(r) / 1e3) for r in live]
    return {
        "op_ms_p50": {
            "value": stats.median(medians), "spread": stats.spread(medians),
        },
        "op_ms_p90": {
            "value": stats.percentile([ms for r in live for ms in r], 90),
            "spread": stats.spread([stats.percentile(r, 90) for r in live]),
        },
        "ops_per_s": {
            "value": stats.median(rates), "spread": stats.spread(rates),
        },
    }


def summarize(rounds: List[Dict[str, List]]) -> Dict[str, Dict[str, Any]]:
    """The timing metrics of a run: ``value`` from the latencies scaled
    to the reference host speed, ``raw`` from the latencies as the
    clock read them, ``n`` the pooled sample count."""
    at_reference = _timing([scaled(r) for r in rounds])
    as_read = _timing([r["raw_ms"] for r in rounds])
    pooled = sum(len(good(r["raw_ms"])) for r in rounds)
    return {
        name: dict(
            row, unit=schema.UNITS[name], n=pooled, raw=as_read[name]["value"]
        )
        for name, row in at_reference.items()
    }


def measure(workload, seconds: float, smoke: bool, inject: bool) -> Dict[str, Any]:
    """Timed rounds, tracing off; the end-to-end body of the result."""
    failures: Counter = Counter()
    extra = workload.prepare_references(full=True)
    for label, reason in extra:
        if reason:
            failures[f"{label}: {reason}"[:200]] += 1
    workload.start_measuring()
    rounds: List[Dict[str, List]] = []
    began = time.perf_counter()
    while True:
        gc.collect()
        rounds.append(run_round(workload, failures, inject))
        elapsed = time.perf_counter() - began
        if smoke:
            if len(rounds) >= SMOKE_ROUNDS:
                break
            continue
        pooled = sum(len(good(r["raw_ms"])) for r in rounds)
        enough = len(rounds) >= MIN_ROUNDS and pooled >= MIN_POOLED
        if (enough and elapsed >= seconds) or elapsed >= MAX_TIMED_S:
            break
    violations = workload.violations()
    attempted = len(rounds) * len(workload.ops) + len(extra)
    failed = sum(failures.values())
    if not any(good(r["raw_ms"]) for r in rounds):
        raise SystemExit("bench: no op produced a correct result; no metrics")
    metrics = summarize(rounds)
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB", "n": 1, "spread": 0.0,
    }
    tflops = list(workload.sim_tflops.values())
    metrics["sim_tflops_geomean"] = {
        "value": stats.geomean(tflops), "unit": "TFLOP/s",
        "n": len(tflops), "spread": 0.0,
    }
    probes = [ms for r in rounds for ms in r["probe_ms"]]
    return {
        "correct": failed == 0 and not violations,
        "attempted": attempted,
        "failed": failed,
        "failures": dict(failures),
        "violations": violations,
        "rounds": len(rounds),
        "timed_s": time.perf_counter() - began,
        "host_speed": stats.median(probes) / hostspeed.REF_MS,
        "samples": rounds,
        "facts": workload.facts(),
        "end_to_end": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True, choices=traffic.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-wrong-reference", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import_s = _import_program()
    from bench.workloads import WORKLOADS

    ops, info = traffic.op_list(args.workload, args.seed, args.smoke)
    workload = WORKLOADS[args.workload](ops, info, args.smoke)
    body: Dict[str, Any] = {
        "workload": args.workload,
        "mode": args.mode,
        "seed": args.seed,
        "smoke": args.smoke,
        "ops_per_round": len(ops),
        "ops_digest": traffic.digest(ops),
    }
    try:
        parts = dict(set_up(workload), import_s=import_s)
        body["setup_parts"] = parts
        body["setup_s"] = sum(parts.values())
        if args.mode == "measure":
            body.update(
                measure(
                    workload, args.seconds, args.smoke,
                    args.inject_wrong_reference,
                )
            )
        elif args.mode == "trace":
            from bench import layers

            body.update(layers.trace(workload, args.smoke))
    finally:
        workload.close()
    with open(args.out, "w") as handle:
        json.dump(body, handle)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
