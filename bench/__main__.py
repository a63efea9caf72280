"""``python -m bench``: run the benchmark, or compare result files.

    PYTHONPATH=src python -m bench --seed 1              # untraced, all five
    PYTHONPATH=src python -m bench --seed 1 --trace      # untraced, then traced
    PYTHONPATH=src python -m bench --seed 1 --smoke      # tiny counts, ~20 s
    python -m bench compare BASE.json NEW.json
    python -m bench compare --base A1.json A2.json --new B1.json B2.json

The driver of ``/BENCHMARK.json`` calls
``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` and
reads the last line of stdout, one JSON object.

This process imports nothing of the program: each workload runs in its
own child interpreter (:mod:`bench.worker`), the untraced run's set-up
is repeated in further children for a median ``setup_s``, and all files
go to the untracked ``bench/out/``. ``src/`` is put on the children's
``PYTHONPATH`` here, so the ``PYTHONPATH=src`` prefix is optional.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import schema, stats

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: How many times the untraced run sets up (one measuring child plus
#: set-up-only children); ``setup_s`` is the median.
SETUP_RUNS = 3
SETUP_RUNS_SMOKE = 2
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170.0
DEFAULT_SECONDS = 10.0


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(workload: str, mode: str, args, tag: str) -> Dict[str, Any]:
    """Run one :mod:`bench.worker` child to completion and load what it
    wrote.

    Raises:
        RuntimeError: the child failed, timed out or wrote no result.
    """
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f".child_{os.getpid()}_{workload}_{tag}.json"
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload, "--mode", mode,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.inject_wrong_reference and mode == "measure":
        command.append("--inject-wrong-reference")
    try:
        # The child's stdout joins stderr: this process's stdout ends
        # with the result line and nothing may follow it.
        done = subprocess.run(
            command, cwd=ROOT, env=_child_env(), stdout=sys.stderr,
            timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"{workload} ({mode}) exited with code {done.returncode}"
            )
        with open(out) as handle:
            return json.load(handle)
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed and reaped the child.
        raise RuntimeError(
            f"{workload} ({mode}) exceeded {CHILD_TIMEOUT_S:.0f} s"
        ) from None
    finally:
        out.unlink(missing_ok=True)


def run_workload(workload: str, args) -> Dict[str, Any]:
    """Every child of one workload, merged into its result body."""
    body: Dict[str, Any] = {
        "correct": True, "attempted": 0, "failed": 0, "failures": {},
        "violations": [],
    }

    def absorb(part: Dict[str, Any]) -> None:
        body["correct"] = body["correct"] and part["correct"]
        body["attempted"] += part["attempted"]
        body["failed"] += part["failed"]
        for reason, count in part["failures"].items():
            body["failures"][reason] = body["failures"].get(reason, 0) + count
        body["violations"] += part["violations"]
        for field in ("ops_per_round", "ops_digest"):
            body[field] = part[field]

    if args.trace in ("0", "both"):
        measured = run_child(workload, "measure", args, "measure")
        absorb(measured)
        setups = [measured]
        runs = SETUP_RUNS_SMOKE if args.smoke else SETUP_RUNS
        for index in range(1, runs):
            setups.append(run_child(workload, "setup", args, f"setup{index}"))
        seconds = [child["setup_s"] for child in setups]
        body["end_to_end"] = dict(
            measured["end_to_end"],
            setup_s={
                "value": stats.median(seconds), "unit": "s",
                "n": len(seconds), "spread": stats.spread(seconds),
            },
        )
        for field in ("rounds", "timed_s", "host_speed", "samples", "facts"):
            body[field] = measured[field]
        body["setup_parts"] = [child["setup_parts"] for child in setups]
    if args.trace in ("1", "both"):
        traced = run_child(workload, "trace", args, "trace")
        absorb(traced)
        body["per_layer"] = traced["per_layer"]
        body["trace_file"] = traced["trace_file"]
        body.setdefault("host_speed", traced["host_speed"])
        body["facts"] = dict(body.get("facts", {}), **traced["facts"])
    return body


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def header(seed: int) -> Dict[str, Any]:
    """Where and when the numbers were taken (one timestamp per run)."""
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # metadata missing: the workers will still say
        numpy_version = "unknown"
    return {
        "schema_version": schema.SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
        "REPRO_COMPILE_CACHE_SIZE": os.environ.get("REPRO_COMPILE_CACHE_SIZE"),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _print_rows(title: str, rows: Dict[str, Dict[str, Any]]) -> None:
    print(f"  {title}")
    for name, row in rows.items():
        tail = ""
        if "spread" in row:
            tail += f"  spread {row['spread']:.3f}"
        if "raw" in row:
            tail += f"  (as read: {row['raw']:.6g})"
        print(
            f"    {name:<42} {row['value']:>14.6g} {row['unit']:<9}"
            f" n={row['n']}{tail}"
        )


def report(result: Dict[str, Any]) -> None:
    """Every metric by name, with unit, sample count and spread."""
    for name, body in result["workloads"].items():
        print(f"{name}: {schema.WORKLOADS[name]}")
        print(
            f"  ops/round {body['ops_per_round']}  attempted "
            f"{body['attempted']}  failed {body['failed']}"
            f"  correct {body['correct']}  host speed "
            f"{body['host_speed']:.3f}"
        )
        for reason, count in body["failures"].items():
            print(f"  FAILED x{count}: {reason}")
        for violation in body["violations"]:
            print(f"  VIOLATION: {violation}")
        if "end_to_end" in body:
            _print_rows("end to end (untraced)", body["end_to_end"])
        if "per_layer" in body:
            _print_rows("per layer (traced)", body["per_layer"])
            print(f"  spans: {body['trace_file']}")


def result_line(result: Dict[str, Any], trace: str) -> Dict[str, Any]:
    """The driver's one-line summary. One workload: its metrics by
    name; several: ``<workload>/<name>``."""
    workloads = result["workloads"]
    metrics: Dict[str, Any] = {}
    for name, body in workloads.items():
        rows: Dict[str, Any] = {}
        if trace in ("0", "both"):
            rows.update(body["end_to_end"])
        if trace in ("1", "both"):
            rows.update(body["per_layer"])
        for metric, row in rows.items():
            label = metric if len(workloads) == 1 else f"{name}/{metric}"
            metrics[label] = {"value": row["value"], "unit": row["unit"]}
    return {
        "correct": all(body["correct"] for body in workloads.values()),
        "attempted": sum(body["attempted"] for body in workloads.values()),
        "failed": sum(body["failed"] for body in workloads.values()),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from bench import compare

        return compare.main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=list(schema.WORKLOADS),
        help="run only this workload (repeatable); default: all five",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="timed rounds run until this much time has passed (and at "
        "least 3 rounds and 100 samples are in)",
    )
    parser.add_argument(
        "--trace", nargs="?", const="both", default="0",
        choices=("0", "1", "both"),
        help="0: untraced run, end-to-end metrics (default); 1: traced "
        "run, per-layer metrics; bare --trace: one after the other",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny op counts and two rounds: same code paths and checks",
    )
    parser.add_argument("--out", help="result file (default: bench/out/...)")
    parser.add_argument(
        "--inject-wrong-reference", action="store_true",
        help=argparse.SUPPRESS,  # test hook: op 0 is judged by another
    )                            # instantiation's reference
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"bench: no program to measure: {ROOT / 'src' / 'repro'} is "
            "missing", file=sys.stderr,
        )
        return 2
    result: Dict[str, Any] = {
        "header": header(args.seed),
        "mode": {"trace": args.trace, "smoke": args.smoke,
                 "seconds": args.seconds},
        "workloads": {},
    }
    try:
        for workload in args.workload or list(schema.WORKLOADS):
            result["workloads"][workload] = run_workload(workload, args)
    except RuntimeError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    errors = schema.validate(result)
    if errors:
        for error in errors:
            print(f"bench: result does not match the schema: {error}",
                  file=sys.stderr)
        return 2
    suffix = ("_smoke" if args.smoke else "") + (
        {"0": "", "1": "_traced", "both": "_both"}[args.trace]
    )
    out = Path(args.out) if args.out else (
        OUT_DIR / f"result_seed{args.seed}{suffix}.json"
    )
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    report(result)
    print(f"result file: {out}")
    line = result_line(result, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
