"""``python -m bench compare``: two sets of result files, judged by the
bounds in ``/BENCHMARK.json``.

One row per (end-to-end metric, workload): both medians, their ratio
with its base, the run-to-run spread, and a verdict —

``unchanged``   the new median is within the bound of the base's and the
                runs' spread is within the bound too;
``improved`` / ``regressed``
                the medians differ by more than the bound, and either
                the spread is within the bound or every run of one side
                beats every run of the other;
``unresolved``  the spread exceeds the bound, so the runs cannot say
                (never reported as unchanged);
``identical`` / ``DIFFERS``
                for simulated and counted metrics, which must repeat
                exactly.

The spread of a side is the IQR of its runs over their median; with one
run a side it is the inter-round spread that run recorded. Exit code 1
when any row regressed or differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from bench import schema, stats

ROOT = Path(__file__).resolve().parent.parent


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """metric -> (better, bound) from ``/BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        row["name"]: (row["better"], row["bound"])
        for row in spec["end_to_end"]
    }


def _load(paths: List[str]) -> List[Dict[str, Any]]:
    results = []
    for path in paths:
        with open(path) as handle:
            result = json.load(handle)
        errors = schema.validate(result)
        if errors:
            raise SystemExit(f"compare: {path}: {errors[0]}")
        results.append(result)
    return results


def _side(results, workload: str, table: str, metric: str):
    """(values, recorded spreads) of one metric across a side's runs."""
    rows = [
        r["workloads"][workload][table][metric]
        for r in results
        if workload in r["workloads"] and table in r["workloads"][workload]
    ]
    return [row["value"] for row in rows], [row.get("spread", 0.0) for row in rows]


def _spread(values: List[float], recorded: List[float]) -> float:
    return stats.spread(values) if len(values) > 1 else max(recorded, default=0.0)


def _identical(base: List[float], new: List[float]) -> bool:
    """Every run of both sides read the same value."""
    return len(set(base) | set(new)) == 1


def judge(
    base: List[float], new: List[float], spread: float, better: str, bound: float
) -> Tuple[str, float]:
    """Verdict and the new median's ratio to the base's."""
    base_mid, new_mid = stats.median(base), stats.median(new)
    ratio = new_mid / base_mid if base_mid else float("inf")
    # >0 when the new side is worse, as a share of the base median.
    worse = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if better == "lower":
        separated_better = max(new) < min(base)
        separated_worse = min(new) > max(base)
    else:
        separated_better = min(new) > max(base)
        separated_worse = max(new) < min(base)
    noisy = spread > bound
    if worse > bound:
        verdict = "unresolved" if noisy and not separated_worse else "regressed"
    elif worse < -bound:
        verdict = "unresolved" if noisy and not separated_better else "improved"
    else:
        verdict = "unresolved" if noisy else "unchanged"
    return verdict, ratio


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench compare", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("files", nargs="*", help="BASE.json NEW.json")
    parser.add_argument("--base", nargs="+", default=[], metavar="FILE")
    parser.add_argument("--new", nargs="+", default=[], metavar="FILE")
    args = parser.parse_args(argv)
    if args.files and (args.base or args.new):
        parser.error("give either two files or --base ... --new ...")
    if args.files:
        if len(args.files) != 2:
            parser.error("two positional files: BASE.json NEW.json")
        args.base, args.new = args.files[:1], args.files[1:]
    if not args.base or not args.new:
        parser.error("nothing to compare")

    bounds = load_bounds()
    base, new = _load(args.base), _load(args.new)
    bad = 0
    print(
        f"{'workload':<17}{'metric':<48}{'base':>13}{'new':>13}"
        f"{'new/base':>10}{'spread':>8}{'bound':>8}  verdict"
    )
    for workload in schema.WORKLOADS:
        for metric, unit, _better, _bound in schema.END_TO_END:
            b, b_rec = _side(base, workload, "end_to_end", metric)
            n, n_rec = _side(new, workload, "end_to_end", metric)
            if not b or not n:
                continue
            better, bound = bounds[metric]
            if metric in schema.EXACT_END_TO_END:
                verdict, ratio, spread = (
                    "identical" if _identical(b, n) else "DIFFERS",
                    stats.median(n) / stats.median(b), 0.0,
                )
            else:
                spread = max(_spread(b, b_rec), _spread(n, n_rec))
                verdict, ratio = judge(b, n, spread, better, bound)
            bad += verdict in ("regressed", "DIFFERS")
            print(
                f"{workload:<17}{metric + ' [' + unit + ']':<48}"
                f"{stats.median(b):>13.6g}{stats.median(n):>13.6g}"
                f"{ratio:>10.4f}{spread:>8.3f}{bound:>8.2g}  {verdict}"
            )
        for metric in schema.PER_LAYER_NAMES:
            if metric not in schema.EXACT_PER_LAYER:
                continue
            b, _ = _side(base, workload, "per_layer", metric)
            n, _ = _side(new, workload, "per_layer", metric)
            if not b or not n:
                continue
            same = _identical(b, n)
            bad += not same
            print(
                f"{workload:<17}{metric + ' [' + schema.UNITS[metric] + ']':<48}"
                f"{stats.median(b):>13.6g}{stats.median(n):>13.6g}"
                f"{'':>10}{'':>8}{'exact':>8}  "
                f"{'identical' if same else 'DIFFERS'}"
            )
    print(
        f"base: {len(base)} run(s) of {base[0]['header']['git_sha'][:12]}, "
        f"new: {len(new)} run(s) of {new[0]['header']['git_sha'][:12]}"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
