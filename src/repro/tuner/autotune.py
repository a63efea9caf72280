"""The mapping autotuner: one ranking, one walk down it.

``autotune`` turns the paper's "tuning is data, not code" observation
(section 5.4) into enumeration plus a cheap ranking:

1. **Rank** every candidate in the :class:`MappingSearchSpace` with the
   analytic cost model (:mod:`repro.tuner.costmodel`) — microseconds per
   mapping, no compiler pass executed, verdicts memoized process-wide.
2. **Walk** the ranking best-first: batch-compile through
   ``api.compile_many`` (sharing the content-keyed compile cache across
   workers) and time each candidate on the simulated GPU until ``top_k``
   have succeeded. A compile failure does not count toward ``top_k``, so
   a cost-model blind spot at the top of the ranking walks further down
   instead of sinking the search. With ``top_k=None`` the walk covers the
   whole ranking and then the model-infeasible candidates as well, so the
   exhaustive sweep records the compiler's own verdict on every mapping.

Predictions are attached either way, so the report can always quantify
the model's honesty: :meth:`TuningReport.spearman` gives the rank
correlation between predicted and simulated cycles.

Infeasible mappings — whichever stage discovers them — are recorded as
failures rather than aborting the sweep, mirroring how the compiler
reports them instead of silently mis-compiling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import api
from repro.compiler.passes import CompileOptions
from repro.errors import CypressError
from repro.kernels.common import KernelBuild
from repro.machine.machine import MachineModel
from repro.tuner.costmodel import AnalyticCostModel, spearman
from repro.tuner.search_space import MappingSearchSpace

#: ``build_fn(machine, **candidate) -> KernelBuild``
BuildFn = Callable[..., KernelBuild]

#: One built candidate: its index in the search space and its build.
Job = Tuple[int, KernelBuild]


@dataclass
class TuningResult:
    """One candidate's outcome.

    Attributes:
        candidate: the swept parameter dict.
        tflops: simulated throughput; ``None`` unless fully evaluated.
        kernel_name: the built kernel's name, when building succeeded.
        error: the failure message (builder, cost model, or compiler).
        predicted_cycles / predicted_tflops: the cost model's stage-1
            verdict (``None`` when the model could not score the
            candidate).
        simulated_cycles: the simulator's cycle count, when evaluated.
        pruned: True when this feasible candidate ranked below the
            ``top_k`` cut, so it was never compiled.
    """

    candidate: Dict[str, Any]
    tflops: Optional[float] = None
    kernel_name: Optional[str] = None
    error: Optional[str] = None
    predicted_cycles: Optional[float] = None
    predicted_tflops: Optional[float] = None
    simulated_cycles: Optional[float] = None
    pruned: bool = False

    @property
    def ok(self) -> bool:
        """Whether this candidate was fully compiled and simulated."""
        return self.tflops is not None

    def label(self) -> str:
        """A compact human-readable tag for the candidate."""
        c = self.candidate
        parts = []
        shown = set()
        if {"tile_m", "tile_n", "tile_k"} <= set(c):
            parts.append(f"{c['tile_m']}x{c['tile_n']}x{c['tile_k']}")
            shown |= {"tile_m", "tile_n", "tile_k"}
        for key, short in (
            ("wgs", "wgs"), ("pipeline", "pipe"),
            ("warpspecialize", "ws"),
        ):
            if key in c:
                parts.append(f"{short}={c[key]}")
                shown.add(key)
        for key in sorted(set(c) - shown):
            parts.append(f"{key}={c[key]}")
        return " ".join(parts) or "<defaults>"


@dataclass
class SearchStats:
    """Where the sweep spent its effort.

    Attributes:
        candidates: total candidates enumerated from the space.
        scored: candidates the cost model scored.
        compiled: candidates fully compiled + simulated (stage 2).
        pruned: feasible candidates below the ``top_k`` cut.
        score_s: wall-clock seconds spent in stage 1.
        evaluate_s: wall-clock seconds spent in stage 2.
    """

    candidates: int = 0
    scored: int = 0
    compiled: int = 0
    pruned: int = 0
    score_s: float = 0.0
    evaluate_s: float = 0.0


@dataclass
class TuningReport:
    """Ranked sweep results: simulated candidates first, best on top,
    then pruned candidates by predicted throughput, then failures."""

    results: List[TuningResult] = field(default_factory=list)
    search: SearchStats = field(default_factory=SearchStats)

    @property
    def best(self) -> TuningResult:
        """The best fully evaluated candidate.

        Raises:
            CypressError: when no candidate was feasible.
        """
        for result in self.results:
            if result.ok:
                return result
        raise CypressError(
            "autotune found no feasible mapping in the search space"
        )

    @property
    def feasible(self) -> List[TuningResult]:
        """Fully evaluated candidates, best first."""
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> List[TuningResult]:
        """Candidates that could not be built, scored, or compiled."""
        return [r for r in self.results if not r.ok and not r.pruned]

    @property
    def pruned(self) -> List[TuningResult]:
        """Feasible candidates stage 1 ranked below the cut."""
        return [r for r in self.results if r.pruned]

    def spearman(self) -> Optional[float]:
        """Rank correlation between predicted and simulated cycles.

        Returns:
            The Spearman coefficient over candidates carrying both
            numbers, or ``None`` when fewer than two do. This is the
            honesty metric of the ranking: a high value means the
            ``top_k`` cut agrees with what full evaluation would have
            chosen.
        """
        pairs = [
            (r.predicted_cycles, r.simulated_cycles)
            for r in self.results
            if r.predicted_cycles is not None
            and r.simulated_cycles is not None
        ]
        if len(pairs) < 2:
            return None
        return spearman([p for p, _ in pairs], [s for _, s in pairs])

    def prediction_error(self) -> Optional[float]:
        """Mean absolute relative error of predicted vs simulated cycles
        over the evaluated candidates (``None`` without samples)."""
        errs = [
            abs(r.simulated_cycles / r.predicted_cycles - 1.0)
            for r in self.results
            if r.predicted_cycles and r.simulated_cycles
        ]
        if not errs:
            return None
        return sum(errs) / len(errs)

    def summary(self) -> str:
        """A ranked table in the style of the paper's exploration."""
        lines = [f"{'mapping':<40} {'TFLOP/s':>9} {'predicted':>10}"]
        for result in self.results:
            predicted = (
                f"{result.predicted_tflops:>10.1f}"
                if result.predicted_tflops is not None
                else f"{'—':>10}"
            )
            if result.ok:
                lines.append(
                    f"{result.label():<40} {result.tflops:>9.1f} {predicted}"
                )
            elif result.pruned:
                lines.append(
                    f"{result.label():<40} {'pruned':>9} {predicted}"
                )
            else:
                reason = (result.error or "").split(";")[0][:34]
                lines.append(
                    f"{result.label():<40}      — ({reason})"
                )
        return "\n".join(lines)


def autotune(
    build_fn: BuildFn,
    machine: MachineModel,
    space: MappingSearchSpace,
    *,
    options: Optional[CompileOptions] = None,
    top_k: Optional[int] = None,
) -> TuningReport:
    """Sweep a mapping search space and rank candidates by throughput.

    Args:
        build_fn: builder called as ``build_fn(machine, **candidate)``;
            pass a ``functools.partial``/lambda to close over problem
            sizes, e.g. ``lambda m, **p: build_gemm(m, N, N, N, **p)``.
        machine: the machine candidates are mapped to, scored against
            and timed on.
        space: the declarative candidate enumeration.
        options: compile options for every candidate (defaults to
            caching on and verify-at-ends — autotuning trusts the
            compiler and wants throughput).
        top_k: walk the cost-model ranking until this many candidates
            (at least one) have compiled and simulated; the feasible
            rest is pruned. ``None`` evaluates every candidate the
            builder accepts (the exhaustive sweep).

    Returns:
        A :class:`TuningReport` with simulated candidates ranked first,
        pruned candidates next (by predicted throughput), failures last.

    Raises:
        Nothing per candidate: builder, cost-model and compiler failures
        are recorded in the report, never raised.
    """
    if options is None:
        options = CompileOptions(verify="ends")

    score_start = time.perf_counter()
    results, feasible, infeasible = _rank(build_fn, machine, space)
    stats = SearchStats(
        candidates=len(results),
        scored=len(feasible) + len(infeasible),
        score_s=time.perf_counter() - score_start,
    )

    evaluate_start = time.perf_counter()
    walk = feasible if top_k is not None else feasible + infeasible
    stats.compiled = _walk(walk, results, machine, options, top_k)
    pruned = feasible[stats.compiled:]
    for index, _build in pruned:
        results[index].pruned = True
    stats.pruned = len(pruned)
    stats.evaluate_s = time.perf_counter() - evaluate_start

    results.sort(key=_rank_key)
    return TuningReport(results=results, search=stats)


def _rank(
    build_fn: BuildFn, machine: MachineModel, space: MappingSearchSpace
) -> Tuple[List[TuningResult], List[Job], List[Job]]:
    """Stage 1 of :func:`autotune`.

    Returns one :class:`TuningResult` per candidate in space order
    (builder and cost-model failures recorded in ``error``), the
    model-feasible ``(index, build)`` jobs best-predicted first, and the
    model-infeasible ones in space order.
    """
    model = AnalyticCostModel()
    results: List[TuningResult] = []
    feasible: List[Job] = []
    infeasible: List[Job] = []
    for index, candidate in enumerate(space.as_list()):
        result = TuningResult(candidate=candidate)
        results.append(result)
        try:
            build = build_fn(machine, **candidate)
        except (CypressError, TypeError) as error:
            # TypeError covers builders whose signature lacks a swept
            # axis (e.g. attention builders take q_tile, not tile_m):
            # the mismatch is reported per candidate, not fatal.
            result.error = str(error)
            continue
        result.kernel_name = build.name
        estimate = model.score(build, machine)
        if estimate.feasible:
            result.predicted_cycles = estimate.cycles
            result.predicted_tflops = estimate.tflops
            feasible.append((index, build))
        else:
            result.error = f"cost model: {estimate.reason}"
            infeasible.append((index, build))
    feasible.sort(key=lambda job: results[job[0]].predicted_cycles)
    return results, feasible, infeasible


def _walk(
    jobs: List[Job],
    results: List[TuningResult],
    machine: MachineModel,
    options: CompileOptions,
    top_k: Optional[int],
) -> int:
    """Stage 2: compile and time ``jobs`` in order until ``top_k`` have
    succeeded (all of them when ``None``).

    Each batch asks for exactly the successes still missing, so the walk
    stops at the ``top_k``-th success. Returns how many jobs were
    evaluated — always a prefix of ``jobs``.
    """
    wanted = len(jobs) if top_k is None else max(1, top_k)
    done = succeeded = 0
    while done < len(jobs) and succeeded < wanted:
        batch = jobs[done : done + wanted - succeeded]
        kernels = api.compile_many(
            [build for _index, build in batch],
            options=options,
            raise_on_error=False,
        )
        for (index, _build), kernel in zip(batch, kernels):
            result = results[index]
            if isinstance(kernel, api.CompileFailure):
                result.error = str(kernel.error)
                continue
            gpu = api.simulate(kernel, machine)
            # The compiler's verdict replaces the model's.
            result.error = None
            result.tflops = gpu.tflops
            result.simulated_cycles = gpu.cycles
            succeeded += 1
        done += len(batch)
    return done


def _rank_key(result: TuningResult) -> Tuple[int, float]:
    """Simulated first (fastest on top), then pruned by prediction,
    then failures."""
    if result.ok:
        return (0, -result.tflops)
    if result.pruned:
        return (1, -(result.predicted_tflops or 0.0))
    return (2, 0.0)
