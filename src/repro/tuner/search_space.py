"""Declarative mapping search spaces (paper section 5.4).

Because a mapping specification is data, a tuning sweep is just the
cross product of parameter choices — no edits to the logical program.
:class:`MappingSearchSpace` enumerates candidate parameter dicts that
plug directly into the keyword arguments of the GEMM-family ``build_*``
functions in the kernel zoo (``tile_m``/``tile_n``/``tile_k``, ``wgs``,
``pipeline``, ``warpspecialize``); builders with different knobs
remap the dict inside the ``autotune`` builder closure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


def wgmma_rows_fit(rows: int, wgs: int) -> bool:
    """Warp-level MMA needs 64-row warpgroup tiles: ``rows`` split
    evenly over at least one warpgroup, each share a multiple of 64.
    The search spaces' default constraint and the cost model's
    feasibility check both apply this one rule."""
    return wgs >= 1 and rows % wgs == 0 and rows // wgs % 64 == 0


def wgmma_row_constraint(candidate: Dict[str, Any]) -> bool:
    """:func:`wgmma_rows_fit` over a candidate's ``tile_m`` and ``wgs``."""
    return wgmma_rows_fit(candidate["tile_m"], candidate["wgs"])


@dataclass
class MappingSearchSpace:
    """The cross product of mapping choices for one kernel family.

    Attributes:
        tiles: (tile_m, tile_n) output-tile shapes.
        tile_k: K-reduction tile extents.
        warpgroups: warpgroup counts per block.
        pipeline_depths: software-pipeline depths.
        warpspecialize: whether to split DMA and compute warps.
        constraint: optional predicate over a candidate dict; candidates
            it rejects are skipped (defaults to the WGMMA row-divisibility
            rule every GEMM-shaped kernel in the zoo needs).
        extra: additional named axes swept verbatim, e.g.
            ``{"accumulator": ("register", "shared")}``.
    """

    tiles: Sequence[Tuple[int, int]] = ((256, 256), (128, 256), (128, 128))
    tile_k: Sequence[int] = (64,)
    warpgroups: Sequence[int] = (1, 2)
    pipeline_depths: Sequence[int] = (1, 2, 3, 4)
    warpspecialize: Sequence[bool] = (True, False)
    constraint: Optional[Callable[[Dict[str, Any]], bool]] = (
        wgmma_row_constraint
    )
    extra: Dict[str, Sequence[Any]] = field(default_factory=dict)

    def candidates(self) -> Iterator[Dict[str, Any]]:
        """Yield every candidate parameter dict passing the constraint."""
        extra_keys = sorted(self.extra)
        extra_axes = [tuple(self.extra[k]) for k in extra_keys]
        for (tile_m, tile_n), tile_k, wgs, pipeline, warpspec in (
            itertools.product(
                self.tiles,
                self.tile_k,
                self.warpgroups,
                self.pipeline_depths,
                self.warpspecialize,
            )
        ):
            base = {
                "tile_m": tile_m,
                "tile_n": tile_n,
                "tile_k": tile_k,
                "wgs": wgs,
                "pipeline": pipeline,
                "warpspecialize": warpspec,
            }
            for extra_values in itertools.product(*extra_axes):
                candidate = dict(base, **dict(zip(extra_keys, extra_values)))
                if self.constraint is not None and not self.constraint(
                    candidate
                ):
                    continue
                yield candidate

    def __len__(self) -> int:
        return sum(1 for _ in self.candidates())

    def as_list(self) -> List[Dict[str, Any]]:
        """Materialize :meth:`candidates` as a list."""
        return list(self.candidates())
