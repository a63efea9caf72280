"""Brute-force element enumeration: the oracle the region algebra is
checked against.

:mod:`repro.tensors.regions` answers "which elements does this
reference touch?" with strided interval boxes. This module answers the
same question the slow, obvious way — every element's root coordinates,
mapped up the partition path one coordinate at a time with each
partition kind's own formula (Figure 4's for ``mma`` fragments) — so
the tests can compare the two. Only tests use it.
"""

import numpy as np

from repro.machine.processor import ProcessorKind
from repro.sym import evaluate
from repro.tensors import BlocksPartition, MmaPartition, SqueezePartition

ROW_GROUP = 8  # the Figure-4 swizzle repeats across 8-row groups
COL_GROUP = 8  # ... and across 8-column groups


def fragment_row(i, thread):
    """Source row of a thread's fragment row ``i`` (Figure 4)."""
    return i * ROW_GROUP + thread // 4


def fragment_col(j, thread):
    """Source column of a thread's fragment column ``j`` (Figure 4)."""
    return (j // 2) * COL_GROUP + 2 * (thread % 4) + j % 2


def map_coords(partition, coords, index):
    """Piece-local coordinates ``(..., piece_rank)`` of the piece at
    ``index`` as source coordinates ``(..., source_rank)``."""
    if isinstance(partition, BlocksPartition):
        return coords + np.array(
            [i * b for i, b in zip(index, partition.block_shape)],
            dtype=coords.dtype,
        )
    if isinstance(partition, SqueezePartition):
        out = np.zeros(
            coords.shape[:-1] + (len(partition.source.shape),),
            dtype=coords.dtype,
        )
        for piece_axis, source_axis in enumerate(partition.kept):
            out[..., source_axis] = coords[..., piece_axis]
        return out
    assert isinstance(partition, MmaPartition), partition
    (thread,) = index
    out = coords.copy()
    if partition.proc is ProcessorKind.WARP:
        if partition.operand != "B":  # B is replicated across warps
            rows_per_warp = partition.source.shape[0] // 4
            out[..., 0] += thread * rows_per_warp
        return out
    if partition.operand in ("A", "C"):
        out[..., 0] = fragment_row(coords[..., 0], thread)
    if partition.operand in ("B", "C"):
        out[..., 1] = fragment_col(coords[..., 1], thread)
    return out


def element_coords(ref, env=None):
    """Root coordinates of every element, in sub-tensor order: an
    integer array of shape ``(*ref.shape, root rank)``."""
    env = env or {}
    grids = np.meshgrid(*[np.arange(n) for n in ref.shape], indexing="ij")
    coords = np.stack(grids, axis=-1)
    for partition, index in reversed(ref.path):
        concrete = tuple(evaluate(e, env) for e in index)
        coords = map_coords(partition, coords, concrete)
    return coords


def coord_rows(ref, env=None):
    """:func:`element_coords` as one row per element."""
    return element_coords(ref, env).reshape(-1, len(ref.root.shape))


def coord_set(ref, env=None):
    """The reference's elements as a set of root-coordinate tuples."""
    return {tuple(row) for row in coord_rows(ref, env).tolist()}
