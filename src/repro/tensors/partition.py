"""Partitioning operators over tensors.

Partitions decompose a tensor into pieces, each of which is again a
tensor with a compacted origin-based coordinate system (paper section
3.2). This module defines the abstract :class:`Partition` protocol and
the ``blocks`` (tiling) operator; the architecture-mandated ``mma``
operator lives in :mod:`repro.tensors.mma_partition`.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.errors import PartitionError
from repro.sym import Const, Expr, to_expr
from repro.tensors.tensor import LogicalTensor, TensorRef

IntoIndex = Union[int, Expr]


class Partition:
    """Abstract base for partitioning operators.

    A partition knows its source reference, how many pieces it has along
    each partition dimension (``grid``), the shape of a piece, and how to
    map piece-local coordinates back into source coordinates.
    """

    kind: str = "abstract"

    def __init__(self, source: TensorRef):
        self.source = source

    @property
    def grid(self) -> Tuple[int, ...]:
        raise NotImplementedError

    def piece_shape(self, index: Sequence[IntoIndex]) -> Tuple[int, ...]:
        """Shape of the piece at ``index`` (which may be symbolic)."""
        raise NotImplementedError

    def map_coords(
        self, coords: np.ndarray, index: Tuple[int, ...]
    ) -> np.ndarray:
        """Map piece-local coordinates to source-ref coordinates.

        ``coords`` has shape ``(..., piece_rank)``; the result has shape
        ``(..., source_rank)``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Region algebra (repro.tensors.regions)
    # ------------------------------------------------------------------
    def map_dims(self, dims, index):
        """Map piece-space interval dims to source-space dims.

        ``dims`` is one :class:`~repro.tensors.regions.Dim` per piece
        axis; ``index`` is the concrete piece index. Partitions whose
        pieces cannot be expressed as strided interval boxes return
        ``None`` (the default), which makes aliasing checks fall back
        to vectorized coordinate materialization.
        """
        return None

    def map_symbolic_dims(self, dims, index):
        """Map affine piece bounds to source bounds, or ``None``.

        ``dims`` is one :class:`~repro.tensors.regions.SymDim` per
        piece axis; ``index`` holds the ``(const, coeffs)`` affine
        decomposition of each index expression. Only partitions whose
        pieces stay dense boxes under affine offsets can implement
        this; the default declines, which sends the ``prange``
        disjointness check to its sampling fallback. That fallback
        compares only the joint iteration points (0, …), (1, …) and
        (last, …), so it is not sound: it misses aliasing writes that
        only iterations differing in one variable share (see
        ``DependenceAnalysis._check_prange_disjoint``).
        """
        return None

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def __getitem__(self, index) -> TensorRef:
        if not isinstance(index, tuple):
            index = (index,)
        if len(index) != len(self.grid):
            raise PartitionError(
                f"{self.kind} partition with grid {self.grid} indexed with "
                f"{len(index)} indices"
            )
        exprs = tuple(to_expr(i) for i in index)
        for expr, extent in zip(exprs, self.grid):
            if isinstance(expr, Const) and not 0 <= expr.value < extent:
                raise PartitionError(
                    f"index {expr.value} out of range for partition grid "
                    f"{self.grid}"
                )
        return TensorRef(
            self.source.root, self.source.path + ((self, exprs),)
        )

    def __repr__(self) -> str:
        grid = "x".join(map(str, self.grid))
        return f"{self.kind}({self.source!r}, grid={grid})"


class BlocksPartition(Partition):
    """The ``blocks`` operator: tile a tensor into fixed-size blocks.

    Blocks at the upper edges may be ragged when the extents do not
    divide evenly; ragged pieces can only be indexed concretely because a
    symbolically indexed piece must have a uniform static shape.
    """

    kind = "blocks"

    def __init__(self, source: TensorRef, block_shape: Sequence[int]):
        super().__init__(source)
        if len(block_shape) != source.rank:
            raise PartitionError(
                f"block shape {tuple(block_shape)} does not match rank "
                f"{source.rank} of {source!r}"
            )
        for extent in block_shape:
            if not isinstance(extent, int) or extent < 1:
                raise PartitionError(
                    f"illegal block shape {tuple(block_shape)}"
                )
        self.block_shape = tuple(block_shape)

    @property
    def grid(self) -> Tuple[int, ...]:
        return tuple(
            -(-extent // block)
            for extent, block in zip(self.source.shape, self.block_shape)
        )

    def piece_shape(self, index: Sequence[IntoIndex]) -> Tuple[int, ...]:
        exprs = [to_expr(i) for i in index]
        shape = []
        for expr, extent, block in zip(
            exprs, self.source.shape, self.block_shape
        ):
            if isinstance(expr, Const):
                start = expr.value * block
                shape.append(min(block, extent - start))
            else:
                if extent % block != 0:
                    raise PartitionError(
                        f"ragged blocks partition (extent {extent}, block "
                        f"{block}) cannot be indexed symbolically"
                    )
                shape.append(block)
        return tuple(shape)

    def map_coords(
        self, coords: np.ndarray, index: Tuple[int, ...]
    ) -> np.ndarray:
        offsets = np.array(
            [i * b for i, b in zip(index, self.block_shape)], dtype=coords.dtype
        )
        return coords + offsets

    def map_dims(self, dims, index):
        """Blocks pieces translate: shift every axis by ``index*block``."""
        return tuple(
            dim.shifted(i * block)
            for dim, i, block in zip(dims, index, self.block_shape)
        )

    def map_symbolic_dims(self, dims, index):
        """Affine translation: add ``block * index`` to each axis bound."""
        from repro.tensors.regions import SymDim

        out = []
        for dim, (const, coeffs), block in zip(
            dims, index, self.block_shape
        ):
            merged = dict(dim.coeffs)
            for name, coeff in coeffs.items():
                merged[name] = merged.get(name, 0) + coeff * block
            out.append(
                SymDim(dim.const + const * block, merged, dim.span)
            )
        return tuple(out)


def partition_by_blocks(
    tensor: Union[LogicalTensor, TensorRef], block_shape: Sequence[int]
) -> BlocksPartition:
    """The ``partition_by_blocks`` of the paper's Figure 5a."""
    source = tensor.ref() if isinstance(tensor, LogicalTensor) else tensor
    return BlocksPartition(source, block_shape)


class SqueezePartition(Partition):
    """A single-piece partition dropping the source's unit dimensions.

    Lets rank-3 batched tensors feed rank-2 task trees: a ``blocks``
    piece of shape ``(1, m, n)`` squeezes to ``(m, n)``.
    """

    kind = "squeeze"

    def __init__(self, source: TensorRef):
        super().__init__(source)
        if all(extent != 1 for extent in source.shape):
            raise PartitionError(
                f"{source!r} has no unit dimensions to squeeze"
            )
        if all(extent == 1 for extent in source.shape):
            raise PartitionError("cannot squeeze away every dimension")
        self.kept = tuple(
            axis for axis, extent in enumerate(source.shape) if extent != 1
        )

    @property
    def grid(self) -> Tuple[int, ...]:
        return (1,)

    def piece_shape(self, index: Sequence[IntoIndex]) -> Tuple[int, ...]:
        return tuple(self.source.shape[axis] for axis in self.kept)

    def map_coords(
        self, coords: np.ndarray, index: Tuple[int, ...]
    ) -> np.ndarray:
        out_shape = coords.shape[:-1] + (self.source.rank,)
        out = np.zeros(out_shape, dtype=coords.dtype)
        for piece_axis, source_axis in enumerate(self.kept):
            out[..., source_axis] = coords[..., piece_axis]
        return out

    def map_dims(self, dims, index):
        """Re-insert the squeezed unit axes at coordinate zero."""
        from repro.tensors.regions import Dim

        by_axis = dict(zip(self.kept, dims))
        return tuple(
            by_axis.get(axis, Dim(0, 1, 1, 1))
            for axis in range(self.source.rank)
        )

    def map_symbolic_dims(self, dims, index):
        """Unit axes pin to zero; kept axes pass bounds through."""
        from repro.tensors.regions import SymDim

        by_axis = dict(zip(self.kept, dims))
        return tuple(
            by_axis.get(axis, SymDim(0, {}, 1))
            for axis in range(self.source.rank)
        )


def squeeze(tensor: Union[LogicalTensor, TensorRef]) -> TensorRef:
    """A rank-reduced view dropping unit dimensions."""
    source = tensor.ref() if isinstance(tensor, LogicalTensor) else tensor
    return SqueezePartition(source)[0]
