"""First-class tensors and partitioning operators.

This package implements the data side of the Cypress model (paper
section 3.2): dtypes, logical tensors, the region algebra that answers
overlap questions, and the two partitioning operators ``blocks`` and
``mma`` (including the Figure 4 WGMMA output-fragment layout).
"""

from repro.tensors.dtype import DType, f16, f32, bf16, f64, i32
from repro.tensors.regions import (
    Box,
    Dim,
    Region,
    SymDim,
    prove_iterations_disjoint,
    region_of,
    rows_intersect,
    symbolic_box,
)
from repro.tensors.tensor import LogicalTensor, TensorRef
from repro.tensors.partition import (
    BlocksPartition,
    Partition,
    SqueezePartition,
    partition_by_blocks,
    squeeze,
)
from repro.tensors.mma_partition import (
    MmaAtom,
    MmaPartition,
    WGMMA_64x256x16,
    partition_by_mma,
)

__all__ = [
    "DType",
    "f16",
    "f32",
    "bf16",
    "f64",
    "i32",
    "LogicalTensor",
    "TensorRef",
    "Box",
    "Dim",
    "Region",
    "SymDim",
    "prove_iterations_disjoint",
    "region_of",
    "rows_intersect",
    "symbolic_box",
    "Partition",
    "BlocksPartition",
    "SqueezePartition",
    "partition_by_blocks",
    "squeeze",
    "MmaAtom",
    "MmaPartition",
    "WGMMA_64x256x16",
    "partition_by_mma",
]
