"""The ``mma`` partitioning operator (paper section 3.2, Figure 4).

Hopper's warpgroup MMA (``wgmma``) instruction mandates how its operand
matrices are split across the 128 threads of a warpgroup. The output
matrix C is distributed across registers in the swizzled pattern of the
paper's Figure 4: rows are partitioned into groups of 16 across the four
warps; within a warp, thread ``t`` of each 8-row group holds the two
columns ``2*(t % 4)`` and ``2*(t % 4) + 1`` of row ``t // 4``, with the
pattern repeating every 8 columns and the second 8-row group reusing the
same threads. The A and B operands live in shared memory and are read
collectively, so their warp/thread "pieces" are replicated views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import PartitionError
from repro.machine.processor import ProcessorKind
from repro.tensors.partition import IntoIndex, Partition
from repro.tensors.regions import Dim
from repro.tensors.tensor import LogicalTensor, TensorRef

WARPS_PER_WARPGROUP = 4
THREADS_PER_WARP = 32
ROW_GROUP = 8  # the swizzle pattern repeats across 8-row groups
COL_GROUP = 8  # ... and across 8-column groups


@dataclass(frozen=True)
class MmaAtom:
    """A warpgroup MMA instruction shape (M x N x K).

    Hopper wgmma instructions compute ``64 x n x 16`` products where
    ``n`` ranges over multiples of 8 up to 256.
    """

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.m != 64:
            raise PartitionError("Hopper wgmma atoms have M == 64")
        if self.n % 8 != 0 or not 8 <= self.n <= 256:
            raise PartitionError(
                f"wgmma atom N must be a multiple of 8 in [8, 256], "
                f"got {self.n}"
            )
        if self.k != 16:
            raise PartitionError("FP16 wgmma atoms have K == 16")

    def __repr__(self) -> str:
        return f"WGMMA_{self.m}x{self.n}x{self.k}"


def WGMMA_64x256x16() -> MmaAtom:
    return MmaAtom(64, 256, 16)


class MmaPartition(Partition):
    """Partition an MMA operand across warps or threads.

    ``proc`` selects the level being decomposed onto: ``WARP`` splits a
    warpgroup-level tensor into 4 warp pieces; ``THREAD`` splits a
    warp-level tensor into 32 thread pieces. ``operand`` is one of
    ``"A"``, ``"B"``, ``"C"``.

    The C operand is distributed in the swizzled Figure-4 pattern. The A
    and B operands are decomposed *co-aligned* with C: a thread's A
    piece holds exactly the A rows its C fragment covers (all K
    columns), and its B piece the B columns its fragment covers (all K
    rows). These pieces overlap between threads — reads may alias — and
    together they describe the data each lane's Tensor Core contribution
    consumes, which is what the compiler must have materialized (in
    shared memory) before the instruction launches.
    """

    kind = "mma"

    def __init__(
        self,
        source: TensorRef,
        atom: MmaAtom,
        proc: ProcessorKind,
        operand: str,
    ):
        super().__init__(source)
        if operand not in ("A", "B", "C"):
            raise PartitionError(
                f"mma operand must be 'A', 'B' or 'C', got {operand!r}"
            )
        if proc not in (ProcessorKind.WARP, ProcessorKind.THREAD):
            raise PartitionError(
                "mma partitioning targets the WARP or THREAD level, got "
                f"{proc.name}"
            )
        if source.rank != 2:
            raise PartitionError(
                f"mma partitioning requires a rank-2 tensor, got {source!r}"
            )
        if any(
            isinstance(partition, MmaPartition)
            and partition.proc is ProcessorKind.THREAD
            for partition, _ in source.path
        ):
            raise PartitionError(
                f"{source!r} is already a thread's fragment; it cannot be "
                f"mma-partitioned again"
            )
        self.atom = atom
        self.proc = proc
        self.operand = operand
        self._validate_shape()

    def _validate_shape(self) -> None:
        """The pieces must cover the source: every row and column in
        exactly the pieces the Figure-4 pattern assigns it to."""
        rows, cols = self.source.shape
        if self.proc is ProcessorKind.WARP:
            need = {
                "A": (WARPS_PER_WARPGROUP, 1),
                "B": (1, 1),
                "C": (WARPS_PER_WARPGROUP * 2 * ROW_GROUP, 1),
            }[self.operand]
        else:
            need = {
                "A": (ROW_GROUP, 1),
                "B": (1, COL_GROUP),
                "C": (2 * ROW_GROUP, COL_GROUP),
            }[self.operand]
        for axis, extent, divisor in zip(
            ("rows", "columns"), (rows, cols), need
        ):
            if extent % divisor:
                raise PartitionError(
                    f"{self.proc.name.lower()}-level mma {self.operand} "
                    f"partition needs {axis} divisible by {divisor}, got "
                    f"{extent}"
                )

    # ------------------------------------------------------------------
    @property
    def grid(self) -> Tuple[int, ...]:
        if self.proc is ProcessorKind.WARP:
            return (WARPS_PER_WARPGROUP,)
        return (THREADS_PER_WARP,)

    def piece_shape(self, index: Sequence[IntoIndex]) -> Tuple[int, ...]:
        rows, cols = self.source.shape
        if self.operand == "B":
            if self.proc is ProcessorKind.WARP:
                # Every warp's C piece spans all columns: B replicates.
                return self.source.shape
            # Thread piece: the fragment's columns, all K rows.
            return (rows, 2 * (cols // COL_GROUP))
        if self.proc is ProcessorKind.WARP:
            # A and C split into contiguous groups of rows/4 per warp.
            return (rows // WARPS_PER_WARPGROUP, cols)
        if self.operand == "A":
            # Thread piece: the fragment's rows, all K columns.
            return (rows // ROW_GROUP, cols)
        # C thread piece: 1 row per 8-row group, 2 columns per 8-column
        # group (the T_i cells of Figure 4).
        return (rows // ROW_GROUP, 2 * (cols // COL_GROUP))

    def map_dims(self, dims, index):
        """Fragment pieces as strided boxes of the Figure-4 pattern.

        Warp-level pieces are dense row bands (or replicated views);
        thread-level fragments are period-8 strided rows/columns. A
        piece of a fragment is a box only while it keeps the fragment's
        column pairs whole; ``BlocksPartition`` asks for this when it
        is built, and gets the ``PartitionError``.
        """
        (thread,) = index
        rows_dim, cols_dim = dims
        if self.proc is ProcessorKind.WARP:
            if self.operand == "B":
                return dims  # replicated across warps
            rows_per_warp = self.source.shape[0] // WARPS_PER_WARPGROUP
            return (rows_dim.shifted(thread * rows_per_warp), cols_dim)
        if self.operand in ("A", "C"):
            rows = Dim(
                ROW_GROUP * rows_dim.lo + thread // 4,
                ROW_GROUP,
                rows_dim.span,
                1,
            )
        else:
            rows = rows_dim
        if self.operand in ("B", "C"):
            if cols_dim.lo % 2 or cols_dim.span % 2:
                raise PartitionError(
                    f"a piece of {self!r} splits a column pair of its "
                    f"fragment"
                )
            cols = Dim(
                COL_GROUP * (cols_dim.lo // 2) + 2 * (thread % 4),
                COL_GROUP,
                cols_dim.span // 2,
                2,
            )
        else:
            cols = cols_dim
        return (rows, cols)

    def __repr__(self) -> str:
        return (
            f"mma({self.source!r}, {self.atom}, {self.proc.name}, "
            f"{self.operand!r})"
        )


def partition_by_mma(
    tensor,
    atom: MmaAtom,
    proc: ProcessorKind,
    operand: str,
) -> MmaPartition:
    """The ``partition_by_mma`` of the paper's Figure 5a."""
    source = tensor.ref() if isinstance(tensor, LogicalTensor) else tensor
    if not isinstance(source, TensorRef):
        raise PartitionError(
            f"cannot mma-partition {tensor!r}; expected a tensor"
        )
    return MmaPartition(source, atom, proc, operand)
