"""Tests for the mma partitioning operator (paper Figure 4).

Element sets are read from ``element_oracle``, which enumerates them
with Figure 4's formulas, independently of the region algebra the
partition itself answers with.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from element_oracle import coord_rows, coord_set, element_coords
from repro.errors import PartitionError
from repro.kernels.common import kernel_registry
from repro.machine.processor import ProcessorKind
from repro.tensors import (
    LogicalTensor,
    MmaAtom,
    WGMMA_64x256x16,
    f16,
    partition_by_blocks,
    partition_by_mma,
)

ATOM = WGMMA_64x256x16()


def _pieces(partition):
    """Every piece of ``partition``, in row-major grid order."""
    for index in itertools.product(*(range(n) for n in partition.grid)):
        yield partition[index]


class TestAtoms:
    def test_flops(self):
        # One atom invocation, as the wgmma leaf that executes it counts it.
        wgmma = kernel_registry.external("wgmma_f16")
        c, a, b = (ATOM.m, ATOM.n), (ATOM.m, ATOM.k), (ATOM.k, ATOM.n)
        assert wgmma.flops_fn([c, a, b]) == 2 * 64 * 256 * 16

    def test_name(self):
        assert repr(MmaAtom(64, 128, 16)) == "WGMMA_64x128x16"

    def test_bad_m(self):
        with pytest.raises(PartitionError):
            MmaAtom(32, 64, 16)

    def test_bad_n(self):
        with pytest.raises(PartitionError):
            MmaAtom(64, 60, 16)


class TestCOperand:
    def test_warp_level_splits_rows(self):
        c = LogicalTensor("C", (64, 256), f16)
        p = partition_by_mma(c, ATOM, ProcessorKind.WARP, "C")
        assert p.grid == (4,)
        assert p[0].shape == (16, 256)
        coords = element_coords(p[2])
        assert coords[0, 0, 0] == 32  # warp 2 starts at row 32

    def test_thread_level_figure4_pattern(self):
        c = LogicalTensor("C", (16, 256), f16)
        p = partition_by_mma(c, ATOM, ProcessorKind.THREAD, "C")
        assert p.grid == (32,)
        assert p[0].shape == (2, 64)
        # Thread 5 holds rows 1 and 9; columns 2, 3 of each 8-column
        # group (t // 4 == 1, t % 4 == 1).
        coords = element_coords(p[5])
        assert coords[0, 0, 0] == 1 and coords[1, 0, 0] == 9
        assert coords[0, 0, 1] == 2 and coords[0, 1, 1] == 3
        assert coords[0, 2, 1] == 10  # next 8-column group

    def test_thread_level_disjoint_and_complete(self):
        c = LogicalTensor("C", (16, 256), f16)
        p = partition_by_mma(c, ATOM, ProcessorKind.THREAD, "C")
        seen = set()
        for piece in _pieces(p):
            for coord in coord_rows(piece):
                key = tuple(coord.tolist())
                assert key not in seen
                seen.add(key)
        assert len(seen) == 16 * 256

    def test_warp_then_thread_composition(self):
        c = LogicalTensor("C", (64, 256), f16)
        warp = partition_by_mma(c, ATOM, ProcessorKind.WARP, "C")
        thread = partition_by_mma(warp[1], ATOM, ProcessorKind.THREAD, "C")
        coords = element_coords(thread[0])
        assert coords[0, 0, 0] == 16  # warp 1, thread 0, first row

    def test_bad_row_count(self):
        c = LogicalTensor("C", (60, 256), f16)
        with pytest.raises(PartitionError):
            partition_by_mma(c, ATOM, ProcessorKind.WARP, "C")


class TestABOperands:
    def test_a_warp_rows(self):
        a = LogicalTensor("A", (64, 64), f16)
        p = partition_by_mma(a, ATOM, ProcessorKind.WARP, "A")
        assert p[0].shape == (16, 64)

    def test_b_warp_replicated(self):
        b = LogicalTensor("B", (64, 256), f16)
        p = partition_by_mma(b, ATOM, ProcessorKind.WARP, "B")
        assert p[0].shape == (64, 256)
        assert p[0].may_alias(p[3])

    def test_fragment_alignment(self):
        """A thread's A rows and B columns match its C fragment."""
        c = LogicalTensor("C", (16, 256), f16)
        a = LogicalTensor("A", (16, 64), f16)
        b = LogicalTensor("B", (64, 256), f16)
        cp = partition_by_mma(c, ATOM, ProcessorKind.THREAD, "C")
        ap = partition_by_mma(a, ATOM, ProcessorKind.THREAD, "A")
        bp = partition_by_mma(b, ATOM, ProcessorKind.THREAD, "B")
        for t in (0, 5, 17, 31):
            c_coords = element_coords(cp[t])
            a_coords = element_coords(ap[t])
            b_coords = element_coords(bp[t])
            assert set(c_coords[..., 0].ravel()) == set(
                a_coords[..., 0].ravel()
            )
            assert set(c_coords[..., 1].ravel()) == set(
                b_coords[..., 1].ravel()
            )

    def test_fragment_gemm_matches_full(self, rng):
        """Per-thread fragment GEMMs compose to the full product."""
        m_rows, k, n = 16, 64, 256
        A = rng.standard_normal((m_rows, k)).astype(np.float32)
        B = rng.standard_normal((k, n)).astype(np.float32)
        C = np.zeros((m_rows, n), np.float32)
        ct = LogicalTensor("C", (m_rows, n), f16)
        at = LogicalTensor("A", (m_rows, k), f16)
        bt = LogicalTensor("B", (k, n), f16)
        cp = partition_by_mma(ct, ATOM, ProcessorKind.THREAD, "C")
        ap = partition_by_mma(at, ATOM, ProcessorKind.THREAD, "A")
        bp = partition_by_mma(bt, ATOM, ProcessorKind.THREAD, "B")
        for t in range(32):
            frag = cp[t].read(C) + ap[t].read(A) @ bp[t].read(B)
            cp[t].write(C, frag)
        assert np.allclose(C, A @ B, atol=1e-4)

    def test_bad_proc_level(self):
        a = LogicalTensor("A", (64, 64), f16)
        with pytest.raises(PartitionError):
            partition_by_mma(a, ATOM, ProcessorKind.BLOCK, "A")

    def test_bad_operand_name(self):
        a = LogicalTensor("A", (64, 64), f16)
        with pytest.raises(PartitionError):
            partition_by_mma(a, ATOM, ProcessorKind.WARP, "D")

    def test_requires_rank2(self):
        a = LogicalTensor("A", (64,), f16)
        with pytest.raises(PartitionError):
            partition_by_mma(a, ATOM, ProcessorKind.WARP, "A")


@settings(max_examples=10)
@given(
    groups=st.integers(min_value=1, max_value=4),
    col_groups=st.sampled_from([8, 16, 32]),
)
def test_thread_c_partition_always_covers(groups, col_groups):
    rows, cols = 16 * groups, 8 * col_groups
    c = LogicalTensor("C", (rows, cols), f16)
    p = partition_by_mma(
        c, MmaAtom(64, 64, 16), ProcessorKind.THREAD, "C"
    )
    total = 0
    seen = set()
    for piece in _pieces(p):
        coords = coord_rows(piece)
        total += len(coords)
        seen.update(map(tuple, coords.tolist()))
    assert total == rows * cols
    assert len(seen) == rows * cols


class TestSourcesThePatternCovers:
    """A partition that builds has pieces covering every element of
    its source; any other source is rejected when partitioned."""

    @pytest.mark.parametrize(
        "shape, proc, operand",
        [
            ((65, 16), ProcessorKind.THREAD, "A"),  # rows % 8
            ((16, 70), ProcessorKind.THREAD, "B"),  # columns % 8
            ((66, 16), ProcessorKind.WARP, "A"),  # rows % 4
        ],
    )
    def test_ragged_sources_are_rejected(self, shape, proc, operand):
        source = LogicalTensor("S", shape, f16)
        with pytest.raises(PartitionError, match="divisible by"):
            partition_by_mma(source, MmaAtom(64, 64, 16), proc, operand)

    @pytest.mark.parametrize("operand", ["A", "B", "C"])
    @pytest.mark.parametrize(
        "proc", [ProcessorKind.WARP, ProcessorKind.THREAD]
    )
    def test_a_fragment_is_not_partitioned_again(self, proc, operand):
        c = LogicalTensor("C", (64, 64), f16)
        fragment = partition_by_mma(
            c, MmaAtom(64, 64, 16), ProcessorKind.THREAD, "C"
        )[0]
        tile = partition_by_blocks(fragment, (8, 16))[0, 0]
        for source in (fragment, tile):
            with pytest.raises(PartitionError, match="fragment"):
                partition_by_mma(source, MmaAtom(64, 64, 16), proc, operand)

    # Extents near multiples of 8, where the divisibility rules bite.
    near_8 = st.builds(
        lambda k, d: 8 * k + d, st.integers(1, 8), st.sampled_from([0, 1, 4])
    )

    @settings(max_examples=60, deadline=None)
    @given(
        rows=near_8,
        cols=near_8,
        proc=st.sampled_from([ProcessorKind.WARP, ProcessorKind.THREAD]),
        operand=st.sampled_from(["A", "B", "C"]),
    )
    def test_pieces_cover_their_source(self, rows, cols, proc, operand):
        source = LogicalTensor("S", (rows, cols), f16)
        try:
            part = partition_by_mma(
                source, MmaAtom(64, 64, 16), proc, operand
            )
        except PartitionError:
            return
        covered = set().union(*(coord_set(piece) for piece in _pieces(part)))
        assert covered == coord_set(source.ref())

    def test_aligned_sources_build(self):
        # The coverage property above is not vacuous: every level and
        # operand builds on a source the pattern divides.
        source = LogicalTensor("S", (64, 64), f16)
        for proc in (ProcessorKind.WARP, ProcessorKind.THREAD):
            for operand in "ABC":
                partition_by_mma(source, MmaAtom(64, 64, 16), proc, operand)
