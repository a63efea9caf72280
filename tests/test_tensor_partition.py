"""Tests for logical tensors, references, and the blocks partition."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PartitionError, TensorError
from repro.sym import Var
from repro.tensors import LogicalTensor, f16, f32, partition_by_blocks
from repro.tensors.partition import SqueezePartition, squeeze


def _pieces(partition):
    """Every piece of ``partition``, in row-major grid order."""
    for index in itertools.product(*(range(n) for n in partition.grid)):
        yield partition[index]


class TestLogicalTensor:
    def test_properties(self):
        t = LogicalTensor("A", (4, 8), f16)
        assert t.rank == 2
        assert t.size == 32
        assert t.size_bytes == 64

    def test_unique_ids(self):
        a = LogicalTensor("A", (4,), f16)
        b = LogicalTensor("A", (4,), f16)
        assert a != b
        assert a == a

    def test_rejects_bad_shape(self):
        with pytest.raises(TensorError):
            LogicalTensor("A", (), f16)
        with pytest.raises(TensorError):
            LogicalTensor("A", (0, 4), f16)


class TestBlocksPartition:
    def test_grid(self):
        t = LogicalTensor("A", (64, 64), f16)
        p = partition_by_blocks(t, (16, 32))
        assert p.grid == (4, 2)

    def test_ragged_grid(self):
        t = LogicalTensor("A", (65, 64), f16)
        p = partition_by_blocks(t, (16, 32))
        assert p.grid == (5, 2)
        assert p[4, 0].shape == (1, 32)

    def test_ragged_symbolic_rejected(self):
        t = LogicalTensor("A", (65, 64), f16)
        p = partition_by_blocks(t, (16, 32))
        with pytest.raises(PartitionError):
            _ = p[Var("k"), 0].shape

    def test_read_write_roundtrip(self, rng):
        t = LogicalTensor("A", (32, 32), f32)
        p = partition_by_blocks(t, (8, 16))
        arr = rng.standard_normal((32, 32)).astype(np.float32)
        piece = p[2, 1].read(arr)
        assert np.array_equal(piece, arr[16:24, 16:32])
        p[2, 1].write(arr, np.zeros((8, 16), np.float32))
        assert (arr[16:24, 16:32] == 0).all()

    def test_symbolic_read_with_env(self, rng):
        t = LogicalTensor("A", (32, 32), f32)
        p = partition_by_blocks(t, (8, 16))
        arr = rng.standard_normal((32, 32)).astype(np.float32)
        ref = p[Var("i"), 0]
        piece = ref.read(arr, {"i": 3})
        assert np.array_equal(piece, arr[24:32, 0:16])

    def test_nested_partitions(self, rng):
        t = LogicalTensor("A", (32, 32), f32)
        outer = partition_by_blocks(t, (16, 32))
        inner = partition_by_blocks(outer[1, 0], (8, 8))
        arr = rng.standard_normal((32, 32)).astype(np.float32)
        piece = inner[1, 2].read(arr)
        assert np.array_equal(piece, arr[24:32, 16:24])

    def test_index_out_of_range(self):
        t = LogicalTensor("A", (32, 32), f16)
        p = partition_by_blocks(t, (8, 8))
        with pytest.raises(PartitionError):
            p[4, 0]

    def test_wrong_arity(self):
        t = LogicalTensor("A", (32, 32), f16)
        p = partition_by_blocks(t, (8, 8))
        with pytest.raises(PartitionError):
            p[1]

    def test_wrong_rank_blocks(self):
        t = LogicalTensor("A", (32, 32), f16)
        with pytest.raises(PartitionError):
            partition_by_blocks(t, (8,))


class TestAliasing:
    def test_disjoint_pieces(self):
        t = LogicalTensor("A", (32, 32), f16)
        p = partition_by_blocks(t, (16, 16))
        assert not p[0, 0].may_alias(p[1, 1])
        assert p[0, 0].may_alias(p[0, 0])

    def test_overlapping_partitions(self):
        t = LogicalTensor("A", (32, 32), f16)
        p1 = partition_by_blocks(t, (16, 32))
        p2 = partition_by_blocks(t, (32, 16))
        assert p1[0, 0].may_alias(p2[0, 0])

    def test_different_roots_never_alias(self):
        a = LogicalTensor("A", (32, 32), f16)
        b = LogicalTensor("B", (32, 32), f16)
        pa = partition_by_blocks(a, (16, 16))
        pb = partition_by_blocks(b, (16, 16))
        assert not pa[0, 0].may_alias(pb[0, 0])

    def test_whole_aliases_any_piece(self):
        t = LogicalTensor("A", (32, 32), f16)
        p = partition_by_blocks(t, (16, 16))
        assert t.ref().may_alias(p[1, 1])


class TestSqueeze:
    def test_squeeze_shape(self):
        t = LogicalTensor("A", (1, 8, 4), f16)
        assert squeeze(t).shape == (8, 4)

    def test_squeeze_batched_piece(self, rng):
        t = LogicalTensor("A", (2, 8, 4), f32)
        p = partition_by_blocks(t, (1, 8, 4))
        arr = rng.standard_normal((2, 8, 4)).astype(np.float32)
        piece = squeeze(p[1, 0, 0])
        assert piece.shape == (8, 4)
        assert np.array_equal(piece.read(arr), arr[1])

    def test_squeeze_nothing_to_drop(self):
        t = LogicalTensor("A", (8, 4), f16)
        with pytest.raises(PartitionError):
            squeeze(t)


@settings(max_examples=30)
@given(
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=6),
    block_r=st.integers(min_value=1, max_value=6),
    block_c=st.integers(min_value=1, max_value=6),
)
def test_blocks_partition_covers_exactly(rows, cols, block_r, block_c):
    """Every element belongs to exactly one piece (disjoint + complete)."""
    t = LogicalTensor("A", (rows * 2, cols * 2), f16)
    p = partition_by_blocks(t, (block_r, block_c))
    seen = {}
    for piece in _pieces(p):
        for coord in piece.element_coords().reshape(-1, 2):
            key = tuple(coord.tolist())
            assert key not in seen
            seen[key] = True
    assert len(seen) == t.size
