"""Tests for the hierarchical machine model."""

import pytest

from repro.errors import MachineError
from repro.machine import MachineModel, MemoryKind, ProcessorKind
from repro.machine.memory import MemoryLevel
from repro.machine.processor import ProcessorLevel, depth_of, is_intra_block


class TestHierarchy:
    def test_depths_ordered(self):
        assert depth_of(ProcessorKind.HOST) < depth_of(ProcessorKind.BLOCK)
        assert depth_of(ProcessorKind.WARP) < depth_of(ProcessorKind.THREAD)

    def test_intra_block_levels(self):
        assert is_intra_block(ProcessorKind.WARPGROUP)
        assert is_intra_block(ProcessorKind.THREAD)
        assert not is_intra_block(ProcessorKind.BLOCK)
        assert not is_intra_block(ProcessorKind.HOST)

    def test_bad_level_count(self):
        with pytest.raises(ValueError):
            ProcessorLevel(ProcessorKind.WARP, 0)


class TestHopperMachine:
    def test_has_warpgroup_level(self, hopper):
        assert hopper.has_level(ProcessorKind.WARPGROUP)

    def test_memory_visibility(self, hopper):
        assert hopper.is_visible(MemoryKind.GLOBAL, ProcessorKind.HOST)
        assert hopper.is_visible(MemoryKind.SHARED, ProcessorKind.THREAD)
        assert not hopper.is_visible(MemoryKind.SHARED, ProcessorKind.HOST)
        assert not hopper.is_visible(MemoryKind.REGISTER, ProcessorKind.BLOCK)

    def test_none_memory_visible_everywhere(self, hopper):
        assert hopper.is_visible(MemoryKind.NONE, ProcessorKind.HOST)

    def test_shared_capacity(self, hopper):
        assert hopper.memory(MemoryKind.SHARED).capacity_bytes == 228 * 1024

    def test_specs_present(self, hopper):
        assert hopper.spec("sm_count") == 132.0
        assert hopper.spec("tensor_fp16_tflops") == 989.0

    def test_missing_spec_raises(self, hopper):
        with pytest.raises(MachineError):
            hopper.spec("nonexistent_spec")

    def test_describe_mentions_levels(self, hopper):
        text = hopper.describe()
        assert "warpgroup" in text
        assert "shared" in text


class TestAmpereMachine:
    def test_warpgroup_is_logical_only(self, ampere):
        # Pre-Hopper GPUs have no hardware warpgroups; the level exists
        # purely as a logical grouping so Hopper-shaped task trees can
        # be retargeted (see machine/ampere.py).
        (level,) = [
            level for level in ampere.levels
            if level.kind is ProcessorKind.WARPGROUP
        ]
        assert "logical" in level.description

    def test_no_tma_spec(self, ampere):
        assert "tma_issue_cycles" not in ampere.specs


class TestValidation:
    def test_must_start_with_host(self, hopper):
        with pytest.raises(MachineError):
            MachineModel(
                "bad",
                (ProcessorLevel(ProcessorKind.BLOCK, 1),),
            )

    def test_levels_must_be_ordered(self):
        with pytest.raises(MachineError):
            MachineModel(
                "bad",
                (
                    ProcessorLevel(ProcessorKind.HOST, 1),
                    ProcessorLevel(ProcessorKind.THREAD, 32),
                    ProcessorLevel(ProcessorKind.WARP, 4),
                ),
            )

    def test_memory_level_rejects_none(self):
        with pytest.raises(ValueError):
            MemoryLevel(
                kind=MemoryKind.NONE,
                capacity_bytes=1,
                visible_from=ProcessorKind.HOST,
                bandwidth_bytes_per_cycle=1.0,
                latency_cycles=0,
            )
