"""Property tests for the symbolic region algebra.

The acceptance contract of :mod:`repro.tensors.regions` is *verdict
equivalence*: on every reference the algebra can describe, its
aliasing/disjointness answers must equal the coordinate-enumeration
oracle's (and never be weaker — everything enumeration flags as
aliasing, the algebra flags too). These tests check that contract on
randomized partition trees, the strided 1-D set arithmetic against
brute force, the symbolic all-iterations proof against exhaustive
iteration pairs, and the ``PrivilegeError`` regressions for
overlapping tile writes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.dependence import DependenceAnalysis
from repro.errors import PrivilegeError
from repro.frontend import (
    Inner,
    Leaf,
    MappingSpec,
    TaskMapping,
    TaskRegistry,
    call_external,
    external_function,
    launch,
    prange,
    task,
    use_registry,
)
from repro.kernels import build_gemm_reduction
from repro.machine import hopper_machine
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind
from repro.sym import ProcIndex, Var, to_expr
from repro.tensors import (
    Dim,
    LogicalTensor,
    MmaAtom,
    f16,
    partition_by_blocks,
    partition_by_mma,
    prove_iterations_disjoint,
    region_of,
    squeeze,
)
from repro.tensors.regions import rows_intersect, view_of


def _coord_set(ref, env=None):
    """The enumeration oracle: element coordinates as a set of tuples."""
    coords = ref.element_coords(env).reshape(-1, ref.root.rank)
    return {tuple(row) for row in coords.tolist()}


def _box_coord_set(box):
    """A box's element coordinates as a set of tuples."""
    grids = np.meshgrid(*[dim.values() for dim in box.dims], indexing="ij")
    coords = np.stack(grids, axis=-1).reshape(-1, box.rank)
    return {tuple(row) for row in coords.tolist()}


def _oracle_alias(a, b, env=None):
    """The pre-algebra ``may_alias``: materialize and intersect sets."""
    if a.root != b.root:
        return False
    return bool(_coord_set(a, env) & _coord_set(b, env))


# ----------------------------------------------------------------------
# 1-D strided set arithmetic
# ----------------------------------------------------------------------
dims = st.builds(
    Dim,
    lo=st.integers(0, 40),
    step=st.integers(1, 12),
    count=st.integers(1, 6),
    span=st.integers(1, 12),
)


class TestDim:
    @given(a=dims, b=dims)
    @settings(max_examples=300, deadline=None)
    def test_intersects_matches_enumeration(self, a, b):
        expected = bool(np.intersect1d(a.values(), b.values()).size)
        assert a.intersects(b) == expected
        assert b.intersects(a) == expected

    @given(a=dims, b=dims)
    @settings(max_examples=300, deadline=None)
    def test_contains_matches_enumeration(self, a, b):
        expected = set(b.values()) <= set(a.values())
        assert a.contains(b) == expected

    def test_canonicalization(self):
        # Abutting strided intervals collapse to a dense interval.
        assert Dim(0, 4, 3, 4) == Dim(0, 12, 1, 12)
        assert Dim(5, 2, 1, 7).is_dense
        assert not Dim(0, 8, 4, 2).is_dense

    def test_values_are_the_set(self):
        assert Dim(3, 8, 2, 2).values().tolist() == [3, 4, 11, 12]


# ----------------------------------------------------------------------
# Region derivation from randomized partition trees
# ----------------------------------------------------------------------
@st.composite
def blocks_refs(draw):
    """Two references into one root via random blocks/squeeze chains."""
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(2, 24)) for _ in range(rank))
    root = LogicalTensor("t", shape, f16)

    def make_ref():
        ref = root.ref()
        for _ in range(draw(st.integers(1, 2))):
            if (
                1 in ref.shape
                and any(extent != 1 for extent in ref.shape)
                and draw(st.booleans())
            ):
                ref = squeeze(ref)
            block = tuple(
                draw(st.integers(1, extent)) for extent in ref.shape
            )
            part = partition_by_blocks(ref, block)
            index = tuple(draw(st.integers(0, g - 1)) for g in part.grid)
            ref = part[index]
        return ref

    return make_ref(), make_ref()


class TestRegionOf:
    @given(refs=blocks_refs())
    @settings(max_examples=200, deadline=None)
    def test_region_covers_exactly(self, refs):
        for ref in refs:
            region = region_of(ref)
            assert region is not None
            (box,) = region.boxes
            assert _box_coord_set(box) == _coord_set(ref)

    @given(refs=blocks_refs())
    @settings(max_examples=200, deadline=None)
    def test_verdict_equals_enumeration_oracle(self, refs):
        a, b = refs
        assert a.may_alias(b) == _oracle_alias(a, b)

    def test_unsupported_partition_falls_back(self):
        from repro.tensors import BlocksPartition

        class OpaquePartition(BlocksPartition):
            kind = "opaque"

            def map_dims(self, dims, index):
                return None

        root = LogicalTensor("t", (8,), f16)
        part = OpaquePartition(root.ref(), (4,))
        assert region_of(part[0]) is None
        # may_alias still answers exactly through the vectorized
        # materialized fallback.
        assert not part[0].may_alias(part[1])
        assert part[0].may_alias(part[0])


class TestMmaRegions:
    @pytest.mark.parametrize("operand", ["A", "B", "C"])
    @pytest.mark.parametrize(
        "proc", [ProcessorKind.WARP, ProcessorKind.THREAD]
    )
    def test_fragment_regions_cover_exactly(self, operand, proc):
        root = LogicalTensor("c", (64, 64), f16)
        part = partition_by_mma(root, MmaAtom(64, 64, 16), proc, operand)
        for which in range(part.grid[0]):
            ref = part[which]
            region = region_of(ref)
            assert region is not None, (operand, proc, which)
            (box,) = region.boxes
            assert _box_coord_set(box) == _coord_set(ref)

    def test_c_thread_fragments_disjoint_and_a_overlapping(self):
        root = LogicalTensor("c", (64, 64), f16)
        c = partition_by_mma(
            root, MmaAtom(64, 64, 16), ProcessorKind.THREAD, "C"
        )
        a = partition_by_mma(
            root, MmaAtom(64, 64, 16), ProcessorKind.THREAD, "A"
        )
        for t in range(1, 32):
            assert not c[0].may_alias(c[t])
        # Threads 0-3 share t//4 == 0: their A rows are replicated.
        assert a[0].may_alias(a[1])

    def test_verdicts_match_oracle_across_threads(self):
        root = LogicalTensor("c", (64, 64), f16)
        part = partition_by_mma(
            root, MmaAtom(64, 64, 16), ProcessorKind.THREAD, "C"
        )
        blocks = partition_by_blocks(root, (8, 8))
        for t in (0, 1, 5, 31):
            for index in ((0, 0), (1, 1), (7, 7)):
                a, b = part[t], blocks[index]
                assert a.may_alias(b) == _oracle_alias(a, b), (t, index)


# ----------------------------------------------------------------------
# Functional executor fast path
# ----------------------------------------------------------------------
@st.composite
def mma_refs(draw):
    """An ``mma`` fragment reference, its environment, and whether every
    strided axis divides its root extent (so the view path applies).

    The fragment is a WARP piece, a THREAD piece, or a THREAD piece of a
    WARP piece, optionally of a symbolically indexed ``blocks`` tile and
    optionally cut once more by a concrete ``blocks`` piece.
    """
    operand = draw(st.sampled_from(["A", "B", "C"]))
    nesting = draw(st.sampled_from(["warp", "thread", "warp+thread"]))
    # C validates its shape; A and B also take extents the period-8
    # pattern does not divide.
    ragged = operand != "C" and draw(st.booleans())
    extra = st.integers(1, 7) if ragged else st.just(0)
    rows = 64 * draw(st.integers(1, 2)) + draw(extra)
    cols = 8 * draw(st.integers(1, 4)) + draw(extra)
    env = {}
    if draw(st.booleans()):
        grid = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        root = LogicalTensor("t", (grid[0] * rows, grid[1] * cols), f16)
        env = {"i": draw(st.integers(0, grid[0] - 1)),
               "j": draw(st.integers(0, grid[1] - 1))}
        ref = partition_by_blocks(root, (rows, cols))[Var("i"), Var("j")]
        tiles = grid
    else:
        root = LogicalTensor("t", (rows, cols), f16)
        ref = root.ref()
        tiles = (1, 1)
    for level in nesting.split("+"):
        proc = ProcessorKind[level.upper()]
        part = partition_by_mma(ref, MmaAtom(64, 64, 16), proc, operand)
        env[level] = draw(st.integers(0, part.grid[0] - 1))
        ref = part[ProcIndex(level)]
    if draw(st.booleans()):
        block = tuple(draw(st.integers(1, extent)) for extent in ref.shape)
        if operand != "A":
            block = (block[0], 2 * -(-block[1] // 2))  # whole column pairs
        part = partition_by_blocks(ref, block)
        ref = part[tuple(draw(st.integers(0, g - 1)) for g in part.grid)]
    strided_rows = "thread" in nesting and operand in ("A", "C")
    strided_cols = "thread" in nesting and operand in ("B", "C")
    divisible = not (
        (strided_rows and ref.shape[0] > 1 and (tiles[0] * rows) % 8)
        or (strided_cols and ref.shape[1] > 2 and (tiles[1] * cols) % 8)
    )
    return ref, env, divisible


def _assert_matches_gather_scatter(ref, env=None):
    """``read``/``write`` against the ``element_coords`` oracle, element
    for element and in sub-tensor order, on a non-contiguous array."""
    rng = np.random.default_rng(0)
    root_array = np.asfortranarray(
        rng.standard_normal(ref.root.shape).astype(np.float32)
    )
    coords = ref.element_coords(env).reshape(-1, ref.root.rank)
    expected = root_array[tuple(coords.T)].reshape(ref.shape)
    assert np.array_equal(ref.read(root_array, env), expected)

    value = np.arange(ref.size, dtype=np.float32).reshape(ref.shape)
    via_write = root_array.copy(order="F")
    ref.write(via_write, value, env)
    via_scatter = root_array.copy()
    via_scatter[tuple(coords.T)] = value.reshape(-1)
    assert np.array_equal(via_write, via_scatter)


class TestDenseSliceFastPath:
    @given(refs=blocks_refs())
    @settings(max_examples=100, deadline=None)
    def test_read_write_equal_gather_scatter(self, refs):
        ref, _ = refs
        assert ref.is_whole or view_of(ref) is not None
        _assert_matches_gather_scatter(ref)

    @given(case=mma_refs())
    @settings(max_examples=150)
    def test_mma_fragment_views_equal_gather_scatter(self, case):
        ref, env, divisible = case
        # A step that divides its root extent is a reshape plus basic
        # slices; otherwise the algebra declines and read/write gather.
        assert (view_of(ref, env) is not None) == divisible
        _assert_matches_gather_scatter(ref, env)

    def test_declined_reference_round_trips_through_gather(self):
        from repro.tensors import BlocksPartition

        class OpaquePartition(BlocksPartition):
            kind = "opaque"

            def map_dims(self, dims, index):
                return None

        root = LogicalTensor("t", (8, 6), f16)
        ref = OpaquePartition(root.ref(), (4, 3))[Var("i"), 1]
        assert region_of(ref, {"i": 1}) is None
        assert view_of(ref, {"i": 1}) is None
        _assert_matches_gather_scatter(ref, {"i": 1})
        with pytest.raises(KeyError):
            ref.read(np.zeros((8, 6), np.float16), {})


class TestRowsIntersect:
    @given(
        a=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))),
        b=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_set_intersection(self, a, b):
        expected = bool(set(a) & set(b))
        a_arr = np.array(a, dtype=np.int64).reshape(-1, 2)
        b_arr = np.array(b, dtype=np.int64).reshape(-1, 2)
        assert rows_intersect(a_arr, b_arr) == expected


# ----------------------------------------------------------------------
# Symbolic all-iterations proof
# ----------------------------------------------------------------------
@st.composite
def symbolic_cases(draw):
    """A root, two symbolically indexed refs, and a small loop domain."""
    extent0 = draw(st.sampled_from([2, 3, 4]))
    block = draw(st.sampled_from([2, 4]))
    shape = (extent0 * block * 2, 8)
    root = LogicalTensor("t", shape, f16)
    i = Var("i")
    exprs = [
        i,
        i + 1,
        i * 2,
        to_expr(2) * i + 1,
        i % 2,
        i // 2,
        to_expr(0) * i,
    ]
    part = partition_by_blocks(root, (block, 8))
    ref_a = part[draw(st.sampled_from(exprs)), 0]
    ref_b = part[draw(st.sampled_from(exprs)), 0]
    return root, ref_a, ref_b, (("i", extent0),)


class TestProveIterationsDisjoint:
    @given(case=symbolic_cases())
    @settings(max_examples=200, deadline=None)
    def test_proof_is_sound(self, case):
        _, ref_a, ref_b, domain = case
        if not prove_iterations_disjoint(ref_a, ref_b, domain):
            return  # no claim made; sampling handles it
        ((name, extent),) = domain
        for v1 in range(extent):
            for v2 in range(extent):
                if v1 == v2:
                    continue
                shared = _coord_set(ref_a, {name: v1}) & _coord_set(
                    ref_b, {name: v2}
                )
                assert not shared, (ref_a, ref_b, v1, v2)

    def test_canonical_tiling_is_proved(self):
        root = LogicalTensor("c", (64, 64), f16)
        part = partition_by_blocks(root, (16, 16))
        i, j = Var("i"), Var("j")
        ref = part[i, j]
        assert prove_iterations_disjoint(
            ref, ref, (("i", 4), ("j", 4))
        )

    def test_non_affine_index_is_not_proved(self):
        root = LogicalTensor("c", (64, 64), f16)
        part = partition_by_blocks(root, (16, 16))
        i, j = Var("i"), Var("j")
        ref = part[i % 2, j]
        assert not prove_iterations_disjoint(
            ref, ref, (("i", 4), ("j", 4))
        )

    def test_mismatched_constant_offsets_are_not_proved(self):
        root = LogicalTensor("c", (64, 64), f16)
        p = partition_by_blocks(root, (16, 64))
        q = partition_by_blocks(root, (24, 64))
        i = Var("i")
        assert not prove_iterations_disjoint(
            p[i, 0], q[i, 0], (("i", 2),)
        )

    def test_unit_extents_are_vacuously_disjoint(self):
        root = LogicalTensor("c", (64, 64), f16)
        part = partition_by_blocks(root, (64, 64))
        i = Var("i")
        assert prove_iterations_disjoint(
            part[i, 0], part[i, 0], (("i", 1),)
        )


# ----------------------------------------------------------------------
# PrivilegeError regressions through the compile path
# ----------------------------------------------------------------------
def _spec_with_top(top_variant_name, registry):
    machine = hopper_machine()
    return MappingSpec(
        [
            TaskMapping(
                instance="top",
                variant=top_variant_name,
                proc=ProcessorKind.HOST,
                mems=(MemoryKind.GLOBAL,),
                entrypoint=True,
                calls=("writer",),
            ),
            TaskMapping(
                instance="writer",
                variant="writer_leaf",
                proc=ProcessorKind.BLOCK,
                mems=(MemoryKind.GLOBAL,),
            ),
        ],
        registry,
        machine,
    )


def _registry_with_writer():
    reg = TaskRegistry()
    with use_registry(reg):
        @external_function("zero", cost_kind="simt")
        def zero(x):
            x[...] = 0

        @task("writer", Leaf, writes=["x"])
        def writer_leaf(x):
            call_external("zero", x)

    return reg


class TestPrangePrivilegeRegressions:
    def test_disjoint_tiles_compile(self):
        reg = _registry_with_writer()
        with use_registry(reg):
            @task("top", Inner, writes=["x"])
            def top_ok(x):
                p = partition_by_blocks(x, (16, 64))
                for i in prange(4):
                    launch("writer", p[i, 0])

        spec = _spec_with_top("top_ok", reg)
        fn = DependenceAnalysis(spec, "ok").run([(64, 64)], [f16])
        assert fn is not None

    def test_off_by_one_overlapping_tiles_raise(self):
        reg = _registry_with_writer()
        with use_registry(reg):
            @task("top", Inner, writes=["x"])
            def top_overlap(x):
                # The classic off-by-one: each iteration also writes its
                # left neighbor's tile, so iteration i and i+1 collide.
                p = partition_by_blocks(x, (16, 64))
                for i in prange(2):
                    launch("writer", p[i, 0])
                    launch("writer", p[i - 1, 0])

        spec = _spec_with_top("top_overlap", reg)
        with pytest.raises(PrivilegeError, match="aliasing writes"):
            DependenceAnalysis(spec, "bad").run([(64, 64)], [f16])

    def test_identical_writes_every_iteration_raise(self):
        reg = _registry_with_writer()
        with use_registry(reg):
            @task("top", Inner, writes=["x"])
            def top_same(x):
                p = partition_by_blocks(x, (16, 64))
                for _ in prange(4):
                    launch("writer", p[0, 0])

        spec = _spec_with_top("top_same", reg)
        with pytest.raises(PrivilegeError, match="identically"):
            DependenceAnalysis(spec, "bad").run([(64, 64)], [f16])

    @pytest.mark.parametrize(
        "row_tiles",
        [
            1,
            2,
            pytest.param(
                3,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the sampled fallback misses aliasing writes "
                    "from three row tiles on",
                ),
            ),
        ],
    )
    def test_gemm_reduction_column_tiles_alias_y(self, hopper, row_tiles):
        """Every column tile of a row tile writes the same ``y`` block,
        so ``gemm_reduction`` must be rejected on any grid with more
        than one column tile (here four). When the symbolic proof gives
        up, ``_check_prange_disjoint`` compares only three *joint*
        iteration points — (0, 0), (1, 1) and (last, last) — and from
        three row tiles on no two of them share a row tile, so the
        aliasing pair is never sampled and the mapping compiles."""
        build = build_gemm_reduction(hopper, 256 * row_tiles, 1024, 256)
        with pytest.raises(PrivilegeError, match="aliasing writes"):
            DependenceAnalysis(build.spec, build.name).run(
                build.arg_shapes, build.arg_dtypes
            )
