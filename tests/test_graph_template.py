"""Graph templates: fingerprint keying, LRU cache, replay equivalence.

The centerpiece is the hypothesis property: on randomized topologies
(chain depth, fan-out, whole vs partition-piece bindings), replaying a
template must be *bit-identical* to fresh capture + inference — same
edges, same topological order, and the same
functional outputs through ``api.run_graph``. Different topologies must
never collide on a fingerprint. The cache's launch plans are counted
with a registry whose builder counts its calls: a re-capture builds
nothing, yet still checks every binding.
"""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.errors import CypressError
from repro.graph import (
    GraphBuilder,
    GraphTemplate,
    GraphTemplateCache,
    TaskGraph,
    template_cache,
)
from repro.kernels import KERNEL_BUILDERS
from repro.runtime import KernelRegistry, default_registry
from repro.tensors import partition_by_blocks

M, K = 256, 256
GEMM_SHAPE = dict(m=M, n=M, k=K)


@pytest.fixture(autouse=True)
def fresh_caches():
    api.clear_compile_cache()
    template_cache.clear()
    yield
    api.clear_compile_cache()
    template_cache.clear()


# A topology plan: chain depth, fan-out width off the chain head, and
# whether the fan-out readers bind a partition piece instead of a whole
# tensor.
_PLANS = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)


def _capture(machine, plan, cache) -> TaskGraph:
    return _record(machine, plan, cache).build()


def _record(machine, plan, cache) -> GraphBuilder:
    """The builder of one topology plan, its launches captured."""
    depth, fanout, use_piece = plan
    gb = GraphBuilder(machine, template_cache=cache)
    current = gb.tensor("T0", (M, K))
    weight = gb.tensor("W", (K, M))
    for index in range(depth):
        nxt = gb.tensor(f"T{index + 1}", (M, M))
        gb.launch(
            "gemm",
            GEMM_SHAPE,
            reads=dict(A=current, B=weight),
            writes=dict(C=nxt),
        )
        current = nxt
    big = gb.tensor("S", (2 * M, 2 * K))
    for index in range(fanout):
        out = gb.tensor(f"F{index}", (M, M))
        source = (
            partition_by_blocks(big.ref(), (M, K))[0, 1]
            if use_piece
            else current
        )
        gb.launch(
            "gemm",
            GEMM_SHAPE,
            reads=dict(A=source, B=weight),
            writes=dict(C=out),
        )
    return gb


class TestReplayEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(plan=_PLANS)
    def test_replay_is_bit_identical_to_fresh_inference(
        self, hopper, plan
    ):
        cache = GraphTemplateCache()
        first = _capture(hopper, plan, cache)  # miss: full inference
        replay = _capture(hopper, plan, cache)  # hit: template replay
        fresh = _capture(hopper, plan, None)  # templating disabled
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert replay.edges == first.edges == fresh.edges
        assert replay.topological_order() == fresh.topological_order()

    def test_replay_produces_identical_run_outputs(self, hopper):
        plan = (2, 2, True)
        cache = GraphTemplateCache()
        rng = np.random.default_rng(11)
        inputs = {
            "T0": (rng.standard_normal((M, K)) * 0.1).astype(np.float16),
            "W": (rng.standard_normal((K, M)) * 0.1).astype(np.float16),
            "S": (rng.standard_normal((2 * M, 2 * K)) * 0.1).astype(
                np.float16
            ),
        }
        _capture(hopper, plan, cache)  # seed the template
        replayed = _capture(hopper, plan, cache)
        fresh = _capture(hopper, plan, None)
        out_replay = api.run_graph(replayed, dict(inputs))
        out_fresh = api.run_graph(fresh, dict(inputs))
        assert out_replay.keys() == out_fresh.keys()
        for name in out_fresh:
            np.testing.assert_array_equal(out_replay[name], out_fresh[name])

    def test_distinct_topologies_never_share_a_fingerprint(self, hopper):
        cache = GraphTemplateCache()
        plans = [(1, 0, False), (2, 0, False), (1, 1, False), (1, 1, True)]
        for plan in plans:
            _capture(hopper, plan, cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == len(plans)
        assert len(cache) == len(plans)

    def test_replayed_graph_has_deferred_regions(self, hopper):
        cache = GraphTemplateCache()
        first = _capture(hopper, (2, 0, False), cache)
        replay = _capture(hopper, (2, 0, False), cache)
        # The miss resolved regions; the hit never needed to.
        assert all(a.region is not None for n in first.nodes for a in n.accesses)
        assert all(a.region is None for n in replay.nodes for a in n.accesses)


class TestFingerprint:
    def test_stable_across_builders(self, hopper):
        gbs = []
        for _ in range(2):
            gb = GraphBuilder(hopper)
            a = gb.tensor("A", (M, K))
            b = gb.tensor("B", (K, M))
            c = gb.tensor("C", (M, M))
            gb.launch(
                "gemm", GEMM_SHAPE, reads=dict(A=a, B=b), writes=dict(C=c)
            )
            gbs.append(gb)
        assert gbs[0].fingerprint() == gbs[1].fingerprint()

    def test_labels_do_not_change_the_fingerprint(self, hopper):
        prints = []
        for label in ("", "projection"):
            gb = GraphBuilder(hopper)
            a = gb.tensor("A", (M, K))
            b = gb.tensor("B", (K, M))
            c = gb.tensor("C", (M, M))
            gb.launch(
                "gemm",
                GEMM_SHAPE,
                reads=dict(A=a, B=b),
                writes=dict(C=c),
                label=label,
            )
            prints.append(gb.fingerprint())
        assert prints[0] == prints[1]

    def test_explicit_sequencing_changes_the_fingerprint(self, hopper):
        prints = []
        for sequence in (False, True):
            gb = GraphBuilder(hopper)
            b = gb.tensor("B", (K, M))
            first = gb.launch(
                "gemm",
                GEMM_SHAPE,
                reads=dict(A=gb.tensor("A0", (M, K)), B=b),
                writes=dict(C=gb.tensor("C0", (M, M))),
            )
            gb.launch(
                "gemm",
                GEMM_SHAPE,
                reads=dict(A=gb.tensor("A1", (M, K)), B=b),
                writes=dict(C=gb.tensor("C1", (M, M))),
                after=(first,) if sequence else (),
            )
            prints.append(gb.fingerprint())
        assert prints[0] != prints[1]

    def test_unknown_partition_kind_disables_templating(self, hopper):
        from repro.tensors.tensor import TensorRef

        gb = GraphBuilder(hopper)
        big = gb.tensor("S", (2 * M, 2 * K))
        assert gb.fingerprint() is not None

        class _Opaque:
            kind = "opaque"
            grid = (2, 2)

        ref = TensorRef(big.tensor, ((_Opaque(), (0, 0)),))
        key = gb._ref_key(big, ref)  # a kind the key cannot describe
        assert key[0] == "S"
        assert gb.fingerprint() is None

    @settings(max_examples=25, deadline=None)
    @given(first=_PLANS, second=_PLANS)
    def test_two_captures_hit_one_template_iff_their_parts_are_equal(
        self, hopper, first, second
    ):
        cache = GraphTemplateCache()
        builders = [_record(hopper, plan, cache) for plan in (first, second)]
        keys = [gb.fingerprint() for gb in builders]
        # The key is the parts themselves, compared exactly.
        assert keys == [tuple(gb._fp_parts) for gb in builders]
        for gb in builders:
            gb.build()
        same = keys[0] == keys[1]
        assert cache.stats.hits == int(same)
        assert len(cache) == (1 if same else 2)

    def test_an_untemplatable_capture_never_consults_the_cache(
        self, hopper
    ):
        cache = GraphTemplateCache()
        for _ in range(2):
            gb = _record(hopper, (1, 0, False), cache)
            gb._fp_ok = False  # as an undescribable binding leaves it
            assert gb.fingerprint() is None
            gb.build()
        assert cache.stats.lookups == 0 and len(cache) == 0


def _half_speed(machine):
    """A copy of ``machine`` under the same name but with half its clock
    and half its SMs."""
    return dataclasses.replace(
        machine,
        specs={
            **machine.specs,
            "clock_ghz": machine.specs["clock_ghz"] / 2,
            "sm_count": 66.0,
        },
    )


def _counting_registry():
    """A registry serving ``"gemm"`` through a builder that records each
    call; returns the registry and the list of calls."""
    calls = []

    def counted(machine, **kwargs):
        calls.append(machine.name)
        return KERNEL_BUILDERS["gemm"](machine, **kwargs)

    registry = KernelRegistry()
    registry.register("gemm", counted, ("m", "n", "k"))
    return registry, calls


def _chain(machine, registry=None, cache=template_cache, depth=2):
    """A ``depth``-long chain of equal-shape GEMMs, captured and built."""
    gb = GraphBuilder(machine, registry=registry, template_cache=cache)
    weight = gb.tensor("W", (K, M))
    current = gb.tensor("T0", (M, K))
    for index in range(depth):
        nxt = gb.tensor(f"T{index + 1}", (M, M))
        gb.launch(
            "gemm",
            GEMM_SHAPE,
            reads=dict(A=current, B=weight),
            writes=dict(C=nxt),
        )
        current = nxt
    return gb.build()


def _launch_square(gb, extent, side=512):
    """One ``gemm`` launch of ``m=extent`` on fresh ``side``-square
    tensors of ``gb``."""
    index = f"{len(gb)}_{extent!r}"
    return gb.launch(
        "gemm",
        dict(m=extent, n=side, k=side),
        reads=dict(
            A=gb.tensor(f"A{index}", (side, side)),
            B=gb.tensor(f"B{index}", (side, side)),
        ),
        writes=dict(C=gb.tensor(f"C{index}", (side, side))),
    )


class TestMachineContent:
    def test_a_same_name_machine_of_other_content_misses_the_template(
        self, hopper
    ):
        slow = _half_speed(hopper)
        assert slow.name == hopper.name
        _chain(hopper)
        replayed = _chain(slow)
        fresh = _chain(slow, cache=None)
        assert template_cache.stats.hits == 0
        assert len(template_cache) == 2  # one template per machine
        assert replayed.edges == fresh.edges
        assert replayed.topological_order() == fresh.topological_order()


class TestPlanReplay:
    def test_two_captures_through_the_default_cache_build_once(
        self, hopper
    ):
        registry, calls = _counting_registry()
        first = _chain(hopper, registry)
        second = _chain(hopper, registry)
        assert len(calls) == 1
        assert second.nodes[0].build is first.nodes[0].build

    def test_an_extent_not_a_positive_int_never_reaches_the_memo(
        self, hopper
    ):
        # 512.0 == 512 and they hash alike: a plan memo consulted before
        # the check would serve, or store, one under the other's key.
        with pytest.raises(CypressError, match="positive integer"):
            _launch_square(GraphBuilder(hopper), 512.0)
        gb = GraphBuilder(hopper)
        assert _launch_square(gb, 512).build.name == "gemm_512x512x512"
        for bad in (512.0, True, 0, -512):
            with pytest.raises(CypressError, match="positive integer"):
                _launch_square(gb, bad)
            with pytest.raises(CypressError, match="positive integer"):
                _launch_square(GraphBuilder(hopper), bad)
        again = _launch_square(GraphBuilder(hopper), 512)
        assert again.build.name == "gemm_512x512x512"

    def test_without_a_cache_every_capture_builds(self, hopper):
        registry, calls = _counting_registry()
        for _ in range(3):
            _chain(hopper, registry, cache=None)
        # One build per capture: its two launches share one plan.
        assert len(calls) == 3

    def test_clear_forces_a_rebuild(self, hopper):
        registry, calls = _counting_registry()
        _chain(hopper, registry)
        template_cache.clear()
        _chain(hopper, registry)
        assert len(calls) == 2

    def test_private_caches_do_not_share_plans(self, hopper):
        registry, calls = _counting_registry()
        _chain(hopper, registry, cache=GraphTemplateCache())
        _chain(hopper, registry, cache=GraphTemplateCache())
        assert len(calls) == 2

    def test_registries_with_one_builder_share_a_plan(self, hopper):
        first = _chain(hopper, default_registry())
        second = _chain(hopper, default_registry())
        assert second.nodes[0].build is first.nodes[0].build

    def test_builders_without_a_registry_share_one_read_only_zoo(
        self, hopper
    ):
        first, second = GraphBuilder(hopper), GraphBuilder(hopper)
        assert first.registry is second.registry
        assert len(first.registry) == len(default_registry())
        with pytest.raises(CypressError, match="cannot register 'mine'"):
            first.registry.register("mine", KERNEL_BUILDERS["gemm"], ("m",))
        assert "mine" not in second.registry

    def test_different_builders_under_one_name_do_not_share_a_plan(
        self, hopper
    ):
        registry_a, calls_a = _counting_registry()
        registry_b, calls_b = _counting_registry()
        first = _chain(hopper, registry_a)
        second = _chain(hopper, registry_b)
        assert len(calls_a) == len(calls_b) == 1
        assert second.nodes[0].build is not first.nodes[0].build

    def test_same_name_machines_share_neither_plan_nor_template(
        self, hopper
    ):
        registry, calls = _counting_registry()
        slow = _half_speed(hopper)
        first = _chain(hopper, registry)
        second = _chain(slow, registry)
        assert len(calls) == 2
        assert template_cache.stats.misses == 2
        assert template_cache.stats.hits == 0
        assert second.nodes[0].build is not first.nodes[0].build

    def test_a_replayed_plan_still_checks_bindings(self, hopper):
        registry, calls = _counting_registry()
        _chain(hopper, registry)
        gb = GraphBuilder(hopper, registry=registry)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, M))
        c = gb.tensor("C", (M, M))
        wide = gb.tensor("Wide", (M, 2 * M))
        with pytest.raises(CypressError, match="bind it under writes="):
            gb.launch("gemm", GEMM_SHAPE, reads=dict(A=a, B=b, C=c))
        with pytest.raises(CypressError, match="expects shape"):
            gb.launch(
                "gemm",
                GEMM_SHAPE,
                reads=dict(A=a, B=b),
                writes=dict(C=wide),
            )
        assert len(calls) == 1  # both launches replayed the stored plan

    def test_concurrent_captures_agree(self, hopper):
        start = threading.Barrier(2, timeout=30)
        graphs = {}

        def capture(slot):
            start.wait()
            graphs[slot] = _chain(hopper, depth=3)

        threads = [
            threading.Thread(target=capture, args=(slot,), daemon=True)
            for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        fresh = _chain(hopper, cache=None, depth=3)
        assert sorted(graphs) == [0, 1]
        for graph in graphs.values():
            assert graph.edges == fresh.edges
            assert graph.topological_order() == fresh.topological_order()


class TestTemplateCache:
    def _template(self, tag: str) -> GraphTemplate:
        return GraphTemplate(fingerprint=tag, edges=())

    def test_lru_eviction_and_counters(self):
        cache = GraphTemplateCache(capacity=2)
        for tag in ("a", "b", "c"):
            cache.put(tag, self._template(tag))
        assert len(cache) == 2
        assert "a" not in cache and "c" in cache
        assert cache.stats.evictions == 1
        assert cache.get("c") is not None
        assert cache.get("a") is None
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_get_touch_protects_hot_entry(self):
        cache = GraphTemplateCache(capacity=2)
        cache.put("a", self._template("a"))
        cache.put("b", self._template("b"))
        cache.get("a")  # now the hot entry
        cache.put("c", self._template("c"))
        assert "a" in cache and "b" not in cache

    def test_clear_resets_everything(self):
        cache = GraphTemplateCache()
        cache.put("a", self._template("a"))
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_plans_are_bounded_shared_and_cleared(self):
        cache = GraphTemplateCache(capacity=2)
        first = object()
        assert cache.put_plan("a", first) is first
        assert cache.put_plan("a", object()) is first  # first one stays
        cache.put_plan("b", object())
        cache.plan("a")  # now the hot entry
        cache.put_plan("c", object())
        assert cache.plan("a") is first and cache.plan("b") is None
        assert cache.stats.lookups == 0  # plans are not template lookups
        cache.clear()
        assert cache.plan("a") is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            GraphTemplateCache(capacity=0)
