"""Task graphs: capture, region-inferred edges, scheduling, serving.

The centerpiece is the hypothesis oracle: on randomized launch
sequences over shared tensors, every conflicting access pair found by
brute-force coordinate materialization must be *ordered* in the
inferred graph (soundness), and every exact inferred edge must
correspond to a genuine privilege-overlapping pair (precision). The
rest covers the issue's edge cases — single nodes, disconnected
components, WAW-only chains, conservative view fallback, cycle
detection, deterministic topological order — plus end-to-end execution
through ``api.run_graph`` and ``RuntimeServer.submit_graph``.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from element_oracle import coord_rows
from repro import api
from repro.errors import CypressError
from repro.graph import (
    RAW,
    SEQ,
    WAR,
    WAW,
    GraphBuilder,
    GraphEdge,
    TaskGraph,
    infer_edges,
)
from repro.runtime import FaultPlan, RequestHandle, RuntimeServer
from repro.tensors import partition_by_blocks
from repro.tensors.regions import tensor_region

M, N, K = 256, 256, 128
GEMM_SHAPE = dict(m=M, n=N, k=K)
ROOT = (512, 512)


def _builder(machine) -> GraphBuilder:
    return GraphBuilder(machine)


def _gemm(gb, a, b, c, **kwargs):
    return gb.launch(
        "gemm", GEMM_SHAPE, reads=dict(A=a, B=b), writes=dict(C=c), **kwargs
    )


def _piece(tensor, block, index):
    return partition_by_blocks(tensor.ref(), block)[index]


# ----------------------------------------------------------------------
# Capture + validation
# ----------------------------------------------------------------------
class TestGraphBuilder:
    def test_empty_build_rejected(self, hopper):
        with pytest.raises(CypressError, match="empty"):
            _builder(hopper).build()

    def test_unknown_kernel_rejected(self, hopper):
        gb = _builder(hopper)
        with pytest.raises(CypressError, match="unknown kernel"):
            gb.launch("nope", GEMM_SHAPE, reads={}, writes={})

    def test_malformed_shape_rejected(self, hopper):
        gb = _builder(hopper)
        with pytest.raises(CypressError, match="dimensions"):
            gb.launch("gemm", dict(m=M, n=N), reads={}, writes={})

    def test_missing_binding_rejected(self, hopper):
        gb = _builder(hopper)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        with pytest.raises(CypressError, match="tensor parameters"):
            gb.launch("gemm", GEMM_SHAPE, reads=dict(A=a, B=b))

    def test_privilege_direction_enforced(self, hopper):
        gb = _builder(hopper)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", (M, N))
        with pytest.raises(CypressError, match="privilege"):
            gb.launch(
                "gemm", GEMM_SHAPE, reads=dict(A=a, B=b, C=c), writes={}
            )

    def test_duplicate_binding_rejected(self, hopper):
        gb = _builder(hopper)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", (M, N))
        with pytest.raises(CypressError, match="bound twice"):
            gb.launch(
                "gemm",
                GEMM_SHAPE,
                reads=dict(A=a, B=b, C=c),
                writes=dict(C=c),
            )

    def test_shape_mismatch_rejected(self, hopper):
        gb = _builder(hopper)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", (M, N + 128))
        with pytest.raises(CypressError, match="expects shape"):
            gb.launch(
                "gemm", GEMM_SHAPE, reads=dict(A=a, B=b), writes=dict(C=c)
            )

    def test_undeclared_tensor_rejected(self, hopper):
        gb = _builder(hopper)
        other = GraphBuilder(hopper)
        a = other.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", (M, N))
        with pytest.raises(CypressError, match="not declared"):
            gb.launch(
                "gemm", GEMM_SHAPE, reads=dict(A=a, B=b), writes=dict(C=c)
            )

    def test_duplicate_tensor_name_rejected(self, hopper):
        gb = _builder(hopper)
        gb.tensor("A", (M, K))
        with pytest.raises(CypressError, match="already declared"):
            gb.tensor("A", (M, K))

    def test_view_size_mismatch_rejected(self, hopper):
        gb = _builder(hopper)
        a = gb.tensor("A", (M, K))
        with pytest.raises(CypressError, match="elements"):
            gb.view("V", (M, K + 1), of=a)

    def test_after_rejects_node_from_another_builder(self, hopper):
        foreign = GraphBuilder(hopper)
        fa = foreign.tensor("A", (M, K))
        fb = foreign.tensor("B", (K, N))
        fc = foreign.tensor("C", (M, N))
        foreign_node = _gemm(foreign, fa, fb, fc)
        gb = _builder(hopper)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", (M, N))
        d = gb.tensor("D", (M, N))
        _gemm(gb, a, b, c)  # same uid as foreign_node, different graph
        with pytest.raises(CypressError, match="after="):
            gb.launch(
                "gemm",
                GEMM_SHAPE,
                reads=dict(A=a, B=b),
                writes=dict(C=d),
                after=[foreign_node],
            )

    def test_after_must_name_earlier_launch(self, hopper):
        gb = _builder(hopper)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", (M, N))
        with pytest.raises(CypressError, match="after="):
            gb.launch(
                "gemm",
                GEMM_SHAPE,
                reads=dict(A=a, B=b),
                writes=dict(C=c),
                after=["not-a-node"],
            )


# ----------------------------------------------------------------------
# Edge inference: the issue's edge cases
# ----------------------------------------------------------------------
class TestEdgeInference:
    def test_single_node(self, hopper):
        gb = _builder(hopper)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", (M, N))
        _gemm(gb, a, b, c)
        graph = gb.build()
        assert len(graph) == 1
        assert graph.edges == ()
        assert graph.roots() == (0,)
        assert graph.topological_order() == [0]

    def test_disconnected_components(self, hopper):
        gb = _builder(hopper)
        nodes = []
        for component in range(3):
            a = gb.tensor(f"A{component}", (M, K))
            b = gb.tensor(f"B{component}", (K, N))
            c = gb.tensor(f"C{component}", (M, N))
            nodes.append(_gemm(gb, a, b, c))
        graph = gb.build()
        assert graph.edges == ()
        assert graph.roots() == (0, 1, 2)
        assert graph.topological_order() == [0, 1, 2]

    def test_raw_war_waw_chain(self, hopper):
        gb = _builder(hopper)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", (M, N))
        d = gb.tensor("D", (M, N))
        writer = _gemm(gb, a, b, c)
        # RAW: reads C (via a (256, 128) piece reshaped role: use C as
        # the A operand of a gemm with matching shape).
        reader = gb.launch(
            "gemm",
            dict(m=M, n=N, k=N),
            reads=dict(A=c, B=d),
            writes=dict(C=gb.tensor("E", (M, N))),
        )
        overwriter = _gemm(gb, a, b, c)  # WAW with writer, WAR with reader
        graph = gb.build()
        kinds = {(e.src, e.dst, e.kind) for e in graph.edges}
        assert (writer.uid, reader.uid, RAW) in kinds
        assert (writer.uid, overwriter.uid, WAW) in kinds
        assert (reader.uid, overwriter.uid, WAR) in kinds

    def test_waw_only_chain(self, hopper):
        gb = _builder(hopper)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", (M, N))
        first = _gemm(gb, a, b, c)
        second = _gemm(gb, a, b, c)
        third = _gemm(gb, a, b, c)
        graph = gb.build()
        waw = [(e.src, e.dst) for e in graph.edges if e.kind == WAW]
        # The frontier retires a covered write, so the chain is linear:
        # 0->1->2, not the quadratic 0->2 closure.
        assert waw == [(first.uid, second.uid), (second.uid, third.uid)]
        assert all(e.exact for e in graph.edges)

    def test_disjoint_pieces_no_edge(self, hopper):
        gb = _builder(hopper)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", ROOT)
        _gemm(gb, a, b, _piece(c, (M, N), (0, 0)))
        _gemm(gb, a, b, _piece(c, (M, N), (1, 1)))
        graph = gb.build()
        assert graph.edges == ()

    def test_overlapping_pieces_edge(self, hopper):
        gb = _builder(hopper)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", ROOT)
        _gemm(gb, a, b, _piece(c, (M, N), (0, 0)))
        reader = gb.launch(
            "gemm",
            dict(m=M, n=N, k=N),
            reads=dict(A=_piece(c, (M, N), (0, 0)), B=gb.tensor("D", (M, N))),
            writes=dict(C=gb.tensor("E", (M, N))),
        )
        graph = gb.build()
        assert {(e.src, e.dst, e.kind) for e in graph.edges} == {
            (0, reader.uid, RAW)
        }

    def test_conservative_fallback_through_view_piece(self, hopper):
        gb = _builder(hopper)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", ROOT)
        view = gb.view("Cv", (ROOT[0] * 2, ROOT[1] // 2), of=c)
        # A *piece* of a reshape view is not box-describable in base
        # coordinates -> conservative access.
        piece = partition_by_blocks(view.ref(), (M, N))[0, 0]
        writer = gb.launch(
            "gemm", GEMM_SHAPE, reads=dict(A=a, B=b), writes=dict(C=piece)
        )
        reader = gb.launch(
            "gemm",
            dict(m=M, n=N, k=N),
            # This piece of the base is provably disjoint from the view
            # piece's elements, but the reshape hides that: the edge
            # must exist and be marked conservative.
            reads=dict(A=_piece(c, (M, N), (1, 1)), B=gb.tensor("D", (M, N))),
            writes=dict(C=gb.tensor("E", (M, N))),
        )
        graph = gb.build()
        edges = [(e.src, e.dst, e.kind, e.exact) for e in graph.edges]
        assert (writer.uid, reader.uid, RAW, False) in edges

    def test_whole_view_binding_is_exact_whole_base(self, hopper):
        gb = _builder(hopper)
        c = gb.tensor("C", (M, N))
        view = gb.view("Cv", (N, M), of=c)
        node = gb.launch(
            "gemm",
            dict(m=N, n=M, k=K),
            reads=dict(A=gb.tensor("A", (N, K)), B=gb.tensor("B", (K, M))),
            writes=dict(C=view),
        )
        gb.build()  # regions are deferred until build()
        access = [a for a in node.accesses if a.param == "C"][0]
        assert access.tensor == "C"
        assert access.region is not None
        assert access.region.contains(tensor_region((M, N)))

    def test_writer_orders_after_every_prior_reader(self, hopper):
        # The split reader/writer frontier must not coalesce readers:
        # a later writer needs a WAR edge from *each* of them.
        gb = _builder(hopper)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        shared = gb.tensor("S", (K, N))
        readers = [
            gb.launch(
                "gemm",
                GEMM_SHAPE,
                reads=dict(A=a, B=shared),
                writes=dict(C=gb.tensor(f"C{i}", (M, N))),
            )
            for i in range(3)
        ]
        writer = gb.launch(
            "gemm",
            dict(m=K, n=N, k=K),
            reads=dict(A=gb.tensor("A2", (K, K)), B=gb.tensor("B2", (K, N))),
            writes=dict(C=shared),
            params=dict(tile_m=128),  # m=128 needs a smaller tile
        )
        graph = gb.build()
        war = {
            (e.src, e.dst) for e in graph.edges if e.kind == WAR
        }
        assert war == {(r.uid, writer.uid) for r in readers}

    def test_manual_after_edge(self, hopper):
        gb = _builder(hopper)
        nodes = []
        for component in range(2):
            a = gb.tensor(f"A{component}", (M, K))
            b = gb.tensor(f"B{component}", (K, N))
            c = gb.tensor(f"C{component}", (M, N))
            nodes.append(
                _gemm(gb, a, b, c, after=nodes[:1] if component else ())
            )
        graph = gb.build()
        assert [(e.src, e.dst, e.kind) for e in graph.edges] == [
            (0, 1, SEQ)
        ]


# ----------------------------------------------------------------------
# Graph structure: cycles, determinism
# ----------------------------------------------------------------------
def _two_nodes(machine):
    gb = GraphBuilder(machine)
    a = gb.tensor("A", (M, K))
    b = gb.tensor("B", (K, N))
    c = gb.tensor("C", (M, N))
    d = gb.tensor("D", (M, N))
    _gemm(gb, a, b, c)
    _gemm(gb, a, b, d)
    return gb.build()


class TestTaskGraph:
    def test_cycle_detection_raises(self, hopper):
        graph = _two_nodes(hopper)
        with pytest.raises(CypressError, match="cycle"):
            TaskGraph(
                graph.nodes,
                [GraphEdge(0, 1, SEQ), GraphEdge(1, 0, SEQ)],
            )

    def test_self_cycle_raises(self, hopper):
        graph = _two_nodes(hopper)
        with pytest.raises(CypressError, match="cycle"):
            TaskGraph(graph.nodes, [GraphEdge(0, 0, SEQ)])

    def test_unknown_edge_endpoint_raises(self, hopper):
        graph = _two_nodes(hopper)
        with pytest.raises(CypressError, match="unknown node"):
            TaskGraph(graph.nodes, [GraphEdge(0, 7, SEQ)])

    def test_topological_order_is_uid_order_among_ready(self, hopper):
        graph = _two_nodes(hopper)
        assert graph.topological_order() == [0, 1]
        # Ready nodes go in uid order, whatever order the graph lists.
        listed = TaskGraph(tuple(reversed(graph.nodes)), [])
        assert listed.topological_order() == [0, 1]

    def test_topological_order_respects_edges(self, hopper):
        graph = _two_nodes(hopper)
        sequenced = TaskGraph(graph.nodes, [GraphEdge(1, 0, SEQ)])
        # A dependence overrides uid order.
        assert sequenced.topological_order() == [1, 0]

    def test_summary_mentions_conservative(self, hopper):
        graph = _two_nodes(hopper)
        tagged = TaskGraph(
            graph.nodes,
            [GraphEdge(0, 1, RAW, tensor="C", exact=False)],
        )
        assert "conservative" in tagged.summary()
        assert "RAW on C" in tagged.summary()


# ----------------------------------------------------------------------
# Hypothesis oracle: inferred edges vs brute-force privilege overlap
# ----------------------------------------------------------------------
_PIECE_INDEX = st.tuples(st.integers(0, 1), st.integers(0, 1))


@st.composite
def _launch_plans(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    plans = []
    for _ in range(count):
        plans.append(
            dict(
                c=(draw(st.integers(0, 2)), draw(_PIECE_INDEX)),
                a=(draw(st.integers(0, 2)), draw(_PIECE_INDEX)),
                b=(draw(st.integers(0, 2)), draw(_PIECE_INDEX)),
            )
        )
    return plans


def _flat_elements(ref):
    """The reference's elements as sorted flat indices into its root."""
    rows = coord_rows(ref)
    return np.unique(np.ravel_multi_index(tuple(rows.T), ref.root.shape))


def _brute_force_conflicts(graph):
    """All ordered conflicting pairs by element enumeration."""
    elements = {}

    def flat(node, param):
        key = (node.uid, param)
        if key not in elements:
            elements[key] = _flat_elements(node.refs[param])
        return elements[key]

    conflicts = set()
    for earlier in graph.nodes:
        for later in graph.nodes:
            if earlier.uid >= later.uid:
                continue
            for a in earlier.accesses:
                for b in later.accesses:
                    if a.conflicts_with(b) is None:
                        continue
                    mine = earlier.refs[a.param]
                    theirs = later.refs[b.param]
                    if mine.root != theirs.root:
                        continue
                    if np.intersect1d(
                        flat(earlier, a.param), flat(later, b.param),
                        assume_unique=True,
                    ).size:
                        conflicts.add((earlier.uid, later.uid))
    return conflicts


def _reachable(graph):
    """Transitive closure of the inferred edges."""
    closure = {uid: set() for uid in (n.uid for n in graph.nodes)}
    for uid in reversed(graph.topological_order()):
        for succ in graph.successors(uid):
            closure[uid].add(succ)
            closure[uid] |= closure[succ]
    return closure


@settings(max_examples=20, deadline=None)
@given(plans=_launch_plans())
def test_inferred_edges_match_privilege_overlap_oracle(hopper_machine, plans):
    gb = GraphBuilder(hopper_machine)
    pool = [gb.tensor(f"T{i}", ROOT) for i in range(3)]

    def piece(slot, block):
        tensor_index, index = slot
        return partition_by_blocks(pool[tensor_index].ref(), block)[index]

    for plan in plans:
        gb.launch(
            "gemm",
            GEMM_SHAPE,
            reads=dict(A=piece(plan["a"], (M, K)),
                       B=piece(plan["b"], (K, N))),
            writes=dict(C=piece(plan["c"], (M, N))),
        )
    graph = gb.build()

    closure = _reachable(graph)
    conflicts = _brute_force_conflicts(graph)
    # Soundness: every conflicting pair is ordered in the graph.
    for src, dst in conflicts:
        assert dst in closure[src], (
            f"conflict {src}->{dst} not ordered; edges={graph.edges}"
        )
    # Precision: every exact inferred edge is a genuine conflict.
    for edge in graph.edges:
        if edge.kind == SEQ or not edge.exact:
            continue
        assert (edge.src, edge.dst) in conflicts, (
            f"spurious edge {edge}"
        )


@pytest.fixture(scope="module")
def hopper_machine():
    from repro.machine import hopper_machine as make

    return make()


# ----------------------------------------------------------------------
# Region queries added for the graph subsystem
# ----------------------------------------------------------------------
class TestRegionQueries:
    def test_tensor_region_covers_everything(self):
        region = tensor_region((4, 6))
        assert region.contains(tensor_region((4, 6)))
        assert [(dim.count, dim.span) for dim in region.boxes[0].dims] == [
            (1, 4), (1, 6),
        ]

    def test_ref_region_accepts_logical_tensor(self, hopper):
        # A whole-tensor binding touches the whole tensor.
        gb = _builder(hopper)
        tensor = gb.tensor("T", (8, 8))
        assert gb._region_for(tensor, tensor.ref()) == tensor_region((8, 8))

    def test_ref_region_unbound_symbol_is_none(self, hopper):
        # A symbolically indexed binding has no region at capture: its
        # edges are conservative.
        from repro.sym import Var

        gb = _builder(hopper)
        tensor = gb.tensor("T", (8, 8))
        piece = partition_by_blocks(tensor.ref(), (4, 4))[Var("i"), 0]
        assert gb._region_for(tensor, piece) is None


# ----------------------------------------------------------------------
# Execution: api.run_graph and RuntimeServer.submit_graph
# ----------------------------------------------------------------------
def _diamond(machine):
    """X -> (Y, Z) -> U: two independent branches joining."""
    gb = GraphBuilder(machine)
    x = gb.tensor("X", (M, M))
    w1 = gb.tensor("W1", (M, M))
    w2 = gb.tensor("W2", (M, M))
    y = gb.tensor("Y", (M, M))
    z = gb.tensor("Z", (M, M))
    u = gb.tensor("U", (M, M))
    square = dict(m=M, n=M, k=M)
    gb.launch("gemm", square, reads=dict(A=x, B=w1), writes=dict(C=y))
    gb.launch("gemm", square, reads=dict(A=x, B=w2), writes=dict(C=z))
    gb.launch("gemm", square, reads=dict(A=y, B=z), writes=dict(C=u))
    return gb.build()


def _chain(machine, length):
    """``length`` GEMMs, each reading the previous one's output."""
    gb = GraphBuilder(machine)
    w = gb.tensor("W", (M, M))
    prev = gb.tensor("T0", (M, M))
    square = dict(m=M, n=M, k=M)
    for index in range(1, length + 1):
        out = gb.tensor(f"T{index}", (M, M))
        gb.launch("gemm", square, reads=dict(A=prev, B=w), writes=dict(C=out))
        prev = out
    return gb.build()


class TestCloseMidGraph:
    """``close(drain=False)`` while graphs are in flight leaves no graph
    future pending, with no registry of live graphs: ``close`` sets
    ``_stopping`` under the queue lock, then settles every queued node
    as cancelled (its settle hook fails the graph). A node a worker
    already holds settles before ``close`` joins that worker, and its
    hook's admission of the successors raises "server closed" (checked
    under the same lock), which fails the graph too."""

    @pytest.mark.parametrize("fault_rate", [0.0, 0.3])
    def test_every_graph_future_is_done_when_close_returns(
        self, hopper, fault_rate
    ):
        graph = _chain(hopper, 6)
        api.compile_graph(graph)  # the compile is not what is raced
        plan = FaultPlan(seed=11).inject("worker.execute", fault_rate)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        outcomes = set()
        try:
            for trial in range(24):
                server = RuntimeServer(hopper, workers=2, faults=plan)
                executions = [server.submit_graph(graph) for _ in range(3)]
                if trial % 2:
                    # Close the moment a first node is served.
                    _wait_for_a_served_node(executions, timeout=60)
                else:
                    time.sleep(trial * 2e-4)
                server.close(drain=False)
                for execution in executions:
                    assert execution.future.done(), trial
                    outcomes.add(_outcome(execution))
        finally:
            sys.setswitchinterval(interval)
        # Some close really did land mid-graph.
        assert "failed mid-graph" in outcomes


class TestReadyWorklist:
    """Each execution drains one ready worklist: a node that settles
    appends the successors it readies, and a thread drains the list only
    when no other thread is. Inline serving therefore never recurses —
    whatever the graph's depth or width — worker threads that settle a
    node drain the list too, and a ``close`` that lands mid-drain fails
    the graph instead of hanging it."""

    SQUARE = dict(m=M, n=M, k=M)

    @pytest.fixture()
    def default_recursion_limit(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(limit)

    def _served_on_return(self, hopper, graph):
        """Submit ``graph`` to a warm two-worker server and return its
        result, asserting the submitting thread served every node before
        ``submit_graph`` returned."""
        with RuntimeServer(hopper, workers=2) as server:
            server.warm("gemm", [self.SQUARE])
            execution = server.submit_graph(graph)
            assert execution.future.done()
            result = execution.result()
        assert len(result.results) == len(graph)
        assert {r.tier for r in result.results.values()} == {"memory"}
        return result

    def test_a_long_chain_never_recurses(
        self, hopper, default_recursion_limit
    ):
        gb = GraphBuilder(hopper, template_cache=None)
        w = gb.tensor("W", (M, M))
        prev = gb.tensor("T0", (M, M))
        for index in range(10_000):
            out = gb.tensor(f"T{index + 1}", (M, M))
            gb.launch(
                "gemm", self.SQUARE, reads=dict(A=prev, B=w),
                writes=dict(C=out),
            )
            prev = out
        result = self._served_on_return(hopper, gb.build())
        assert {r.batch_size for r in result.results.values()} == {1}

    def test_a_wide_fan_out_is_served_in_micro_batches(
        self, hopper, default_recursion_limit
    ):
        gb = GraphBuilder(hopper, template_cache=None)
        w = gb.tensor("W", (M, M))
        x = gb.tensor("X", (M, M))
        gb.launch(
            "gemm", self.SQUARE, reads=dict(A=gb.tensor("S", (M, M)), B=w),
            writes=dict(C=x),
        )
        for index in range(1_000):
            gb.launch(
                "gemm", self.SQUARE, reads=dict(A=x, B=w),
                writes=dict(C=gb.tensor(f"Y{index}", (M, M))),
            )
        result = self._served_on_return(hopper, gb.build())
        sizes = [result.results[uid].batch_size for uid in range(1, 1_001)]
        # One ready set of 1,000 same-bucket nodes: full micro-batches.
        assert set(sizes) == {8}

    def test_workers_drain_the_worklist_too(self, hopper):
        # Warm nodes alternate with nodes of buckets the server has never
        # timed: a worker serves each cold node, and its settle readies
        # the next warm node, which that worker then serves inline.
        warm = self.SQUARE
        colds = [dict(m=M, n=M, k=2 * M), dict(m=M, n=M, k=4 * M)]
        gb = GraphBuilder(hopper)
        previous = ()
        for shape in (warm, colds[0], warm, colds[1], warm):
            index = len(gb)
            node = gb.launch(
                "gemm", shape,
                reads=dict(
                    A=gb.tensor(f"A{index}", (shape["m"], shape["k"])),
                    B=gb.tensor(f"B{index}", (shape["k"], shape["n"])),
                ),
                writes=dict(C=gb.tensor(f"C{index}", (M, M))),
                after=previous,
            )
            previous = (node,)
        graph = gb.build()
        with RuntimeServer(hopper, workers=2, trace=True) as server:
            server.warm("gemm", [warm])
            result = server.submit_graph(graph).result(timeout=120)
            spans = server.tracer.spans()
        assert len(result.results) == len(graph)
        served = {}
        for node_span in spans:
            if node_span.name != "node":
                continue
            (request,) = [s for s in spans if s.parent == node_span.sid]
            (dispatch,) = [
                s for s in spans
                if s.parent == request.sid and s.name == "dispatch"
            ]
            assert dispatch.args["served_by"] == node_span.args["served_by"]
            served[node_span.args["uid"]] = (
                dispatch.tid == threading.get_ident(),
                dispatch.args["served_by"],
            )
        assert served == {
            0: (True, "submitter"),
            1: (False, "worker"),
            2: (False, "submitter"),
            3: (False, "worker"),
            4: (False, "submitter"),
        }

    def test_concurrent_graphs_lose_no_ready_node(self, hopper, rng):
        # Four submitters, more workers than cores and a tiny switch
        # interval: nodes settle on workers while submitters drain, and
        # a warm node is served inline or queued depending on what is
        # queued at its admission. A lost worklist append hangs a graph.
        gb = GraphBuilder(hopper)
        w = gb.tensor("W", (M, M))
        x = gb.tensor("X", (M, M))
        gb.launch(
            "gemm", self.SQUARE, reads=dict(A=gb.tensor("S", (M, M)), B=w),
            writes=dict(C=x),
        )
        middles = [
            gb.launch(
                "gemm", self.SQUARE, reads=dict(A=x, B=w),
                writes=dict(C=gb.tensor(f"Y{index}", (M, M))),
            )
            for index in range(6)
        ]
        gb.launch(
            "gemm", self.SQUARE, reads=dict(A=x, B=w),
            writes=dict(C=gb.tensor("Z", (M, M))), after=middles,
        )
        graph = gb.build()
        inputs = {
            name: (rng.standard_normal((M, M)) * 0.05).astype(np.float16)
            for name in ("S", "W")
        }
        outcomes, lock = [], threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RuntimeServer(hopper, workers=4) as server:
                server.warm("gemm", [self.SQUARE])

                def submitter(index):
                    for trial in range(5):
                        data = inputs if (index + trial) % 3 == 0 else None
                        result = server.submit_graph(
                            graph, inputs=data
                        ).result(timeout=60)
                        with lock:
                            outcomes.append(len(result.results))

                threads = [
                    threading.Thread(target=submitter, args=(index,))
                    for index in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                stats = server.stats()
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == [len(graph)] * 20
        assert stats.completed == stats.requests == 20 * len(graph)

    @pytest.mark.parametrize("drain", [True, False])
    def test_close_during_a_drain_fails_the_graph(
        self, hopper, monkeypatch, drain
    ):
        graph = _chain(hopper, 6)
        server = RuntimeServer(hopper, workers=2)
        server.warm("gemm", [self.SQUARE])
        closer = threading.Thread(
            target=server.close, kwargs=dict(drain=drain), daemon=True
        )
        serve = RuntimeServer._serve

        def close_during_the_second(self, batch, stages, found=None):
            if len(calls) == 1:
                # Mid-drain: close from another thread, and serve this
                # batch only once close has stopped the server.
                closer.start()
                with server._cv:
                    assert server._cv.wait_for(
                        lambda: server._stopping, timeout=30
                    )
            calls.append(batch)
            return serve(self, batch, stages, found)

        calls = []
        monkeypatch.setattr(RuntimeServer, "_serve", close_during_the_second)
        try:
            execution = server.submit_graph(graph)
            error = execution.future.exception(timeout=30)
        finally:
            closer.join(timeout=30)
            server.close()
        assert not closer.is_alive()
        assert isinstance(error, CypressError) and "closed" in str(error)
        # The batch in flight when close landed was finished, not cut.
        assert len(calls) == 2
        assert all(request.done() for batch in calls for request in batch)
        stats = server.stats()
        assert stats.completed == stats.requests == 2


class TestOneSettlePath:
    """Every node settles through the hook ``RuntimeServer._settle``
    calls last, whether the draining thread or a worker served it: no
    node future gets a done-callback."""

    SQUARE = dict(m=M, n=M, k=M)

    def test_no_node_future_gets_a_done_callback(self, hopper, monkeypatch):
        from repro.kernels import transformer_block_graph

        spied = []
        attach = RequestHandle.add_done_callback

        def spy(handle, fn):
            spied.append(handle)
            return attach(handle, fn)

        monkeypatch.setattr(RequestHandle, "add_done_callback", spy)
        # The alternating graph of TestReadyWorklist: nodes 1 and 3 are
        # of buckets the server has never timed, so workers serve them;
        # the warm nodes are served by the thread that readies them.
        warm = self.SQUARE
        colds = [dict(m=M, n=M, k=2 * M), dict(m=M, n=M, k=4 * M)]
        gb = GraphBuilder(hopper)
        previous = ()
        for shape in (warm, colds[0], warm, colds[1], warm):
            index = len(gb)
            node = gb.launch(
                "gemm", shape,
                reads=dict(
                    A=gb.tensor(f"A{index}", (shape["m"], shape["k"])),
                    B=gb.tensor(f"B{index}", (shape["k"], shape["n"])),
                ),
                writes=dict(C=gb.tensor(f"C{index}", (M, M))),
                after=previous,
            )
            previous = (node,)
        block = transformer_block_graph(
            hopper, seq=256, d_model=256, heads=2, d_ff=512
        )
        executions = []
        with RuntimeServer(hopper, workers=2) as server:
            server.warm("gemm", [warm])
            executions.append(server.submit_graph(gb.build()))
            assert executions[-1].result(timeout=120).complete
            # Cold, the workers serve the block's roots; warm, the
            # thread that calls submit_graph serves every node.
            executions.append(server.submit_graph(block))
            assert executions[-1].result(timeout=600).complete
            executions.append(server.submit_graph(block))
            assert executions[-1].future.done()
            result = executions[-1].result()
        assert {r.tier for r in result.results.values()} == {"memory"}
        for execution in executions:
            futures = execution.node_futures
            assert len(futures) == len(execution.graph)
            assert all(future.done() for future in futures.values())
            assert not [
                uid for uid, future in futures.items()
                if any(spied_future is future for spied_future in spied)
            ]

    def test_a_failing_settle_fails_the_graph_not_the_server(
        self, hopper, monkeypatch
    ):
        from repro.graph.scheduler import GraphScheduler

        def finish_fails(self, state):
            raise RuntimeError("finishing failed")

        monkeypatch.setattr(GraphScheduler, "_finish", finish_fails)
        with RuntimeServer(hopper, workers=2) as server:
            execution = server.submit_graph(_chain(hopper, 3))
            error = execution.future.exception(timeout=30)
            stats = server.stats()
        assert isinstance(error, RuntimeError)
        assert stats.completed == stats.requests == 3


class TestBucketValidation:
    """Bucketing stays one full validating pass on every request and
    every graph node: each malformed shape right after a served request
    of the equal-valued (or any) good shape still raises."""

    BAD = [
        ("True", dict(m=1, n=N, k=K), dict(m=True, n=N, k=K)),
        ("float", dict(m=512, n=N, k=K), dict(m=512.0, n=N, k=K)),
        ("zero", dict(m=M, n=N, k=K), dict(m=0, n=N, k=K)),
        ("negative", dict(m=M, n=N, k=K), dict(m=-1, n=N, k=K)),
        ("missing", dict(m=M, n=N, k=K), dict(m=M, n=N)),
        ("unknown", dict(m=M, n=N, k=K), dict(m=M, n=N, k=K, zz=1)),
    ]
    IDS = [case[0] for case in BAD]

    @pytest.mark.parametrize("name, good, bad", BAD, ids=IDS)
    def test_submit_still_raises(self, hopper, name, good, bad):
        with RuntimeServer(hopper, workers=2) as server:
            for _ in range(2):  # the second one is served on this thread
                server.submit("gemm", good).result(timeout=600)
            with pytest.raises(CypressError):
                server.submit("gemm", bad)

    @pytest.mark.parametrize("name, good, bad", BAD, ids=IDS)
    def test_submit_graph_still_raises(self, hopper, name, good, bad):
        gb = GraphBuilder(hopper)
        _gemm(gb, gb.tensor("A", (M, K)), gb.tensor("B", (K, N)),
              gb.tensor("C", (M, N)))
        graph = gb.build()
        (node,) = graph.nodes
        with RuntimeServer(hopper, workers=2) as server:
            node.shape = dict(good)
            for _ in range(2):  # the second one is served on this thread
                assert server.submit_graph(graph).result(timeout=600).complete
            node.shape = dict(bad)
            with pytest.raises(CypressError):
                server.submit_graph(graph).result(timeout=600)
            assert server.stats().graphs_failed == 1


def _wait_for_a_served_node(executions, timeout):
    """Return once some node future of ``executions`` is done without an
    exception (a faulted node's future is done too, so waiting for
    *done* may return before anything was served), once every graph is
    done, or after ``timeout`` seconds. Successor node futures appear
    as their predecessors settle, so the set is re-read each round."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        futures = [
            future
            for execution in executions
            for future in tuple(execution.node_futures.values())
        ]
        if any(
            future.done() and not future.cancelled()
            and future.exception() is None
            for future in futures
        ):
            return
        running = [e.future for e in executions if not e.future.done()]
        if not running:
            return
        pending = [future for future in futures if not future.done()]
        # Wake on the first handle to finish, as FIRST_COMPLETED would.
        woken = threading.Event()
        for handle in pending + running:
            handle.add_done_callback(lambda _handle: woken.set())
        woken.wait(timeout=0.01)


def _outcome(execution):
    if execution.future.exception() is None:
        return "completed"
    served = any(
        future.done() and not future.cancelled()
        and future.exception() is None
        for future in execution.node_futures.values()
    )
    return "failed mid-graph" if served else "failed"


class TestExecution:
    def test_run_graph_matches_numpy(self, hopper, rng):
        graph = _diamond(hopper)
        x = (rng.standard_normal((M, M)) * 0.05).astype(np.float16)
        w1 = (rng.standard_normal((M, M)) * 0.05).astype(np.float16)
        w2 = (rng.standard_normal((M, M)) * 0.05).astype(np.float16)
        out = api.run_graph(graph, {"X": x, "W1": w1, "W2": w2})
        y = (x.astype(np.float32) @ w1.astype(np.float32)).astype(np.float16)
        z = (x.astype(np.float32) @ w2.astype(np.float32)).astype(np.float16)
        expected = y.astype(np.float32) @ z.astype(np.float32)
        np.testing.assert_allclose(
            out["U"].astype(np.float32), expected, atol=2e-2
        )

    def test_run_graph_unknown_input_rejected(self, hopper):
        graph = _diamond(hopper)
        with pytest.raises(CypressError, match="unknown or view"):
            api.run_graph(graph, {"nope": np.zeros((M, M))})

    def test_run_graph_shape_mismatch_rejected(self, hopper):
        graph = _diamond(hopper)
        with pytest.raises(CypressError, match="shape"):
            api.run_graph(graph, {"X": np.zeros((M, M + 1))})

    def test_compile_graph_recompile_is_all_cache_hits(self, hopper):
        graph = _diamond(hopper)
        api.compile_graph(graph)
        before = api.compile_cache_stats().misses
        kernels = api.compile_graph(graph)
        assert api.compile_cache_stats().misses == before
        assert set(kernels) == {0, 1, 2}

    def test_submit_graph_matches_run_graph(self, hopper, rng):
        graph = _diamond(hopper)
        inputs = {
            name: (rng.standard_normal((M, M)) * 0.05).astype(np.float16)
            for name in ("X", "W1", "W2")
        }
        expected = api.run_graph(graph, inputs)
        with RuntimeServer(hopper, workers=3) as server:
            result = server.submit_graph(graph, inputs=inputs).result(
                timeout=600
            )
            stats = server.stats()
        assert len(result.results) == 3
        assert result.makespan_s > 0
        np.testing.assert_array_equal(result.outputs["U"], expected["U"])
        assert stats.graphs == 1
        assert stats.graphs_completed == 1
        assert stats.graph_nodes == 3
        assert "graphs:" in stats.table()

    def test_submit_graph_timing_only(self, hopper):
        graph = _diamond(hopper)
        with RuntimeServer(hopper, workers=2) as server:
            result = server.submit_graph(graph).result(timeout=600)
        assert result.outputs is None
        assert all(r.gpu.seconds > 0 for r in result.results.values())

    def test_submit_graph_unaligned_inputs_rejected(self, hopper):
        gb = GraphBuilder(hopper)
        a = gb.tensor("A", (300, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", (300, N))
        gb.launch(
            "gemm",
            dict(m=300, n=N, k=K),
            reads=dict(A=a, B=b),
            writes=dict(C=c),
        )
        graph = gb.build()
        with RuntimeServer(hopper, workers=1) as server:
            with pytest.raises(CypressError, match="bucket"):
                server.submit_graph(graph, inputs={})

    def test_submit_graph_failure_resolves_future(self, hopper):
        graph = _diamond(hopper)
        from repro.runtime import KernelRegistry

        with RuntimeServer(
            hopper, workers=1, registry=KernelRegistry()
        ) as server:
            execution = server.submit_graph(graph)
            with pytest.raises(CypressError, match="unknown kernel"):
                execution.result(timeout=600)
            assert server.stats().graphs_failed == 1

    def test_failed_node_fails_only_its_dependent_cone(self, hopper):
        # node0 -> node1(bad) -> node2, node3 independent.  The bad
        # compile fails node1, skips node2 (its cone), and leaves
        # node0/node3 to complete: a partial GraphResult, not a
        # whole-graph failure.
        from repro.kernels import build_gemm
        from repro.runtime import BucketPolicy, KernelRegistry

        reg = KernelRegistry()
        reg.register(
            "gemm",
            build_gemm,
            ("m", "n", "k"),
            policy=BucketPolicy(ladders={}),
            defaults=dict(tile_m=128, tile_n=256, tile_k=64),
        )
        # tile_m=192 survives build but fails in the compiler.
        reg.register(
            "bad_gemm",
            build_gemm,
            ("m", "n", "k"),
            policy=BucketPolicy(ladders={}),
            defaults=dict(tile_m=192, tile_n=128, tile_k=64),
        )
        gb = GraphBuilder(hopper, registry=reg)
        x = gb.tensor("X", (M, M))
        w = gb.tensor("W", (M, M))
        y = gb.tensor("Y", (M, M))
        z = gb.tensor("Z", (M, M))
        u = gb.tensor("U", (M, M))
        v = gb.tensor("V", (M, M))
        square = dict(m=M, n=M, k=M)
        gb.launch("gemm", square, reads=dict(A=x, B=w), writes=dict(C=y))
        gb.launch(
            "bad_gemm", square, reads=dict(A=y, B=w), writes=dict(C=z)
        )
        gb.launch("gemm", square, reads=dict(A=z, B=w), writes=dict(C=u))
        gb.launch("gemm", square, reads=dict(A=x, B=x), writes=dict(C=v))
        graph = gb.build()

        with RuntimeServer(hopper, reg, workers=2) as server:
            result = server.submit_graph(graph).result(timeout=600)
            stats = server.stats()
        assert not result.complete
        assert set(result.failed) == {1}
        assert isinstance(result.failed[1], CypressError)
        assert result.skipped == {2: 1}
        assert set(result.results) == {0, 3}
        assert result.outcomes() == {
            0: "ok",
            1: "failed",
            2: "skipped",
            3: "ok",
        }
        # Partial delivery is still delivery: the graph completed.
        assert stats.graphs_completed == 1
        assert stats.graphs_failed == 0
        assert stats.failed == 1  # the bad node's request

    def test_all_nodes_failing_raises_from_the_future(self, hopper):
        from repro.kernels import build_gemm
        from repro.runtime import BucketPolicy, KernelRegistry

        reg = KernelRegistry()
        reg.register(
            "bad_gemm",
            build_gemm,
            ("m", "n", "k"),
            policy=BucketPolicy(ladders={}),
            defaults=dict(tile_m=192, tile_n=128, tile_k=64),
        )
        gb = GraphBuilder(hopper, registry=reg)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", (M, N))
        gb.launch(
            "bad_gemm", GEMM_SHAPE, reads=dict(A=a, B=b), writes=dict(C=c)
        )
        graph = gb.build()
        with RuntimeServer(hopper, reg, workers=1) as server:
            execution = server.submit_graph(graph)
            with pytest.raises(CypressError):
                execution.result(timeout=600)
            assert server.stats().graphs_failed == 1

    def test_transformer_block_smoke(self, hopper):
        from repro.kernels import (
            transformer_block_graph,
            transformer_block_inputs,
            transformer_block_reference,
        )

        graph = transformer_block_graph(
            hopper, seq=256, d_model=256, heads=2, d_ff=512
        )
        assert len(graph) == 7
        # Projections are roots; attention joins all three branches.
        assert graph.roots() == (0, 1, 2)
        assert set(graph.predecessors(3)) == {0, 1, 2}
        inputs = transformer_block_inputs(seq=256, d_model=256, d_ff=512)
        out = api.run_graph(graph, inputs)
        reference = transformer_block_reference(inputs, heads=2)
        error = np.abs(out["Y"].astype(np.float32) - reference).max()
        assert error < 5e-3 * max(np.abs(reference).max(), 1e-9) + 1e-4

    @pytest.mark.parametrize("carry_data", [False, True])
    def test_graphs_never_call_the_cost_model(
        self, hopper, monkeypatch, carry_data
    ):
        """Capture, template replay and execution score no launch: on a
        template miss and a hit, on a cold and a warm server."""
        from repro.graph import template_cache
        from repro.kernels import (
            transformer_block_graph,
            transformer_block_inputs,
        )
        from repro.tuner import AnalyticCostModel

        def refuse(*args, **kwargs):
            raise AssertionError("the graph layer called the cost model")

        monkeypatch.setattr(AnalyticCostModel, "score", refuse)
        dims = dict(seq=256, d_model=256, d_ff=256)
        inputs = transformer_block_inputs(**dims) if carry_data else None

        def run(server):
            graph = transformer_block_graph(hopper, heads=2, **dims)
            result = server.submit_graph(graph, inputs=inputs)
            assert result.result(timeout=600).complete

        api.clear_compile_cache()
        template_cache.clear()
        with RuntimeServer(hopper, workers=2) as server:
            run(server)  # cold server, template miss
            run(server)  # warm server, template hit
            template_cache.clear()
            run(server)  # warm server, template miss
        api.clear_compile_cache()
        with RuntimeServer(hopper, workers=2) as server:
            run(server)  # cold server, template hit
        assert template_cache.stats.misses == 1
        assert template_cache.stats.hits == 1
        template_cache.clear()

    def test_transformer_block_streams_are_independent(self, hopper):
        from repro.kernels import transformer_block_graph

        graph = transformer_block_graph(
            hopper, seq=256, d_model=256, heads=2, d_ff=512, streams=2
        )
        assert len(graph) == 14
        closure = _reachable(graph)
        first = set(range(7))
        second = set(range(7, 14))
        for uid in first:
            assert not (closure[uid] & second)
        for uid in second:
            assert not (closure[uid] & first)
