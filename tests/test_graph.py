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
import time
from concurrent.futures import FIRST_COMPLETED, wait

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.errors import CypressError
from repro.graph import (
    RAW,
    SEQ,
    WAR,
    WAW,
    GraphBuilder,
    GraphEdge,
    GraphScheduler,
    TaskGraph,
    infer_edges,
)
from repro.runtime import FaultPlan, RuntimeServer, faults
from repro.tensors import partition_by_blocks
from repro.tensors.regions import ref_region, tensor_region, rows_intersect

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
# Graph structure: cycles, determinism, critical path
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
                hopper,
            )

    def test_self_cycle_raises(self, hopper):
        graph = _two_nodes(hopper)
        with pytest.raises(CypressError, match="cycle"):
            TaskGraph(graph.nodes, [GraphEdge(0, 0, SEQ)], hopper)

    def test_unknown_edge_endpoint_raises(self, hopper):
        graph = _two_nodes(hopper)
        with pytest.raises(CypressError, match="unknown node"):
            TaskGraph(graph.nodes, [GraphEdge(0, 7, SEQ)], hopper)

    def test_topological_order_deterministic_under_ties(self, hopper):
        graph = _two_nodes(hopper)
        # Equal (absent) priorities: uid order, stable across calls.
        assert graph.topological_order() == [0, 1]
        assert graph.topological_order({0: 1.0, 1: 1.0}) == [0, 1]
        # A higher-priority node overtakes within readiness.
        assert graph.topological_order({0: 1.0, 1: 2.0}) == [1, 0]

    def test_topological_order_respects_edges(self, hopper):
        graph = _two_nodes(hopper)
        sequenced = TaskGraph(
            graph.nodes, [GraphEdge(1, 0, SEQ)], hopper
        )
        # Priority cannot override a dependence.
        assert sequenced.topological_order({0: 5.0, 1: 0.0}) == [1, 0]

    def test_critical_path_sums_along_chain(self, hopper):
        gb = GraphBuilder(hopper)
        a = gb.tensor("A", (M, K))
        b = gb.tensor("B", (K, N))
        c = gb.tensor("C", (M, N))
        _gemm(gb, a, b, c)
        gb.launch(
            "gemm",
            dict(m=M, n=N, k=N),
            reads=dict(A=c, B=gb.tensor("D", (M, N))),
            writes=dict(C=gb.tensor("E", (M, N))),
        )
        graph = gb.build()
        path = graph.critical_path()
        weights = graph.node_weights()
        assert path[1] == pytest.approx(weights[1])
        assert path[0] == pytest.approx(weights[0] + weights[1])

    def test_scheduler_priorities_rank_critical_path(self, hopper):
        graph = _two_nodes(hopper)
        sequenced = TaskGraph(
            list(graph.nodes), [GraphEdge(0, 1, SEQ)], hopper
        )
        server = RuntimeServer(hopper, workers=1, start=False)
        try:
            priorities = GraphScheduler(server).priorities(
                sequenced, base=10
            )
        finally:
            server.close()
        assert priorities[0] > priorities[1] > 10

    def test_summary_mentions_conservative(self, hopper):
        graph = _two_nodes(hopper)
        tagged = TaskGraph(
            graph.nodes,
            [GraphEdge(0, 1, RAW, tensor="C", exact=False)],
            hopper,
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


def _brute_force_conflicts(graph):
    """All ordered conflicting pairs by coordinate materialization."""
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
                    rows_a = mine.element_coords({}).reshape(
                        -1, mine.root.rank
                    )
                    rows_b = theirs.element_coords({}).reshape(
                        -1, theirs.root.rank
                    )
                    if rows_intersect(rows_a, rows_b):
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
        from repro.tensors.tensor import LogicalTensor
        from repro.tensors import f16

        tensor = LogicalTensor("T", (8, 8), f16)
        assert ref_region(tensor) == tensor_region((8, 8))
        assert ref_region(tensor.ref()) == tensor_region((8, 8))

    def test_ref_region_unbound_symbol_is_none(self):
        from repro.tensors.tensor import LogicalTensor
        from repro.tensors import f16
        from repro.sym import Var

        tensor = LogicalTensor("T", (8, 8), f16)
        piece = partition_by_blocks(tensor.ref(), (4, 4))[Var("i"), 0]
        assert ref_region(piece) is None


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
    ``_stopping`` under the queue lock, then cancels every queued node
    (its done-callback fails the graph). A node a worker already holds
    settles before ``close`` joins that worker, and its callback's
    successor submit raises "server closed" (checked under the same
    lock), which fails the graph too."""

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
            with faults.active(plan):
                for trial in range(24):
                    server = RuntimeServer(hopper, workers=2)
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
        wait(pending + running, timeout=0.01, return_when=FIRST_COMPLETED)


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
