"""Critical-path execution of task graphs on the serving runtime.

:class:`GraphScheduler` turns a :class:`~repro.graph.taskgraph.
TaskGraph` into traffic for an existing :class:`~repro.runtime.server.
RuntimeServer`: every node goes through the ordinary ``submit`` path —
per-node shape bucketing, the priority queue, micro-batching of
same-bucket requests, both compile-cache tiers — so a graph costs the
server nothing it was not already built to do. Ready nodes (all
predecessors resolved) are submitted immediately and concurrently;
their ``priority`` is the node's **critical path** — the cost-model
predicted cycles of the longest chain it gates — so when workers are
scarce the launch blocking the most downstream work runs first.

With ``inputs=`` the graph also carries data: node arguments are
gathered from shared root arrays through the bound references before
submission, and written results scatter back on completion, flowing
producer outputs into consumer inputs across the worker pool. This
requires every node's shape to equal its serving bucket (padding a
*dependent* launch is not semantics-preserving in general); timing-only
graphs have no such restriction.

Failure is **partial**: a node that fails at execution takes down only
its dependent cone (transitive successors are marked skipped — they
could never run), while independent subgraphs complete normally;
:class:`GraphResult` reports the per-node outcomes. Only a graph in
which no node succeeded fails its future outright.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

import numpy as np

from repro.errors import CypressError
from repro.graph.taskgraph import GraphNode, TaskGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle: server imports us
    from repro.runtime.server import RuntimeResult, RuntimeServer


def materialize_root_arrays(
    graph: TaskGraph, inputs: Optional[Mapping[str, np.ndarray]]
) -> Dict[int, np.ndarray]:
    """Realize every graph tensor as a numpy array.

    Root tensors named in ``inputs`` are copied in (contiguous, cast to
    the tensor's dtype); unnamed roots start at zero. Views share their
    base's buffer through ``reshape``, so a write through a view is a
    write to the base — mirroring how dependence inference treats them.

    Args:
        graph: a builder-produced graph (its ``tensors`` table must be
            populated).
        inputs: name -> array for any subset of the *root* (non-view)
            tensors.

    Returns:
        ``{LogicalTensor uid: array}`` covering every declared tensor.

    Raises:
        CypressError: an input names an unknown or view tensor, or its
            shape does not match the declaration.
    """
    if not graph.tensors:
        raise CypressError(
            "this graph carries no tensor table (hand-constructed?); "
            "functional execution needs a GraphBuilder-produced graph"
        )
    inputs = dict(inputs or {})
    arrays: Dict[int, np.ndarray] = {}
    for name, tensor in graph.tensors.items():
        if tensor.is_view:
            continue
        given = inputs.pop(name, None)
        np_dtype = tensor.dtype.to_numpy()
        if given is None:
            arrays[tensor.tensor.uid] = np.zeros(tensor.shape, np_dtype)
            continue
        if tuple(given.shape) != tuple(tensor.shape):
            raise CypressError(
                f"input {name!r} has shape {tuple(given.shape)}; the "
                f"graph declares {tuple(tensor.shape)}"
            )
        # One unconditional copy: contiguous, right dtype, caller's
        # array never mutated by the graph's write-backs.
        arrays[tensor.tensor.uid] = np.array(
            given, dtype=np_dtype, order="C"
        )
    if inputs:
        unknown = ", ".join(sorted(repr(n) for n in inputs))
        raise CypressError(
            f"inputs name unknown or view tensors: {unknown} (views "
            "share their base's storage; pass the base instead)"
        )
    for tensor in graph.tensors.values():
        if tensor.is_view:
            base = arrays[tensor.root().tensor.uid]
            arrays[tensor.tensor.uid] = base.reshape(tensor.shape)
    return arrays


@dataclass
class GraphResult:
    """What a resolved graph future carries.

    A graph completes even when some nodes fail: a node-execution
    failure takes down only its **dependent cone** (the transitive
    successors, which could never run), while independent subgraphs
    keep executing to completion. ``failed`` and ``skipped`` report
    that partial outcome per node; a graph in which *no* node succeeded
    fails its future outright instead.

    Attributes:
        graph: the executed graph.
        results: node uid -> the node's :class:`~repro.runtime.server.
            RuntimeResult` (succeeded nodes only).
        makespan_s: wall time from ``submit_graph`` to the last node
            settling.
        outputs: final root arrays (name -> array) when the graph
            carried data; ``None`` for timing-only execution. With
            failed nodes, arrays their cone never wrote hold the last
            successfully written values (zeros for untouched roots).
        failed: node uid -> the exception that failed it.
        skipped: node uid -> the failed ancestor uid whose cone
            swallowed it (never submitted).
    """

    graph: TaskGraph
    results: Dict[int, "RuntimeResult"]
    makespan_s: float
    outputs: Optional[Dict[str, np.ndarray]] = None
    failed: Dict[int, BaseException] = field(default_factory=dict)
    skipped: Dict[int, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """Whether every node succeeded."""
        return not self.failed and not self.skipped

    def outcomes(self) -> Dict[int, str]:
        """Per-node outcome: ``"ok"``, ``"failed"``, or ``"skipped"``."""
        report = {uid: "ok" for uid in self.results}
        report.update({uid: "failed" for uid in self.failed})
        report.update({uid: "skipped" for uid in self.skipped})
        return report


@dataclass
class GraphExecution:
    """A handle on one in-flight graph: the completion future plus the
    per-node futures as they are submitted."""

    graph: TaskGraph
    future: "Future[GraphResult]"
    node_futures: Dict[int, Future] = field(default_factory=dict)

    def result(self, timeout: Optional[float] = None) -> GraphResult:
        """Block for graph completion (convenience for
        ``.future.result``)."""
        return self.future.result(timeout=timeout)


class GraphScheduler:
    """Executes task graphs on a :class:`~repro.runtime.server.
    RuntimeServer` worker pool, critical path first.

    Args:
        server: the serving runtime nodes are submitted to.
    """

    def __init__(self, server: "RuntimeServer") -> None:
        self.server = server

    # ------------------------------------------------------------------
    def priorities(self, graph: TaskGraph, base: int = 0) -> Dict[int, int]:
        """Integer submit priorities from the cost-model critical path.

        Nodes are densely ranked by longest-path-to-sink: the deepest
        node gets the highest priority. Ranking (instead of raw cycle
        counts) keeps graph priorities comparable to scalar traffic
        submitted around the graph at ``base``.
        """
        path = graph.critical_path()
        depths = sorted(set(path.values()))
        rank = {depth: index + 1 for index, depth in enumerate(depths)}
        return {uid: base + rank[depth] for uid, depth in path.items()}

    def execute(
        self,
        graph: TaskGraph,
        *,
        inputs: Optional[Mapping[str, np.ndarray]] = None,
        priority: int = 0,
    ) -> GraphExecution:
        """Submit a graph; returns immediately with a
        :class:`GraphExecution`.

        Args:
            graph: the dependence-inferred DAG to run.
            inputs: optional root arrays (name -> array); when given,
                data flows producer -> consumer through the graph and
                ``GraphResult.outputs`` holds the final root arrays.
                Requires every node's shape to already equal its
                serving bucket.
            priority: base priority; node priorities stack their
                critical-path rank on top.

        Returns:
            The execution handle. Its ``future`` resolves to a
            :class:`GraphResult` even when nodes fail — a failed node
            skips only its dependent cone (see
            :attr:`GraphResult.failed` / :attr:`GraphResult.skipped`) —
            and raises only when no node succeeded, when a kernel
            lookup failed, or when the server shut down mid-graph.

        Raises:
            CypressError: empty graph, or ``inputs`` given while some
                node's shape is not bucket-aligned.
        """
        if not len(graph):
            raise CypressError("cannot execute an empty task graph")
        # One registry lookup + bucketing per node, up front; the
        # submit fast lane reuses these instead of re-deriving them on
        # every launch. A lookup failure (unknown kernel) resolves the
        # graph future instead of raising, matching per-node submit.
        lookups: Dict[int, Any] = {}
        lookup_error: Optional[Exception] = None
        try:
            for node in graph.nodes:
                registered = self.server.registry.get(node.kernel)
                lookups[node.uid] = (
                    registered,
                    registered.bucket(node.shape),
                )
        except Exception as error:
            lookup_error = error
        arrays: Optional[Dict[int, np.ndarray]] = None
        if inputs is not None:
            if lookup_error is not None:
                raise lookup_error
            for node in graph.nodes:
                bucket = lookups[node.uid][1]
                if bucket.as_dict() != node.shape:
                    raise CypressError(
                        f"graph node {node.label!r} has shape "
                        f"{node.shape}, which buckets to "
                        f"{bucket.as_dict()}; functional graph execution "
                        "requires bucket-aligned shapes (padding a "
                        "dependent launch is not semantics-preserving)"
                    )
            arrays = materialize_root_arrays(graph, inputs)
        execution = GraphExecution(graph=graph, future=Future())
        execution.future.set_running_or_notify_cancel()
        state = _ExecutionState(
            graph=graph,
            execution=execution,
            arrays=arrays,
            priorities=self.priorities(graph, base=priority),
            started=time.perf_counter(),
            lookups=lookups,
        )
        tracer = self.server.tracer
        if tracer.enabled:
            state.span = tracer.begin(
                "graph",
                "graph",
                args={"nodes": len(graph)},
                start_s=state.started,
            )
        self.server.telemetry.count("graphs")
        self.server.telemetry.count("graph_nodes", len(graph))
        if lookup_error is not None:
            self._fail(state, lookup_error)
            return execution
        ready = [graph.node(uid) for uid in graph.roots()]
        self._submit_ready(state, ready)
        return execution

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _submit_ready(
        self, state: "_ExecutionState", ready: List[GraphNode]
    ) -> None:
        # Highest critical path first; uid breaks ties for determinism.
        ready = sorted(
            ready, key=lambda n: (-state.priorities[n.uid], n.uid)
        )
        tracer = self.server.tracer
        try:
            requests = []
            for node in ready:
                node_inputs = None
                if state.arrays is not None:
                    with state.lock:
                        node_inputs = {
                            param: ref.read(state.arrays[ref.root.uid])
                            for param, ref in node.refs.items()
                        }
                registered, bucket = state.lookups[node.uid]
                request = self.server.prepare_request(
                    registered,
                    node.shape,
                    bucket,
                    inputs=node_inputs,
                    priority=state.priorities[node.uid],
                )
                if tracer.enabled:
                    span = tracer.begin(
                        "node",
                        "graph",
                        parent=state.span,
                        args={
                            "kernel": node.kernel,
                            "label": node.label or str(node.uid),
                            "uid": node.uid,
                            "priority": state.priorities[node.uid],
                        },
                    )
                    state.node_spans[node.uid] = span
                    # The per-request root span nests under this node.
                    request.trace_parent = span
                requests.append(request)
            # One enqueue under one lock for the whole ready set,
            # instead of a full submit() round-trip per node.
            self.server.submit_prepared(requests)
        except Exception as error:
            self._fail(state, error)
            return
        for node, request in zip(ready, requests):
            state.execution.node_futures[node.uid] = request.future
            request.future.add_done_callback(
                lambda f, node=node: self._on_node_done(state, node, f)
            )

    def _on_node_done(
        self, state: "_ExecutionState", node: GraphNode, future: Future
    ) -> None:
        cancelled = future.cancelled()
        error = future.exception() if not cancelled else CypressError(
            f"graph node {node.label!r} was cancelled "
            "(server shutting down?)"
        )
        # The request's own span already closed inside the worker
        # (before the future was touched), so closing the node span
        # here keeps children inside their parent.
        self.server.tracer.end(
            state.node_spans.pop(node.uid, None),
            args={"error": repr(error)} if error is not None else None,
        )
        if cancelled:
            self._fail(state, error)
            return
        if error is not None:
            self._on_node_failed(state, node, error)
            return
        result = future.result()
        newly_ready: List[GraphNode] = []
        with state.lock:
            if state.failed:
                return
            state.results[node.uid] = result
            if state.arrays is not None and result.outputs:
                for param, value in result.outputs.items():
                    ref = node.refs.get(param)
                    if ref is not None:
                        ref.write(state.arrays[ref.root.uid], value)
            for succ in state.graph.successors(node.uid):
                if succ in state.skipped:
                    continue
                state.remaining[succ] -= 1
                if state.remaining[succ] == 0:
                    newly_ready.append(state.graph.node(succ))
            done = state.settled() == len(state.graph)
        if newly_ready:
            self._submit_ready(state, newly_ready)
        if done:
            self._finish(state)

    def _on_node_failed(
        self,
        state: "_ExecutionState",
        node: GraphNode,
        error: BaseException,
    ) -> None:
        """Partial-failure semantics: a failed node takes down only its
        dependent cone; independent subgraphs keep executing.

        The cone (every transitive successor) is marked skipped — those
        nodes' predecessor counts can never reach zero, so without this
        the graph would hang instead of completing. Cone nodes were
        never submitted, so there is nothing in flight to cancel.
        """
        done = False
        with state.lock:
            if state.failed:
                return
            state.node_errors[node.uid] = error
            stack = list(state.graph.successors(node.uid))
            while stack:
                uid = stack.pop()
                if uid in state.skipped:
                    continue
                state.skipped[uid] = node.uid
                stack.extend(state.graph.successors(uid))
            done = state.settled() == len(state.graph)
        if done:
            self._finish(state)

    def _finish(self, state: "_ExecutionState") -> None:
        if state.node_errors and not state.results:
            # Nothing succeeded: a partial result would carry no data,
            # so surface the first failure directly (matching the
            # historical whole-graph failure contract).
            self._fail(state, next(iter(state.node_errors.values())))
            return
        makespan = time.perf_counter() - state.started
        if state.span is not None:
            span_args: Dict[str, Any] = {"makespan_s": makespan}
            if state.node_errors:
                span_args["failed"] = len(state.node_errors)
                span_args["skipped"] = len(state.skipped)
            self.server.tracer.end(state.span, args=span_args)
        outputs = None
        if state.arrays is not None:
            outputs = {
                name: state.arrays[tensor.tensor.uid]
                for name, tensor in state.graph.tensors.items()
                if not tensor.is_view
            }
        self.server.telemetry.record_graph_done(makespan)
        state.execution.future.set_result(
            GraphResult(
                graph=state.graph,
                results=state.results,
                makespan_s=makespan,
                outputs=outputs,
                failed=state.node_errors,
                skipped=state.skipped,
            )
        )

    def _fail(self, state: "_ExecutionState", error: BaseException) -> None:
        with state.lock:
            if state.failed:
                return
            state.failed = True
        if state.span is not None:
            # Node spans of still-in-flight launches stay open (and are
            # therefore never exported) — their request children may
            # outlive this failure.
            self.server.tracer.end(
                state.span, args={"error": repr(error)}
            )
        self.server.telemetry.count("graphs_failed")
        state.execution.future.set_exception(error)


@dataclass
class _ExecutionState:
    """Mutable bookkeeping of one in-flight graph."""

    graph: TaskGraph
    execution: GraphExecution
    arrays: Optional[Dict[int, np.ndarray]]
    priorities: Dict[int, int]
    started: float
    lookups: Dict[int, Any] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)
    failed: bool = False
    results: Dict[int, Any] = field(default_factory=dict)
    remaining: Dict[int, int] = field(default_factory=dict)
    #: Per-node execution failures and the cone they swallowed
    #: (skipped uid -> failed ancestor uid).
    node_errors: Dict[int, BaseException] = field(default_factory=dict)
    skipped: Dict[int, int] = field(default_factory=dict)
    #: Graph-level span and the open per-node spans (uid -> span),
    #: both ``None``/empty when the server's tracing is off.
    span: Any = None
    node_spans: Dict[int, Any] = field(default_factory=dict)

    def settled(self) -> int:
        """Nodes with a final outcome (ok, failed, or skipped); the
        graph completes when this reaches ``len(graph)``. Caller holds
        ``lock``."""
        return len(self.results) + len(self.node_errors) + len(self.skipped)

    def __post_init__(self) -> None:
        self.remaining = {
            node.uid: len(self.graph.predecessors(node.uid))
            for node in self.graph.nodes
        }
