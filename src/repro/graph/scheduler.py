"""Execution of task graphs on the serving runtime.

:class:`GraphScheduler` turns a :class:`~repro.graph.taskgraph.
TaskGraph` into traffic for an existing :class:`~repro.runtime.server.
RuntimeServer`: every node goes through the server's one admission
path, :meth:`~repro.runtime.server.RuntimeServer.admit` — per-node
shape bucketing, the FIFO queue, micro-batching of same-bucket
requests, both compile-cache tiers — so a graph costs the server
nothing it was not already built to do. Ready nodes (all predecessors
resolved) are admitted immediately and concurrently, in uid order.

Each execution keeps one ready **worklist**. A settling node appends
the successors it readies, and whichever thread finds no one draining
it drains it: each drained ready set is admitted with one ``admit``
call, which serves the nodes ``submit`` would serve on its calling
thread (timing-only, bucket warm, nothing queued) right there, one
micro-batch per bucket, and leaves the rest to the workers. Every node
settles one way: its slot's ``on_settle`` hook, which the server's
``_settle`` calls last whichever way and on whichever thread the
node's request ends. A re-submitted warm graph is therefore served
entirely by the thread that calls ``execute``, with no queue hand-off
and no done-callback, and a chain of any length costs that thread a
loop iteration per ready set rather than a stack frame per node.

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
which no node succeeded fails its handle outright.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

import numpy as np

from repro.errors import CypressError
from repro.graph.taskgraph import GraphNode, TaskGraph
from repro.runtime.handle import RequestHandle, running_handle

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
    """What a resolved graph handle carries.

    A graph completes even when some nodes fail: a node-execution
    failure takes down only its **dependent cone** (the transitive
    successors, which could never run), while independent subgraphs
    keep executing to completion. ``failed`` and ``skipped`` report
    that partial outcome per node; a graph in which *no* node succeeded
    fails its handle outright instead.

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
    """One in-flight graph: its completion handle (``future``, a
    :class:`~repro.runtime.handle.RequestHandle` resolving to a
    :class:`GraphResult`) plus, per node uid, the handle of the node's
    request — its queue slot — as it is submitted."""

    graph: TaskGraph
    future: RequestHandle
    node_futures: Dict[int, RequestHandle] = field(default_factory=dict)

    def result(self, timeout: Optional[float] = None) -> GraphResult:
        """Block for graph completion (convenience for
        ``.future.result``)."""
        return self.future.result(timeout=timeout)


class GraphScheduler:
    """Executes task graphs on a :class:`~repro.runtime.server.
    RuntimeServer` worker pool.

    Args:
        server: the serving runtime nodes are submitted to.
    """

    def __init__(self, server: "RuntimeServer") -> None:
        self.server = server

    # ------------------------------------------------------------------
    def execute(
        self,
        graph: TaskGraph,
        *,
        inputs: Optional[Mapping[str, np.ndarray]] = None,
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
        # One registry lookup + bucketing per node, up front; admitting
        # a ready node reuses these instead of re-deriving them on
        # every launch. A lookup failure (unknown kernel) resolves the
        # graph handle instead of raising, matching per-node submit.
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
        execution = GraphExecution(graph=graph, future=running_handle())
        state = _ExecutionState(
            graph=graph,
            execution=execution,
            arrays=arrays,
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
        state.ready = [graph.node(uid) for uid in graph.roots()]
        state.draining = True
        self._drain(state)
        return execution

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drain(self, state: "_ExecutionState") -> None:
        """Submit the execution's ready worklist until it is empty.

        Only the thread that set ``state.draining`` runs this. A node
        that settles meanwhile — on a worker, or served by this very
        loop — appends the successors it readies to the worklist and
        returns, so a chain served inline costs one loop iteration per
        ready set, never a stack frame per node. The flag is cleared
        under the lock that finds the list empty, so a node readied
        after that starts its own drain: no ready node is lost."""
        while True:
            with state.lock:
                ready, state.ready = state.ready, []
                if not ready or state.failed:
                    state.draining = False
                    return
            self._submit_ready(state, ready)

    def _submit_ready(
        self, state: "_ExecutionState", ready: List[GraphNode]
    ) -> None:
        """Admit one drained ready set, in uid order, with one
        :meth:`RuntimeServer.admit` call, which serves here the nodes
        ``submit`` would serve on its calling thread and enqueues the
        rest. Each node's slot carries the hook its request's settle
        calls, however and on whichever thread it ends."""
        ready.sort(key=lambda node: node.uid)
        server = self.server
        tracer = server.tracer
        arrays = state.arrays
        requests = []
        try:
            for node in ready:
                node_inputs = None
                if arrays is not None:
                    with state.lock:
                        node_inputs = {
                            param: ref.read(arrays[ref.root.uid])
                            for param, ref in node.refs.items()
                        }
                registered, bucket = state.lookups[node.uid]
                request = server.prepare_request(
                    registered,
                    node.shape,
                    bucket,
                    inputs=node_inputs,
                )
                request.on_settle = partial(self._settle_node, state, node)
                if tracer.enabled:
                    span = tracer.begin(
                        "node",
                        "graph",
                        parent=state.span,
                        args={
                            "kernel": node.kernel,
                            "label": node.label or str(node.uid),
                            "uid": node.uid,
                        },
                    )
                    state.node_spans[node.uid] = span
                    # The per-request root span nests under this node.
                    request.trace_parent = span
                requests.append(request)
            server.admit(requests)
        except Exception as error:
            self._fail(state, error)
            return
        node_futures = state.execution.node_futures
        for node, request in zip(ready, requests):
            node_futures[node.uid] = request

    def _settle_node(
        self, state: "_ExecutionState", node: GraphNode, outcome: Any
    ) -> None:
        """Record a settled node: the ``on_settle`` hook
        ``RuntimeServer._settle`` calls last for every ending of the
        node's request (served, failed, past its deadline, shed,
        cancelled, caught in a worker crash), on whichever thread ended
        it.

        ``outcome`` is a ``RuntimeResult`` or the exception that failed
        the request. A success stores its result, scatters the outputs
        it wrote, and appends the successors it readies to the
        worklist. A failure takes down only its dependent cone: every
        transitive successor is marked skipped (those nodes' predecessor
        counts can never reach zero, so without this the graph would
        hang), and none of them was ever submitted, so nothing in flight
        is cancelled. A cancelled node fails the whole graph. The thread
        that grows an idle worklist drains it, and the one that settles
        the last node finishes the graph. Nothing raises into the
        server: a failure here fails the graph."""
        try:
            error = outcome if isinstance(outcome, BaseException) else None
            if state.node_spans:
                # The request's own span closed before the hook ran, so
                # closing the node span here keeps children inside
                # their parent.
                self.server.tracer.end(
                    state.node_spans.pop(node.uid, None),
                    args={"error": repr(error)} if error is not None else None,
                )
            if isinstance(error, CancelledError):
                self._fail(
                    state,
                    CypressError(
                        f"graph node {node.label!r} was cancelled "
                        "(server shutting down?)"
                    ),
                )
                return
            graph = state.graph
            remaining, skipped = state.remaining, state.skipped
            with state.lock:
                if state.failed:
                    return
                state.unsettled -= 1
                if error is not None:
                    state.node_errors[node.uid] = error
                    stack = list(graph.successors(node.uid))
                    while stack:
                        uid = stack.pop()
                        if uid in skipped:
                            continue
                        skipped[uid] = node.uid
                        state.unsettled -= 1
                        stack.extend(graph.successors(uid))
                else:
                    state.results[node.uid] = outcome
                    if state.arrays is not None and outcome.outputs:
                        for param, value in outcome.outputs.items():
                            ref = node.refs.get(param)
                            if ref is not None:
                                ref.write(state.arrays[ref.root.uid], value)
                    for succ in graph.successors(node.uid):
                        if succ in skipped:
                            continue
                        remaining[succ] -= 1
                        if not remaining[succ]:
                            state.ready.append(graph.node(succ))
                drain = bool(state.ready) and not state.draining
                if drain:
                    state.draining = True
                done = not state.unsettled
            if drain:
                self._drain(state)
            if done:
                self._finish(state)
        except Exception as failure:
            self._fail(state, failure)

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
        state.execution.future._resolve(
            GraphResult(
                graph=state.graph,
                results=state.results,
                makespan_s=makespan,
                outputs=outputs,
                failed=state.node_errors,
                skipped=state.skipped,
            ),
            None,
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
        state.execution.future._resolve(None, error)


@dataclass
class _ExecutionState:
    """Mutable bookkeeping of one in-flight graph."""

    graph: TaskGraph
    execution: GraphExecution
    arrays: Optional[Dict[int, np.ndarray]]
    started: float
    lookups: Dict[int, Any] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)
    failed: bool = False
    #: The ready worklist: nodes whose predecessors all succeeded, not
    #: yet submitted, and whether a thread is draining it (``_drain``).
    ready: List[GraphNode] = field(default_factory=list)
    draining: bool = False
    results: Dict[int, Any] = field(default_factory=dict)
    remaining: Dict[int, int] = field(default_factory=dict)
    #: Nodes without a final outcome (ok, failed, or skipped); the graph
    #: completes when it reaches zero. Counted down under ``lock``.
    unsettled: int = 0
    #: Per-node execution failures and the cone they swallowed
    #: (skipped uid -> failed ancestor uid).
    node_errors: Dict[int, BaseException] = field(default_factory=dict)
    skipped: Dict[int, int] = field(default_factory=dict)
    #: Graph-level span and the open per-node spans (uid -> span),
    #: both ``None``/empty when the server's tracing is off.
    span: Any = None
    node_spans: Dict[int, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.remaining = {
            node.uid: len(self.graph.predecessors(node.uid))
            for node in self.graph.nodes
        }
        self.unsettled = len(self.remaining)
