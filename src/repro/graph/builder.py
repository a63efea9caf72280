"""Capture API: record kernel launches, get a dependence-inferred DAG.

:class:`GraphBuilder` is the whole-program analogue of a kernel's task
body. The caller declares named root tensors (:meth:`GraphBuilder.
tensor`), optionally reshape views of them (:meth:`GraphBuilder.view`),
and records launches of *registered* kernels (the same names
:class:`~repro.runtime.RuntimeServer` serves) with each entrypoint
tensor parameter bound to a tensor or a partition piece of one::

    gb = GraphBuilder(machine)
    x = gb.tensor("X", (512, 512))
    w = gb.tensor("W", (512, 512))
    y = gb.tensor("Y", (512, 512))
    gb.launch("gemm", dict(m=512, n=512, k=512),
              reads=dict(A=x, B=w), writes=dict(C=y))
    graph = gb.build()   # edges inferred, never declared

Privileges are **not** part of the launch call's authority: the
``reads=``/``writes=`` split is validated against the kernel build's
own entrypoint task declaration, so a caller cannot under-declare a
write and break the inferred ordering. Regions come from the bound
references through the symbolic region algebra
(:mod:`repro.tensors.regions`); bindings the algebra cannot describe —
reshape views, unsupported partition kinds — degrade to conservative
edges rather than being rejected.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import CypressError
from repro.frontend.mapping import canonicalize
from repro.graph.taskgraph import (
    SEQ,
    Access,
    GraphEdge,
    GraphNode,
    TaskGraph,
    infer_edges,
)
from repro.graph.template import (
    GraphTemplate,
    GraphTemplateCache,
    template_cache as _process_template_cache,
)
from repro.kernels.common import KernelBuild
from repro.machine.machine import MachineModel
from repro.obs.trace import NULL_TRACER
from repro.runtime.bucketing import Bucket
from repro.runtime.registry import KernelRegistry, default_registry
from repro.tensors.dtype import DType, f16
from repro.tensors.partition import BlocksPartition, SqueezePartition
from repro.tensors.regions import ref_region, tensor_region
from repro.tensors.tensor import LogicalTensor, TensorRef


class GraphTensor:
    """A named root tensor (or reshape view) of a task graph.

    Wraps a :class:`~repro.tensors.tensor.LogicalTensor` so bindings
    can use the ordinary partition API (``partition_by_blocks(t.ref(),
    ...)``) to name sub-tensor regions. A *view* shares its base's
    storage under a different shape; accesses through a view resolve to
    the base root for dependence inference (conservatively, unless the
    view is bound whole).
    """

    def __init__(
        self,
        name: str,
        tensor: LogicalTensor,
        base: Optional["GraphTensor"] = None,
    ) -> None:
        self.name = name
        self.tensor = tensor
        self.base = base

    @property
    def shape(self) -> Tuple[int, ...]:
        """The tensor's extents."""
        return self.tensor.shape

    @property
    def dtype(self) -> DType:
        """The tensor's element type."""
        return self.tensor.dtype

    @property
    def is_view(self) -> bool:
        """True when this tensor reshapes another graph tensor."""
        return self.base is not None

    def root(self) -> "GraphTensor":
        """The ultimate non-view tensor this one aliases."""
        out = self
        while out.base is not None:
            out = out.base
        return out

    def ref(self) -> TensorRef:
        """A reference to the whole tensor (partitionable)."""
        return self.tensor.ref()

    def __repr__(self) -> str:
        dims = "x".join(map(str, self.shape))
        alias = f" view of {self.root().name!r}" if self.is_view else ""
        return f"GraphTensor({self.name!r}[{dims}]{alias})"


class _LaunchPlan:
    """Memoized validation state of one (kernel, shape, params) triple.

    Attributes:
        build: the exact-shape :class:`KernelBuild`.
        entries: per tensor parameter, ``(name, reads, writes,
            privilege value, expected arg shape)`` in entrypoint order.
        param_set: the tensor parameter names, for binding validation.
        fp_static: the binding-independent slice of this launch's
            fingerprint contribution.
    """

    __slots__ = ("build", "entries", "param_set", "fp_static")

    def __init__(
        self,
        build: KernelBuild,
        entries: Tuple[Any, ...],
        param_set: frozenset,
        fp_static: Tuple[Any, ...],
    ) -> None:
        self.build = build
        self.entries = entries
        self.param_set = param_set
        self.fp_static = fp_static


class GraphBuilder:
    """Records kernel launches and builds a :class:`TaskGraph`.

    Args:
        machine: the machine launches will compile for (kernel builds
            need it; the graph inherits it for cost-model weighting).
        registry: servable kernels to launch; defaults to the full zoo
            (:func:`~repro.runtime.registry.default_registry`). Launch
            shapes are *not* bucket-rounded here — the graph captures
            the requested problem; the serving layer buckets per node
            exactly as it does for scalar ``submit``.
        template_cache: where :meth:`build` looks up (and stores)
            :class:`~repro.graph.template.GraphTemplate` values, and
            where :meth:`launch` looks up (and stores) launch plans —
            the exact-shape kernel build and its privilege table — so a
            re-captured launch builds nothing; the process-wide
            :data:`~repro.graph.template.template_cache` by default.
            Pass ``None`` to always run full dependence inference and
            build every plan afresh, or a private cache to isolate.
            Either way a builder builds each plan at most once, and
            every launch's bindings are checked against its plan.
        tracer: a :class:`~repro.obs.trace.Tracer` to record one
            ``graph.build`` span per :meth:`build` (tagged template
            hit/miss); the no-op :data:`~repro.obs.trace.NULL_TRACER`
            by default.
    """

    def __init__(
        self,
        machine: MachineModel,
        registry: Optional[KernelRegistry] = None,
        template_cache: Optional[GraphTemplateCache] = _process_template_cache,
        tracer=NULL_TRACER,
    ) -> None:
        self.machine = machine
        self.tracer = tracer
        self.registry = registry if registry is not None else default_registry()
        self.template_cache = template_cache
        self._tensors: Dict[str, GraphTensor] = {}
        self._by_uid: Dict[int, GraphTensor] = {}
        self._nodes: list = []
        self._manual_edges: list = []
        self._plan_memo: Dict[Any, "_LaunchPlan"] = {}
        self._machine_key = machine.content_key()
        # Topology fingerprint, folded in incrementally as tensors are
        # declared and launches captured. `_fp_ok` drops to False when a
        # binding's structure cannot be described (unknown partition
        # kinds) — such captures never use the template cache.
        self._fp_parts: List[Any] = [("machine", self._machine_key)]
        self._fp_ok = True
        self._regions_resolved = False

    # ------------------------------------------------------------------
    # Tensor declaration
    # ------------------------------------------------------------------
    def tensor(
        self, name: str, shape: Sequence[int], dtype: DType = f16
    ) -> GraphTensor:
        """Declare a named root tensor.

        Raises:
            CypressError: the name is already declared.
        """
        if name in self._tensors:
            raise CypressError(f"graph tensor {name!r} is already declared")
        out = GraphTensor(name, LogicalTensor(name, shape, dtype))
        self._tensors[name] = out
        self._by_uid[out.tensor.uid] = out
        self._fp_parts.append(("tensor", name, tuple(shape), dtype.name))
        return out

    def view(
        self, name: str, shape: Sequence[int], of: GraphTensor
    ) -> GraphTensor:
        """Declare a reshape view sharing another tensor's elements.

        The element counts must match (a reshape, not a slice). For
        dependence inference an access through a view aliases the whole
        base tensor: exactly when bound whole, conservatively when
        partitioned (the box algebra cannot follow a reshape).

        Raises:
            CypressError: duplicate name, unknown base, or an element
                count mismatch.
        """
        if name in self._tensors:
            raise CypressError(f"graph tensor {name!r} is already declared")
        if of.tensor.uid not in self._by_uid:
            raise CypressError(
                f"view base {of.name!r} is not declared on this builder"
            )
        size = 1
        for extent in shape:
            size *= extent
        if size != of.tensor.size:
            raise CypressError(
                f"view {name!r} of shape {tuple(shape)} has {size} elements "
                f"but base {of.name!r} has {of.tensor.size}"
            )
        out = GraphTensor(
            name, LogicalTensor(name, shape, of.dtype), base=of
        )
        self._tensors[name] = out
        self._by_uid[out.tensor.uid] = out
        self._fp_parts.append(("view", name, tuple(shape), of.name))
        return out

    # ------------------------------------------------------------------
    # Launch capture
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel: str,
        shape: Mapping[str, int],
        *,
        reads: Optional[Mapping[str, Any]] = None,
        writes: Optional[Mapping[str, Any]] = None,
        params: Optional[Dict[str, Any]] = None,
        after: Sequence[GraphNode] = (),
        label: str = "",
    ) -> GraphNode:
        """Record one kernel launch.

        Args:
            kernel: registered serving name (must exist in the
                registry).
            shape: the kernel's named shape dimensions, exactly as
                ``RuntimeServer.submit`` takes them.
            reads / writes: entrypoint tensor parameter name ->
                :class:`GraphTensor` or :class:`TensorRef` binding. The
                split must match the privileges the kernel's task
                declaration takes — a parameter the task writes must be
                bound under ``writes``.
            params: mapping parameters forwarded to the builder
                (tile shapes etc.); defaults apply otherwise.
            after: explicit sequencing edges from earlier launches, for
                ordering the regions cannot see (side channels).
            label: display name for reports.

        Returns:
            The captured :class:`GraphNode` (usable in ``after=``).

        Raises:
            CypressError: unknown kernel, malformed shape, a binding
                for an unknown parameter, a missing/extra binding, a
                privilege-direction mismatch, a shape mismatch between
                the bound reference and the kernel argument, or a
                binding whose tensor was not declared on this builder.
        """
        registered = self.registry.get(kernel)
        shape = dict(shape)
        plan = self._plan_for(registered, shape, params)
        build = plan.build
        bindings: Dict[str, Tuple[Any, bool]] = {}
        for mapping, is_write in ((reads or {}, False), (writes or {}, True)):
            for param, bound in mapping.items():
                if param in bindings:
                    raise CypressError(
                        f"parameter {param!r} of {kernel!r} is bound twice"
                    )
                bindings[param] = (bound, is_write)
        accesses = []
        refs: Dict[str, TensorRef] = {}
        fp_bindings: List[Any] = []
        if set(bindings) != plan.param_set:
            raise CypressError(
                f"kernel {kernel!r} entrypoint takes tensor parameters "
                f"{sorted(plan.param_set)}; got bindings for "
                f"{sorted(bindings)}"
            )
        by_uid = self._by_uid
        for param, p_reads, p_writes, p_value, arg_shape in plan.entries:
            bound, declared_write = bindings[param]
            if p_writes != declared_write:
                expected = "writes" if p_writes else "reads"
                raise CypressError(
                    f"parameter {param!r} of {kernel!r} takes privilege "
                    f"{p_value!r}; bind it under {expected}="
                )
            ref = bound.ref() if isinstance(bound, GraphTensor) else bound
            if not isinstance(ref, TensorRef):
                raise CypressError(
                    f"binding for {param!r} must be a GraphTensor or "
                    f"TensorRef, got {type(bound).__name__}"
                )
            owner = by_uid.get(ref.root.uid)
            if owner is None:
                raise CypressError(
                    f"binding for {param!r} references tensor "
                    f"{ref.root.name!r} not declared on this builder"
                )
            if tuple(ref.shape) != arg_shape:
                raise CypressError(
                    f"parameter {param!r} of {kernel!r} expects shape "
                    f"{arg_shape}, got a reference of shape "
                    f"{tuple(ref.shape)}"
                )
            refs[param] = ref
            # Region deferred to build() — None until a template miss
            # forces resolution (see _resolve_regions).
            accesses.append(
                Access(
                    param=param,
                    tensor=owner.root().name,
                    root_uid=owner.root().tensor.uid,
                    region=None,
                    reads=p_reads,
                    writes=p_writes,
                )
            )
            fp_bindings.append(
                (param, p_writes, self._ref_key(owner, ref))
            )
        node = GraphNode(
            uid=len(self._nodes),
            kernel=kernel,
            shape=shape,
            build=build,
            accesses=tuple(accesses),
            refs=refs,
            label=label,
        )
        for earlier in after:
            if (
                not isinstance(earlier, GraphNode)
                or earlier.uid >= node.uid
                or self._nodes[earlier.uid] is not earlier
            ):
                raise CypressError(
                    "after= must name launches captured earlier on this "
                    "builder"
                )
            self._manual_edges.append(
                GraphEdge(src=earlier.uid, dst=node.uid, kind=SEQ)
            )
        self._fp_parts.append(
            (plan.fp_static, tuple(fp_bindings), tuple(e.uid for e in after))
        )
        self._nodes.append(node)
        return node

    def _region_for(self, owner: GraphTensor, ref: TensorRef):
        """The element set one binding touches, in root coordinates."""
        root = owner.root()
        if owner.is_view:
            # A reshape breaks the box algebra's coordinate map: a
            # whole-view binding is exactly the whole base; anything
            # narrower is conservative.
            return tensor_region(root.shape) if ref.is_whole else None
        return ref_region(ref)

    def _resolve_regions(self) -> None:
        """Fill every captured access's deferred region (idempotent)."""
        if self._regions_resolved:
            return
        for node in self._nodes:
            node.accesses = tuple(
                dataclasses.replace(
                    access,
                    region=self._region_for(
                        self._by_uid[node.refs[access.param].root.uid],
                        node.refs[access.param],
                    ),
                )
                for access in node.accesses
            )
        self._regions_resolved = True

    def _ref_key(self, owner: GraphTensor, ref: TensorRef) -> Any:
        """A structural digest of one binding, for the fingerprint.

        Covers everything dependence inference reads from the binding:
        the owner tensor and, per partition-path step, the partition
        kind, grid, geometry (block shape / kept axes), and the index
        expressions. A partition kind the digest cannot describe
        disables templating for this capture (``_fp_ok=False``) —
        never a correctness risk, only a missed fast path.
        """
        steps: List[Any] = []
        for partition, index in ref.path:
            if isinstance(partition, BlocksPartition):
                geometry: Any = partition.block_shape
            elif isinstance(partition, SqueezePartition):
                geometry = partition.kept
            else:
                self._fp_ok = False
                geometry = None
            steps.append(
                (
                    partition.kind,
                    partition.grid,
                    geometry,
                    tuple(repr(e) for e in index),
                )
            )
        return (owner.name, tuple(steps))

    def _plan_for(
        self,
        registered,
        shape: Dict[str, int],
        params: Optional[Dict[str, Any]],
    ) -> "_LaunchPlan":
        """The memoized launch plan at one exact (shape, params).

        Building the kernel, resolving its entrypoint variant, and
        walking the per-parameter privileges costs far more than the
        rest of launch capture; a topology resubmitted every request
        repeats the exact same (kernel, shape, params) triples, so all
        of it is done once: this builder's memo is consulted first,
        then the template cache's plans. A ``build_*`` function is pure
        in its arguments and a task registry never re-registers a
        variant name, so a stored plan never goes stale.
        """
        key = (
            registered.name,
            tuple(sorted(shape.items())),
            canonicalize(params or {}),
        )
        plan = self._plan_memo.get(key)
        if plan is not None:
            return plan
        cache = self.template_cache
        shared_key = (
            key,
            registered.builder,
            registered.dims,
            canonicalize(registered.defaults),
            self._machine_key,
        )
        if cache is not None:
            plan = cache.plan(shared_key)
        if plan is None:
            missing = [d for d in registered.dims if d not in shape]
            extra = sorted(set(shape) - set(registered.dims))
            if missing or extra:
                raise CypressError(
                    f"kernel {registered.name!r} takes dimensions "
                    f"{registered.dims}; missing {missing or 'none'}, "
                    f"unknown {extra or 'none'}"
                )
            exact = Bucket(tuple((d, shape[d]) for d in registered.dims))
            build = registered.build(self.machine, exact, params)
            variant = build.spec.variant_of(build.spec.entrypoint)
            entries = tuple(
                (
                    param,
                    (privilege := variant.privilege_of(param)).reads,
                    privilege.writes,
                    privilege.value,
                    tuple(arg_shape),
                )
                for param, arg_shape in zip(
                    variant.tensor_params, build.arg_shapes
                )
            )
            plan = _LaunchPlan(
                build=build,
                entries=entries,
                param_set=frozenset(variant.tensor_params),
                fp_static=("launch", key[0], key[1], key[2], build.name),
            )
            if cache is not None:
                plan = cache.put_plan(shared_key, plan)
        self._plan_memo[key] = plan
        return plan

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def fingerprint(self) -> Optional[str]:
        """The capture's topology digest, or ``None`` when untemplatable.

        Two captures share a fingerprint exactly when they declare the
        same tensors/views and the same launch sequence (kernel, shape,
        params, built kernel, binding structure, privileges, explicit
        sequencing) on machines of equal content — everything dependence
        inference and critical-path weighting read, so equal
        fingerprints imply identical edges and priorities. Labels are
        display-only and excluded.
        """
        if not self._fp_ok:
            return None
        digest = hashlib.sha256(repr(self._fp_parts).encode())
        return digest.hexdigest()

    def build(self) -> TaskGraph:
        """Infer dependence edges and return the captured graph.

        With a template cache attached (the default), a capture whose
        :meth:`fingerprint` was built before replays the stored edges
        and critical path with zero region-algebra work: no region
        resolution, no dependence inference, no cycle re-validation, no
        cost-model walk. Replayed graphs carry ``region=None`` accesses
        — the regions were never computed. On a miss the full pipeline
        runs and its result is stored for the next capture.

        Raises:
            CypressError: no launches were captured, or explicit
                sequencing introduced a cycle.
        """
        if not self._nodes:
            raise CypressError("cannot build an empty task graph")
        tracer = self.tracer
        if not tracer.enabled:
            return self._build_graph()[0]
        with tracer.span(
            "graph.build", "graph", args={"nodes": len(self._nodes)}
        ) as span:
            graph, hit = self._build_graph()
            span.args["template"] = "hit" if hit else "miss"
        return graph

    def _build_graph(self) -> Tuple[TaskGraph, bool]:
        """Template lookup + (on miss) full inference; returns the
        graph and whether the template cache answered."""
        cache = self.template_cache
        fingerprint = self.fingerprint() if cache is not None else None
        if fingerprint is not None:
            template = cache.get(fingerprint, node_count=len(self._nodes))
            if template is not None:
                graph = TaskGraph(
                    self._nodes,
                    template.edges,
                    self.machine,
                    tensors=self._tensors,
                    validate=False,
                )
                graph._cached_critical_path = dict(template.critical_path)
                return graph, True
        self._resolve_regions()
        edges = list(self._manual_edges) + infer_edges(self._nodes)
        graph = TaskGraph(
            self._nodes, edges, self.machine, tensors=self._tensors
        )
        if fingerprint is not None:
            cache.put(
                fingerprint,
                GraphTemplate(
                    fingerprint=fingerprint,
                    node_count=len(self._nodes),
                    edges=graph.edges,
                    critical_path=dict(graph.critical_path()),
                ),
            )
        return graph, False

    def __len__(self) -> int:
        return len(self._nodes)
