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
(:mod:`repro.tensors.regions`); a binding whose region is unknown at
capture — a piece of a reshape view, or a symbolically indexed piece —
degrades to conservative edges rather than being rejected.
"""

from __future__ import annotations

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
from repro.tensors.regions import region_of, tensor_region
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


class _SharedZoo(KernelRegistry):
    """The zoo registry every :class:`GraphBuilder` given none shares:
    built once, and read-only, since a kernel registered on it would
    reach every other builder."""

    def __init__(self) -> None:
        super().__init__()
        self._kernels = default_registry()._kernels

    def register(self, name: str, *args: Any, **kwargs: Any) -> Any:
        raise CypressError(
            f"cannot register {name!r} on the zoo registry GraphBuilders "
            "share; pass GraphBuilder(registry=...) a registry of your own"
        )


_ZOO = _SharedZoo()


class GraphBuilder:
    """Records kernel launches and builds a :class:`TaskGraph`.

    Args:
        machine: the machine launches will compile for. Kernel builds
            need it, and its content (``content_key()``, read once per
            builder) keys this builder's launch plans and fingerprint.
        registry: servable kernels to launch; defaults to the full zoo
            (:func:`~repro.runtime.registry.default_registry`), one
            read-only registry every such builder shares. Launch
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
        self.registry = registry if registry is not None else _ZOO
        self.template_cache = template_cache
        self._tensors: Dict[str, GraphTensor] = {}
        self._by_uid: Dict[int, GraphTensor] = {}
        self._nodes: list = []
        self._plan_memo: Dict[Any, "_LaunchPlan"] = {}
        #: Registered name -> the template cache's scope token for it.
        self._scopes: Dict[str, Any] = {}
        self._machine_key = machine.content_key()
        # Topology fingerprint, folded in incrementally as tensors are
        # declared and launches captured. `_fp_ok` drops to False when a
        # binding's structure cannot be described (unknown partition
        # kinds) — such captures never use the template cache.
        self._fp_parts: List[Any] = [("machine", self._machine_key)]
        self._fp_ok = True
        # What only a template miss reads is kept in its cheapest form:
        # per node, the plan it was captured from (its accesses are
        # built from it when read, through ``GraphNode.source``) and
        # the uids its ``after=`` names (SEQ edges, built by build()).
        # `_resolved` counts the nodes given region-resolved accesses.
        self._node_plans: List[_LaunchPlan] = []
        self._after: List[Tuple[int, ...]] = []
        self._resolved = 0
        self._source = self._accesses_of

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
            CypressError: unknown kernel, malformed shape (an extent
                not a positive ``int``, a missing or unknown
                dimension), a binding
                for an unknown parameter, a missing/extra binding, a
                privilege-direction mismatch, a shape mismatch between
                the bound reference and the kernel argument, or a
                binding whose tensor was not declared on this builder.
        """
        registered = self.registry.get(kernel)
        shape = dict(shape)
        for name, value in shape.items():
            # Before the plan memo: ``512.0 == 512`` would otherwise
            # find, or leave, a plan under the other extent's key.
            if type(value) is not int or value < 1:
                raise CypressError(
                    f"shape dimension {name!r} must be a positive "
                    f"integer, got {value!r}"
                )
        plan = self._plan_for(registered, shape, params)
        reads = reads or {}
        writes = writes or {}
        for param in writes:
            if param in reads:
                raise CypressError(
                    f"parameter {param!r} of {kernel!r} is bound twice"
                )
        bound_params = reads.keys() | writes.keys()
        if bound_params != plan.param_set:
            raise CypressError(
                f"kernel {kernel!r} entrypoint takes tensor parameters "
                f"{sorted(plan.param_set)}; got bindings for "
                f"{sorted(bound_params)}"
            )
        refs: Dict[str, TensorRef] = {}
        fp_bindings: List[Any] = []
        by_uid = self._by_uid
        for param, _, p_writes, p_value, arg_shape in plan.entries:
            declared = writes if p_writes else reads
            if param not in declared:
                expected = "writes" if p_writes else "reads"
                raise CypressError(
                    f"parameter {param!r} of {kernel!r} takes privilege "
                    f"{p_value!r}; bind it under {expected}="
                )
            bound = declared[param]
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
            fp_bindings.append(
                (param, p_writes, self._ref_key(owner, ref))
            )
        node = GraphNode(
            uid=len(self._nodes),
            kernel=kernel,
            shape=shape,
            build=plan.build,
            refs=refs,
            label=label,
            source=self._source,
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
        sequenced = tuple(earlier.uid for earlier in after) if after else ()
        self._fp_parts.append((plan.fp_static, tuple(fp_bindings), sequenced))
        self._nodes.append(node)
        self._node_plans.append(plan)
        self._after.append(sequenced)
        return node

    def _region_for(self, owner: GraphTensor, ref: TensorRef):
        """The element set one binding touches, in root coordinates."""
        root = owner.root()
        if owner.is_view:
            # A reshape breaks the box algebra's coordinate map: a
            # whole-view binding is exactly the whole base; anything
            # narrower is conservative.
            return tensor_region(root.shape) if ref.is_whole else None
        try:
            return region_of(ref)
        except KeyError:
            return None  # a symbolic index: conservative edges

    def _accesses_of(
        self, node: GraphNode, regions: bool = False
    ) -> Tuple[Access, ...]:
        """One access per entrypoint tensor parameter of ``node``, in
        root coordinates; each region is resolved only with
        ``regions`` (``None`` otherwise: conservative)."""
        accesses = []
        entries = self._node_plans[node.uid].entries
        for param, p_reads, p_writes, _, _ in entries:
            ref = node.refs[param]
            owner = self._by_uid[ref.root.uid]
            root = owner.root()
            accesses.append(
                Access(
                    param=param,
                    tensor=root.name,
                    root_uid=root.tensor.uid,
                    region=self._region_for(owner, ref) if regions else None,
                    reads=p_reads,
                    writes=p_writes,
                )
            )
        return tuple(accesses)

    def _resolve_accesses(self) -> None:
        """Give each node captured since the last call its accesses with
        their regions resolved: what dependence inference reads."""
        for node in self._nodes[self._resolved:]:
            node.accesses = self._accesses_of(node, regions=True)
        self._resolved = len(self._nodes)

    def _ref_key(self, owner: GraphTensor, ref: TensorRef) -> Any:
        """A structural digest of one binding, for the fingerprint.

        Covers everything dependence inference reads from the binding:
        the owner tensor and, per partition-path step, the partition
        kind, grid, geometry (block shape / kept axes), and the index
        expressions. A partition kind the digest cannot describe
        disables templating for this capture (``_fp_ok=False``) —
        never a correctness risk, only a missed fast path.
        """
        if not ref.path:
            return (owner.name, ())
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

        A shared plan's key is ``(scope, launch key)``: the scope is the
        cache's token for what the build depends on beyond the launch
        (the registered builder, its dimensions and defaults, the
        machine's content), resolved once per kernel per builder, so a
        launch hashes and compares neither the defaults nor the
        machine's content tuple.
        """
        key = (
            registered.name,
            tuple(sorted(shape.items())),
            canonicalize(params) if params else (),
        )
        plan = self._plan_memo.get(key)
        if plan is not None:
            return plan
        cache = self.template_cache
        if cache is not None:
            scope = self._scopes.get(registered.name)
            if scope is None:
                scope = self._scopes[registered.name] = cache.scope(
                    (
                        registered.builder,
                        registered.dims,
                        canonicalize(registered.defaults),
                        self._machine_key,
                    )
                )
            shared_key = (scope, key)
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
    def fingerprint(self) -> Optional[Tuple[Any, ...]]:
        """The capture's topology key, or ``None`` when untemplatable.

        The key is the tuple of the parts folded in while capturing, so
        the template cache hashes and compares it directly. Two captures
        share a key exactly when they declare the same tensors/views and
        the same launch sequence (kernel, shape, params, built kernel,
        binding structure, privileges, explicit sequencing) on machines
        of equal content — everything dependence inference reads, so
        equal keys imply identical edges. Labels are display-only and
        excluded.
        """
        if not self._fp_ok:
            return None
        return tuple(self._fp_parts)

    def build(self) -> TaskGraph:
        """Infer dependence edges and return the captured graph.

        With a template cache attached (the default), a capture whose
        :meth:`fingerprint` was built before replays the stored edges
        with zero region-algebra work: no region resolution, no
        dependence inference, no cycle re-validation. Replayed graphs
        carry ``region=None`` accesses — the regions were never
        computed. On a miss the full pipeline runs and its result is
        stored for the next capture.

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
            template = cache.get(fingerprint)
            if template is not None:
                graph = TaskGraph(
                    self._nodes,
                    template.edges,
                    tensors=self._tensors,
                    validate=False,
                )
                return graph, True
        self._resolve_accesses()
        edges = [
            GraphEdge(src=src, dst=dst, kind=SEQ)
            for dst, sources in enumerate(self._after)
            for src in sources
        ]
        edges += infer_edges(self._nodes)
        graph = TaskGraph(self._nodes, edges, tensors=self._tensors)
        if fingerprint is not None:
            cache.put(
                fingerprint,
                GraphTemplate(fingerprint=fingerprint, edges=graph.edges),
            )
        return graph, False

    def __len__(self) -> int:
        return len(self._nodes)
