"""Multi-kernel task graphs with region-inferred dependences.

A :class:`TaskGraph` is a DAG of kernel launches over shared root
tensors. Its edges are **inferred**, never user-declared: every launch
records one :class:`Access` per entrypoint tensor parameter (the
privilege comes from the kernel's task declaration, the element set
from the bound :class:`~repro.tensors.tensor.TensorRef` through the
symbolic region algebra), and :func:`infer_edges` intersects the
accesses of earlier launches with each new one — read-after-write,
write-after-read, and write-after-write conflicts become edges, exactly
the Legion-style dependence rule the paper applies *inside* one kernel,
lifted to whole-program scope.

Inference keeps a per-root **frontier** of live accesses; a write whose
region provably covers an earlier access retires that access (any later
conflict is ordered transitively through the new writer), so chains of
whole-tensor producers/consumers — the common case — infer in time
linear in the number of launches. Partition chains the region algebra
cannot describe (and reshape views, whose element correspondence is not
box-shaped) get ``region=None`` accesses and fall back to conservative
edges: ordered whenever privileges conflict, marked ``exact=False``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import CypressError
from repro.kernels.common import KernelBuild
from repro.tensors.regions import Region

#: Edge kinds: true dataflow, anti, output, and user-sequenced edges.
RAW = "RAW"
WAR = "WAR"
WAW = "WAW"
SEQ = "SEQ"


@dataclass(frozen=True)
class Access:
    """One launch's privilege over one root tensor.

    Attributes:
        param: entrypoint parameter name the binding fills.
        tensor: graph-level name of the root tensor accessed.
        root_uid: identity of the root ``LogicalTensor`` (views resolve
            to their base, so aliasing reshapes land on one root).
        region: element set in root coordinates, or ``None`` when the
            region algebra cannot describe the binding (conservative).
        reads / writes: the privilege the kernel's task declaration
            takes over this parameter.
    """

    param: str
    tensor: str
    root_uid: int
    region: Optional[Region]
    reads: bool
    writes: bool

    def conflicts_with(self, later: "Access") -> Optional[str]:
        """The dependence kind this access forces on a ``later`` one.

        Returns ``"RAW"``/``"WAR"``/``"WAW"`` when the privileges
        conflict (at least one side writes), ``None`` for read-read.
        Region overlap is checked separately.
        """
        if self.root_uid != later.root_uid:
            return None
        if self.writes and later.writes:
            return WAW
        if self.writes and later.reads:
            return RAW
        if self.reads and later.writes:
            return WAR
        return None

    def may_overlap(self, other: "Access") -> bool:
        """Do the two element sets possibly intersect?

        Exact (region algebra) when both regions are describable;
        conservatively ``True`` when either is ``None``.
        """
        if self.region is None or other.region is None:
            return True
        return self.region.intersects(other.region)


@dataclass(frozen=True)
class GraphEdge:
    """One inferred (or user-sequenced) dependence ``src -> dst``.

    Attributes:
        src / dst: node uids, ``src`` must complete before ``dst``.
        kind: ``"RAW"``, ``"WAR"``, ``"WAW"``, or ``"SEQ"`` (explicit
            ``after=`` sequencing).
        tensor: the root tensor the conflict is on (``None`` for SEQ).
        exact: ``True`` when the region algebra proved the overlap;
            ``False`` for conservative fallback edges.
    """

    src: int
    dst: int
    kind: str
    tensor: Optional[str] = None
    exact: bool = True


@dataclass
class GraphNode:
    """One captured kernel launch.

    Attributes:
        uid: dense launch index (program order).
        kernel: registered serving name (``"gemm"``, ...).
        shape: the launch's named shape dimensions.
        build: the exact-shape :class:`KernelBuild` (privileges and
            arg shapes; functional execution runs it).
        refs: parameter name -> bound tensor reference.
        label: display name (defaults to ``kernel#uid``).
        accesses: one :class:`Access` per entrypoint tensor parameter
            (a property). ``source(node)`` builds them on first read,
            since only dependence inference needs them and a graph
            replayed from a template never runs it.
    """

    uid: int
    kernel: str
    shape: Dict[str, int]
    build: KernelBuild
    refs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    source: Optional[Callable[["GraphNode"], Tuple[Access, ...]]] = field(
        default=None, repr=False, compare=False
    )
    _accesses: Optional[Tuple[Access, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.label:
            self.label = f"{self.kernel}#{self.uid}"

    @property
    def accesses(self) -> Tuple[Access, ...]:
        """The node's accesses, built by ``source`` on first read."""
        if self._accesses is None:
            self._accesses = self.source(self)
        return self._accesses

    @accesses.setter
    def accesses(self, value: Tuple[Access, ...]) -> None:
        self._accesses = value


def infer_edges(nodes: Sequence[GraphNode]) -> List[GraphEdge]:
    """Infer RAW/WAR/WAW edges between launches from their accesses.

    Walks launches in program order keeping, per root tensor, a
    frontier of live accesses split into writers and pure readers. A
    new read only scans the live writers (read-read pairs are never
    edges, so graphs fanning out over shared read-only tensors —
    weights — stay linear); a new write scans both lists. A write
    whose region covers a frontier entry retires it — later launches
    are ordered through the new writer transitively — which keeps
    producer/consumer chains linear instead of quadratic.

    Args:
        nodes: launches in program order (``uid`` ascending).

    Returns:
        The inferred edges, deduplicated per ``(src, dst, kind,
        tensor)``.
    """
    edges: List[GraphEdge] = []
    seen: set = set()
    writers: Dict[int, List[Tuple[GraphNode, Access]]] = {}
    readers: Dict[int, List[Tuple[GraphNode, Access]]] = {}
    for node in nodes:
        for access in node.accesses:
            live_writes = writers.setdefault(access.root_uid, [])
            live_reads = readers.setdefault(access.root_uid, [])
            against = (
                live_writes + live_reads if access.writes else live_writes
            )
            for earlier_node, earlier in against:
                if earlier_node.uid == node.uid:
                    continue  # a launch does not depend on itself
                kind = earlier.conflicts_with(access)
                if kind is None or not earlier.may_overlap(access):
                    continue
                exact = (
                    earlier.region is not None and access.region is not None
                )
                key = (earlier_node.uid, node.uid, kind, access.tensor)
                if key not in seen:
                    seen.add(key)
                    edges.append(
                        GraphEdge(
                            src=earlier_node.uid,
                            dst=node.uid,
                            kind=kind,
                            tensor=access.tensor,
                            exact=exact,
                        )
                    )
            if access.writes and access.region is not None:
                # Retire frontier entries this write covers: any later
                # conflict with them is ordered through this node.
                def survives(entry) -> bool:
                    earlier_node, earlier = entry
                    return (
                        earlier_node.uid == node.uid
                        or earlier.region is None
                        or not access.region.contains(earlier.region)
                    )

                writers[access.root_uid] = list(
                    filter(survives, live_writes)
                )
                readers[access.root_uid] = list(filter(survives, live_reads))
            target = writers if access.writes else readers
            target[access.root_uid].append((node, access))
    return edges


class TaskGraph:
    """A DAG of kernel launches plus the inferred dependence edges.

    Produced by :meth:`repro.graph.GraphBuilder.build`; consumed by
    :func:`repro.api.compile_graph` / :func:`repro.api.run_graph` and by
    :meth:`repro.runtime.RuntimeServer.submit_graph`. Construction
    validates acyclicity (explicit ``after=`` sequencing could
    otherwise smuggle a cycle in) and rejects edges naming unknown
    nodes; ``validate=False`` skips both checks for edges already
    proven acyclic — a :class:`~repro.graph.template.GraphTemplate`
    replay, whose edges were validated when the template was captured.
    """

    def __init__(
        self,
        nodes: Sequence[GraphNode],
        edges: Iterable[GraphEdge],
        tensors: Optional[Mapping[str, Any]] = None,
        validate: bool = True,
    ) -> None:
        self.nodes: Tuple[GraphNode, ...] = tuple(nodes)
        self.edges: Tuple[GraphEdge, ...] = tuple(edges)
        #: name -> GraphTensor for functional execution (may be empty
        #: for hand-constructed graphs, which then cannot carry data).
        self.tensors: Dict[str, Any] = dict(tensors or {})
        self._by_uid = {node.uid: node for node in self.nodes}
        if validate:
            if len(self._by_uid) != len(self.nodes):
                raise CypressError("task graph has duplicate node uids")
            for edge in self.edges:
                for endpoint in (edge.src, edge.dst):
                    if endpoint not in self._by_uid:
                        raise CypressError(
                            f"edge {edge.src}->{edge.dst} names unknown "
                            f"node {endpoint}"
                        )
        self._successors: Dict[int, List[int]] = {n.uid: [] for n in self.nodes}
        self._predecessors: Dict[int, List[int]] = {
            n.uid: [] for n in self.nodes
        }
        for edge in self.edges:
            if edge.dst not in self._successors[edge.src]:
                self._successors[edge.src].append(edge.dst)
            if edge.src not in self._predecessors[edge.dst]:
                self._predecessors[edge.dst].append(edge.src)
        if validate:
            self.topological_order()  # raises CypressError on a cycle

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def node(self, uid: int) -> GraphNode:
        """The node with the given uid.

        Raises:
            CypressError: unknown uid.
        """
        try:
            return self._by_uid[uid]
        except KeyError:
            raise CypressError(f"unknown graph node {uid}") from None

    def successors(self, uid: int) -> Tuple[int, ...]:
        """Uids this node's edges point to (deduplicated)."""
        return tuple(self._successors[uid])

    def predecessors(self, uid: int) -> Tuple[int, ...]:
        """Uids with an edge into this node (deduplicated)."""
        return tuple(self._predecessors[uid])

    def roots(self) -> Tuple[int, ...]:
        """Nodes with no predecessors, in uid order."""
        return tuple(
            n.uid for n in self.nodes if not self._predecessors[n.uid]
        )

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    def topological_order(self) -> List[int]:
        """A deterministic topological order of the node uids: among
        simultaneously-ready nodes the lowest uid goes first.

        Raises:
            CypressError: the graph contains a dependence cycle (the
                message names the nodes involved).
        """
        indegree = {uid: len(self._predecessors[uid]) for uid in self._by_uid}
        ready = sorted(uid for uid, degree in indegree.items() if not degree)
        order: List[int] = []
        while ready:
            uid = heapq.heappop(ready)
            order.append(uid)
            for succ in self._successors[uid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) != len(self.nodes):
            stuck = sorted(
                self._by_uid[uid].label
                for uid, degree in indegree.items()
                if degree > 0
            )
            raise CypressError(
                f"task graph contains a dependence cycle through: "
                f"{', '.join(stuck)}"
            )
        return order

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """A human-readable listing of nodes and inferred edges."""
        lines = [
            f"task graph: {len(self.nodes)} nodes, {len(self.edges)} edges"
        ]
        for node in self.nodes:
            preds = self._predecessors[node.uid]
            dep = (
                f" <- {{{', '.join(str(p) for p in sorted(preds))}}}"
                if preds
                else ""
            )
            lines.append(f"  [{node.uid}] {node.label}{dep}")
        for edge in self.edges:
            tag = "" if edge.exact else " (conservative)"
            on = f" on {edge.tensor}" if edge.tensor else ""
            lines.append(
                f"  {edge.src} -> {edge.dst}: {edge.kind}{on}{tag}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"TaskGraph(nodes={len(self.nodes)}, edges={len(self.edges)})"
        )
