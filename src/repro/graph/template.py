"""Graph templates: replay a captured topology with zero region work.

Capturing a task graph is cheap but not free: every launch resolves
its bindings through the symbolic region algebra, and ``build()`` runs
dependence inference plus a cost-model critical path. For a topology
resubmitted every request — the transformer block in a serving loop —
that work is pure waste: the structure is identical each time, so the
edges and priorities are too.

A :class:`GraphTemplate` caches exactly that. While capturing,
:class:`~repro.graph.builder.GraphBuilder` folds every structural fact
that dependence inference and scheduling depend on into a topology
**fingerprint**: tensor declarations (name, shape, dtype, view base),
per-launch kernel name, shape, canonicalized mapping parameters, the
built kernel's name, each binding's owner tensor and partition-path
structure, privilege direction, and explicit ``after=`` edges, plus
the machine's content (:meth:`~repro.machine.MachineModel.content_key`,
not just its name). On ``build()`` the fingerprint is looked up in a
:class:`GraphTemplateCache`:

* **miss** — regions are resolved, edges inferred, the critical path
  computed once, and the template stored;
* **hit** — the precomputed edges and critical path are replayed onto
  the freshly captured nodes with **zero region-algebra work**: no
  ``ref_region``, no ``infer_edges``, no cycle re-validation, no
  cost-model walk.

The fingerprint covers everything edge inference reads, so structural
equality implies identical edges; bindings whose structure the
fingerprint cannot describe (symbolic partition indices of unknown
kinds) simply disable templating for that capture — correctness never
depends on a template hit. Accesses on a replayed graph carry
``region=None`` (the regions were never computed); re-running
``infer_edges`` on them by hand would be conservative, but the replayed
``TaskGraph.edges`` are the exact ones captured at miss time.

The cache also holds the **launch plans** a capture's nodes are built
from: per ``(kernel, exact shape, params)`` on one machine, the
exact-shape kernel build and its entrypoint's privilege table (see
:meth:`GraphTemplateCache.plan`). A re-captured topology therefore
builds no kernel either — the analysis runs once, as Legion's dynamic
tracing memoizes it, and each replay only re-checks its bindings
against the stored plans.

The process-wide :data:`template_cache` is shared by every
``GraphBuilder`` by default; pass ``template_cache=None`` to a builder
to opt out (it then shares neither templates nor plans), or a private
cache to isolate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.graph.taskgraph import GraphEdge


@dataclass(frozen=True)
class GraphTemplate:
    """The replayable part of one captured topology.

    Attributes:
        fingerprint: the structural digest this template is keyed on.
        node_count: number of launches in the topology (sanity check —
            a fingerprint hit with a different count is a collision and
            is treated as a miss).
        edges: the inferred (plus manual) dependence edges, exactly as
            ``build()`` produced them on the miss that created this
            template.
        critical_path: longest-path-to-sink per node uid under the
            default analytic cost model — the scheduler's priorities.
    """

    fingerprint: str
    node_count: int
    edges: Tuple[GraphEdge, ...]
    critical_path: Dict[int, float]


@dataclass
class TemplateCacheStats:
    """Counters for one :class:`GraphTemplateCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups: hits + misses."""
        return self.hits + self.misses


class GraphTemplateCache:
    """A bounded, thread-safe LRU of :class:`GraphTemplate` values, and
    beside it one of launch plans.

    A launch plan is what :class:`~repro.graph.builder.GraphBuilder`
    derives from one ``(kernel, exact shape, params)`` on one machine:
    the kernel build and its entrypoint's privilege table. Its key
    names everything the build depends on (the registered builder, its
    dimensions and defaults, the machine's content, the shape and the
    params), so a plan is shared by every builder that would build the
    same thing. :meth:`clear` drops both tables; :attr:`stats` counts
    template lookups only.

    Args:
        capacity: templates kept, and plans kept; in each table the
            least recently used entry is evicted.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.stats = TemplateCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, GraphTemplate]" = OrderedDict()
        self._plans: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(
        self, fingerprint: str, node_count: Optional[int] = None
    ) -> Optional[GraphTemplate]:
        """Look up a template (LRU-touching it); ``None`` on miss.

        Args:
            fingerprint: the topology digest.
            node_count: when given, a stored template with a different
                launch count is treated as a miss (collision guard).
        """
        with self._lock:
            template = self._entries.get(fingerprint)
            if template is not None and (
                node_count is None or template.node_count == node_count
            ):
                self._entries.move_to_end(fingerprint)
                self.stats.hits += 1
                return template
            self.stats.misses += 1
            return None

    def put(self, fingerprint: str, template: GraphTemplate) -> None:
        """Store a template, evicting the LRU entry over capacity."""
        with self._lock:
            self._entries[fingerprint] = template
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def plan(self, key: Hashable) -> Any:
        """The launch plan stored under ``key`` (LRU-touching it);
        ``None`` when there is none."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
            return plan

    def put_plan(self, key: Hashable, plan: Any) -> Any:
        """Store a launch plan unless one is already stored under
        ``key``, evicting the LRU plan over capacity; returns the stored
        plan, so builders racing on one key end up sharing one."""
        with self._lock:
            stored = self._plans.setdefault(key, plan)
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
            return stored

    def clear(self) -> None:
        """Drop every template and plan, and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._plans.clear()
            self.stats = TemplateCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries


#: The process-wide template cache every ``GraphBuilder`` shares by
#: default — capture a topology once anywhere, replay it everywhere.
template_cache = GraphTemplateCache()
