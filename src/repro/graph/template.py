"""Graph templates: replay a captured topology with zero region work.

Capturing a task graph is cheap but not free: every launch resolves
its bindings through the symbolic region algebra, and ``build()`` runs
dependence inference. For a topology resubmitted every request — the
transformer block in a serving loop — that work is pure waste: the
structure is identical each time, so the edges are too.

A :class:`GraphTemplate` caches exactly that. While capturing,
:class:`~repro.graph.builder.GraphBuilder` folds every structural fact
that dependence inference depends on into a topology
**fingerprint**: tensor declarations (name, shape, dtype, view base),
per-launch kernel name, shape, canonicalized mapping parameters, the
built kernel's name, each binding's owner tensor and partition-path
structure, privilege direction, and explicit ``after=`` edges, plus
the machine's content (:meth:`~repro.machine.MachineModel.content_key`,
not just its name). The fingerprint is the tuple of those parts, not
a digest of them: the cache hashes and compares it as a dict key, so
two captures hit one template exactly when their parts are equal. On
``build()`` the fingerprint is looked up in a
:class:`GraphTemplateCache`:

* **miss** — regions are resolved, edges inferred, and the template
  stored;
* **hit** — the stored edges are replayed onto the freshly captured
  nodes with **zero region-algebra work**: no ``region_of``, no
  ``infer_edges``, no cycle re-validation.

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
from typing import Any, Hashable, Optional, Tuple

from repro.graph.taskgraph import GraphEdge


@dataclass(frozen=True)
class GraphTemplate:
    """The replayable part of one captured topology.

    Attributes:
        fingerprint: the structural key this template is stored under
            (:meth:`~repro.graph.builder.GraphBuilder.fingerprint`).
        edges: the inferred (plus manual) dependence edges, exactly as
            ``build()`` produced them on the miss that created this
            template.
    """

    fingerprint: Hashable
    edges: Tuple[GraphEdge, ...]


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
        #: key hash -> (key, template), least recently used first.
        self._entries: "OrderedDict[int, Tuple[Hashable, GraphTemplate]]" = (
            OrderedDict()
        )
        self._plans: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._scopes: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, fingerprint: Hashable) -> Optional[GraphTemplate]:
        """Look up a template by its topology key (LRU-touching it);
        ``None`` on miss. Keys compare by equality, so a hit is never a
        collision.

        The table is indexed by the key's hash, so a lookup hashes the
        key once and compares it with the stored key once; a key whose
        hash equals a stored key's replaces that entry when stored."""
        code = hash(fingerprint)
        with self._lock:
            entry = self._entries.get(code)
            if entry is not None and entry[0] == fingerprint:
                self._entries.move_to_end(code)
                self.stats.hits += 1
                return entry[1]
            self.stats.misses += 1
            return None

    def put(self, fingerprint: Hashable, template: GraphTemplate) -> None:
        """Store a template, evicting the LRU entry over capacity."""
        code = hash(fingerprint)
        with self._lock:
            self._entries[code] = (fingerprint, template)
            self._entries.move_to_end(code)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def scope(self, parts: Hashable) -> object:
        """The token standing for ``parts`` at the head of plan keys.

        A builder resolves what its plans depend on beyond the launch
        itself (the registered builder, its dimensions and defaults,
        the machine's content) to a token once per kernel, so its plan
        keys hash and compare the token, by identity, instead of those
        parts. Equal parts get the one token while it is kept (the
        least recently used of ``capacity`` tokens is dropped, after
        which equal parts get a new one and rebuild their plans).
        """
        with self._lock:
            token = self._scopes.get(parts)
            if token is None:
                token = self._scopes[parts] = object()
                while len(self._scopes) > self.capacity:
                    self._scopes.popitem(last=False)
            else:
                self._scopes.move_to_end(parts)
            return token

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
        """Drop every template, plan and scope token, and reset the
        counters."""
        with self._lock:
            self._entries.clear()
            self._plans.clear()
            self._scopes.clear()
            self.stats = TemplateCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: Hashable) -> bool:
        code = hash(fingerprint)
        with self._lock:
            entry = self._entries.get(code)
            return entry is not None and entry[0] == fingerprint


#: The process-wide template cache every ``GraphBuilder`` shares by
#: default — capture a topology once anywhere, replay it everywhere.
template_cache = GraphTemplateCache()
