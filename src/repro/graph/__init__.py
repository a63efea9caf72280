"""repro.graph — multi-kernel task graphs over the serving runtime.

Real workloads are DAGs of kernel launches over shared tensors — a
transformer block is attention plus four projection/MLP GEMMs — and
hand-ordering those launches serializes branches that are provably
independent. This package lifts the paper's intra-kernel dependence
analysis to whole programs:

* :mod:`~repro.graph.builder` — :class:`GraphBuilder`: declare named
  root tensors, record launches of registered kernels with per-argument
  bindings; privileges come from each kernel's own task declaration.
* :mod:`~repro.graph.taskgraph` — :class:`TaskGraph`: RAW/WAR/WAW
  edges *inferred* by intersecting access regions through the symbolic
  region algebra (conservative fallback when a binding is not
  box-describable), deterministic topological order, cycle detection.
* :mod:`~repro.graph.scheduler` — :class:`GraphScheduler`: executes
  ready nodes concurrently on a :class:`~repro.runtime.RuntimeServer`
  (bucketing and micro-batching preserved), with optional
  producer->consumer dataflow.
* :mod:`~repro.graph.template` — :class:`GraphTemplate` /
  :class:`GraphTemplateCache`: a resubmitted topology replays its
  stored edges from a structural fingerprint with zero region-algebra
  work per launch.

Entry points: :func:`repro.api.compile_graph` /
:func:`repro.api.run_graph` for one-shot use,
:meth:`repro.runtime.RuntimeServer.submit_graph` for serving. See
``docs/graphs.md`` for the walkthrough.
"""

from repro.graph.builder import GraphBuilder, GraphTensor
from repro.graph.scheduler import (
    GraphExecution,
    GraphResult,
    GraphScheduler,
    materialize_root_arrays,
)
from repro.graph.taskgraph import (
    RAW,
    SEQ,
    WAR,
    WAW,
    Access,
    GraphEdge,
    GraphNode,
    TaskGraph,
    infer_edges,
)
from repro.graph.template import (
    GraphTemplate,
    GraphTemplateCache,
    TemplateCacheStats,
    template_cache,
)

__all__ = [
    "Access",
    "GraphBuilder",
    "GraphEdge",
    "GraphExecution",
    "GraphNode",
    "GraphResult",
    "GraphScheduler",
    "GraphTemplate",
    "GraphTemplateCache",
    "GraphTensor",
    "RAW",
    "SEQ",
    "TaskGraph",
    "TemplateCacheStats",
    "WAR",
    "WAW",
    "infer_edges",
    "materialize_root_arrays",
    "template_cache",
]
