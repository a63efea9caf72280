"""Every piece of process-wide state under ``src/repro``, with its reason.

No module rebinds a module-level name after import: no ``global``
statement is left under ``src/repro``. A module-level name counts as
state when, after import, it holds a mutable object. These do not
count as mutable: a class, a function or a module; a str, bytes,
number, bool or ``None``; a tuple or frozenset; an enum member; a
compiled pattern; an instance of a frozen dataclass; a ``typing``
alias. Dunder names (``__all__``, ``__version__``) are module metadata
and are skipped.

:data:`STATE` pins every such name to a one-line reason. A new piece of
state fails this test until the dict is edited in the same change, and
so does a deleted one — so adding a process-wide name is a decision a
reviewer sees.
"""

import ast
import dataclasses
import enum
import importlib
import re
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

TABLE = "constant lookup table: filled at import, only read"
IMPORT_TIME = "registry filled at import by the modules that define entries"
NO_OP = "stateless no-op stand-in shared by every caller"
BENCH = "bench/ reads it; only a [benchmark] change may move it"

STATE = {
    "compiler.cache.compile_cache": BENCH + " (api.*_compile_cache)",
    "compiler.cache.score_cache": BENCH + " (score(memoize=False))",
    "compiler.codegen_cuda._SYNC": TABLE,
    "compiler.passes.PASS_REGISTRY": IMPORT_TIME,
    "frontend.context._tls": "the task-tree trace running on this thread",
    "gpusim.functional._PROC_LEVELS": TABLE,
    "graph.builder._ZOO":
        "the zoo registry GraphBuilders given none share; register raises",
    "graph.template.template_cache":
        BENCH + " (template_cache.clear()); holds templates and plans",
    "ir.events.BROADCAST": "the [:] event-index singleton; holds no data",
    "kernels.KERNEL_BUILDERS": IMPORT_TIME,
    "kernels.common.kernel_registry": IMPORT_TIME,
    "machine.ampere.A100_SPECS": TABLE,
    "machine.hopper.H100_SPECS": TABLE,
    "numbering._process": (
        "numbers IR built outside a compile: graph capture, baseline "
        "schedules, hand-built IR in tests"
    ),
    "numbering._tls": "the numbering of the compile running on this thread",
    "obs.metrics._HELP_ESCAPES": TABLE,
    "obs.metrics._LABEL_ESCAPES": TABLE,
    "obs.trace.NULL_TRACER": NO_OP,
    "obs.trace._NULL_CONTEXT": NO_OP,
    "runtime.registry._ATTN_ALIGN": TABLE,
    "runtime.registry._GEMM_ALIGN": TABLE,
    "sym.expr._OPS": TABLE,
}

_IMMUTABLE = (
    type,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.ModuleType,
    str,
    bytes,
    int,
    float,
    complex,
    type(None),
    tuple,
    frozenset,
    enum.Enum,
    re.Pattern,
)


def _immutable(value):
    if isinstance(value, _IMMUTABLE) or type(value).__module__ == "typing":
        return True
    return (
        dataclasses.is_dataclass(value)
        and not isinstance(value, type)
        and value.__dataclass_params__.frozen
    )


def _module_names(tree):
    """Top-level assigned names."""
    assigned = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            assigned.update(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            assigned.add(node.target.id)
    return assigned


def process_state():
    """``module.name`` of every piece of state under ``src/repro``."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(("repro",) + parts))
        for name in _module_names(ast.parse(path.read_text())):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not _immutable(getattr(module, name)):
                found.add(".".join(parts + (name,)))
    return found


def test_every_piece_of_state_is_pinned_with_a_reason():
    found = process_state()
    assert sorted(found - set(STATE)) == [], "new state: pin it with a reason"
    assert sorted(set(STATE) - found) == [], "gone: drop it from STATE"


def test_no_module_rebinds_a_global():
    """No ``global`` statement under ``src/repro``: a module-level name
    is bound once, at import, and what changes is held by an object."""
    rebinding = sorted(
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*.py")
        if any(
            isinstance(node, ast.Global)
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert rebinding == []
