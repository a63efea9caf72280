"""Every module under ``src/repro`` is reachable, and the core imports down.

For each module that is not a package ``__init__``, at least one of its
top-level names (a function, class or assigned name) must appear in some
other file under ``src/``, ``bench/`` or ``examples/``. Package
``__init__`` files do not count, so a re-export alone does not keep a
module alive. This is a floor, not a proof — a name in a comment counts
— but a module no compile, simulation, served request or figure can
reach no longer grows back unnoticed.

The compiler core — the layers a compile runs through — imports nothing
from the layers built on it (:data:`CORE`, :data:`UPPER`), counting
imports inside functions, so a compile loads no serving or ops module.

Run both against another checkout with
``python tests/test_reachability.py <repo root>``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MENTIONING_DIRS = ("src", "bench", "examples")

#: Packages (and one module) of the compiler core, under ``src/repro``.
CORE = (
    "compiler", "frontend", "ir", "tensors", "gpusim", "machine", "sym",
    "kernels", "numbering.py",
)
#: What the core may not import.
UPPER = ("repro.obs", "repro.runtime", "repro.graph", "repro.tuner",
         "repro.api")
#: ``bench`` imports ``transformer_block_graph`` from ``repro.kernels``;
#: it builds its graph with a function-level ``GraphBuilder`` import.
ALLOWED_UP = {("kernels/transformer_block.py", "repro.graph")}


def _top_level_names(path):
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def unreached_modules(root=ROOT):
    """Modules under ``src/repro`` none of whose names another file mentions."""
    package = root / "src" / "repro"
    texts = {
        path: path.read_text()
        for folder in MENTIONING_DIRS
        for path in sorted((root / folder).rglob("*.py"))
        if path.name != "__init__.py"
    }
    unreached = []
    for module in sorted(package.rglob("*.py")):
        if module.name == "__init__.py":
            continue
        names = sorted(_top_level_names(module))
        mention = re.compile(r"\b(?:%s)\b" % "|".join(map(re.escape, names)))
        if not names or not any(
            mention.search(text) for path, text in texts.items() if path != module
        ):
            unreached.append(module.relative_to(package).as_posix())
    return unreached


def _imported(node):
    """Dotted names an import statement binds, submodules included."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [
            f"{node.module}.{alias.name}" for alias in node.names
        ]
    return []


def upward_imports(root=ROOT):
    """``path:line`` of each core import of a layer above the core."""
    package = root / "src" / "repro"
    found = []
    for module in sorted(package.rglob("*.py")):
        rel = module.relative_to(package).as_posix()
        if rel.split("/")[0] not in CORE:
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            upper = {
                layer
                for name in _imported(node)
                for layer in UPPER
                if name == layer or name.startswith(layer + ".")
            }
            if upper - {layer for path, layer in ALLOWED_UP if path == rel}:
                found.append(f"{rel}:{node.lineno}")
    return found


def test_every_module_is_mentioned_from_outside_itself():
    assert unreached_modules() == []


def test_the_compiler_core_imports_no_layer_above_it():
    assert upward_imports() == []


def test_a_compile_loads_no_serving_or_ops_module():
    script = (
        "import sys\n"
        "from repro.compiler.pipeline import build_step\n"
        "from repro.kernels import build_gemm\n"
        "from repro.machine import hopper_machine\n"
        "build = build_gemm(hopper_machine(), 256, 256, 128, tile_m=128)\n"
        "build_step(build)[1]()\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] in (['repro', 'obs'],\n"
        "                                     ['repro', 'runtime'])))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


if __name__ == "__main__":
    checkout = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT
    for name in unreached_modules(checkout) + upward_imports(checkout):
        print(name)
